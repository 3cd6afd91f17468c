// The pipeline benchmark harness: fixed-input workloads replayed in rounds
// against fresh engines, per-call latency capture, spans for the traced run,
// output checks and the metric report.
//
// A run of one workload:
//   1. Rounds cycle through the workload's input streams, each generated
//      (untimed) from a seed derived from --seed. Round 0 warms caches and
//      the allocator and is not reported. Every round sets up fresh engines
//      (several times, each timed as a setup sample) and replays its whole
//      stream as a closed loop of ingest calls from one writer thread.
//      Rounds repeat until every stream was measured, enough calls were
//      measured for the 99th percentile, and --seconds of measured rounds
//      have run.
//   2. Check the last round's outputs against an independent oracle (plus,
//      per workload, a checkpoint round trip and snapshot reads).
//   3. Print a report, then the result as one JSON line: end-to-end metrics
//      in the untraced run, per-layer metrics in the traced one.
#ifndef DBTOASTER_BENCH_PIPELINE_HARNESS_H_
#define DBTOASTER_BENCH_PIPELINE_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/codegen/dbtoaster_runtime.h"
#include "src/common/status.h"
#include "src/runtime/stream_engine.h"

namespace dbtoaster::pipeline {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Prefix of the trace file (`<out>.trace.json`, traced run only).
  std::string out = "bench_pipeline";
  /// Directory for batch logs and checkpoints; the run removes what it
  /// writes there.
  std::string scratch = ".";
};

/// Independent generator seed for input stream `stream` of run seed `seed`.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Log-linear latency histogram: 256 buckets per power of two (0.4%
/// relative width), so every call of a run is counted in constant memory.
/// Quantiles interpolate by rank within the bucket.
class LatencyHistogram {
 public:
  void Add(int64_t ns);
  void Merge(const LatencyHistogram& other);
  /// 0 when empty.
  double QuantileNs(double q) const;
  uint64_t count() const { return total_; }

 private:
  static constexpr int kSubBits = 8;
  static size_t Index(uint64_t v);
  static double Lower(size_t bucket);  ///< smallest value of a bucket

  std::array<uint64_t, (64 - kSubBits + 1) << kSubBits> counts_{};
  uint64_t total_ = 0;
};

// ---- spans ------------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root span
  uint32_t name = 0;
  uint32_t thread = 0;
  uint64_t call = 0;  ///< ingest call index (read index on reader threads)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's spans, in begin order. Only its owner thread touches it
/// while a round runs.
class TraceBuffer {
 public:
  explicit TraceBuffer(uint32_t thread) : thread_(thread) {}

  size_t Begin(uint32_t name, uint64_t call);
  void End(size_t index);
  const std::vector<Span>& spans() const { return spans_; }
  void Clear() {
    spans_.clear();
    open_.clear();
  }

 private:
  uint32_t thread_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  ///< indices of unfinished spans (nesting)
};

class Tracer {
 public:
  uint32_t Intern(const std::string& name);
  std::string NameOf(uint32_t id) const;
  /// Every interned name, indexed by id.
  std::vector<std::string> names() const;
  /// A buffer for one thread; stable for the tracer's lifetime.
  TraceBuffer* NewBuffer();
  /// Every buffer (read between rounds, with no thread recording).
  std::vector<const TraceBuffer*> buffers() const;
  void ClearAll();

 private:
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> ids_;
  std::deque<TraceBuffer> buffers_;
};

/// RAII span around one call into a layer; a no-op when `buf` is null (the
/// untraced run).
class SpanScope {
 public:
  SpanScope(TraceBuffer* buf, uint32_t name, uint64_t call) : buf_(buf) {
    if (buf_ != nullptr) index_ = buf_->Begin(name, call);
  }
  ~SpanScope() {
    if (buf_ != nullptr) buf_->End(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  TraceBuffer* buf_;
  size_t index_ = 0;
};

// ---- run context --------------------------------------------------------------

/// Attempted and failed operations: ingest, log and checkpoint calls,
/// snapshot reads and output checks. Writer thread only; reader threads
/// count locally and Add() after they are joined.
class Ops {
 public:
  /// Count one operation; false (and a logged failure) unless `ok`.
  bool Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) Fail(1, what);
    return ok;
  }
  bool Record(const Status& st, const std::string& what) {
    ++attempted_;
    if (!st.ok()) Fail(1, what + ": " + st.ToString());
    return st.ok();
  }
  /// Merge `attempted` operations of which `failed` failed.
  void Add(uint64_t attempted, uint64_t failed, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  void Fail(uint64_t n, const std::string& what);

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

struct Ctx {
  explicit Ctx(const Options& o) : opt(o) {}

  const Options& opt;
  Ops ops;
  std::unique_ptr<Tracer> tracer;  ///< traced run only
  TraceBuffer* writer = nullptr;   ///< the ingest thread's buffer
  uint64_t call = 0;               ///< current ingest call (span tag)
  uint32_t validate_span = 0;
  /// Per-layer latencies taken beside the spans: "publish", "read",
  /// "reader_late".
  std::map<std::string, LatencyHistogram> latency;
  /// Per-layer values with a few samples per run: "checkpoint_write_ms",
  /// "recovery_ms", "checkpoint_mb". Reported as their median.
  std::map<std::string, std::vector<double>> samples;

  uint32_t Name(const std::string& name) {
    return tracer ? tracer->Intern(name) : 0;
  }
};

// ---- engines ------------------------------------------------------------------

/// A bench query script: its catalog and standing query.
struct QueryScript {
  std::string name;
  Catalog catalog;
  std::string sql;
};

/// Parse bench/queries/<name>.sql, or bench_pipeline/queries/<name>.sql
/// (schemas plus one query).
Result<QueryScript> LoadQueryScript(const std::string& name);

using ProgramFactory = std::function<std::unique_ptr<dbt::StreamProgram>()>;

/// One measured engine: a dbtc-generated program (toaster-c, spans
/// "codegen.<query>.apply") or the trigger interpreter (toaster-i, spans
/// "engine.<query>.apply").
struct EngineSlot {
  std::string query;
  std::string view;
  ProgramFactory make_program;         ///< toaster-c: builds a fresh program
  const QueryScript* script = nullptr;  ///< toaster-i: what it compiles
  std::unique_ptr<dbt::StreamProgram> program;
  std::unique_ptr<runtime::StreamEngine> engine;
  std::vector<std::string> relations;  ///< relations it ingests (upper case)
  uint32_t span = 0;
};

EngineSlot CompiledSlot(const std::string& query, ProgramFactory make,
                        Ctx& ctx);
/// Compiles the script in-process (CompileQuery), inside a
/// "compiler.<query>.compile" span.
Result<EngineSlot> InterpretedSlot(const QueryScript* script, Ctx& ctx);

/// A view's rows, sorted: the form views are compared in.
using Rows = std::vector<std::pair<Row, int64_t>>;
Result<Rows> SortedView(const EngineSlot& slot);

/// Relation -> indices of the engines that ingest it. Relation names match
/// exactly; the generators emit the catalogs' upper-case names.
class Router {
 public:
  void Build(const std::vector<EngineSlot>& slots);
  /// Engines ingesting `relation`; empty when none does.
  const std::vector<size_t>& Route(const std::string& relation) const;
  /// One batch per engine from events [lo, hi), each holding only the
  /// relations that engine ingests.
  std::vector<runtime::EventBatch> Assemble(const std::vector<Event>& events,
                                            size_t lo, size_t hi,
                                            size_t num_engines) const;

 private:
  std::vector<std::pair<std::string, std::vector<size_t>>> routes_;
  std::vector<size_t> none_;
};

/// Ingest into one engine inside its span (plus, in the traced run, one
/// extra boundary validation in a "runtime.validate" span). Failures count
/// in ctx.ops.
void Apply(EngineSlot& slot, runtime::EventBatch&& batch, Ctx& ctx);
void Send(EngineSlot& slot, const Event& event, Ctx& ctx);

// Output checks shared by the workloads; each failed check counts in ctx.ops.

/// Lazy re-evaluation (ReevalEngine over the Volcano executor in src/exec,
/// which shares no trigger code with the measured engines) of every
/// script's query, registered under the script's name, after `events`. The
/// events arrive in large batches: the views depend only on the final
/// state.
std::unique_ptr<runtime::StreamEngine> ReevalOracle(
    const Catalog& catalog, const std::vector<QueryScript>& scripts,
    const std::vector<Event>& events, Ctx& ctx);
/// `slot`'s view must match `oracle`'s view `oracle_view` within the
/// differential harness's 1e-6 relative tolerance on doubles.
void CheckView(const EngineSlot& slot, runtime::StreamEngine& oracle,
               const std::string& oracle_view, Ctx& ctx);
/// Each slot's state, written to a checkpoint and restored into a fresh
/// engine, must give identical views. Samples checkpoint_write_ms,
/// recovery_ms and checkpoint_mb.
void CheckCheckpointRoundTrip(std::vector<EngineSlot>& slots, Ctx& ctx);
/// Each slot, once serving, must publish a snapshot equal to View().
/// Records the first publish and snapshot reads in ctx.latency.
void CheckServing(std::vector<EngineSlot>& slots, Ctx& ctx);

// ---- workloads ------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;

  /// Shard pool size for this workload.
  virtual size_t threads() const = 0;
  /// Number of independent input streams a run cycles through, one per
  /// round; a run measures each at least once, so its numbers average over
  /// that many inputs rather than one.
  virtual size_t num_streams() const = 0;
  /// Load what every round shares (query scripts); once per run.
  virtual Status Init() = 0;
  /// Build the input of the stream with seed `seed` (untimed).
  virtual void Generate(uint64_t seed) = 0;
  /// Build fresh engines for one round; timed as a setup_s sample. Runs
  /// several times per round; each run replaces the previous engines.
  virtual Status Setup(Ctx& ctx) = 0;
  /// After setup, before the first ingest call.
  virtual void BeginRound(Ctx& /*ctx*/) {}
  virtual size_t num_calls() const = 0;
  /// One ingest call; returns the number of events it carried.
  virtual size_t Call(size_t i, Ctx& ctx) = 0;
  /// After the last ingest call of a round.
  virtual void EndRound(Ctx& /*ctx*/) {}
  /// Output checks on the last round's engines and input.
  virtual void Check(Ctx& ctx) = 0;
  /// Workload-specific counters of the last round.
  virtual void AddCounters(std::map<std::string, double>* /*out*/) const {}

  const std::vector<EngineSlot>& engines() const { return engines_; }

 protected:
  std::vector<EngineSlot> engines_;
};

std::unique_ptr<Workload> MakeTick();
std::unique_ptr<Workload> MakeVwap();
std::unique_ptr<Workload> MakeLoad();
std::unique_ptr<Workload> MakeServe();
std::unique_ptr<Workload> MakeInterp();

/// Run one workload end to end; returns the process exit code.
int RunBenchmark(const Options& opt);

}  // namespace dbtoaster::pipeline

#endif  // DBTOASTER_BENCH_PIPELINE_HARNESS_H_
