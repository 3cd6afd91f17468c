#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "src/baseline/reeval_engine.h"
#include "src/common/hash.h"
#include "src/common/str.h"
#include "src/compiler/compile.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/engine.h"
#include "src/sql/parser.h"

namespace dbtoaster::pipeline {

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  return Mix64(Mix64(seed) ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
}

// ---- latency histogram ----------------------------------------------------------

void LatencyHistogram::Add(int64_t ns) {
  ++counts_[Index(static_cast<uint64_t>(std::max<int64_t>(ns, 0)))];
  ++total_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double LatencyHistogram::QuantileNs(double q) const {
  if (total_ == 0) return 0;
  const double rank = q * static_cast<double>(total_ - 1);
  uint64_t below = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (static_cast<double>(below + counts_[i]) > rank) {
      const double within =
          (rank - static_cast<double>(below) + 0.5) / counts_[i];
      return Lower(i) + (Lower(i + 1) - Lower(i)) * within;
    }
    below += counts_[i];
  }
  return Lower(counts_.size());
}

size_t LatencyHistogram::Index(uint64_t v) {
  if (v < (1u << kSubBits)) return static_cast<size_t>(v);
  const int exp = 63 - __builtin_clzll(v);
  const uint64_t sub = (v >> (exp - kSubBits)) & ((1u << kSubBits) - 1);
  return (static_cast<size_t>(exp - kSubBits + 1) << kSubBits) + sub;
}

double LatencyHistogram::Lower(size_t bucket) {
  if (bucket < (1u << kSubBits)) return static_cast<double>(bucket);
  const int exp = static_cast<int>(bucket >> kSubBits) + kSubBits - 1;
  const double sub = static_cast<double>(bucket & ((1u << kSubBits) - 1));
  return std::ldexp(1.0 + sub / (1 << kSubBits), exp);
}

// ---- spans --------------------------------------------------------------------

size_t TraceBuffer::Begin(uint32_t name, uint64_t call) {
  Span s;
  s.id = (uint64_t{thread_} << 40) | next_id_++;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.name = name;
  s.thread = thread_;
  s.call = call;
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  spans_.back().start_ns = NowNs();
  return spans_.size() - 1;
}

void TraceBuffer::End(size_t index) {
  const int64_t now = NowNs();
  spans_[index].end_ns = now;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

uint32_t Tracer::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, added] = ids_.emplace(name, static_cast<uint32_t>(names_.size()));
  if (added) names_.push_back(name);
  return it->second;
}

std::string Tracer::NameOf(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return id < names_.size() ? names_[id] : std::string("?");
}

std::vector<std::string> Tracer::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_;
}

TraceBuffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.emplace_back(static_cast<uint32_t>(buffers_.size()));
  return &buffers_.back();
}

std::vector<const TraceBuffer*> Tracer::buffers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const TraceBuffer*> out;
  for (const TraceBuffer& b : buffers_) out.push_back(&b);
  return out;
}

void Tracer::ClearAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (TraceBuffer& b : buffers_) b.Clear();
}

void Ops::Add(uint64_t attempted, uint64_t failed, const std::string& what) {
  attempted_ += attempted;
  if (failed > 0) Fail(failed, what);
}

void Ops::Fail(uint64_t n, const std::string& what) {
  if (failed_ < 20) {
    std::fprintf(stderr, "FAILED (%llu): %s\n",
                 static_cast<unsigned long long>(n), what.c_str());
  }
  failed_ += n;
}

// ---- engines ------------------------------------------------------------------

Result<QueryScript> LoadQueryScript(const std::string& name) {
  std::string path = std::string(DBT_QUERY_DIR) + "/" + name + ".sql";
  if (!std::filesystem::exists(path)) {
    path = std::string(BP_QUERY_DIR) + "/" + name + ".sql";
  }
  std::ifstream f(path);
  if (!f.good()) return Status::NotFound("missing query script " + path);
  std::stringstream ss;
  ss << f.rdbuf();
  auto script = sql::ParseScript(ss.str());
  if (!script.ok()) return script.status();
  QueryScript out;
  out.name = name;
  for (const sql::CreateTableStmt& t : script.value().tables) {
    DBT_RETURN_IF_ERROR(out.catalog.AddRelation(t));
  }
  if (script.value().queries.size() != 1) {
    return Status::InvalidArgument(path + ": expected exactly one query");
  }
  out.sql = script.value().queries[0].select->ToString();
  return out;
}

EngineSlot CompiledSlot(const std::string& query, ProgramFactory make,
                        Ctx& ctx) {
  EngineSlot s;
  s.query = query;
  s.make_program = std::move(make);
  s.program = s.make_program();
  s.engine = std::make_unique<runtime::CompiledProgramEngine>(s.program.get());
  s.view = s.program->view_names().front();
  for (const dbt::RelationSchema& rs : s.program->relation_schemas()) {
    s.relations.push_back(ToUpper(rs.name));
  }
  s.span = ctx.Name("codegen." + query + ".apply");
  return s;
}

Result<EngineSlot> InterpretedSlot(const QueryScript* script, Ctx& ctx) {
  EngineSlot s;
  s.query = script->name;
  s.view = "q";
  s.script = script;
  Result<compiler::Program> program = Status::Internal("not compiled");
  {
    SpanScope span(ctx.writer, ctx.Name("compiler." + s.query + ".compile"),
                   ctx.call);
    program = compiler::CompileQuery(script->catalog, s.view, script->sql);
  }
  if (!program.ok()) return program.status();
  s.engine = std::make_unique<runtime::Engine>(std::move(program).value());
  for (const Schema& r : script->catalog.relations()) {
    s.relations.push_back(ToUpper(r.name()));
  }
  s.span = ctx.Name("engine." + s.query + ".apply");
  return s;
}

Result<Rows> SortedView(const EngineSlot& slot) {
  DBT_ASSIGN_OR_RETURN(exec::QueryResult r, slot.engine->View(slot.view));
  return r.SortedRows();
}

void Router::Build(const std::vector<EngineSlot>& slots) {
  routes_.clear();
  for (size_t i = 0; i < slots.size(); ++i) {
    for (const std::string& rel : slots[i].relations) {
      auto it = std::find_if(routes_.begin(), routes_.end(),
                             [&](const auto& r) { return r.first == rel; });
      if (it == routes_.end()) {
        routes_.push_back({rel, {}});
        it = routes_.end() - 1;
      }
      it->second.push_back(i);
    }
  }
}

const std::vector<size_t>& Router::Route(const std::string& relation) const {
  for (const auto& r : routes_) {
    if (r.first == relation) return r.second;
  }
  return none_;
}

std::vector<runtime::EventBatch> Router::Assemble(
    const std::vector<Event>& events, size_t lo, size_t hi,
    size_t num_engines) const {
  std::vector<runtime::EventBatch> out(num_engines);
  for (size_t i = lo; i < hi; ++i) {
    const Event& ev = events[i];
    for (size_t e : Route(ev.relation)) {
      out[e].Add(ev.kind, ev.relation, ev.tuple);
    }
  }
  return out;
}

void Apply(EngineSlot& slot, runtime::EventBatch&& batch, Ctx& ctx) {
  if (ctx.writer != nullptr) {
    SpanScope span(ctx.writer, ctx.validate_span, ctx.call);
    ctx.ops.Record(slot.engine->ingest_validator().ValidateBatch(batch),
                   slot.query);
  }
  Status st;
  {
    SpanScope span(ctx.writer, slot.span, ctx.call);
    st = slot.engine->ApplyBatch(std::move(batch));
  }
  ctx.ops.Record(st, slot.query);
}

void Send(EngineSlot& slot, const Event& event, Ctx& ctx) {
  if (ctx.writer != nullptr) {
    SpanScope span(ctx.writer, ctx.validate_span, ctx.call);
    ctx.ops.Record(slot.engine->ingest_validator().ValidateEvent(event),
                   slot.query);
  }
  Status st;
  {
    SpanScope span(ctx.writer, slot.span, ctx.call);
    st = slot.engine->OnEvent(event);
  }
  ctx.ops.Record(st, slot.query);
}

// ---- output checks --------------------------------------------------------------

namespace {

bool ValuesClose(const Value& a, const Value& b) {
  if (a.is_string() || b.is_string()) return a == b;
  if (a.is_int() && b.is_int()) return a.AsInt() == b.AsInt();
  const double x = a.AsDouble(), y = b.AsDouble();
  return std::fabs(x - y) <=
         1e-6 * std::max({1.0, std::fabs(x), std::fabs(y)});
}

bool RowsClose(const Rows& want, const Rows& got) {
  if (want.size() != got.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i].first.size() != got[i].first.size()) return false;
    for (size_t c = 0; c < want[i].first.size(); ++c) {
      if (!ValuesClose(want[i].first[c], got[i].first[c])) return false;
    }
  }
  return true;
}

/// A fresh engine built the way `slot` was.
Result<EngineSlot> Remake(const EngineSlot& slot, Ctx& ctx) {
  if (slot.make_program) return CompiledSlot(slot.query, slot.make_program, ctx);
  return InterpretedSlot(slot.script, ctx);
}

}  // namespace

std::unique_ptr<runtime::StreamEngine> ReevalOracle(
    const Catalog& catalog, const std::vector<QueryScript>& scripts,
    const std::vector<Event>& events, Ctx& ctx) {
  auto oracle = std::make_unique<baseline::ReevalEngine>(catalog,
                                                         /*eager=*/false);
  for (const QueryScript& s : scripts) {
    ctx.ops.Record(oracle->AddQuery(s.name, s.sql), "oracle query " + s.name);
  }
  for (size_t lo = 0; lo < events.size(); lo += 4096) {
    runtime::EventBatch batch;
    for (size_t i = lo; i < std::min(events.size(), lo + 4096); ++i) {
      batch.Add(events[i].kind, events[i].relation, events[i].tuple);
    }
    ctx.ops.Record(oracle->ApplyBatch(std::move(batch)), "oracle ingest");
  }
  return oracle;
}

void CheckView(const EngineSlot& slot, runtime::StreamEngine& oracle,
               const std::string& oracle_view, Ctx& ctx) {
  const std::string what =
      "output of " + slot.query + " vs the " + oracle.Name() + " oracle";
  Result<Rows> got = SortedView(slot);
  if (!ctx.ops.Record(got.status(), what)) return;
  auto want = oracle.View(oracle_view);
  if (!ctx.ops.Record(want.status(), what)) return;
  ctx.ops.Check(RowsClose(want.value().SortedRows(), got.value()), what);
}

void CheckCheckpointRoundTrip(std::vector<EngineSlot>& slots, Ctx& ctx) {
  for (EngineSlot& slot : slots) {
    const std::string path =
        (std::filesystem::path(ctx.opt.scratch) / ("roundtrip-" + slot.query))
            .string();
    const std::string what = "checkpoint round trip of " + slot.query;
    const int64_t t0 = NowNs();
    const Status written = runtime::WriteCheckpoint(path, *slot.engine);
    const int64_t t1 = NowNs();
    if (!ctx.ops.Record(written, what)) continue;
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path, ec);
    Result<EngineSlot> fresh = Remake(slot, ctx);
    if (!ctx.ops.Record(fresh.status(), what)) continue;
    const int64_t t2 = NowNs();
    const Status restored =
        runtime::RestoreCheckpoint(path, fresh.value().engine.get());
    const int64_t t3 = NowNs();
    std::filesystem::remove(path, ec);
    if (!ctx.ops.Record(restored, what)) continue;
    ctx.samples["checkpoint_write_ms"].push_back((t1 - t0) * 1e-6);
    ctx.samples["recovery_ms"].push_back((t3 - t2) * 1e-6);
    ctx.samples["checkpoint_mb"].push_back(static_cast<double>(bytes) /
                                           (1 << 20));
    Result<Rows> live = SortedView(slot);
    Result<Rows> back = SortedView(fresh.value());
    ctx.ops.Check(live.ok() && back.ok() && live.value() == back.value(),
                  what + ": restored views differ");
  }
}

void CheckServing(std::vector<EngineSlot>& slots, Ctx& ctx) {
  constexpr int kReads = 64;
  for (EngineSlot& slot : slots) {
    const std::string what = "serving " + slot.query;
    const int64_t t0 = NowNs();
    const Status enabled = slot.engine->EnableServing({slot.view});
    const int64_t t1 = NowNs();
    if (!ctx.ops.Record(enabled, what)) continue;
    ctx.latency["publish"].Add(t1 - t0);
    Result<Rows> want = SortedView(slot);
    if (!ctx.ops.Record(want.status(), what)) continue;
    for (int r = 0; r < kReads; ++r) {
      const int64_t r0 = NowNs();
      runtime::ViewSnapshot snap = slot.engine->Snapshot();
      const exec::QueryResult* view = snap.Find(slot.view);
      int64_t rows = 0;
      if (view != nullptr) {
        for (const auto& row : view->rows) rows += row.second;
      }
      ctx.latency["read"].Add(NowNs() - r0);
      ctx.ops.Check(view != nullptr && rows >= 0 &&
                        snap.epoch() == slot.engine->epoch(),
                    what + ": snapshot read");
    }
    runtime::ViewSnapshot snap = slot.engine->Snapshot();
    const exec::QueryResult* view = snap.Find(slot.view);
    ctx.ops.Check(view != nullptr && view->SortedRows() == want.value(),
                  what + ": snapshot differs from View()");
  }
}

// ---- report -------------------------------------------------------------------

namespace {

constexpr int kSetupReps = 5;
// At least 15 calls beyond the reported 99th percentile.
constexpr uint64_t kMinCalls = 1500;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"events_per_s", "events/s"}, {"apply_p50_us", "us"},
    {"apply_p99_us", "us"},       {"state_mb", "MiB"},
    {"setup_s", "s"},
};
constexpr MetricDef kPerLayer[] = {
    {"runtime.dispatch.busy_s", "s"},
    {"runtime.validate.mean_ns", "ns"},
    {"trigger.busy_s", "s"},
    {"trigger.p50_us", "us"},
    {"trigger.p99_us", "us"},
    {"runtime.publish.p50_us", "us"},
    {"serve.read.p50_us", "us"},
    {"serve.read.p99_us", "us"},
    {"runtime.checkpoint_write_ms", "ms"},
    {"runtime.recovery_ms", "ms"},
    {"runtime.checkpoint_mb", "MiB"},
    {"runtime.log_mb", "MiB"},
    {"state.map_entries", "count"},
    {"codegen.selected_rows", "count"},
    {"codegen.probe_runs", "count"},
    {"runtime.sharded_groups", "count"},
    {"serve.delta_rows", "count"},
    {"trace.events_per_s", "events/s"},
};

/// Median of a few exact values; 0 when empty.
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

bool IsTriggerSpan(const std::string& name) {
  const bool layer =
      name.rfind("codegen.", 0) == 0 || name.rfind("engine.", 0) == 0;
  return layer && name.size() > 6 &&
         name.compare(name.size() - 6, 6, ".apply") == 0;
}

struct SpanStats {
  LatencyHistogram durations;
  double busy_s = 0;
  double self_s = 0;  ///< minus the time the span's children cover
};

/// Durations and self times per span name, over every buffer.
std::map<std::string, SpanStats> SummarizeSpans(const Tracer& tracer) {
  std::map<std::string, SpanStats> out;
  for (const TraceBuffer* buf : tracer.buffers()) {
    std::unordered_map<uint64_t, int64_t> child_ns;
    for (const Span& s : buf->spans()) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::unordered_map<uint32_t, SpanStats*> by_name;
    for (const Span& s : buf->spans()) {
      SpanStats*& st = by_name[s.name];
      if (st == nullptr) st = &out[tracer.NameOf(s.name)];
      const int64_t dur = s.end_ns - s.start_ns;
      auto it = child_ns.find(s.id);
      st->durations.Add(dur);
      st->busy_s += dur * 1e-9;
      st->self_s += (dur - (it == child_ns.end() ? 0 : it->second)) * 1e-9;
    }
  }
  return out;
}

/// Per-layer values of one round, from its spans.
std::map<std::string, double> RoundLayers(
    const std::map<std::string, SpanStats>& spans) {
  LatencyHistogram trigger;
  double trigger_s = 0;
  for (const auto& [name, st] : spans) {
    if (!IsTriggerSpan(name)) continue;
    trigger.Merge(st.durations);
    trigger_s += st.busy_s;
  }
  std::map<std::string, double> out = {
      {"trigger.busy_s", trigger_s},
      {"trigger.p50_us", trigger.QuantileNs(0.5) * 1e-3},
      {"trigger.p99_us", trigger.QuantileNs(0.99) * 1e-3},
  };
  if (auto it = spans.find("ingest"); it != spans.end()) {
    out["runtime.dispatch.busy_s"] = it->second.self_s;
  }
  if (auto it = spans.find("runtime.validate"); it != spans.end()) {
    const uint64_t n = it->second.durations.count();
    out["runtime.validate.mean_ns"] = n ? 1e9 * it->second.busy_s / n : 0;
  }
  return out;
}

void PrintJsonNumber(std::FILE* f, double v) {
  std::fprintf(f, "%.17g", std::isfinite(v) ? v : 0.0);
}

bool WriteTrace(const std::string& path, const Options& opt, size_t round,
                const Tracer& tracer,
                const std::map<std::string, SpanStats>& summary) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const TraceBuffer* buf : tracer.buffers()) {
    for (const Span& s : buf->spans()) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"round\": %zu,\n",
               opt.workload.c_str(),
               static_cast<unsigned long long>(opt.seed), round);
  std::fprintf(f, " \"span_fields\": [\"id\", \"parent\", \"name\", "
                  "\"thread\", \"call\", \"start_ns\", \"end_ns\"],\n");
  std::fprintf(f, " \"names\": [");
  const std::vector<std::string> names = tracer.names();
  for (size_t i = 0; i < names.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", names[i].c_str());
  }
  std::fprintf(f, "],\n \"summary\": {");
  bool first = true;
  for (const auto& [name, st] : summary) {
    std::fprintf(f, "%s\n  \"%s\": {\"count\": %llu, \"busy_s\": ",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(st.durations.count()));
    PrintJsonNumber(f, st.busy_s);
    std::fprintf(f, ", \"self_s\": ");
    PrintJsonNumber(f, st.self_s);
    std::fprintf(f, ", \"p50_us\": ");
    PrintJsonNumber(f, st.durations.QuantileNs(0.5) * 1e-3);
    std::fprintf(f, ", \"p99_us\": ");
    PrintJsonNumber(f, st.durations.QuantileNs(0.99) * 1e-3);
    std::fprintf(f, "}");
    first = false;
  }
  std::fprintf(f, "},\n \"spans\": [");
  first = true;
  for (const TraceBuffer* buf : tracer.buffers()) {
    for (const Span& s : buf->spans()) {
      std::fprintf(f, "%s\n  [%llu, %llu, %u, %u, %llu, %lld, %lld]",
                   first ? "" : ",", static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name,
                   s.thread, static_cast<unsigned long long>(s.call),
                   static_cast<long long>(s.start_ns - origin),
                   static_cast<long long>(s.end_ns - origin));
      first = false;
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "tick") return MakeTick();
  if (name == "vwap") return MakeVwap();
  if (name == "load") return MakeLoad();
  if (name == "serve") return MakeServe();
  if (name == "interp") return MakeInterp();
  return nullptr;
}

/// Deterministic state counters of the engines after a round.
std::map<std::string, double> EngineCounters(
    const std::vector<EngineSlot>& slots) {
  double state = 0, entries = 0, selected = 0, probes = 0, sharded = 0;
  for (const EngineSlot& s : slots) {
    state += static_cast<double>(s.engine->StateBytes());
    if (s.program != nullptr) {
      entries += static_cast<double>(s.program->total_map_entries());
      selected += static_cast<double>(s.program->selected_rows());
      probes += static_cast<double>(s.program->probe_runs());
    } else if (auto* e =
                   dynamic_cast<const runtime::Engine*>(s.engine.get())) {
      entries += static_cast<double>(e->TotalMapEntries());
      sharded += static_cast<double>(e->profile().sharded_groups);
    }
  }
  return {{"state_bytes", state},
          {"state.map_entries", entries},
          {"codegen.selected_rows", selected},
          {"codegen.probe_runs", probes},
          {"runtime.sharded_groups", sharded}};
}

}  // namespace

int RunBenchmark(const Options& opt) {
  std::unique_ptr<Workload> w = MakeWorkload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr,
                 "unknown workload '%s' (tick|vwap|load|serve|interp)\n",
                 opt.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.scratch, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", opt.scratch.c_str(),
                 ec.message().c_str());
    return 1;
  }
  Ctx ctx(opt);
  if (opt.trace) {
    ctx.tracer = std::make_unique<Tracer>();
    ctx.writer = ctx.tracer->NewBuffer();
    ctx.validate_span = ctx.Name("runtime.validate");
  }
  const size_t threads = std::max<size_t>(
      1, std::min<size_t>(w->threads(), std::thread::hardware_concurrency()));
  runtime::shard_pool().set_threads(threads);
  if (Status st = w->Init(); !st.ok()) {
    std::fprintf(stderr, "init failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const uint32_t ingest_span = ctx.Name("ingest");
  const uint32_t setup_span = ctx.Name("setup");

  std::vector<double> setup_s, rates;
  LatencyHistogram latency;
  std::vector<std::map<std::string, double>> layer_rounds;
  std::map<std::string, SpanStats> last_spans;
  const size_t streams = std::max<size_t>(1, w->num_streams());
  std::vector<std::map<std::string, double>> stream_counters(streams);
  size_t measured = 0;
  int64_t measured_ns = 0;
  for (size_t round = 0;; ++round) {
    const size_t stream = round % streams;
    w->Generate(DeriveSeed(opt.seed, stream));
    const size_t calls = w->num_calls();
    if (ctx.tracer) ctx.tracer->ClearAll();
    const int64_t round_start = NowNs();
    for (int rep = 0; rep < kSetupReps; ++rep) {
      ctx.call = static_cast<uint64_t>(rep);
      const int64_t t0 = NowNs();
      Status st;
      {
        SpanScope span(ctx.writer, setup_span, ctx.call);
        st = w->Setup(ctx);
      }
      if (!st.ok()) {
        std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
        return 1;
      }
      if (round > 0) setup_s.push_back((NowNs() - t0) * 1e-9);
    }
    w->BeginRound(ctx);
    size_t events = 0;
    int64_t busy_ns = 0;
    for (size_t i = 0; i < calls; ++i) {
      ctx.call = i;
      const int64_t t0 = NowNs();
      size_t n;
      {
        SpanScope span(ctx.writer, ingest_span, i);
        n = w->Call(i, ctx);
      }
      const int64_t dt = NowNs() - t0;
      busy_ns += dt;
      events += n;
      if (round > 0) latency.Add(dt);
    }
    w->EndRound(ctx);

    std::map<std::string, double> round_counters = EngineCounters(w->engines());
    w->AddCounters(&round_counters);
    if (!stream_counters[stream].empty()) {
      ctx.ops.Check(round_counters["state_bytes"] ==
                        stream_counters[stream]["state_bytes"],
                    "state size differs between rounds of the same input");
    }
    stream_counters[stream] = std::move(round_counters);
    if (round == 0) continue;  // warm-up
    ++measured;
    measured_ns += NowNs() - round_start;
    rates.push_back(static_cast<double>(events) / (busy_ns * 1e-9));
    if (ctx.tracer) {
      last_spans = SummarizeSpans(*ctx.tracer);
      layer_rounds.push_back(RoundLayers(last_spans));
    }
    if (measured >= streams && latency.count() >= kMinCalls &&
        measured_ns * 1e-9 >= opt.seconds) {
      break;
    }
  }
  // Counters are deterministic per stream; report their mean over streams.
  std::map<std::string, double> counters;
  for (const auto& sc : stream_counters) {
    for (const auto& [k, v] : sc) counters[k] += v / streams;
  }
  if (ctx.tracer) {
    const std::string path = opt.out + ".trace.json";
    if (!WriteTrace(path, opt, measured, *ctx.tracer, last_spans)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
  }
  w->Check(ctx);

  std::map<std::string, double> values;
  if (!ctx.tracer) {
    values = {{"events_per_s", Median(rates)},
              {"apply_p50_us", latency.QuantileNs(0.5) * 1e-3},
              {"apply_p99_us", latency.QuantileNs(0.99) * 1e-3},
              {"state_mb", counters["state_bytes"] / (1 << 20)},
              {"setup_s", Median(setup_s)}};
  } else {
    std::map<std::string, std::vector<double>> per_round;
    for (const auto& r : layer_rounds) {
      for (const auto& [k, v] : r) per_round[k].push_back(v);
    }
    for (const auto& [k, v] : per_round) values[k] = Median(v);
    values["trace.events_per_s"] = Median(rates);
    values["runtime.publish.p50_us"] =
        ctx.latency["publish"].QuantileNs(0.5) * 1e-3;
    values["serve.read.p50_us"] = ctx.latency["read"].QuantileNs(0.5) * 1e-3;
    values["serve.read.p99_us"] = ctx.latency["read"].QuantileNs(0.99) * 1e-3;
    values["runtime.checkpoint_write_ms"] =
        Median(ctx.samples["checkpoint_write_ms"]);
    values["runtime.recovery_ms"] = Median(ctx.samples["recovery_ms"]);
    values["runtime.checkpoint_mb"] = Median(ctx.samples["checkpoint_mb"]);
    for (const auto& [k, v] : counters) values[k] = v;
  }

  // Human-readable report.
  std::printf("bench_pipeline: workload=%s seed=%llu trace=%d threads=%zu "
              "streams=%zu rounds=%zu (+1 warm-up) measured calls=%llu\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, threads, streams, measured,
              static_cast<unsigned long long>(latency.count()));
  const std::vector<MetricDef> metrics =
      ctx.tracer ? std::vector<MetricDef>(std::begin(kPerLayer),
                                          std::end(kPerLayer))
                 : std::vector<MetricDef>(std::begin(kEndToEnd),
                                          std::end(kEndToEnd));
  for (const MetricDef& m : metrics) {
    std::printf("  %-28s %16.4f %s\n", m.name, values[m.name], m.unit);
  }
  if (ctx.tracer) {
    std::printf("spans of the last round:\n  %-30s %9s %10s %10s %10s %10s\n",
                "name", "count", "busy_s", "self_s", "p50_us", "p99_us");
    for (const auto& [name, st] : last_spans) {
      std::printf("  %-30s %9llu %10.4f %10.4f %10.2f %10.2f\n", name.c_str(),
                  static_cast<unsigned long long>(st.durations.count()),
                  st.busy_s, st.self_s, st.durations.QuantileNs(0.5) * 1e-3,
                  st.durations.QuantileNs(0.99) * 1e-3);
    }
  }
  std::sort(rates.begin(), rates.end());
  std::printf("round events/s: min=%.6g median=%.6g max=%.6g\n",
              rates.front(), Median(rates), rates.back());
  std::printf("counters:");
  for (const auto& [k, v] : counters) std::printf(" %s=%.6g", k.c_str(), v);
  std::printf("\nlatency:");
  for (const auto& [k, h] : ctx.latency) {
    std::printf(" %s(n=%llu p50=%.3fus p99=%.3fus)", k.c_str(),
                static_cast<unsigned long long>(h.count()),
                h.QuantileNs(0.5) * 1e-3, h.QuantileNs(0.99) * 1e-3);
  }
  std::printf("\nsamples:");
  for (const auto& [k, v] : ctx.samples) {
    std::printf(" %s(n=%zu median=%.4f)", k.c_str(), v.size(), Median(v));
  }
  std::printf("\nchecks: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(ctx.ops.attempted()),
              static_cast<unsigned long long>(ctx.ops.failed()));

  // The result line.
  const bool correct = ctx.ops.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<uint64_t>(1, ctx.ops.attempted())),
              static_cast<unsigned long long>(ctx.ops.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", metrics[i].name);
    PrintJsonNumber(stdout, values[metrics[i].name]);
    std::printf(", \"unit\": \"%s\"}", metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace dbtoaster::pipeline
