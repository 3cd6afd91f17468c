// Workload `serve`: a q3s "unshipped orders" dashboard that is read while it
// is written, with the batch log and periodic checkpoints on, and a crash
// recovery at the end of every round. The only workload where publication,
// reader contention, log appends, checkpoints and recovery do work.
//
// Readers are paced (one read per 200 us each) rather than spinning:
// spinning readers moved writer throughput by about 13% between runs.
#include <atomic>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "bench/gen/q3s.hpp"
#include "harness.h"
#include "inputs.h"
#include "src/runtime/batch_log.h"
#include "src/runtime/checkpoint.h"

namespace dbtoaster::pipeline {
namespace {

constexpr size_t kEvents = 400000;
constexpr size_t kWindow = 20000;  // live orders
constexpr size_t kBatch = 256;
constexpr uint64_t kCheckpointEvery = 1024;  // epochs
constexpr int kReaders = 2;
constexpr int64_t kReadPeriodNs = 200'000;
constexpr int64_t kPollPeriodNs = 1'000'000;

std::unique_ptr<dbt::StreamProgram> MakeQ3s() {
  return std::make_unique<dbtoaster_gen::q3s_Program>();
}

class Serve final : public Workload {
 public:
  ~Serve() override {
    StopThreads();
    RemoveDir();
  }

  size_t threads() const override { return 1; }
  size_t num_streams() const override { return 3; }

  Status Init() override {
    Result<QueryScript> script = LoadQueryScript("q3s");
    if (!script.ok()) return script.status();
    scripts_.push_back(std::move(script).value());
    return Status::OK();
  }

  void Generate(uint64_t seed) override {
    events_ = DashboardStream(kEvents, kWindow, seed);
  }

  Status Setup(Ctx& ctx) override {
    engines_.clear();
    twin_.reset();
    recovered_.reset();
    log_.reset();
    RemoveDir();
    dir_ = (std::filesystem::path(ctx.opt.scratch) / "serve").string();
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) return Status::Internal("mkdir " + dir_ + ": " + ec.message());

    engines_.push_back(CompiledSlot("q3s", MakeQ3s, ctx));
    EngineSlot& slot = engines_.back();
    slot.span = ctx.Name("serve.q3s.apply");
    DBT_RETURN_IF_ERROR(slot.engine->EnableServing({slot.view}));
    log_ = std::make_unique<runtime::BatchLogWriter>();  // sync_every 16
    DBT_RETURN_IF_ERROR(log_->Open(LogPath()));
    if (ctx.tracer) {
      // Publication cost in the traced run: the served call minus an
      // unserved twin's call on the same batch.
      twin_ = std::make_unique<EngineSlot>(CompiledSlot("q3s", MakeQ3s, ctx));
    }
    log_span_ = ctx.Name("runtime.log_append");
    checkpoint_span_ = ctx.Name("runtime.checkpoint_write");
    restore_span_ = ctx.Name("runtime.checkpoint_restore");
    replay_span_ = ctx.Name("runtime.log_replay");
    read_span_ = ctx.Name("serve.read");
    return Status::OK();
  }

  void BeginRound(Ctx& ctx) override {
    runtime::StreamEngine* engine = engines_[0].engine.get();
    const std::string& view = engines_[0].view;
    Result<runtime::ViewSubscriber> sub = engine->Subscribe();
    if (!ctx.ops.Record(sub.status(), "subscribe")) return;
    subscriber_ = std::move(sub).value();
    sub_rows_.clear();
    sub_epoch_ = subscriber_.base().epoch();
    sub_gaps_ = 0;
    sub_deltas_ = 0;
    sub_delta_rows_ = 0;
    if (const exec::QueryResult* base = subscriber_.base().Find(view)) {
      for (const auto& [row, count] : base->rows) sub_rows_[row] += count;
    }
    stop_.store(false, std::memory_order_release);
    for (int r = 0; r < kReaders; ++r) {
      Reader& reader = readers_[r];
      reader = Reader{};
      if (ctx.tracer && reader_buffers_[r] == nullptr) {
        reader_buffers_[r] = ctx.tracer->NewBuffer();
      }
      reader.buf = reader_buffers_[r];
      threads_.emplace_back([this, &reader, engine, &view] {
        ReadLoop(&reader, engine, view);
      });
    }
    threads_.emplace_back([this] { PollLoop(); });
  }

  size_t num_calls() const override {
    return (events_.size() + kBatch - 1) / kBatch;
  }

  size_t Call(size_t i, Ctx& ctx) override {
    const size_t lo = i * kBatch;
    const size_t hi = std::min(events_.size(), lo + kBatch);
    runtime::EventBatch batch;
    for (size_t k = lo; k < hi; ++k) {
      batch.Add(events_[k].kind, events_[k].relation, events_[k].tuple);
    }
    EngineSlot& slot = engines_[0];
    const uint64_t epoch = slot.engine->epoch() + 1;
    {
      SpanScope span(ctx.writer, log_span_, ctx.call);
      ctx.ops.Record(log_->Append(epoch, batch), kLogAppend);
    }
    int64_t twin_ns = 0;
    if (twin_ != nullptr) {
      runtime::EventBatch copy = batch;
      const int64_t t0 = NowNs();
      Apply(*twin_, std::move(copy), ctx);
      twin_ns = NowNs() - t0;
    }
    const int64_t t0 = NowNs();
    Apply(slot, std::move(batch), ctx);
    if (twin_ != nullptr) ctx.latency["publish"].Add(NowNs() - t0 - twin_ns);
    if (epoch % kCheckpointEvery == 0) {
      const int64_t c0 = NowNs();
      Status st;
      {
        SpanScope span(ctx.writer, checkpoint_span_, ctx.call);
        st = runtime::WriteCheckpoint(CheckpointPath(), *slot.engine);
      }
      ctx.samples["checkpoint_write_ms"].push_back((NowNs() - c0) * 1e-6);
      ctx.ops.Record(st, kCheckpointWrite);
    }
    return hi - lo;
  }

  void EndRound(Ctx& ctx) override {
    StopThreads();
    Drain();  // deltas published after the poller's last poll
    reads_ = 0;
    for (Reader& r : readers_) {
      ctx.ops.Add(r.reads, r.bad, "snapshot read (invalid or epoch went back)");
      reads_ += r.reads;
      ctx.latency["read"].Merge(r.read);
      ctx.latency["reader_late"].Merge(r.late);
    }

    EngineSlot& slot = engines_[0];
    Result<Rows> live = SortedView(slot);
    ctx.ops.Record(live.status(), "final view");
    view_rows_ = live.ok() ? live.value().size() : 0;
    runtime::ViewSnapshot snap = slot.engine->Snapshot();
    const exec::QueryResult* published = snap.Find(slot.view);
    ctx.ops.Check(live.ok() && published != nullptr &&
                      snap.epoch() == slot.engine->epoch() &&
                      published->SortedRows() == live.value(),
                  "final snapshot differs from View()");
    exec::QueryResult replayed;
    for (const auto& [row, count] : sub_rows_) {
      replayed.rows.emplace_back(row, count);
    }
    ctx.ops.Check(subscriber_.valid() && !subscriber_.lagged() &&
                      sub_gaps_ == 0 && published != nullptr &&
                      replayed.SortedRows() == published->SortedRows(),
                  "subscriber base + deltas differ from the final snapshot");
    subscriber_ = runtime::ViewSubscriber();

    // Crash: the live engine stops taking input and a fresh engine recovers
    // from the last checkpoint plus the log.
    ctx.ops.Record(log_->Sync(), kLogAppend);
    log_->Close();
    std::error_code ec;
    log_mb_ = static_cast<double>(std::filesystem::file_size(LogPath(), ec)) /
              (1 << 20);
    const bool have_checkpoint = std::filesystem::exists(CheckpointPath());
    if (have_checkpoint) {
      ctx.samples["checkpoint_mb"].push_back(
          static_cast<double>(
              std::filesystem::file_size(CheckpointPath(), ec)) /
          (1 << 20));
    }
    recovered_ = std::make_unique<EngineSlot>(CompiledSlot("q3s", MakeQ3s, ctx));
    runtime::StreamEngine* fresh = recovered_->engine.get();
    const int64_t t0 = NowNs();
    Status restored;
    if (have_checkpoint) {
      SpanScope span(ctx.writer, restore_span_, 0);
      restored = runtime::RestoreCheckpoint(CheckpointPath(), fresh);
    }
    Result<runtime::RecoveryStats> replay = Status::Internal("not replayed");
    {
      SpanScope span(ctx.writer, replay_span_, 0);
      replay = runtime::ReplayLog(LogPath(), fresh);
    }
    const int64_t t1 = NowNs();
    ctx.ops.Record(restored, "checkpoint restore");
    if (ctx.ops.Record(replay.status(), "log replay")) {
      replay_ = replay.value();
    }
    ctx.samples["recovery_ms"].push_back((t1 - t0) * 1e-6);
    Result<Rows> back = SortedView(*recovered_);
    ctx.ops.Check(live.ok() && back.ok() && back.value() == live.value() &&
                      fresh->epoch() == slot.engine->epoch(),
                  "recovered views differ from the live engine's");
    RemoveDir();
  }

  void Check(Ctx& ctx) override {
    std::unique_ptr<runtime::StreamEngine> oracle =
        ReevalOracle(scripts_[0].catalog, scripts_, events_, ctx);
    CheckView(engines_[0], *oracle, "q3s", ctx);
  }

  void AddCounters(std::map<std::string, double>* out) const override {
    (*out)["serve.reads"] = static_cast<double>(reads_);
    (*out)["serve.view_rows"] = static_cast<double>(view_rows_);
    (*out)["serve.deltas"] = static_cast<double>(sub_deltas_);
    (*out)["serve.delta_rows"] = static_cast<double>(sub_delta_rows_);
    (*out)["runtime.log_mb"] = log_mb_;
    (*out)["runtime.log_replay.applied"] = static_cast<double>(replay_.replayed);
    (*out)["runtime.log_replay.skipped"] = static_cast<double>(replay_.skipped);
  }

 private:
  struct Reader {
    TraceBuffer* buf = nullptr;
    LatencyHistogram read;
    LatencyHistogram late;  ///< start behind the pacing schedule
    uint64_t reads = 0;
    uint64_t bad = 0;
  };

  std::string LogPath() const { return dir_ + "/batches.log"; }
  std::string CheckpointPath() const { return dir_ + "/engine.ckpt"; }

  void RemoveDir() {
    if (dir_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void StopThreads() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

  /// Sleep until `*due`, then advance it one period; a reader that fell a
  /// whole period behind restarts its schedule instead of bursting.
  static int64_t Pace(int64_t* due, int64_t period) {
    const int64_t now = NowNs();
    if (*due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(*due - now));
    const int64_t start = NowNs();
    const int64_t late = start - *due;
    *due = (late > period ? start : *due) + period;
    return late;
  }

  void ReadLoop(Reader* r, runtime::StreamEngine* engine,
                const std::string& view) {
    uint64_t last_epoch = 0;
    int64_t due = NowNs() + kReadPeriodNs;
    while (!stop_.load(std::memory_order_acquire)) {
      const int64_t late = Pace(&due, kReadPeriodNs);
      const int64_t t0 = NowNs();
      bool ok;
      {
        SpanScope span(r->buf, read_span_, r->reads);
        runtime::ViewSnapshot snap = engine->Snapshot();
        const exec::QueryResult* rows = snap.Find(view);
        int64_t live = 0;
        if (rows != nullptr) {
          for (const auto& row : rows->rows) live += row.second;
        }
        ok = rows != nullptr && live >= 0 && snap.epoch() >= last_epoch;
        last_epoch = snap.epoch();
      }
      r->read.Add(NowNs() - t0);
      r->late.Add(late);
      ++r->reads;
      if (!ok) ++r->bad;
    }
  }

  void PollLoop() {
    int64_t due = NowNs() + kPollPeriodNs;
    while (!stop_.load(std::memory_order_acquire)) {
      Pace(&due, kPollPeriodNs);
      Drain();
    }
  }

  void Drain() {
    if (!subscriber_.valid()) return;
    for (const auto& delta : subscriber_.Poll()) {
      if (delta->epoch != sub_epoch_ + 1) ++sub_gaps_;
      sub_epoch_ = delta->epoch;
      ++sub_deltas_;
      for (const runtime::ViewDelta& v : delta->views) {
        runtime::ApplyViewDelta(v, &sub_rows_);
        sub_delta_rows_ += v.added.size() + v.removed.size();
      }
    }
  }

  const std::string kLogAppend = "batch log append";
  const std::string kCheckpointWrite = "checkpoint write";

  std::vector<QueryScript> scripts_;
  std::vector<Event> events_;
  std::string dir_;
  std::unique_ptr<runtime::BatchLogWriter> log_;
  std::unique_ptr<EngineSlot> twin_;       ///< traced run only
  std::unique_ptr<EngineSlot> recovered_;  ///< rebuilt from checkpoint + log
  uint32_t log_span_ = 0, checkpoint_span_ = 0, restore_span_ = 0,
           replay_span_ = 0, read_span_ = 0;

  // Serving side of a round. The reader and poller threads own their
  // Reader and the subscriber state until StopThreads() joins them.
  std::atomic<bool> stop_{false};
  Reader readers_[kReaders];
  TraceBuffer* reader_buffers_[kReaders] = {};
  runtime::ViewSubscriber subscriber_;
  std::unordered_map<Row, int64_t, RowHash, RowEq> sub_rows_;
  uint64_t sub_epoch_ = 0;
  uint64_t sub_gaps_ = 0;
  uint64_t sub_deltas_ = 0;
  uint64_t sub_delta_rows_ = 0;
  std::vector<std::thread> threads_;  ///< after the state it uses

  uint64_t reads_ = 0;
  size_t view_rows_ = 0;
  double log_mb_ = 0;
  runtime::RecoveryStats replay_;
};

}  // namespace

std::unique_ptr<Workload> MakeServe() { return std::make_unique<Serve>(); }

}  // namespace dbtoaster::pipeline
