// The DBToaster runtime engine: executes a compiled trigger Program over an
// update stream, maintaining the in-memory aggregate maps and exposing
// continuously-fresh view results, a read-only snapshot interface, a
// profiler, and a step debugger (the paper's §2 system model).
//
// Implements the unified StreamEngine surface: ApplyBatch groups events by
// (relation, op) and — when the trigger's statements permit — runs each
// delta statement once over the whole vector of bindings against the batch
// pre-state, flushing base-table updates and map/slice-index mutations per
// batch instead of per event.
#ifndef DBTOASTER_RUNTIME_ENGINE_H_
#define DBTOASTER_RUNTIME_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/compiler/program.h"
#include "src/compiler/tir.h"
#include "src/exec/executor.h"
#include "src/runtime/ring_eval.h"
#include "src/runtime/stream_engine.h"
#include "src/runtime/value_map.h"
#include "src/storage/table.h"

namespace dbtoaster::runtime {

/// Observer interface for the debugger/tracer: receives every event,
/// statement execution and map update. Implementations must not mutate the
/// engine. A registered sink forces per-event (non-vectorized) batch
/// processing so callbacks keep their one-event granularity.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(const Event& /*event*/) {}
  virtual void OnStatement(const compiler::Statement& /*stmt*/,
                           size_t /*updates_applied*/) {}
  virtual void OnMapUpdate(const std::string& /*map*/, const Row& /*key*/,
                           const Value& /*old_value*/,
                           const Value& /*new_value*/) {}
};

/// Per-statement and per-map execution statistics (the paper's profiler,
/// used by bench_map_profile).
struct ProfileStats {
  struct StatementStats {
    std::string rendering;
    uint64_t executions = 0;
    uint64_t updates = 0;
    uint64_t nanos = 0;
  };
  std::map<std::string, StatementStats> by_statement;  // keyed by rendering
  uint64_t events = 0;
  uint64_t event_nanos = 0;
  /// Groups whose delta phase ran on the shard pool (parallel ApplyBatch).
  uint64_t sharded_groups = 0;

  std::string ToString() const;
};

class Engine : public StreamEngine, public MapStore {
 public:
  explicit Engine(compiler::Program program);

  std::string Name() const override { return "toaster-i"; }

  /// Current content of a registered view (fresh as of the last event).
  Result<exec::QueryResult> View(const std::string& view_name) override;
  std::vector<std::string> ViewNames() const override;

  /// Read-only snapshot interface: ad-hoc SQL over the base-table snapshot.
  Result<exec::QueryResult> AdhocQuery(const std::string& sql);

  const compiler::Program& program() const { return program_; }
  const tir::Module& tir() const { return tir_; }
  Database& database() { return db_; }
  const Database& database() const { return db_; }

  /// Map access (read-only) for tooling and tests.
  const ValueMap* value_map(const std::string& name) const;
  const ExtremeMap* extreme_map(const std::string& name) const;

  /// Total retained bytes across aggregate maps (excl. base tables).
  size_t MapMemoryBytes() const;
  size_t TotalMapEntries() const;

  /// Aggregate maps plus the base-table snapshot.
  size_t StateBytes() const override;

  /// Snapshot / restore dynamic state: base tables, aggregate maps and
  /// MIN/MAX multisets. Slice indexes are derived state and rebuild lazily
  /// after a restore.
  Status SaveState(dbt::Ser* out) const override;
  Status LoadState(dbt::Deser* in) override;

  void set_trace_sink(TraceSink* sink) { trace_ = sink; }
  const ProfileStats& profile() const { return profile_; }
  std::string Profile() const override { return profile_.ToString(); }
  void ResetProfile() { profile_ = ProfileStats(); }

  // MapStore:
  Result<Value> ReadMap(const std::string& map, const Row& key,
                        bool store_init) override;
  const ValueMap* FindMap(const std::string& map) const override;
  const Table* FindRelation(const std::string& rel) const override;
  const std::unordered_set<Row, RowHash, RowEq>* LookupMapSlice(
      const std::string& map, const std::vector<size_t>& positions,
      const Row& key) override;

 protected:
  /// Process one batch of deltas (see stream_engine.h for semantics).
  Status DoApplyBatch(EventBatch&& batch) override;

  /// Process one delta. Updates base tables, aggregate maps and views.
  Status DoOnEvent(const Event& event) override;

 private:
  /// Secondary slice index: prefix key -> full keys (possibly stale; values
  /// are re-read at use). Built lazily on the first slice access with a
  /// given position pattern and maintained on every map mutation.
  struct SliceIndex {
    std::vector<size_t> positions;
    std::unordered_map<Row, std::unordered_set<Row, RowHash, RowEq>, RowHash,
                       RowEq>
        buckets;

    void Insert(const Row& full_key) {
      Row prefix;
      prefix.reserve(positions.size());
      for (size_t p : positions) prefix.push_back(full_key[p]);
      buckets[prefix].insert(full_key);
    }
  };

  /// Re-evaluation statements postponed to the end of the current batch.
  using DeferredReevals = std::vector<std::pair<const compiler::Statement*,
                                                const std::string*>>;

  /// True when the unified statement executes for events of `kind`.
  static bool StmtActive(const tir::Stmt& s, EventKind kind) {
    switch (s.when) {
      case tir::Stmt::When::kBoth: return true;
      case tir::Stmt::When::kInsertOnly: return kind == EventKind::kInsert;
      case tir::Stmt::When::kDeleteOnly: return kind == EventKind::kDelete;
    }
    return true;
  }

  /// Resolve each statement's profiler slot once per group (std::map nodes
  /// are stable, so the pointers stay valid for the group's lifetime).
  std::vector<ProfileStats::StatementStats*> ResolveStats(
      const tir::Trigger& trigger);

  /// Apply a map mutation, keeping slice indexes in sync.
  void ApplyMapAdd(ValueMap* target, const Row& key, const Value& delta);
  void ApplyMapSet(ValueMap* target, const Row& key, Value value);
  Status RunDeltaStatement(const compiler::Statement& stmt,
                           const Bindings& env,
                           std::vector<std::tuple<ValueMap*, Row, Value>>*
                               pending);
  Status RunReevalStatement(const compiler::Statement& stmt,
                            const Bindings& env);
  /// `sign` is the multiset op to apply: +1 add, -1 remove (for
  /// runtime-signed statements this is the event sign itself).
  Status RunExtremeStatement(const compiler::Statement& stmt,
                             const Bindings& env, int sign);

  /// Process one (relation, op) group of `count` tuples; deferrable
  /// re-evaluation statements are appended to `deferred` instead of run.
  Status ApplyGroup(const std::string& relation, EventKind kind,
                    const Row* tuples, size_t count,
                    DeferredReevals* deferred);
  Status ApplyGroupVectorized(const tir::Trigger& trigger, EventKind kind,
                              const Row* tuples, size_t count,
                              DeferredReevals* deferred);
  /// Vectorized processing with the delta phase fanned out over the shard
  /// pool: tuples are partitioned by target-key hash into the fixed logical
  /// shards, each worker evaluates its shards' bindings against the batch
  /// pre-state into private pending vectors, and the merge applies them in
  /// shard order — the same order at every thread count.
  Status ApplyGroupSharded(const tir::Trigger& trigger, EventKind kind,
                           const Row* tuples, size_t count,
                           DeferredReevals* deferred);
  Status ApplyGroupSequential(const tir::Trigger& trigger, EventKind kind,
                              const Row* tuples, size_t count,
                              DeferredReevals* deferred);
  Status FlushDeferredReevals(DeferredReevals* deferred);
  void Defer(const compiler::Statement* stmt, const std::string* rendering,
             DeferredReevals* deferred);

  compiler::Program program_;
  /// Typed trigger IR lowered once from program_ (sign-unified triggers,
  /// per-trigger batch analysis). Every trigger lookup goes through it.
  tir::Module tir_;
  Database db_;
  std::map<std::string, ValueMap> maps_;
  std::map<std::string, std::vector<SliceIndex>> slice_indexes_;
  std::map<std::string, ExtremeMap> extremes_;
  std::map<std::string, const compiler::MapDecl*> decls_;
  RingEvaluator eval_;
  TraceSink* trace_ = nullptr;
  ProfileStats profile_;
  std::vector<std::tuple<ValueMap*, Row, Value>> pending_;  ///< scratch
  bool in_init_ = false;  ///< re-entrancy guard for init-on-access

  /// True while shard workers are evaluating phase 1: lazy slice-index
  /// builds then serialize on slice_mu_ (the only mutation a parallel-safe
  /// delta evaluation can reach). Toggled exclusively on the driver thread,
  /// outside the parallel region.
  bool parallel_region_ = false;
  std::shared_mutex slice_mu_;
};

}  // namespace dbtoaster::runtime

#endif  // DBTOASTER_RUNTIME_ENGINE_H_
