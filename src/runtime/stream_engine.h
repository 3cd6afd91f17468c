// The unified engine surface of the paper's §2 system model: every consumer
// of an update stream — the trigger interpreter (runtime::Engine), the
// bakeoff baselines (re-evaluation, first-order IVM) and dbtc-generated
// programs — is a standing-query engine fed deltas. StreamEngine is that
// contract; EventBatch is its vectorized unit of ingestion, grouping deltas
// per (relation, op) so engines can amortize dispatch, trigger lookup and
// index maintenance over whole vectors of bindings.
//
// Batch semantics: ApplyBatch(b) is equivalent to sequentially replaying
// b's events grouped by (relation, op) in first-encounter group order. For
// well-formed streams (a delete targets a tuple that is live at batch
// start, or inserted earlier in the same batch) the final views equal those
// of one-at-a-time replay in the original order: views are functions of the
// final database state, which is order-independent under multiset
// semantics, and MIN/MAX multisets tolerate transient negative counts
// (see ExtremeMap).
//
// The ingest boundary is treated as untrusted: ApplyBatch and OnEvent are
// non-virtual wrappers that validate relation names, arity and lane types
// against the engine's registered schemas (returning a structured Status —
// never UB or a silent skip), coerce each numeric column onto the lane its
// schema declares, hand the batch to the engine's DoApplyBatch, and count
// successfully applied calls as the engine's epoch (the exactly-once cursor
// of the batch-log recovery protocol, see src/runtime/batch_log.h).
#ifndef DBTOASTER_RUNTIME_STREAM_ENGINE_H_
#define DBTOASTER_RUNTIME_STREAM_ENGINE_H_

#include <array>
#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/codegen/dbtoaster_runtime.h"
#include "src/common/status.h"
#include "src/exec/executor.h"
#include "src/storage/table.h"

namespace dbtoaster::runtime {

/// The process-wide worker pool and logical shard count, shared by the
/// interpreted engine, the baselines and dbtc-generated programs (see
/// dbt::ShardPool). Thread count is a pool property, not an engine one:
/// every engine reads it at batch time.
using ShardPool = dbt::ShardPool;
inline ShardPool& shard_pool() { return dbt::shard_pool(); }
inline constexpr size_t kNumShards = dbt::kNumShards;

/// Partition of one (relation, op) group's tuples into the fixed logical
/// shards, by finalized hash of the partition columns (or of the whole
/// tuple when no partition-key subset was derivable). Tuple order within a
/// shard preserves group order, so per-shard replay is deterministic and
/// independent of the worker count.
struct ShardPlan {
  std::array<std::vector<uint32_t>, kNumShards> shards;

  static ShardPlan Partition(const Row* tuples, size_t count,
                             const std::vector<size_t>& partition_cols);
};

/// One batch of deltas, grouped per (relation, op) with per-group typed
/// column storage: the columnar unit all engines ingest. Groups keep
/// first-encounter order. A group's lanes are dbt::EventColumn, the type the
/// generated handlers scan, so the compiled path moves them across the
/// boundary whole. Interpreted engines that want whole tuples use Rows().
class EventBatch {
 public:
  struct Group {
    std::string relation;
    EventKind kind = EventKind::kInsert;
    std::vector<dbt::EventColumn> cols;
    size_t rows = 0;
    /// First ragged or mistyped row added (see dbt::RowDefect); the ingest
    /// validator refuses a group that has one.
    dbt::RowDefect defect;

    Group() = default;
    Group(std::string rel, EventKind k)
        : relation(std::move(rel)), kind(k) {}

    /// Append one tuple, splitting it across the typed columns.
    void Add(const Row& tuple);

    /// Reassemble tuple `i` from the columns.
    Row RowAt(size_t i) const;

    /// Every tuple of the group, for engines that bind whole rows.
    std::vector<Row> Rows() const {
      std::vector<Row> out;
      out.reserve(rows);
      for (size_t i = 0; i < rows; ++i) out.push_back(RowAt(i));
      return out;
    }
  };

  EventBatch() = default;

  /// A one-element batch (the OnEvent convenience path).
  static EventBatch Of(const Event& event);

  /// Append one delta, coalescing into an existing (relation, op) group.
  void Add(EventKind kind, const std::string& relation, Row tuple);
  void Add(Event event) {
    Add(event.kind, event.relation, std::move(event.tuple));
  }
  void AddInsert(const std::string& relation, Row tuple) {
    Add(EventKind::kInsert, relation, std::move(tuple));
  }
  void AddDelete(const std::string& relation, Row tuple) {
    Add(EventKind::kDelete, relation, std::move(tuple));
  }

  /// Append a whole columnar group (the batch-log decoder's path); a group
  /// for the same (relation, op) already present absorbs its rows instead.
  void AddGroup(Group&& group);

  const std::vector<Group>& groups() const { return groups_; }
  std::vector<Group>& groups() { return groups_; }

  /// Total number of events across groups.
  size_t size() const { return events_; }
  bool empty() const { return events_ == 0; }
  void Clear() {
    groups_.clear();
    events_ = 0;
  }

 private:
  std::vector<Group> groups_;
  size_t events_ = 0;
};

// ---- dynamic value serde (shared by checkpoints, the batch log and the
// ---- upsert adapter) ---------------------------------------------------

/// Tagged encoding of one dynamic Value: u8 tag (0 = int64, 1 = double,
/// 2 = string) + payload. ReadValue/ReadRow return false on a malformed
/// tag; truncation surfaces through the reader's ok() as usual.
void WriteValue(dbt::Ser& out, const Value& v);
bool ReadValue(dbt::Deser& in, Value* v);
void WriteRow(dbt::Ser& out, const Row& row);
bool ReadRow(dbt::Deser& in, Row* row);

/// Boundary validation of untrusted batches against registered relation
/// schemas. An engine registers the lane layout of every relation it is
/// willing to ingest (from its catalog, or from a generated program's
/// published schemas); validation then rejects, naming the relation and,
/// where one is at fault, the column and row:
///   - a ragged group (rows of differing arity)   -> kInvalidArgument
///   - a mistyped group (a string among numbers,
///     or a number among strings, in one column)  -> kTypeError
///   - unknown relations                           -> kNotFound
///   - group arity != schema arity                 -> kInvalidArgument
///   - string lane where the schema has a numeric
///     column, or vice versa                       -> kTypeError
///   - a double that is not an exact int64 aimed
///     at an INT or DATE column                    -> kTypeError
/// Ragged and mistyped groups are refused even with no schema registered;
/// otherwise a validator with no registered schemas passes everything
/// through (opt-in hardening).
///
/// The schema alone fixes each column's lane. Numeric lanes that arrive as
/// the other numeric type pass validation, and the Coerce* step the ingest
/// wrappers run next moves them onto the schema's lane (i64 <-> f64), so
/// every engine sees the same typed values whatever the feed sent.
class IngestValidator {
 public:
  using Lanes = std::vector<dbt::EventColumn::Tag>;

  void Register(const std::string& relation, Lanes lanes);
  void RegisterCatalog(const Catalog& catalog);
  bool empty() const { return schemas_.empty(); }

  Status ValidateBatch(const EventBatch& batch) const;
  Status ValidateEvent(const Event& event) const {
    return ValidateEvent(event, nullptr);
  }
  /// As above; also sets *needs_coercion when a numeric value's lane
  /// differs from its column's.
  Status ValidateEvent(const Event& event, bool* needs_coercion) const;

  /// Move every numeric lane of a validated batch / event onto the lane
  /// its schema declares.
  void CoerceBatch(EventBatch* batch) const;
  void CoerceEvent(Event* event) const;

 private:
  const Lanes* Find(const std::string& relation) const;

  /// Keyed by upper-cased relation name (catalog semantics).
  std::map<std::string, Lanes> schemas_;
};

// ---- concurrent view serving --------------------------------------------
//
// The serving tier decouples view reads from the single-threaded ingest
// path: after every successful ingest call the writer renders each
// registered view into an immutable, epoch-stamped snapshot
// (copy-on-publish) and swaps it in under a short mutex section. Readers on
// any thread grab the current ViewSnapshot handle — a shared_ptr copy —
// and read it without ever touching live engine state, so they can never
// observe a half-applied batch and never block the writer beyond the
// pointer swap. Subscribers receive the per-epoch *deltas* between
// consecutive published renderings instead (computed by a per-shard diff,
// the same fixed logical shards the parallel ApplyBatch uses), which
// replay to exactly the published view at every epoch.

/// One registered view's materialized content inside a snapshot.
struct ViewRendering {
  std::string name;
  exec::QueryResult result;
};

/// Rows added/removed in one view between two consecutive published
/// epochs, with multiplicities (a count change from 2 to 3 is one added
/// row). Concatenated in logical-shard order, deterministic for a given
/// engine replay.
struct ViewDelta {
  std::string view;
  std::vector<std::pair<Row, int64_t>> added;
  std::vector<std::pair<Row, int64_t>> removed;
};

/// All view deltas of one published epoch.
struct EpochDelta {
  uint64_t epoch = 0;
  std::vector<ViewDelta> views;
};

/// Per-shard diff of two renderings of the same view: rows are partitioned
/// into the fixed logical shards by row hash (large renderings fan the
/// shard diffs out over the worker pool) and each shard is diffed
/// independently; results concatenate in shard order. Exposed for tests
/// and serving tools.
ViewDelta DiffViewRendering(const std::string& name,
                            const exec::QueryResult& prev,
                            const exec::QueryResult& next);

/// Replay helper: apply one view delta to a row->count multiset (zero
/// counts are erased). base + deltas(1..e) == the published rendering at
/// epoch e.
void ApplyViewDelta(const ViewDelta& delta,
                    std::unordered_map<Row, int64_t, RowHash, RowEq>* rows);

/// An immutable, epoch-stamped rendering of every served view. Cheap to
/// copy (shared_ptr); safe to read from any thread, concurrently with the
/// writer, for as long as the handle lives.
class ViewSnapshot {
 public:
  struct Data {
    uint64_t epoch = 0;
    std::vector<ViewRendering> views;
  };

  ViewSnapshot() = default;

  /// False until the engine has published (serving not enabled).
  bool valid() const { return data_ != nullptr; }
  /// Ingest epoch this snapshot is fresh as of.
  uint64_t epoch() const { return data_ ? data_->epoch : 0; }

  std::vector<std::string> view_names() const;
  /// Borrowed pointer into the snapshot (nullptr for unknown views); valid
  /// for the handle's lifetime.
  const exec::QueryResult* Find(const std::string& name) const;
  /// Copying convenience over Find.
  Result<exec::QueryResult> View(const std::string& name) const;

 private:
  friend class StreamEngine;
  explicit ViewSnapshot(std::shared_ptr<const Data> data)
      : data_(std::move(data)) {}

  std::shared_ptr<const Data> data_;
};

/// A subscription to the engine's per-epoch view delta stream. Created by
/// StreamEngine::Subscribe; dropping the handle unsubscribes. The handle
/// carries the base snapshot it was seeded with: base + the polled deltas
/// (epochs base.epoch()+1, +2, ...) reconstruct the published view at
/// every epoch. Poll may be called from any thread.
class ViewSubscriber {
 public:
  ViewSubscriber() = default;

  bool valid() const { return chan_ != nullptr; }

  /// The snapshot this subscription started from (reconstruction base).
  const ViewSnapshot& base() const { return base_; }

  /// Drain every delta published since the last poll, in epoch order.
  std::vector<std::shared_ptr<const EpochDelta>> Poll();

  /// True once the engine dropped deltas because the subscriber fell more
  /// than the queue bound behind. A lagged stream has a gap and cannot be
  /// replayed; re-subscribe for a fresh base.
  bool lagged() const;

 private:
  friend class StreamEngine;
  struct Channel {
    std::mutex mu;
    std::deque<std::shared_ptr<const EpochDelta>> queue;
    bool lagged = false;
  };

  std::shared_ptr<Channel> chan_;
  ViewSnapshot base_;
};

/// A continuously-maintained standing-query engine fed delta batches.
///
/// ApplyBatch / OnEvent are deliberately non-virtual: they validate the
/// input, delegate to the engine's DoApplyBatch / DoOnEvent, and advance
/// the epoch on success, so every engine shares one hardened boundary and
/// one recovery cursor. Engine classes implement the Do* hooks.
class StreamEngine {
 public:
  virtual ~StreamEngine() = default;

  /// Short label for bench tables ("reeval", "ivm1", "toaster-i", ...).
  virtual std::string Name() const = 0;

  /// Ingest one batch of deltas (see the file comment for semantics).
  Status ApplyBatch(EventBatch&& batch);

  /// One-element convenience; engines may override DoOnEvent with a leaner
  /// path than the one-element-batch default. The event is copied only
  /// when a numeric value needs coercion onto its column's lane.
  Status OnEvent(const Event& event);

  Status OnInsert(const std::string& relation, Row tuple) {
    return OnEvent(Event::Insert(relation, std::move(tuple)));
  }
  Status OnDelete(const std::string& relation, Row tuple) {
    return OnEvent(Event::Delete(relation, std::move(tuple)));
  }

  /// Current content of the registered view `name` (fresh as of the last
  /// batch). Writer-thread access to live state; concurrent readers use
  /// Snapshot() instead.
  virtual Result<exec::QueryResult> View(const std::string& name) = 0;

  /// Single-valued convenience for global aggregate views.
  virtual Result<Value> ViewScalar(const std::string& name);

  /// Names of the views this engine serves, in registration order (empty
  /// when the engine exposes none).
  virtual std::vector<std::string> ViewNames() const { return {}; }

  // ---- concurrent view serving (see the section comment above) ----

  /// Start publishing epoch-stamped snapshots of `views` (all ViewNames()
  /// when empty) after every ingest call, beginning with an immediate
  /// publish at the current epoch. Call from the writer thread before
  /// concurrent readers attach; each subsequent ApplyBatch/OnEvent pays
  /// one rendering pass per registered view.
  Status EnableServing(std::vector<std::string> views = {});
  bool serving() const {
    return serving_enabled_.load(std::memory_order_acquire);
  }

  /// The latest published snapshot (invalid handle before EnableServing).
  /// Safe from any thread; cost is one mutex-guarded shared_ptr copy.
  ViewSnapshot Snapshot() const;

  /// Register a subscriber for per-epoch view deltas, seeded with the
  /// current snapshot as its base. Registration is atomic with respect to
  /// publishes: the first delta a subscriber sees is for base.epoch()+1.
  Result<ViewSubscriber> Subscribe();

  /// Per-subscriber queue bound; past it a slow subscriber is marked
  /// lagged and its queued deltas are dropped (it must re-subscribe).
  size_t max_queued_deltas() const { return max_queued_deltas_; }
  void set_max_queued_deltas(size_t n) { max_queued_deltas_ = n == 0 ? 1 : n; }

  /// Retained bytes attributable to the engine's state (tables, indexes,
  /// maps), for the memory bench.
  virtual size_t StateBytes() const = 0;

  /// Human-readable execution statistics; empty when the engine keeps none.
  virtual std::string Profile() const { return std::string(); }

  /// Serialize the engine's dynamic state (base tables, aggregate maps,
  /// multisets) into `out` / restore it from `in`. Engines that implement
  /// state capture override both; the default reports kNotSupported.
  /// Restore protocol: construct the engine the same way (same program /
  /// registered queries), then LoadState — snapshots capture dynamic state,
  /// not query registration. The epoch is owned by the checkpoint envelope
  /// (src/runtime/checkpoint.h), not the payload.
  virtual Status SaveState(dbt::Ser* out) const;
  virtual Status LoadState(dbt::Deser* in);

  /// Number of successfully applied ingest calls (batches or single
  /// events). Monotonic; the batch-log recovery protocol uses it as the
  /// exactly-once replay cursor.
  uint64_t epoch() const { return epoch_; }
  void set_epoch(uint64_t e) { epoch_ = e; }

  const IngestValidator& ingest_validator() const { return validator_; }

 protected:
  /// Engine-specific batch ingestion; input has passed boundary validation
  /// and its numeric lanes match the registered schemas.
  virtual Status DoApplyBatch(EventBatch&& batch) = 0;
  virtual Status DoOnEvent(const Event& event) {
    return DoApplyBatch(EventBatch::Of(event));
  }

  /// Render each named view for a snapshot publish (writer thread, engine
  /// quiescent). The default calls View() per name; engines with a cheaper
  /// one-pass rendering (generated programs' publish_snapshot hook)
  /// override it.
  virtual Status RenderViews(const std::vector<std::string>& names,
                             std::vector<ViewRendering>* out);

  /// Schema registration for the boundary validator (typically from the
  /// engine's constructor).
  void RegisterIngestCatalog(const Catalog& catalog) {
    validator_.RegisterCatalog(catalog);
  }
  void RegisterIngestSchema(const std::string& relation,
                            IngestValidator::Lanes lanes) {
    validator_.Register(relation, std::move(lanes));
  }

 private:
  /// DoOnEvent on a copy of `event` moved onto its schema's lanes; kept out
  /// of line so the correctly typed OnEvent path carries no copy.
  [[gnu::noinline]] Status OnCoercedEvent(const Event& event);

  /// Render, diff against the previous rendering, and publish the new
  /// snapshot + per-epoch delta (writer thread, after a successful ingest).
  Status PublishSnapshot();

  IngestValidator validator_;
  uint64_t epoch_ = 0;

  // Serving state. Only the writer thread mutates published_ (publish) and
  // serving_views_ (EnableServing); serving_mu_ orders those writes against
  // reader Snapshot()/Subscribe() calls. Subscriber channels are held
  // weakly so dropping a ViewSubscriber handle unsubscribes it.
  std::atomic<bool> serving_enabled_{false};
  mutable std::mutex serving_mu_;
  std::shared_ptr<const ViewSnapshot::Data> published_;
  std::vector<std::weak_ptr<ViewSubscriber::Channel>> subscribers_;
  std::vector<std::string> serving_views_;
  size_t max_queued_deltas_ = 4096;
};

/// Upsert/primary-key ingestion adapter: rewrites a raw, possibly
/// duplicated or reordered stream into the exact multiset deltas the
/// engines consume. For each relation declared with a key:
///   - an insert whose key is already live replaces the old row
///     (delete(old) + insert(new));
///   - a byte-identical duplicate insert is dropped;
///   - a delete whose key is not live (late, duplicated, or reordered
///     ahead of its insert) is dropped.
/// Undeclared relations pass through untouched. The adapter's key->row
/// table is itself engine state for recovery purposes (Save/Load), so a
/// restored pipeline dedups exactly where the crashed one would have.
class UpsertNormalizer {
 public:
  void DeclareKey(const std::string& relation, std::vector<size_t> key_cols);

  /// Rewrite `batch` into normalized deltas, in group order, row order
  /// within each group (deterministic for a given input).
  EventBatch Normalize(EventBatch&& batch);

  void Save(dbt::Ser* out) const;
  Status Load(dbt::Deser* in);

  size_t live_rows(const std::string& relation) const;

 private:
  struct KeyedRelation {
    std::vector<size_t> key_cols;
    std::unordered_map<Row, Row, RowHash, RowEq> current;  ///< key -> row
  };

  std::map<std::string, KeyedRelation> keyed_;
};

/// Drives a dbtc-generated program (any dbt::StreamProgram) through the
/// same interface as the interpreted engines, via the generated program's
/// string-dispatch shim. The program's published relation schemas (when
/// present) arm the boundary validator, so malformed batches are rejected
/// before they reach the typed handlers; relations the program knows but
/// has no trigger for remain counted no-ops, matching the generated
/// dispatcher's behaviour.
class CompiledProgramEngine final : public StreamEngine {
 public:
  explicit CompiledProgramEngine(dbt::StreamProgram* program,
                                 std::string name = "toaster-c");

  std::string Name() const override { return name_; }
  Result<exec::QueryResult> View(const std::string& name) override;
  std::vector<std::string> ViewNames() const override;
  size_t StateBytes() const override;

  Status SaveState(dbt::Ser* out) const override;
  Status LoadState(dbt::Deser* in) override;

  dbt::StreamProgram* program() { return program_; }

 protected:
  Status DoApplyBatch(EventBatch&& batch) override;
  Status DoOnEvent(const Event& event) override;

  /// Snapshot publishing goes through the generated program's one-pass
  /// publish_snapshot hook instead of per-view string dispatch.
  Status RenderViews(const std::vector<std::string>& names,
                     std::vector<ViewRendering>* out) override;

 private:
  dbt::StreamProgram* program_;
  std::string name_;
};

}  // namespace dbtoaster::runtime

#endif  // DBTOASTER_RUNTIME_STREAM_ENGINE_H_
