#include "src/runtime/stream_engine.h"

#include <array>

#include "src/codegen/dbtoaster_runtime.h"
#include "src/common/str.h"

namespace dbtoaster::runtime {

void EventBatch::Group::Add(const Row& tuple) {
  dbt::AppendRow(cols, rows, defect, tuple.size(),
                 [&](dbt::EventColumn& col, size_t c) {
                   const Value& v = tuple[c];
                   if (v.is_string()) return col.push_str(v.AsString());
                   if (v.is_double()) return col.push_f64(v.AsDouble());
                   return col.push_i64(v.AsInt());
                 });
}

Row EventBatch::Group::RowAt(size_t i) const {
  Row out;
  out.reserve(cols.size());
  for (const dbt::EventColumn& c : cols) {
    switch (c.tag) {
      case dbt::EventColumn::Tag::kF64: out.emplace_back(c.f64[i]); break;
      case dbt::EventColumn::Tag::kStr: out.emplace_back(c.str[i]); break;
      case dbt::EventColumn::Tag::kI64: out.emplace_back(c.i64[i]); break;
    }
  }
  return out;
}

EventBatch EventBatch::Of(const Event& event) {
  EventBatch batch;
  batch.Add(event.kind, event.relation, event.tuple);
  return batch;
}

void EventBatch::Add(EventKind kind, const std::string& relation, Row tuple) {
  // Streams run long (relation, op) bursts; check the most recent group
  // first, then fall back to a scan (the group count is bounded by
  // 2 * #relations).
  if (!groups_.empty() && groups_.back().kind == kind &&
      groups_.back().relation == relation) {
    groups_.back().Add(tuple);
    ++events_;
    return;
  }
  for (Group& g : groups_) {
    if (g.kind == kind && g.relation == relation) {
      g.Add(tuple);
      ++events_;
      return;
    }
  }
  groups_.emplace_back(relation, kind);
  groups_.back().Add(tuple);
  ++events_;
}

void EventBatch::AddGroup(Group&& group) {
  for (Group& g : groups_) {
    if (g.kind == group.kind && g.relation == group.relation) {
      dbt::MergeColumns(g.cols, g.rows, g.defect, group.cols, group.rows,
                        group.defect);
      events_ += group.rows;
      return;
    }
  }
  events_ += group.rows;
  groups_.push_back(std::move(group));
}

// ---- dynamic value serde ------------------------------------------------

void WriteValue(dbt::Ser& out, const Value& v) {
  if (v.is_string()) {
    out.u8(2);
    out.str(v.AsString());
  } else if (v.is_double()) {
    out.u8(1);
    out.f64(v.AsDouble());
  } else {
    out.u8(0);
    out.i64(v.AsInt());
  }
}

bool ReadValue(dbt::Deser& in, Value* v) {
  switch (in.u8()) {
    case 0: *v = Value(in.i64()); break;
    case 1: *v = Value(in.f64()); break;
    case 2: *v = Value(in.str()); break;
    default: return false;
  }
  return in.ok();
}

void WriteRow(dbt::Ser& out, const Row& row) {
  out.u64(row.size());
  for (const Value& v : row) WriteValue(out, v);
}

bool ReadRow(dbt::Deser& in, Row* row) {
  row->clear();
  const uint64_t n = in.u64();
  // Arity bound: a row longer than the remaining bytes is corrupt (every
  // value encodes to >= 1 byte), so a garbage length cannot OOM us.
  if (!in.ok() || n > in.remaining()) return false;
  row->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    Value v;
    if (!ReadValue(in, &v)) return false;
    row->push_back(std::move(v));
  }
  return true;
}

// ---- IngestValidator ----------------------------------------------------

namespace {

using Tag = dbt::EventColumn::Tag;

const char* TagName(Tag t) {
  switch (t) {
    case Tag::kF64: return "f64";
    case Tag::kStr: return "str";
    default: return "i64";
  }
}

Tag TagOfType(Type t) {
  switch (t) {
    case Type::kString: return Tag::kStr;
    case Type::kDouble: return Tag::kF64;
    default: return Tag::kI64;  // ints and dates ride i64 lanes
  }
}

Tag TagOfValue(const Value& v) {
  if (v.is_string()) return Tag::kStr;
  return v.is_double() ? Tag::kF64 : Tag::kI64;
}

/// String lanes and numeric lanes never mix; the two numeric lanes do, and
/// coercion moves them onto the schema's.
Status CheckLane(const std::string& relation, size_t col, Tag want, Tag got) {
  if ((want == Tag::kStr) == (got == Tag::kStr)) return Status::OK();
  return Status::TypeError(
      StrFormat("ingest: relation '%s' column %zu expects %s lane, got %s",
                relation.c_str(), col, TagName(want), TagName(got)));
}

/// A relation with no registered schema (`lanes` null), or one of another
/// arity.
Status ShapeError(const std::string& relation,
                  const IngestValidator::Lanes* lanes, size_t arity) {
  if (lanes == nullptr) {
    return Status::NotFound(
        StrFormat("ingest: unknown relation '%s'", relation.c_str()));
  }
  return Status::InvalidArgument(
      StrFormat("ingest: relation '%s' expects arity %zu, got %zu",
                relation.c_str(), lanes->size(), arity));
}

Status NotExactInt(const std::string& relation, size_t col, size_t row,
                   double v) {
  return Status::TypeError(StrFormat(
      "ingest: relation '%s' column %zu row %zu: %.17g is not an exact "
      "integer for an i64 column",
      relation.c_str(), col, row, v));
}

/// Ragged and mistyped rows recorded when the group was built.
Status CheckDefect(const EventBatch::Group& g) {
  const dbt::RowDefect& d = g.defect;
  switch (d.kind) {
    case dbt::RowDefect::Kind::kNone:
      return Status::OK();
    case dbt::RowDefect::Kind::kRagged:
      return Status::InvalidArgument(StrFormat(
          "ingest: relation '%s' row %zu is ragged: its arity differs from "
          "row 0's (%zu columns) at column %zu",
          g.relation.c_str(), d.row, g.cols.size(), d.col));
    case dbt::RowDefect::Kind::kMistyped:
      break;
  }
  const bool str_lane = g.cols[d.col].tag == Tag::kStr;
  return Status::TypeError(StrFormat(
      "ingest: relation '%s' column %zu row %zu carries a %s in a %s column",
      g.relation.c_str(), d.col, d.row, str_lane ? "number" : "string",
      str_lane ? "string" : "numeric"));
}

}  // namespace

void IngestValidator::Register(const std::string& relation, Lanes lanes) {
  schemas_[ToUpper(relation)] = std::move(lanes);
}

void IngestValidator::RegisterCatalog(const Catalog& catalog) {
  for (const Schema& schema : catalog.relations()) {
    Lanes lanes;
    lanes.reserve(schema.num_columns());
    for (const auto& [col, type] : schema.columns()) {
      (void)col;
      lanes.push_back(TagOfType(type));
    }
    Register(schema.name(), std::move(lanes));
  }
}

const IngestValidator::Lanes* IngestValidator::Find(
    const std::string& relation) const {
  auto it = schemas_.find(ToUpper(relation));
  return it == schemas_.end() ? nullptr : &it->second;
}

Status IngestValidator::ValidateBatch(const EventBatch& batch) const {
  for (const EventBatch::Group& g : batch.groups()) {
    if (g.rows == 0) continue;
    DBT_RETURN_IF_ERROR(CheckDefect(g));
    if (schemas_.empty()) continue;
    const Lanes* lanes = Find(g.relation);
    if (lanes == nullptr || lanes->size() != g.cols.size()) {
      return ShapeError(g.relation, lanes, g.cols.size());
    }
    for (size_t c = 0; c < g.cols.size(); ++c) {
      const dbt::EventColumn& col = g.cols[c];
      DBT_RETURN_IF_ERROR(CheckLane(g.relation, c, (*lanes)[c], col.tag));
      if ((*lanes)[c] != Tag::kI64 || col.tag != Tag::kF64) continue;
      for (size_t r = 0; r < col.f64.size(); ++r) {
        if (!dbt::IsExactInt(col.f64[r])) {
          return NotExactInt(g.relation, c, r, col.f64[r]);
        }
      }
    }
  }
  return Status::OK();
}

Status IngestValidator::ValidateEvent(const Event& event,
                                      bool* needs_coercion) const {
  if (schemas_.empty()) return Status::OK();
  const Lanes* lanes = Find(event.relation);
  if (lanes == nullptr || lanes->size() != event.tuple.size()) {
    return ShapeError(event.relation, lanes, event.tuple.size());
  }
  for (size_t c = 0; c < lanes->size(); ++c) {
    const Value& v = event.tuple[c];
    const Tag got = TagOfValue(v);
    if (got == (*lanes)[c]) continue;
    DBT_RETURN_IF_ERROR(CheckLane(event.relation, c, (*lanes)[c], got));
    if (got == Tag::kF64 && !dbt::IsExactInt(v.AsDouble())) {
      return NotExactInt(event.relation, c, 0, v.AsDouble());
    }
    if (needs_coercion != nullptr) *needs_coercion = true;
  }
  return Status::OK();
}

void IngestValidator::CoerceBatch(EventBatch* batch) const {
  if (schemas_.empty()) return;
  for (EventBatch::Group& g : batch->groups()) {
    const Lanes* lanes = Find(g.relation);
    if (lanes == nullptr || lanes->size() != g.cols.size()) continue;
    for (size_t c = 0; c < g.cols.size(); ++c) {
      g.cols[c].retag((*lanes)[c]);
    }
  }
}

void IngestValidator::CoerceEvent(Event* event) const {
  const Lanes* lanes = Find(event->relation);
  if (lanes == nullptr || lanes->size() != event->tuple.size()) return;
  for (size_t c = 0; c < event->tuple.size(); ++c) {
    Value& v = event->tuple[c];
    if ((*lanes)[c] == Tag::kF64 && v.is_int()) v = Value(v.AsDouble());
    if ((*lanes)[c] == Tag::kI64 && v.is_double()) v = Value(v.AsInt());
  }
}

// ---- concurrent view serving ----------------------------------------------

namespace {

/// Rendering diffs fan out over the worker pool past this many total rows;
/// below it the per-shard loop runs inline (pool dispatch costs more than
/// the diff itself for small views).
constexpr size_t kParallelDiffCutoff = 512;

/// Diff one logical shard's rows of `prev` vs `next` into `out`. Row order
/// inside a shard follows the rendering order, so the result is
/// deterministic for a given pair of renderings.
void DiffShard(const exec::QueryResult& prev, const exec::QueryResult& next,
               const std::vector<uint32_t>& prev_rows,
               const std::vector<uint32_t>& next_rows, ViewDelta* out) {
  std::unordered_map<Row, int64_t, RowHash, RowEq> counts;
  counts.reserve(prev_rows.size() + next_rows.size());
  for (uint32_t i : prev_rows) {
    counts[prev.rows[i].first] += prev.rows[i].second;
  }
  for (uint32_t i : next_rows) {
    counts[next.rows[i].first] -= next.rows[i].second;
  }
  for (uint32_t i : next_rows) {
    auto it = counts.find(next.rows[i].first);
    if (it != counts.end() && it->second < 0) {
      out->added.emplace_back(next.rows[i].first, -it->second);
      it->second = 0;
    }
  }
  for (uint32_t i : prev_rows) {
    auto it = counts.find(prev.rows[i].first);
    if (it != counts.end() && it->second > 0) {
      out->removed.emplace_back(prev.rows[i].first, it->second);
      it->second = 0;
    }
  }
}

std::array<std::vector<uint32_t>, kNumShards> ShardRows(
    const exec::QueryResult& r) {
  std::array<std::vector<uint32_t>, kNumShards> shards;
  for (size_t i = 0; i < r.rows.size(); ++i) {
    shards[dbt::ShardOfHash(RowHash{}(r.rows[i].first))].push_back(
        static_cast<uint32_t>(i));
  }
  return shards;
}

}  // namespace

ViewDelta DiffViewRendering(const std::string& name,
                            const exec::QueryResult& prev,
                            const exec::QueryResult& next) {
  ViewDelta delta;
  delta.view = name;
  const auto prev_shards = ShardRows(prev);
  const auto next_shards = ShardRows(next);
  std::array<ViewDelta, kNumShards> per_shard;
  if (prev.rows.size() + next.rows.size() >= kParallelDiffCutoff) {
    dbt::shard_pool().RunShards(kNumShards, [&](size_t s) {
      DiffShard(prev, next, prev_shards[s], next_shards[s], &per_shard[s]);
    });
  } else {
    for (size_t s = 0; s < kNumShards; ++s) {
      DiffShard(prev, next, prev_shards[s], next_shards[s], &per_shard[s]);
    }
  }
  for (ViewDelta& d : per_shard) {
    delta.added.insert(delta.added.end(),
                       std::make_move_iterator(d.added.begin()),
                       std::make_move_iterator(d.added.end()));
    delta.removed.insert(delta.removed.end(),
                         std::make_move_iterator(d.removed.begin()),
                         std::make_move_iterator(d.removed.end()));
  }
  return delta;
}

void ApplyViewDelta(const ViewDelta& delta,
                    std::unordered_map<Row, int64_t, RowHash, RowEq>* rows) {
  for (const auto& [row, count] : delta.removed) {
    auto it = rows->find(row);
    if (it == rows->end()) continue;
    it->second -= count;
    if (it->second == 0) rows->erase(it);
  }
  for (const auto& [row, count] : delta.added) {
    (*rows)[row] += count;
  }
}

std::vector<std::string> ViewSnapshot::view_names() const {
  std::vector<std::string> out;
  if (data_ == nullptr) return out;
  out.reserve(data_->views.size());
  for (const ViewRendering& v : data_->views) out.push_back(v.name);
  return out;
}

const exec::QueryResult* ViewSnapshot::Find(const std::string& name) const {
  if (data_ == nullptr) return nullptr;
  for (const ViewRendering& v : data_->views) {
    if (v.name == name) return &v.result;
  }
  return nullptr;
}

Result<exec::QueryResult> ViewSnapshot::View(const std::string& name) const {
  const exec::QueryResult* r = Find(name);
  if (r == nullptr) return Status::NotFound("snapshot has no view: " + name);
  return *r;
}

std::vector<std::shared_ptr<const EpochDelta>> ViewSubscriber::Poll() {
  std::vector<std::shared_ptr<const EpochDelta>> out;
  if (chan_ == nullptr) return out;
  std::lock_guard<std::mutex> lock(chan_->mu);
  out.assign(chan_->queue.begin(), chan_->queue.end());
  chan_->queue.clear();
  return out;
}

bool ViewSubscriber::lagged() const {
  if (chan_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(chan_->mu);
  return chan_->lagged;
}

Status StreamEngine::RenderViews(const std::vector<std::string>& names,
                                 std::vector<ViewRendering>* out) {
  out->reserve(names.size());
  for (const std::string& name : names) {
    DBT_ASSIGN_OR_RETURN(exec::QueryResult r, View(name));
    ViewRendering rendering;
    rendering.name = name;
    rendering.result = std::move(r);
    out->push_back(std::move(rendering));
  }
  return Status::OK();
}

Status StreamEngine::EnableServing(std::vector<std::string> views) {
  if (views.empty()) views = ViewNames();
  if (views.empty()) {
    return Status::InvalidArgument("serving: engine exposes no views");
  }
  auto data = std::make_shared<ViewSnapshot::Data>();
  data->epoch = epoch_;
  DBT_RETURN_IF_ERROR(RenderViews(views, &data->views));
  {
    std::lock_guard<std::mutex> lock(serving_mu_);
    serving_views_ = std::move(views);
    published_ = std::move(data);
  }
  serving_enabled_.store(true, std::memory_order_release);
  return Status::OK();
}

ViewSnapshot StreamEngine::Snapshot() const {
  std::lock_guard<std::mutex> lock(serving_mu_);
  return ViewSnapshot(published_);
}

Result<ViewSubscriber> StreamEngine::Subscribe() {
  if (!serving()) {
    return Status::InvalidArgument(
        "serving: EnableServing() before subscribing");
  }
  ViewSubscriber sub;
  sub.chan_ = std::make_shared<ViewSubscriber::Channel>();
  std::lock_guard<std::mutex> lock(serving_mu_);
  sub.base_ = ViewSnapshot(published_);
  subscribers_.push_back(sub.chan_);
  return sub;
}

Status StreamEngine::PublishSnapshot() {
  // Render outside any lock: the writer thread has exclusive access to the
  // live state, and readers keep using the previously published snapshot
  // until the swap below.
  auto data = std::make_shared<ViewSnapshot::Data>();
  data->epoch = epoch_;
  DBT_RETURN_IF_ERROR(RenderViews(serving_views_, &data->views));

  // Short publish section: swap the snapshot in and collect the live
  // subscriber channels as of the swap (a subscriber registered before it
  // has base == prev and needs this delta; one registered after has base ==
  // data and does not).
  std::shared_ptr<const ViewSnapshot::Data> prev;
  std::vector<std::shared_ptr<ViewSubscriber::Channel>> live;
  {
    std::lock_guard<std::mutex> lock(serving_mu_);
    prev = std::move(published_);
    published_ = data;
    size_t kept = 0;
    for (size_t i = 0; i < subscribers_.size(); ++i) {
      if (auto chan = subscribers_[i].lock()) {
        live.push_back(std::move(chan));
        // Guard the compaction against self-move: a weak_ptr move-assigned
        // onto itself is left empty.
        if (kept != i) subscribers_[kept] = std::move(subscribers_[i]);
        ++kept;
      }
    }
    subscribers_.resize(kept);
  }
  if (live.empty()) return Status::OK();

  // Delta computation happens off the publish lock; readers are already on
  // the new snapshot.
  auto delta = std::make_shared<EpochDelta>();
  delta->epoch = data->epoch;
  delta->views.reserve(data->views.size());
  for (size_t i = 0; i < data->views.size(); ++i) {
    delta->views.push_back(DiffViewRendering(
        data->views[i].name, prev->views[i].result, data->views[i].result));
  }
  for (auto& chan : live) {
    std::lock_guard<std::mutex> lock(chan->mu);
    if (chan->lagged) continue;
    if (chan->queue.size() >= max_queued_deltas_) {
      // The subscriber fell behind the bound: its stream now has a gap, so
      // the queued prefix is useless — drop it and mark the lag.
      chan->queue.clear();
      chan->lagged = true;
      continue;
    }
    chan->queue.push_back(delta);
  }
  return Status::OK();
}

// ---- StreamEngine wrappers ----------------------------------------------

Status StreamEngine::ApplyBatch(EventBatch&& batch) {
  DBT_RETURN_IF_ERROR(validator_.ValidateBatch(batch));
  validator_.CoerceBatch(&batch);
  DBT_RETURN_IF_ERROR(DoApplyBatch(std::move(batch)));
  ++epoch_;
  if (serving_enabled_.load(std::memory_order_relaxed)) {
    DBT_RETURN_IF_ERROR(PublishSnapshot());
  }
  return Status::OK();
}

Status StreamEngine::OnEvent(const Event& event) {
  bool needs_coercion = false;
  DBT_RETURN_IF_ERROR(validator_.ValidateEvent(event, &needs_coercion));
  if (needs_coercion) [[unlikely]] {
    DBT_RETURN_IF_ERROR(OnCoercedEvent(event));
  } else {
    DBT_RETURN_IF_ERROR(DoOnEvent(event));
  }
  ++epoch_;
  if (serving_enabled_.load(std::memory_order_relaxed)) {
    DBT_RETURN_IF_ERROR(PublishSnapshot());
  }
  return Status::OK();
}

Status StreamEngine::OnCoercedEvent(const Event& event) {
  Event typed = event;
  validator_.CoerceEvent(&typed);
  return DoOnEvent(typed);
}

Result<Value> StreamEngine::ViewScalar(const std::string& name) {
  DBT_ASSIGN_OR_RETURN(exec::QueryResult r, View(name));
  if (r.rows.size() != 1 || r.rows[0].first.size() != 1) {
    return Status::InvalidArgument("view is not single-valued: " + name);
  }
  return r.rows[0].first[0];
}

Status StreamEngine::SaveState(dbt::Ser* out) const {
  (void)out;
  return Status::NotSupported("engine '" + Name() +
                              "' does not implement state capture");
}

Status StreamEngine::LoadState(dbt::Deser* in) {
  (void)in;
  return Status::NotSupported("engine '" + Name() +
                              "' does not implement state restore");
}

// ---- UpsertNormalizer ---------------------------------------------------

void UpsertNormalizer::DeclareKey(const std::string& relation,
                                  std::vector<size_t> key_cols) {
  KeyedRelation& kr = keyed_[ToUpper(relation)];
  kr.key_cols = std::move(key_cols);
}

EventBatch UpsertNormalizer::Normalize(EventBatch&& batch) {
  EventBatch out;
  for (EventBatch::Group& g : batch.groups()) {
    auto it = keyed_.find(ToUpper(g.relation));
    if (it == keyed_.end()) {
      for (size_t i = 0; i < g.rows; ++i) {
        out.Add(g.kind, g.relation, g.RowAt(i));
      }
      continue;
    }
    KeyedRelation& kr = it->second;
    for (size_t i = 0; i < g.rows; ++i) {
      Row row = g.RowAt(i);
      Row key;
      key.reserve(kr.key_cols.size());
      for (size_t c : kr.key_cols) {
        key.push_back(c < row.size() ? row[c] : Value(int64_t{0}));
      }
      auto cur = kr.current.find(key);
      if (g.kind == EventKind::kInsert) {
        if (cur != kr.current.end()) {
          if (RowEq{}(cur->second, row)) continue;  // duplicate insert
          out.AddDelete(g.relation, cur->second);   // upsert: replace
          cur->second = row;
        } else {
          kr.current.emplace(std::move(key), row);
        }
        out.AddInsert(g.relation, std::move(row));
      } else {
        // Deletes must name the live row; late/duplicated/reordered
        // deletes (unknown key or stale image) are dropped.
        if (cur == kr.current.end() || !RowEq{}(cur->second, row)) continue;
        kr.current.erase(cur);
        out.AddDelete(g.relation, std::move(row));
      }
    }
  }
  return out;
}

void UpsertNormalizer::Save(dbt::Ser* out) const {
  out->u64(keyed_.size());
  for (const auto& [name, kr] : keyed_) {
    out->str(name);
    out->u64(kr.key_cols.size());
    for (size_t c : kr.key_cols) out->u64(c);
    out->u64(kr.current.size());
    // std::unordered_map iteration order is not stable across processes;
    // the table is rebuilt entry-by-entry, so order does not matter.
    for (const auto& [key, row] : kr.current) {
      (void)key;  // keys re-derive by projection
      WriteRow(*out, row);
    }
  }
}

Status UpsertNormalizer::Load(dbt::Deser* in) {
  keyed_.clear();
  const uint64_t nrel = in->u64();
  for (uint64_t r = 0; r < nrel && in->ok(); ++r) {
    const std::string name = in->str();
    KeyedRelation& kr = keyed_[name];
    const uint64_t nkeys = in->u64();
    if (!in->ok() || nkeys > in->remaining()) {
      return Status::ParseError("upsert state: corrupt key column list");
    }
    kr.key_cols.reserve(static_cast<size_t>(nkeys));
    for (uint64_t k = 0; k < nkeys; ++k) {
      kr.key_cols.push_back(static_cast<size_t>(in->u64()));
    }
    const uint64_t nrows = in->u64();
    for (uint64_t i = 0; i < nrows && in->ok(); ++i) {
      Row row;
      if (!ReadRow(*in, &row)) {
        return Status::ParseError("upsert state: corrupt row");
      }
      Row key;
      key.reserve(kr.key_cols.size());
      for (size_t c : kr.key_cols) {
        key.push_back(c < row.size() ? row[c] : Value(int64_t{0}));
      }
      kr.current[std::move(key)] = std::move(row);
    }
  }
  if (!in->ok()) return Status::ParseError("upsert state: truncated");
  return Status::OK();
}

size_t UpsertNormalizer::live_rows(const std::string& relation) const {
  auto it = keyed_.find(ToUpper(relation));
  return it == keyed_.end() ? 0 : it->second.current.size();
}

// ---- CompiledProgramEngine ----------------------------------------------

namespace {

/// Convert a storage row to the generated-code value vector.
std::vector<dbt::Value> ToDbtValues(const Row& row) {
  std::vector<dbt::Value> out;
  out.reserve(row.size());
  for (const Value& v : row) {
    if (v.is_string()) {
      out.emplace_back(v.AsString());
    } else if (v.is_double()) {
      out.emplace_back(v.AsDouble());
    } else {
      out.emplace_back(v.AsInt());
    }
  }
  return out;
}

Value FromDbtValue(const dbt::Value& v) {
  if (std::holds_alternative<std::string>(v)) {
    return Value(std::get<std::string>(v));
  }
  if (std::holds_alternative<double>(v)) return Value(std::get<double>(v));
  return Value(std::get<int64_t>(v));
}

}  // namespace

CompiledProgramEngine::CompiledProgramEngine(dbt::StreamProgram* program,
                                             std::string name)
    : program_(program), name_(std::move(name)) {
  // Generated programs publish the catalog's relation layouts; arm the
  // boundary validator with them so malformed batches are rejected and
  // numeric lanes coerced before the typed handlers. Programs predating
  // schema emission publish none and keep the permissive boundary.
  for (const dbt::RelationSchema& rs : program_->relation_schemas()) {
    RegisterIngestSchema(rs.name, rs.lanes);
  }
}

size_t CompiledProgramEngine::StateBytes() const {
  return program_->state_bytes();
}

Status CompiledProgramEngine::DoApplyBatch(EventBatch&& batch) {
  // The typed lanes move across the boundary whole, already on the lanes
  // the generated handlers were compiled for (the wrapper coerced them).
  dbt::EventBatch out;
  for (EventBatch::Group& g : batch.groups()) {
    dbt::EventBatch::Group og;
    og.relation = std::move(g.relation);
    og.is_insert = g.kind == EventKind::kInsert;
    og.rows = g.rows;
    og.cols = std::move(g.cols);
    out.add_group(std::move(og));
  }
  program_->on_batch(out);
  return Status::OK();
}

Status CompiledProgramEngine::DoOnEvent(const Event& event) {
  program_->on_event(event.relation, event.kind == EventKind::kInsert,
                     ToDbtValues(event.tuple));
  return Status::OK();
}

Status CompiledProgramEngine::SaveState(dbt::Ser* out) const {
  if (!program_->save_state(*out)) {
    return Status::NotSupported("program '" + name_ +
                                "' was generated without state capture");
  }
  return Status::OK();
}

Status CompiledProgramEngine::LoadState(dbt::Deser* in) {
  if (!program_->load_state(*in)) {
    return Status::ParseError("program '" + name_ +
                              "' state restore failed (corrupt snapshot or "
                              "program generated without state capture)");
  }
  return Status::OK();
}

Result<exec::QueryResult> CompiledProgramEngine::View(
    const std::string& name) {
  bool known = false;
  for (const std::string& v : program_->view_names()) {
    if (v == name) {
      known = true;
      break;
    }
  }
  if (!known) return Status::NotFound("unknown view: " + name);
  exec::QueryResult out;
  out.column_names = program_->view_column_names(name);
  for (std::vector<dbt::Value>& row : program_->view_rows(name)) {
    Row r;
    r.reserve(row.size());
    for (const dbt::Value& v : row) r.push_back(FromDbtValue(v));
    out.rows.emplace_back(std::move(r), 1);
  }
  return out;
}

std::vector<std::string> CompiledProgramEngine::ViewNames() const {
  return program_->view_names();
}

Status CompiledProgramEngine::RenderViews(
    const std::vector<std::string>& names, std::vector<ViewRendering>* out) {
  // One pass over the program's maps via the generated snapshot-publish
  // hook, instead of a string-dispatched view_rows call per view.
  std::vector<dbt::ViewRows> snap = program_->publish_snapshot();
  out->reserve(names.size());
  for (const std::string& name : names) {
    dbt::ViewRows* found = nullptr;
    for (dbt::ViewRows& vr : snap) {
      if (vr.name == name) {
        found = &vr;
        break;
      }
    }
    if (found == nullptr) {
      return Status::NotFound("unknown view: " + name);
    }
    ViewRendering rendering;
    rendering.name = name;
    rendering.result.column_names = program_->view_column_names(name);
    rendering.result.rows.reserve(found->rows.size());
    for (std::vector<dbt::Value>& row : found->rows) {
      Row r;
      r.reserve(row.size());
      for (const dbt::Value& v : row) r.push_back(FromDbtValue(v));
      rendering.result.rows.emplace_back(std::move(r), 1);
    }
    out->push_back(std::move(rendering));
  }
  return Status::OK();
}

}  // namespace dbtoaster::runtime
