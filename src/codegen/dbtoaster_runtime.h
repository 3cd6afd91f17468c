// Standalone runtime support for DBToaster-generated C++ code.
//
// Generated event handlers depend on this header ONLY — no other part of
// the repository — so emitted sources can be compiled into any application
// (the paper's "embedded mode"). Keep it minimal and allocation-conscious:
// the whole point of compilation is straight-line code over hash maps.
#ifndef DBTOASTER_CODEGEN_DBTOASTER_RUNTIME_H_
#define DBTOASTER_CODEGEN_DBTOASTER_RUNTIME_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <type_traits>
#include <variant>
#include <vector>

#include "dbt_flat_map.h"
#include "dbt_select.h"
#include "dbt_serialize.h"
#include "dbt_shard_pool.h"

namespace dbt {

/// Dynamic value used only at the string-dispatch boundary; the generated
/// handler bodies are fully typed.
using Value = std::variant<int64_t, double, std::string>;

inline int64_t AsInt(const Value& v) {
  if (std::holds_alternative<int64_t>(v)) return std::get<int64_t>(v);
  if (std::holds_alternative<double>(v)) {
    return static_cast<int64_t>(std::get<double>(v));
  }
  return 0;
}
inline double AsDouble(const Value& v) {
  if (std::holds_alternative<double>(v)) return std::get<double>(v);
  if (std::holds_alternative<int64_t>(v)) {
    return static_cast<double>(std::get<int64_t>(v));
  }
  return 0.0;
}
inline const std::string& AsString(const Value& v) {
  static const std::string kEmpty;
  if (std::holds_alternative<std::string>(v)) return std::get<std::string>(v);
  return kEmpty;
}

/// SQL-style division: x/0 == 0.
inline double SafeDiv(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// SQL LIKE: '%' matches any run, '_' any single character. Matches the
/// interpreter's dbtoaster::LikeMatch exactly (no escape character).
inline bool Like(const std::string& s, const std::string& pattern) {
  size_t si = 0, pi = 0;
  size_t star_pi = std::string::npos, star_si = 0;
  while (si < s.size()) {
    if (pi < pattern.size() && (pattern[pi] == '_' || pattern[pi] == s[si])) {
      ++si;
      ++pi;
    } else if (pi < pattern.size() && pattern[pi] == '%') {
      star_pi = pi++;
      star_si = si;
    } else if (star_pi != std::string::npos) {
      pi = star_pi + 1;
      si = ++star_si;
    } else {
      return false;
    }
  }
  while (pi < pattern.size() && pattern[pi] == '%') ++pi;
  return pi == pattern.size();
}

/// Civil-calendar EXTRACT over days-since-epoch dates (Howard Hinnant's
/// civil_from_days; identical to the interpreter's DaysToCivil).
inline void CivilFromDays(int64_t days, int64_t* y, int64_t* m, int64_t* d) {
  const int64_t z = days + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const int64_t doe = z - era * 146097;
  const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = yoe + era * 400;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int64_t mp = (5 * doy + 2) / 153;
  *d = doy - (153 * mp + 2) / 5 + 1;
  *m = mp + (mp < 10 ? 3 : -9);
  *y = yy + (*m <= 2 ? 1 : 0);
}
inline int64_t ExtractYear(int64_t days) {
  int64_t y, m, d;
  CivilFromDays(days, &y, &m, &d);
  return y;
}
inline int64_t ExtractMonth(int64_t days) {
  int64_t y, m, d;
  CivilFromDays(days, &y, &m, &d);
  return m;
}
inline int64_t ExtractDay(int64_t days) {
  int64_t y, m, d;
  CivilFromDays(days, &y, &m, &d);
  return d;
}

/// Outcome of a map mutation, consumed by the generated upd_/st_ wrappers
/// to maintain secondary slice indexes eagerly (no stale growth).
enum class Upd : uint8_t {
  kUnchanged = 0,  ///< no-op (zero delta): index state already correct
  kLive = 1,       ///< entry exists after the update
  kErased = 2,     ///< entry was removed (or set to zero)
};

/// Aggregate map: composite key -> value; integer entries reaching zero are
/// erased so the live key set tracks the aggregate's support. Backed by the
/// robin-hood FlatMap with pooled storage (see dbt_flat_map.h).
template <typename K, typename V>
class Map {
 public:
  using Store = FlatMap<K, V, TupleHash>;

  V get(const K& k) const {
    const V* v = data_.find(k);
    return v == nullptr ? V{} : *v;
  }
  bool contains(const K& k) const { return data_.contains(k); }

  /// Mutable slot of a live entry (nullptr when absent). The run-batched
  /// commit path in generated batch handlers hoists one probe per distinct
  /// key run and accumulates through the pointer; valid only until the next
  /// insertion into this map. Double-valued entries are never erased by
  /// add(), so `*slot += delta` per row is exactly the add() sequence.
  V* find_value(const K& k) { return data_.find(k); }

  Upd add(const K& k, V delta) {
    if (delta == V{}) return Upd::kUnchanged;
    auto [i, inserted] = data_.try_emplace(k, delta);
    if (inserted) return Upd::kLive;
    V& val = data_.value_at(i);
    val += delta;
    if constexpr (std::is_integral_v<V>) {
      if (val == V{}) {
        data_.erase_at(i);
        return Upd::kErased;
      }
    }
    return Upd::kLive;
  }

  Upd set(const K& k, V v) {
    if (v == V{}) {
      data_.erase(k);
      return Upd::kErased;
    }
    auto [i, inserted] = data_.try_emplace(k, v);
    if (!inserted) data_.value_at(i) = std::move(v);
    return Upd::kLive;
  }

  void clear() { data_.clear(); }
  size_t size() const { return data_.size(); }
  const Store& entries() const { return data_; }

  /// Visit every live (key, value) entry; used by generated load_state to
  /// rebuild slice indexes and by Sharded to fan iteration over parts.
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& e : data_) f(e.first, e.second);
  }

  /// Raw insert for deserialization: unlike set(), never interprets the
  /// value (a restored double 0.0 entry must survive — its presence in the
  /// live key set is state, see the class comment on integer erasure).
  void restore_entry(const K& k, const V& v) {
    auto [i, inserted] = data_.try_emplace(k, v);
    if (!inserted) data_.value_at(i) = v;
  }

  void save(Ser& s) const {
    s.u64(data_.size());
    for (const auto& e : data_) {
      Write(s, e.first);
      Write(s, e.second);
    }
  }
  bool load(Deser& d) {
    data_.clear();
    const uint64_t n = d.u64();
    for (uint64_t i = 0; i < n && d.ok(); ++i) {
      K k{};
      V v{};
      Read(d, &k);
      Read(d, &v);
      if (d.ok()) restore_entry(k, v);
    }
    return d.ok();
  }

  /// True slab-resident footprint plus spilled string payloads.
  size_t bytes() const {
    size_t n = sizeof(*this) + data_.pool_bytes();
    for (const auto& e : data_) n += ExternalBytes(e.first);
    return n;
  }

 private:
  Store data_;
};

/// Secondary slice index: prefix tuple -> set of full keys, maintained
/// eagerly by the generated mutation wrappers (full keys are erased when
/// the owning Map erases a zeroed entry). All key-sets draw from the
/// index's slab, so retired probe arrays are recycled across prefixes.
/// Readers still re-check the map value (a zero read contributes nothing):
/// hybrid re-evaluation statements clear maps without going through the
/// wrappers. This reproduces the nested-map access paths of the paper's
/// generated code (q_1_bc[b][c]).
template <typename P, typename K>
class SliceIndex {
 public:
  using KeySet = FlatSet<K, TupleHash>;

  SliceIndex() : slab_(new Slab), data_(slab_.get()) {}

  void insert(const P& prefix, const K& full_key) {
    auto [i, inserted] =
        data_.try_emplace_with(prefix, [&] { return KeySet(slab_.get()); });
    data_.value_at(i).insert(full_key);
  }
  void erase(const P& prefix, const K& full_key) {
    KeySet* set = data_.find(prefix);
    if (set == nullptr) return;
    set->erase(full_key);
    if (set->empty()) data_.erase(prefix);
  }
  const KeySet* lookup(const P& prefix) const { return data_.find(prefix); }
  void clear() { data_.clear(); }
  size_t size() const { return data_.size(); }

  size_t bytes() const {
    size_t n = sizeof(*this) + sizeof(Slab) + slab_->reserved_bytes();
    for (const auto& e : data_) {
      n += ExternalBytes(e.first);
      for (const K& k : e.second) n += ExternalBytes(k);
    }
    return n;
  }

 private:
  std::unique_ptr<Slab> slab_;  // stable address shared with the key-sets
  FlatMap<P, KeySet, TupleHash> data_;
};

/// Ordered multiset per group: MIN/MAX maintenance under deletions.
///
/// Counts may go negative transiently when a batch reorders a delete ahead
/// of its insert (the ring semantics of the base tables); min/max skip
/// non-positive counts, and counts returning to zero are erased. Each group
/// tracks its live (positive-count) value count, so groups holding only
/// debts answer min/max without scanning.
template <typename K, typename V>
class ExtremeMap {
 public:
  void add(const K& k, const V& v) { Bump(k, v, +1); }
  void remove(const K& k, const V& v) { Bump(k, v, -1); }
  /// Sign-parameterized form used by unified trigger bodies: +1 inserts the
  /// value into the group's multiset, -1 retracts it.
  void update(const K& k, const V& v, int64_t sign) { Bump(k, v, sign); }
  bool min(const K& k, V* out) const {
    const Group* g = data_.find(k);
    if (g == nullptr || g->live == 0) return false;
    for (const auto& [value, count] : g->counts) {
      if (count > 0) {
        *out = value;
        return true;
      }
    }
    return false;
  }
  bool max(const K& k, V* out) const {
    const Group* g = data_.find(k);
    if (g == nullptr || g->live == 0) return false;
    for (auto it = g->counts.rbegin(); it != g->counts.rend(); ++it) {
      if (it->second > 0) {
        *out = it->first;
        return true;
      }
    }
    return false;
  }
  size_t size() const { return data_.size(); }

  /// Counts are saved signed: a group holding only debts (negative counts
  /// from a delete reordered ahead of its insert) is real state and must
  /// survive a snapshot/restore cycle, or later inserts would resurrect
  /// values the stream already retracted.
  void save(Ser& s) const {
    s.u64(data_.size());
    for (const auto& e : data_) {
      Write(s, e.first);
      s.u64(e.second.counts.size());
      for (const auto& [value, count] : e.second.counts) {
        Write(s, value);
        s.i64(count);
      }
    }
  }
  bool load(Deser& d) {
    data_.clear();
    const uint64_t groups = d.u64();
    for (uint64_t g = 0; g < groups && d.ok(); ++g) {
      K k{};
      Read(d, &k);
      const uint64_t values = d.u64();
      for (uint64_t i = 0; i < values && d.ok(); ++i) {
        V v{};
        Read(d, &v);
        const int64_t count = d.i64();
        // Bump by the full signed count: live and the ordered multiset are
        // reconstructed exactly (zero counts are never saved).
        if (d.ok()) Bump(k, v, count);
      }
    }
    return d.ok();
  }

  size_t bytes() const {
    size_t n = sizeof(*this) + data_.pool_bytes();
    for (const auto& e : data_) {
      n += ExternalBytes(e.first);
      // std::map node: value, count, three pointers + color, rounded up.
      n += e.second.counts.size() * (sizeof(V) + sizeof(int64_t) + 40);
    }
    return n;
  }

 private:
  struct Group {
    std::map<V, int64_t> counts;
    int64_t live = 0;  ///< number of values with a positive count
  };

  void Bump(const K& k, const V& v, int64_t delta) {
    auto [i, inserted] = data_.try_emplace(k);
    Group& g = data_.value_at(i);
    auto [it, vnew] = g.counts.try_emplace(v, 0);
    const int64_t before = it->second;
    const int64_t after = (it->second += delta);
    g.live += static_cast<int64_t>(after > 0) - static_cast<int64_t>(before > 0);
    if (after == 0) g.counts.erase(it);
    if (g.counts.empty()) data_.erase_at(i);
  }

  FlatMap<K, Group, TupleHash> data_;
};

/// One typed column of a batch group: a flat lane of int64 (which also
/// carries dates as days since epoch), double, or string. The first value
/// appended picks the lane. Numeric values are never narrowed on the way
/// in: a double arriving in an int64 lane widens the whole lane to double
/// (ints beyond +-2^53 already in that lane round to the nearest double).
/// A driving engine then coerces every numeric lane onto the lane its
/// relation schema declares (runtime::IngestValidator), so the generated
/// on_batch_<R> handlers always scan the lanes they were compiled for.
struct EventColumn {
  enum class Tag : uint8_t { kI64 = 0, kF64 = 1, kStr = 2 };

  Tag tag = Tag::kI64;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<std::string> str;

  size_t size() const {
    switch (tag) {
      case Tag::kF64: return f64.size();
      case Tag::kStr: return str.size();
      default: return i64.size();
    }
  }

  /// Append one value. Each returns false, appending nothing, when a
  /// number meets a string lane or a string meets a numeric lane.
  bool push_i64(int64_t v) {
    if (size() == 0) tag = Tag::kI64;
    if (tag == Tag::kI64) i64.push_back(v);
    if (tag == Tag::kF64) f64.push_back(static_cast<double>(v));
    return tag != Tag::kStr;
  }
  bool push_f64(double v) {
    if (size() == 0) tag = Tag::kF64;
    retag(Tag::kF64);  // widens an int64 lane
    if (tag == Tag::kStr) return false;
    f64.push_back(v);
    return true;
  }
  bool push_str(std::string v) {
    if (size() == 0) tag = Tag::kStr;
    if (tag != Tag::kStr) return false;
    str.push_back(std::move(v));
    return true;
  }
  bool push(const Value& v) {
    if (const auto* d = std::get_if<double>(&v)) return push_f64(*d);
    if (const auto* s = std::get_if<std::string>(&v)) return push_str(*s);
    return push_i64(std::get<int64_t>(v));
  }

  /// The lane's zero: stands in for a value a malformed row did not supply.
  void push_zero() {
    switch (tag) {
      case Tag::kI64: i64.push_back(0); break;
      case Tag::kF64: f64.push_back(0.0); break;
      case Tag::kStr: str.emplace_back(); break;
    }
  }

  /// Move a numeric lane to the other numeric tag. kF64 -> kI64 truncates;
  /// callers first prove every value IsExactInt. String lanes never move.
  void retag(Tag to) {
    if (to == tag || to == Tag::kStr || tag == Tag::kStr) return;
    if (to == Tag::kF64) {
      f64.assign(i64.begin(), i64.end());
      i64 = {};
    } else {
      i64.reserve(f64.size());
      for (double d : f64) i64.push_back(static_cast<int64_t>(d));
      f64 = {};
    }
    tag = to;
  }

  Value get(size_t i) const {
    switch (tag) {
      case Tag::kF64: return Value(f64[i]);
      case Tag::kStr: return Value(str[i]);
      default: return Value(i64[i]);
    }
  }
};

/// True when `d` is an int64 exactly (integral and in range): the only
/// doubles an int64 lane accepts.
inline bool IsExactInt(double d) {
  return d >= -0x1p63 && d < 0x1p63 && d == std::trunc(d);
}

/// The first malformed row appended to a batch group. A ragged row has a
/// different arity than the group's first row; a mistyped row puts a
/// string in a numeric lane or a number in a string lane. The row is
/// stored anyway (truncated, or padded with the lane's zero) so every lane
/// keeps exactly `rows` entries, and a driving engine's validator refuses
/// the group by this record.
struct RowDefect {
  enum class Kind : uint8_t { kNone = 0, kRagged = 1, kMistyped = 2 };
  Kind kind = Kind::kNone;
  size_t row = 0;
  size_t col = 0;  ///< ragged: first column past the shorter arity

  void note(Kind k, size_t r, size_t c) {
    if (kind != Kind::kNone) return;
    kind = k;
    row = r;
    col = c;
  }
};

/// Append a `width`-value tuple to a group's lanes, shared by the two
/// batch types: `push(col, c)` appends value c and reports whether its kind
/// fit the lane. The first row sets the group's arity.
template <typename Push>
void AppendRow(std::vector<EventColumn>& cols, size_t& rows,
               RowDefect& defect, size_t width, Push&& push) {
  if (rows == 0 && cols.empty()) {
    cols.resize(width);
  } else if (width != cols.size()) {
    defect.note(RowDefect::Kind::kRagged, rows, std::min(width, cols.size()));
  }
  for (size_t c = 0; c < cols.size(); ++c) {
    if (c < width && push(cols[c], c)) continue;
    if (c < width) defect.note(RowDefect::Kind::kMistyped, rows, c);
    cols[c].push_zero();
  }
  ++rows;
}

/// Append a whole group's lanes (`src`, `src_rows` rows, defect record
/// `src_defect`) to another group's, shared by the two batch types' group
/// merges. Lane by lane, the result is what appending the rows one at a
/// time would give: numeric lanes widen as push_f64 does, a lane whose kind
/// does not fit (or an arity that differs) is recorded as a defect at the
/// first absorbed row and padded with the lane's zero, and the absorbed
/// group's own defect carries over, its row offset by the rows already
/// held.
inline void MergeColumns(std::vector<EventColumn>& cols, size_t& rows,
                         RowDefect& defect,
                         const std::vector<EventColumn>& src,
                         size_t src_rows, const RowDefect& src_defect) {
  if (src_rows == 0) return;
  if (rows == 0 && cols.empty()) cols.resize(src.size());
  if (src.size() != cols.size()) {
    defect.note(RowDefect::Kind::kRagged, rows,
                std::min(src.size(), cols.size()));
  }
  for (size_t c = 0; c < cols.size(); ++c) {
    EventColumn& to = cols[c];
    const bool fits = c < src.size() && (to.size() == 0 ||
                      (to.tag == EventColumn::Tag::kStr) ==
                          (src[c].tag == EventColumn::Tag::kStr));
    if (!fits) {
      if (c < src.size()) defect.note(RowDefect::Kind::kMistyped, rows, c);
      for (size_t r = 0; r < src_rows; ++r) to.push_zero();
      continue;
    }
    const EventColumn& from = src[c];
    if (to.size() == 0) to.tag = from.tag;
    if (from.tag == EventColumn::Tag::kF64) to.retag(EventColumn::Tag::kF64);
    switch (to.tag) {
      case EventColumn::Tag::kStr:
        to.str.insert(to.str.end(), from.str.begin(), from.str.end());
        break;
      case EventColumn::Tag::kF64:
        if (from.tag == EventColumn::Tag::kF64) {
          to.f64.insert(to.f64.end(), from.f64.begin(), from.f64.end());
        } else {
          to.f64.insert(to.f64.end(), from.i64.begin(), from.i64.end());
        }
        break;
      case EventColumn::Tag::kI64:
        to.i64.insert(to.i64.end(), from.i64.begin(), from.i64.end());
        break;
    }
  }
  if (src_defect.kind != RowDefect::Kind::kNone) {
    defect.note(src_defect.kind, rows + src_defect.row, src_defect.col);
  }
  rows += src_rows;
}

/// One batch of deltas at the dynamic boundary, grouped per (relation, op)
/// in first-encounter order with columnar per-group storage. The runtime's
/// EventBatch holds the same EventColumn lanes, so a driving engine moves
/// them across without touching rows (this header stays self-contained).
/// The row-oriented add()/row() shim serves embedders; generated handlers
/// consume the columns natively.
class EventBatch {
 public:
  struct Group {
    std::string relation;
    bool is_insert = true;
    std::vector<EventColumn> cols;
    size_t rows = 0;
    RowDefect defect;

    void add(const std::vector<Value>& tuple) {
      AppendRow(cols, rows, defect, tuple.size(),
                [&](EventColumn& col, size_t c) { return col.push(tuple[c]); });
    }

    std::vector<Value> row(size_t i) const {
      std::vector<Value> out;
      out.reserve(cols.size());
      for (const EventColumn& c : cols) out.push_back(c.get(i));
      return out;
    }
  };

  void add(const std::string& relation, bool is_insert,
           const std::vector<Value>& tuple) {
    find_group(relation, is_insert).add(tuple);
    ++events_;
  }

  /// Append a pre-built columnar group (the zero-conversion ingest path);
  /// merges into an existing (relation, op) group if one exists.
  void add_group(Group&& g) {
    events_ += g.rows;
    for (Group& existing : groups_) {
      if (existing.is_insert == g.is_insert &&
          existing.relation == g.relation) {
        MergeColumns(existing.cols, existing.rows, existing.defect, g.cols,
                     g.rows, g.defect);
        return;
      }
    }
    groups_.push_back(std::move(g));
  }

  const std::vector<Group>& groups() const { return groups_; }
  size_t size() const { return events_; }
  bool empty() const { return events_ == 0; }
  void clear() {
    groups_.clear();
    events_ = 0;
  }

 private:
  Group& find_group(const std::string& relation, bool is_insert) {
    // Streams run long (relation, op) bursts; check the most recent group
    // first (the group count is bounded by 2 * #relations).
    if (!groups_.empty() && groups_.back().is_insert == is_insert &&
        groups_.back().relation == relation) {
      return groups_.back();
    }
    for (Group& g : groups_) {
      if (g.is_insert == is_insert && g.relation == relation) return g;
    }
    groups_.push_back(Group{relation, is_insert, {}, 0, {}});
    return groups_.back();
  }

  std::vector<Group> groups_;
  size_t events_ = 0;
};

/// Lane schema of one relation at the dynamic boundary: the EventColumn
/// tags the program expects for each column (dates travel as kI64).
/// Published by generated programs so a driving engine can validate batch
/// arity and lane types before they reach the typed handlers.
struct RelationSchema {
  std::string name;
  std::vector<EventColumn::Tag> lanes;
};

/// One registered view's materialized rows at a publish point (the unit of
/// the snapshot-publish hook below).
struct ViewRows {
  std::string name;
  std::vector<std::vector<Value>> rows;
};

/// Abstract driver interface implemented by every dbtc-generated program:
/// the string-dispatch shim that makes generated code drivable through the
/// same engine-agnostic surface as the interpreted engines (see
/// runtime::CompiledProgramEngine). The typed per-relation handlers remain
/// the fast path for embedded use.
class StreamProgram {
 public:
  virtual ~StreamProgram() = default;

  /// Dispatch one delta; false when the program has no trigger for it.
  virtual bool on_event(const std::string& relation, bool is_insert,
                        const std::vector<Value>& tuple) = 0;

  /// Dispatch one batch group-wise; returns the number of events handled.
  /// Generated programs override with fused per-relation batch handlers
  /// (one relation dispatch and one tuple conversion pass per group).
  virtual size_t on_batch(const EventBatch& batch) {
    size_t handled = 0;
    for (const auto& g : batch.groups()) {
      for (size_t i = 0; i < g.rows; ++i) {
        if (on_event(g.relation, g.is_insert, g.row(i))) ++handled;
      }
    }
    return handled;
  }

  /// Registered view names, in declaration order.
  virtual std::vector<std::string> view_names() const = 0;

  /// Output column names of `view` (empty for unknown views).
  virtual std::vector<std::string> view_column_names(
      const std::string& view) const = 0;

  /// Materialized rows of `view` at the dynamic boundary (empty for unknown
  /// views); the typed view_<name>() accessors avoid the conversion.
  virtual std::vector<std::vector<Value>> view_rows(
      const std::string& view) = 0;

  /// Snapshot-publish hook: materialize every registered view in one call
  /// against the current state. The concurrent serving tier invokes this at
  /// publish time so each ingest epoch yields one consistent rendering of
  /// all views; generated programs override it (and the generated-header
  /// lint asserts the override), the default falls back to view_rows.
  virtual std::vector<ViewRows> publish_snapshot() {
    std::vector<ViewRows> out;
    for (const std::string& v : view_names()) {
      out.push_back(ViewRows{v, view_rows(v)});
    }
    return out;
  }

  /// Vectorized-selection instrumentation (bench counters; see
  /// dbt_select.h). Programs compiled without a selection prologue report 0.
  /// `selected_rows` counts rows surviving a selection pass; `probe_runs`
  /// counts run-batched map commits (one per distinct key run).
  virtual uint64_t selected_rows() const { return 0; }
  virtual uint64_t probe_runs() const { return 0; }

  /// Total live entries across aggregate maps.
  virtual size_t total_map_entries() const = 0;

  /// Rough retained-bytes estimate of the maintained state.
  virtual size_t state_bytes() const = 0;

  /// Relation lane schemas for boundary validation (empty when the program
  /// predates schema publication; drivers then skip validation). Generated
  /// programs return every catalog relation, so base-table-only relations
  /// validate and are ignored by dispatch, exactly like the interpreter.
  virtual std::vector<RelationSchema> relation_schemas() const { return {}; }

  /// Serialize / restore the program's maintained state (aggregate maps,
  /// base multisets, extreme multisets; slice indexes are rebuilt on load).
  /// Return false when the program does not implement state capture (the
  /// default, kept for hand-written StreamProgram shims); generated
  /// programs override both. load_state must leave a program either fully
  /// restored (true) or report failure (false) — callers treat false as a
  /// corrupt snapshot, not a partial success.
  virtual bool save_state(Ser& ser) const {
    (void)ser;
    return false;
  }
  virtual bool load_state(Deser& deser) {
    (void)deser;
    return false;
  }
};

}  // namespace dbt

#endif  // DBTOASTER_CODEGEN_DBTOASTER_RUNTIME_H_
