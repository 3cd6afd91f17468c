#include "src/runtime/engine.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <set>

#include "src/common/str.h"
#include "src/compiler/tir_verify.h"

namespace dbtoaster::runtime {

using compiler::MapDecl;
using compiler::Statement;

namespace {
uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Evaluate one extracted guard against a row's lane value — the
/// interpreter mirror of the dbt_select.h kernels. Value comparisons
/// promote across numeric types exactly like the scalar evaluator, so a
/// skipped row is precisely one whose statement RHS multiplies to zero
/// (ValueMap::Add drops zero deltas, making the skip unobservable).
bool PredMatches(const tir::PredSpec& ps, const Value& v) {
  switch (ps.kind) {
    case tir::PredSpec::Kind::kCmp:
      switch (ps.op) {
        case sql::BinOp::kEq: return v == ps.values[0];
        case sql::BinOp::kNeq: return v != ps.values[0];
        case sql::BinOp::kLt: return v < ps.values[0];
        case sql::BinOp::kLe: return v <= ps.values[0];
        case sql::BinOp::kGt: return v > ps.values[0];
        case sql::BinOp::kGe: return v >= ps.values[0];
        default: return true;  // extraction emits comparisons only
      }
    case tir::PredSpec::Kind::kRange:
      return ps.values[0] <= v && v < ps.values[1];
    case tir::PredSpec::Kind::kIn:
      for (const Value& c : ps.values) {
        if (v == c) return true;
      }
      return false;
  }
  return true;
}

/// Selection classes over a trigger's active delta statements: statements
/// with equal extracted pred lists share one survivor index vector,
/// mirroring the generated selection-vector prologue.
struct SelectionClasses {
  std::vector<const std::vector<tir::PredSpec>*> preds;  ///< per class
  std::vector<size_t> cls;  ///< per statement; SIZE_MAX = no guards

  /// Assign each statement (by position in `stmts`) to a pred class.
  explicit SelectionClasses(const std::vector<const tir::Stmt*>& stmts) {
    cls.assign(stmts.size(), SIZE_MAX);
    for (size_t d = 0; d < stmts.size(); ++d) {
      const std::vector<tir::PredSpec>& p = stmts[d]->preds;
      if (p.empty()) continue;
      for (size_t c = 0; c < preds.size(); ++c) {
        if (preds[c]->size() != p.size()) continue;
        bool same = true;
        for (size_t i = 0; i < p.size(); ++i) {
          if (!tir::PredSpecEquals((*preds[c])[i], p[i])) {
            same = false;
            break;
          }
        }
        if (same) {
          cls[d] = c;
          break;
        }
      }
      if (cls[d] == SIZE_MAX) {
        cls[d] = preds.size();
        preds.push_back(&p);
      }
    }
  }

  /// Survivor indices per class over `rows` (row indices into `tuples`),
  /// written into (*sel)[0, classes) so its buffers are reused across chunks
  /// and groups.
  void Select(const Row* tuples, const std::vector<uint32_t>& rows,
              std::vector<std::vector<uint32_t>>* sel) const {
    if (sel->size() < preds.size()) sel->resize(preds.size());
    for (size_t c = 0; c < preds.size(); ++c) {
      std::vector<uint32_t>& out = (*sel)[c];
      out.clear();
      for (uint32_t i : rows) {
        bool pass = true;
        for (const tir::PredSpec& ps : *preds[c]) {
          if (!PredMatches(ps, tuples[i][ps.lane])) {
            pass = false;
            break;
          }
        }
        if (pass) out.push_back(i);
      }
    }
  }
};

/// The rows of one chunk over the fixed logical shards, as indices into the
/// group's tuples. Row order within a shard preserves group order, so
/// per-shard replay is deterministic and independent of the worker count.
struct ShardPlan {
  std::array<std::vector<uint32_t>, kNumShards> shards;
  size_t used = 1;  ///< shards [0, used) hold the chunk

  /// One shard holding rows [begin, end) in group order.
  void Whole(size_t begin, size_t end) {
    used = 1;
    shards[0].clear();
    for (size_t i = begin; i < end; ++i) {
      shards[0].push_back(static_cast<uint32_t>(i));
    }
  }

  /// Rows [begin, end) by finalized hash of the partition columns, or of
  /// the whole tuple when no partition-key subset was derivable.
  void Partition(const Row* tuples, size_t begin, size_t end,
                 const std::vector<size_t>& partition_cols) {
    used = kNumShards;
    for (std::vector<uint32_t>& shard : shards) {
      shard.clear();
      shard.reserve((end - begin) / kNumShards + 4);
    }
    for (size_t i = begin; i < end; ++i) {
      size_t h;
      if (partition_cols.empty()) {
        h = RowHash{}(tuples[i]);
      } else {
        h = kHashSeed;
        for (size_t c : partition_cols) {
          h = HashCombine(h, tuples[i][c].Hash());
        }
      }
      shards[dbt::ShardOfHash(h)].push_back(static_cast<uint32_t>(i));
    }
  }
};
}  // namespace

std::string ProfileStats::ToString() const {
  std::string s = StrFormat("events processed: %llu (total %.3f ms)\n",
                            static_cast<unsigned long long>(events),
                            static_cast<double>(event_nanos) / 1e6);
  if (sharded_groups > 0) {
    s += StrFormat("  sharded groups: %llu\n",
                   static_cast<unsigned long long>(sharded_groups));
  }
  for (const auto& [rendering, st] : by_statement) {
    s += StrFormat("  %8llu exec  %10llu updates  %10.3f ms   %s\n",
                   static_cast<unsigned long long>(st.executions),
                   static_cast<unsigned long long>(st.updates),
                   static_cast<double>(st.nanos) / 1e6, rendering.c_str());
  }
  return s;
}

Engine::Engine(compiler::Program program)
    : program_(std::move(program)),
      tir_(tir::Lower(program_)),
      db_(program_.catalog),
      eval_(this) {
#ifndef NDEBUG
  // Debug builds refuse to interpret an unverified module; release builds
  // trust the dbtc pipeline gate.
  {
    Status verified = tir::VerifyOrError(tir_, "runtime::Engine");
    if (!verified.ok()) {
      std::fprintf(stderr, "%s\n", verified.ToString().c_str());
      assert(false && "tir module failed static verification");
    }
  }
#endif
  // Arm the boundary validator with the catalog: malformed batches bounce
  // with a structured Status before any trigger runs.
  RegisterIngestCatalog(program_.catalog);
  for (const MapDecl& decl : program_.maps) {
    decls_[decl.name] = &decl;
    if (decl.is_extreme) {
      extremes_.emplace(decl.name, ExtremeMap(decl.name, decl.key_names.size(),
                                              decl.value_type));
    } else {
      maps_.emplace(decl.name, ValueMap(decl.name, decl.key_names.size(),
                                        decl.value_type));
    }
  }
}

const ValueMap* Engine::value_map(const std::string& name) const {
  auto it = maps_.find(name);
  return it == maps_.end() ? nullptr : &it->second;
}

const ExtremeMap* Engine::extreme_map(const std::string& name) const {
  auto it = extremes_.find(name);
  return it == extremes_.end() ? nullptr : &it->second;
}

size_t Engine::MapMemoryBytes() const {
  size_t bytes = 0;
  for (const auto& [name, m] : maps_) bytes += m.MemoryBytes();
  for (const auto& [name, m] : extremes_) bytes += m.MemoryBytes();
  return bytes;
}

size_t Engine::TotalMapEntries() const {
  size_t n = 0;
  for (const auto& [name, m] : maps_) n += m.size();
  for (const auto& [name, m] : extremes_) n += m.size();
  return n;
}

size_t Engine::StateBytes() const { return MapMemoryBytes() + db_.MemoryBytes(); }

Result<Value> Engine::ReadMap(const std::string& map, const Row& key,
                              bool store_init) {
  auto it = maps_.find(map);
  if (it == maps_.end()) {
    return Status::NotFound("unknown map: " + map);
  }
  ValueMap& vm = it->second;
  if (vm.Contains(key)) return vm.Get(key);
  const MapDecl* decl = decls_.at(map);
  if (!decl->needs_init || decl->definition == nullptr || in_init_) {
    return vm.TypedZero();
  }
  // Init-on-first-access: evaluate the definition over the base tables with
  // the canonical keys bound to the requested key.
  in_init_ = true;
  Bindings env;
  for (size_t i = 0; i < decl->key_names.size(); ++i) {
    env[decl->key_names[i]] = key[i];
  }
  auto value = eval_.EvalScalar(decl->definition, env, /*store_init=*/false);
  in_init_ = false;
  if (!value.ok()) return value.status();
  Value v = value.value();
  if (vm.value_type() == Type::kDouble && v.is_int()) {
    v = Value(v.AsDouble());
  }
  if (store_init) {
    ApplyMapSet(&vm, key, v);
  }
  return v;
}

const ValueMap* Engine::FindMap(const std::string& map) const {
  return value_map(map);
}

void Engine::ApplyMapAdd(ValueMap* target, const Row& key,
                         const Value& delta) {
  target->Add(key, delta);
  auto it = slice_indexes_.find(target->name());
  if (it != slice_indexes_.end()) {
    for (SliceIndex& idx : it->second) idx.Insert(key);
  }
}

void Engine::ApplyMapSet(ValueMap* target, const Row& key, Value value) {
  target->Set(key, std::move(value));
  auto it = slice_indexes_.find(target->name());
  if (it != slice_indexes_.end()) {
    for (SliceIndex& idx : it->second) idx.Insert(key);
  }
}

namespace {
const std::unordered_set<Row, RowHash, RowEq>* SliceBuckets(
    const std::unordered_map<Row, std::unordered_set<Row, RowHash, RowEq>,
                             RowHash, RowEq>& buckets,
    const Row& key) {
  auto bit = buckets.find(key);
  if (bit == buckets.end()) {
    static const std::unordered_set<Row, RowHash, RowEq> kEmpty;
    return &kEmpty;
  }
  return &bit->second;
}
}  // namespace

const std::unordered_set<Row, RowHash, RowEq>* Engine::LookupMapSlice(
    const std::string& map, const std::vector<size_t>& positions,
    const Row& key) {
  auto mit = maps_.find(map);
  if (mit == maps_.end()) return nullptr;
  if (parallel_region_) {
    // Shard workers: lookups share the lock; a missing index upgrades to
    // exclusive and builds once. Returned bucket sets live in stable
    // unordered_map nodes, so they survive later index additions.
    {
      std::shared_lock<std::shared_mutex> read_lock(slice_mu_);
      auto it = slice_indexes_.find(map);
      if (it != slice_indexes_.end()) {
        for (SliceIndex& existing : it->second) {
          if (existing.positions == positions) {
            return SliceBuckets(existing.buckets, key);
          }
        }
      }
    }
    std::unique_lock<std::shared_mutex> write_lock(slice_mu_);
    auto& indexes = slice_indexes_[map];
    for (SliceIndex& existing : indexes) {
      if (existing.positions == positions) {
        return SliceBuckets(existing.buckets, key);
      }
    }
    indexes.push_back(SliceIndex{positions, {}});
    SliceIndex* idx = &indexes.back();
    for (const auto& [full_key, value] : mit->second.entries()) {
      idx->Insert(full_key);
    }
    return SliceBuckets(idx->buckets, key);
  }
  auto& indexes = slice_indexes_[map];
  SliceIndex* idx = nullptr;
  for (SliceIndex& existing : indexes) {
    if (existing.positions == positions) {
      idx = &existing;
      break;
    }
  }
  if (idx == nullptr) {
    // Build lazily from the current live entries.
    indexes.push_back(SliceIndex{positions, {}});
    idx = &indexes.back();
    for (const auto& [full_key, value] : mit->second.entries()) {
      idx->Insert(full_key);
    }
  }
  return SliceBuckets(idx->buckets, key);
}

const Table* Engine::FindRelation(const std::string& rel) const {
  return db_.FindTable(rel);
}

Status Engine::RunDeltaStatement(
    const Statement& stmt, const Bindings& env,
    std::vector<std::tuple<ValueMap*, Row, Value>>* pending) {
  auto it = maps_.find(stmt.target);
  if (it == maps_.end()) {
    return Status::Internal("delta statement on unknown map: " + stmt.target);
  }
  ValueMap* target = &it->second;

  // LHS-driven iteration: bind the un-derivable target keys from the live
  // key set of the target map.
  std::vector<Bindings> envs;
  if (stmt.lhs_iterate.empty()) {
    envs.push_back(env);
  } else {
    std::set<Row, bool (*)(const Row&, const Row&)> distinct(
        +[](const Row& a, const Row& b) {
          if (a.size() != b.size()) return a.size() < b.size();
          for (size_t i = 0; i < a.size(); ++i) {
            int c = Value::Compare(a[i], b[i]);
            if (c != 0) return c < 0;
          }
          return false;
        });
    for (const auto& [key, value] : target->entries()) {
      Row sub;
      sub.reserve(stmt.lhs_iterate.size());
      for (size_t pos : stmt.lhs_iterate) sub.push_back(key[pos]);
      distinct.insert(std::move(sub));
    }
    for (const Row& sub : distinct) {
      Bindings e2 = env;
      for (size_t i = 0; i < stmt.lhs_iterate.size(); ++i) {
        e2[stmt.target_keys[stmt.lhs_iterate[i]]] = sub[i];
      }
      envs.push_back(std::move(e2));
    }
  }

  size_t updates = 0;
  for (const Bindings& e2 : envs) {
    DBT_ASSIGN_OR_RETURN(Keyed result,
                         eval_.Eval(stmt.rhs, e2, /*store_init=*/false));
    for (auto& [row, value] : result.entries) {
      // Build the target key from the environment and the result row.
      Row key;
      key.reserve(stmt.target_keys.size());
      bool ok = true;
      for (const std::string& kv : stmt.target_keys) {
        auto eit = e2.find(kv);
        if (eit != e2.end()) {
          key.push_back(eit->second);
          continue;
        }
        auto pos = std::find(result.vars.begin(), result.vars.end(), kv);
        if (pos == result.vars.end()) {
          ok = false;
          break;
        }
        key.push_back(row[static_cast<size_t>(pos - result.vars.begin())]);
      }
      if (!ok) {
        return Status::Internal("statement cannot bind target key: " +
                                stmt.ToString());
      }
      pending->emplace_back(target, std::move(key), std::move(value));
      ++updates;
    }
  }
  if (trace_ != nullptr) trace_->OnStatement(stmt, updates);
  return Status::OK();
}

Status Engine::RunReevalStatement(const Statement& stmt, const Bindings& env) {
  auto it = maps_.find(stmt.target);
  if (it == maps_.end()) {
    return Status::Internal("reeval statement on unknown map: " + stmt.target);
  }
  ValueMap* target = &it->second;
  DBT_ASSIGN_OR_RETURN(Keyed result,
                       eval_.Eval(stmt.rhs, env, /*store_init=*/true));
  target->Clear();
  slice_indexes_.erase(stmt.target);  // rebuilt lazily on next slice access
  if (result.vars.empty()) {
    Value sum = target->TypedZero();
    for (const auto& [row, v] : result.entries) sum = Value::Add(sum, v);
    ApplyMapSet(target, {}, sum);
    if (trace_ != nullptr) trace_->OnStatement(stmt, 1);
    return Status::OK();
  }
  for (auto& [row, v] : result.entries) ApplyMapAdd(target, row, v);
  if (trace_ != nullptr) trace_->OnStatement(stmt, result.entries.size());
  return Status::OK();
}

Status Engine::RunExtremeStatement(const Statement& stmt,
                                   const Bindings& env, int sign) {
  auto it = extremes_.find(stmt.target);
  if (it == extremes_.end()) {
    return Status::Internal("extreme statement on unknown map: " +
                            stmt.target);
  }
  ExtremeMap* target = &it->second;
  if (stmt.extreme_guard != nullptr) {
    DBT_ASSIGN_OR_RETURN(Value g, eval_.EvalScalar(stmt.extreme_guard, env,
                                                   /*store_init=*/false));
    if (g.IsZero()) {
      if (trace_ != nullptr) trace_->OnStatement(stmt, 0);
      return Status::OK();
    }
  }
  Row key;
  key.reserve(stmt.target_keys.size());
  for (const std::string& kv : stmt.target_keys) {
    auto eit = env.find(kv);
    if (eit == env.end()) {
      return Status::Internal("unbound extreme key variable: " + kv);
    }
    key.push_back(eit->second);
  }
  DBT_ASSIGN_OR_RETURN(Value v, eval_.EvalTerm(stmt.extreme_value, env,
                                               /*store_init=*/false));
  if (sign > 0) {
    target->Add(key, v);
  } else {
    target->Remove(key, v);
  }
  if (trace_ != nullptr) trace_->OnStatement(stmt, 1);
  return Status::OK();
}

void Engine::Defer(const Statement* stmt, const std::string* rendering,
                   DeferredReevals* deferred) {
  // Dedup by target: the compiler emits one kReeval statement per
  // (relation, op) trigger for the same hybrid target, all with identical
  // RHS — one refresh per batch covers them all.
  for (const auto& [s, r] : *deferred) {
    if (s->target == stmt->target) return;
  }
  deferred->emplace_back(stmt, rendering);
}

Status Engine::FlushDeferredReevals(DeferredReevals* deferred) {
  Bindings empty_env;
  uint64_t start = NowNanos();
  for (const auto& [stmt, rendering] : *deferred) {
    uint64_t t0 = NowNanos();
    DBT_RETURN_IF_ERROR(RunReevalStatement(*stmt, empty_env));
    auto& st = profile_.by_statement[*rendering];
    st.rendering = *rendering;
    st.executions++;
    st.nanos += NowNanos() - t0;
  }
  if (!deferred->empty()) profile_.event_nanos += NowNanos() - start;
  deferred->clear();
  return Status::OK();
}

std::vector<ProfileStats::StatementStats*> Engine::ResolveStats(
    const tir::Trigger& trigger) {
  std::vector<ProfileStats::StatementStats*> stats(trigger.stmts.size());
  for (size_t si = 0; si < trigger.stmts.size(); ++si) {
    ProfileStats::StatementStats& st =
        profile_.by_statement[trigger.stmts[si].rendering];
    st.rendering = trigger.stmts[si].rendering;
    stats[si] = &st;
  }
  return stats;
}

Status Engine::ApplyGroup(const std::string& relation, EventKind kind,
                          const Row* tuples, size_t count,
                          DeferredReevals* deferred) {
  if (count == 0) return Status::OK();
  const uint64_t start = NowNanos();
  const tir::Trigger* trigger = tir_.FindTrigger(relation);
  if (trigger == nullptr || !(kind == EventKind::kInsert
                                  ? trigger->has_insert
                                  : trigger->has_delete)) {
    // No trigger for this (relation, op): the events still update the
    // base-table snapshot.
    for (size_t e = 0; e < count; ++e) {
      if (trace_ != nullptr) trace_->OnEvent(Event{kind, relation, tuples[e]});
      DBT_RETURN_IF_ERROR(db_.Apply(kind, relation, tuples[e]));
    }
    profile_.events += count;
    profile_.event_nanos += NowNanos() - start;
    return Status::OK();
  }
  const tir::Trigger& t = *trigger;

  // Per-group setup: profiler slots, the statements this op runs in each
  // phase (statically-zero deltas never fire), and the selection classes of
  // the deltas' extracted guards.
  const std::vector<ProfileStats::StatementStats*> stats = ResolveStats(t);
  const int sign = kind == EventKind::kInsert ? +1 : -1;
  std::vector<const tir::Stmt*> deltas;
  std::vector<size_t> delta_si, extreme_si, reeval_si;
  for (size_t si = 0; si < t.stmts.size(); ++si) {
    const tir::Stmt& s = t.stmts[si];
    if (!StmtActive(s, kind)) continue;
    if (s.stmt.kind == Statement::Kind::kDelta && !s.statically_zero) {
      deltas.push_back(&s);
      delta_si.push_back(si);
    } else if (s.stmt.kind == Statement::Kind::kExtreme) {
      extreme_si.push_back(si);
    } else if (s.stmt.kind == Statement::Kind::kReeval) {
      reeval_si.push_back(si);
    }
  }
  const SelectionClasses classes(deltas);

  // A chunk is the whole group when every statement may read the group
  // pre-state (the trigger's IR analysis); otherwise, and always under a
  // trace sink, it is one event. The shard plan depends on the chunk's size
  // alone, never on the pool's thread count, so a batch sequence yields the
  // same state at every thread count (threads=1 runs the shards inline).
  const size_t chunk = t.vectorizable && trace_ == nullptr ? count : 1;
  const bool partitioned =
      t.parallel_safe && chunk >= dbt::kShardBatchCutoff;
  for (size_t s = 0; s < (partitioned ? kNumShards : 1); ++s) {
    ShardScratch& sc = scratch_[s];
    sc.env.clear();
    sc.env[tir::kSignVar] = Value(static_cast<int64_t>(sign));
    if (sc.pending.size() < deltas.size()) {  // never shrunk: buffers stay
      sc.pending.resize(deltas.size());
      sc.executions.resize(deltas.size());
      sc.nanos.resize(deltas.size());
    }
  }
  auto bind = [&](Bindings* env, const Row& tuple) {
    for (size_t p = 0; p < t.params.size(); ++p) {
      (*env)[t.params[p].name] = tuple[p];
    }
  };

  // Phase 1 of one shard: select, then evaluate each delta statement over
  // the shard's surviving rows against the pre-state (reads only) into the
  // shard's per-statement pendings. Selection runs after the shard split,
  // so per-shard work, and therefore the merged state, does not depend on
  // the pool's thread count.
  ShardPlan plan;
  auto eval_shard = [&](size_t s) {
    ShardScratch& sc = scratch_[s];
    sc.status = Status::OK();
    classes.Select(tuples, plan.shards[s], &sc.sel);
    for (size_t d = 0; d < deltas.size(); ++d) {
      const std::vector<uint32_t>& rows = classes.cls[d] != SIZE_MAX
                                              ? sc.sel[classes.cls[d]]
                                              : plan.shards[s];
      sc.pending[d].clear();
      const uint64_t t0 = NowNanos();
      for (uint32_t i : rows) {
        bind(&sc.env, tuples[i]);
        Status st = RunDeltaStatement(deltas[d]->stmt, sc.env, &sc.pending[d]);
        if (!st.ok()) {
          sc.status = std::move(st);
          return;
        }
      }
      sc.executions[d] = rows.size();
      sc.nanos[d] = NowNanos() - t0;
    }
  };

  const Bindings empty_env;
  Bindings& env = scratch_[0].env;
  for (size_t begin = 0; begin < count; begin += chunk) {
    const size_t end = std::min(count, begin + chunk);
    if (trace_ != nullptr) {
      trace_->OnEvent(Event{kind, t.relation, tuples[begin]});
    }

    // Shard plan and phase 1. Only a partitioned chunk touches the pool.
    if (partitioned) {
      profile_.sharded_groups++;
      plan.Partition(tuples, begin, end, t.partition_cols);
      parallel_region_ = true;
      shard_pool().RunShards(kNumShards, eval_shard);
      parallel_region_ = false;
    } else {
      plan.Whole(begin, end);
      eval_shard(0);
    }
    for (size_t s = 0; s < plan.used; ++s) {
      if (!scratch_[s].status.ok()) return scratch_[s].status;
    }
    for (size_t d = 0; d < deltas.size(); ++d) {
      ProfileStats::StatementStats* st = stats[delta_si[d]];
      for (size_t s = 0; s < plan.used; ++s) {
        st->executions += scratch_[s].executions[d];
        st->updates += scratch_[s].pending[d].size();
        st->nanos += scratch_[s].nanos[d];  // CPU time, summed across shards
      }
    }

    // Phase 2: base tables in group order, then the pendings
    // statement-major in shard order. The plan fixes that sequence, and
    // with it every map byte for byte.
    for (size_t e = begin; e < end; ++e) {
      DBT_RETURN_IF_ERROR(db_.Apply(kind, t.relation, tuples[e]));
    }
    for (size_t d = 0; d < deltas.size(); ++d) {
      for (size_t s = 0; s < plan.used; ++s) {
        for (auto& [target, key, value] : scratch_[s].pending[d]) {
          if (trace_ == nullptr) {
            ApplyMapAdd(target, key, value);
            continue;
          }
          Value old_value = target->Get(key);
          ApplyMapAdd(target, key, value);
          trace_->OnMapUpdate(target->name(), key, old_value,
                              target->Get(key));
        }
      }
    }

    // Phase 3: extreme (MIN/MAX multiset) statements over the post-state,
    // per row in group order.
    for (size_t si : extreme_si) {
      const tir::Stmt& s = t.stmts[si];
      const uint64_t t0 = NowNanos();
      for (size_t e = begin; e < end; ++e) {
        bind(&env, tuples[e]);
        DBT_RETURN_IF_ERROR(RunExtremeStatement(
            s.stmt, env, s.extreme_runtime_sign ? sign : s.stmt.extreme_sign));
      }
      stats[si]->executions += end - begin;
      stats[si]->nanos += NowNanos() - t0;
    }

    // Phase 4: hybrid re-evaluation statements over the post-state. They
    // depend only on the maintained maps and base tables, never on the
    // event parameters; an empty environment also prevents accidental
    // capture of query variables that share a name with trigger parameters.
    // Statements whose target nothing reads are deferred to the batch end.
    for (size_t si : reeval_si) {
      const tir::Stmt& s = t.stmts[si];
      if (s.reeval_deferrable && trace_ == nullptr) {
        Defer(&s.stmt, &s.rendering, deferred);
        continue;
      }
      const uint64_t t0 = NowNanos();
      DBT_RETURN_IF_ERROR(RunReevalStatement(s.stmt, empty_env));
      stats[si]->executions++;
      stats[si]->nanos += NowNanos() - t0;
    }
  }
  profile_.events += count;
  profile_.event_nanos += NowNanos() - start;
  return Status::OK();
}

Status Engine::DoApplyBatch(EventBatch&& batch) {
  DeferredReevals deferred;
  for (const EventBatch::Group& g : batch.groups()) {
    const std::vector<Row> rows = g.Rows();
    DBT_RETURN_IF_ERROR(
        ApplyGroup(g.relation, g.kind, rows.data(), g.rows, &deferred));
  }
  return FlushDeferredReevals(&deferred);
}

Status Engine::DoOnEvent(const Event& event) {
  DeferredReevals deferred;
  DBT_RETURN_IF_ERROR(
      ApplyGroup(event.relation, event.kind, &event.tuple, 1, &deferred));
  return FlushDeferredReevals(&deferred);
}

Status Engine::SaveState(dbt::Ser* out) const {
  // Base tables by relation name, in catalog order.
  const Catalog& catalog = program_.catalog;
  out->u64(catalog.relations().size());
  for (const Schema& schema : catalog.relations()) {
    out->str(schema.name());
    const Table* table = db_.FindTable(schema.name());
    if (table == nullptr) {
      return Status::Internal("save: missing table " + schema.name());
    }
    out->u64(table->rows().size());
    for (const auto& [row, mult] : table->rows()) {
      WriteRow(*out, row);
      out->i64(mult);
    }
  }
  // Aggregate maps by name (std::map order is deterministic).
  out->u64(maps_.size());
  for (const auto& [name, m] : maps_) {
    out->str(name);
    out->u64(m.size());
    for (const auto& [key, value] : m.entries()) {
      WriteRow(*out, key);
      WriteValue(*out, value);
    }
  }
  // MIN/MAX multisets: per group the full signed count histogram (negative
  // "debt" counts are part of the state and must round-trip).
  out->u64(extremes_.size());
  for (const auto& [name, m] : extremes_) {
    out->str(name);
    out->u64(m.groups().size());
    for (const auto& [key, group] : m.groups()) {
      WriteRow(*out, key);
      out->u64(group.counts.size());
      for (const auto& [value, count] : group.counts) {
        WriteValue(*out, value);
        out->i64(count);
      }
    }
  }
  return Status::OK();
}

Status Engine::LoadState(dbt::Deser* in) {
  db_.Clear();
  for (auto& [name, m] : maps_) m.Clear();
  for (auto& [name, m] : extremes_) m.Clear();
  // Slice indexes are derived from the maps; drop them and let the first
  // slice access rebuild from restored state.
  slice_indexes_.clear();

  const uint64_t ntables = in->u64();
  for (uint64_t t = 0; t < ntables && in->ok(); ++t) {
    const std::string name = in->str();
    Table* table = db_.FindTable(name);
    if (table == nullptr) {
      return Status::ParseError("restore: snapshot names unknown relation '" +
                                name + "'");
    }
    const uint64_t nrows = in->u64();
    for (uint64_t i = 0; i < nrows && in->ok(); ++i) {
      Row row;
      if (!ReadRow(*in, &row)) {
        return Status::ParseError("restore: corrupt row in table " + name);
      }
      table->Apply(row, in->i64());
    }
  }

  const uint64_t nmaps = in->u64();
  for (uint64_t t = 0; t < nmaps && in->ok(); ++t) {
    const std::string name = in->str();
    auto it = maps_.find(name);
    if (it == maps_.end()) {
      return Status::ParseError("restore: snapshot names unknown map '" +
                                name + "'");
    }
    const uint64_t n = in->u64();
    for (uint64_t i = 0; i < n && in->ok(); ++i) {
      Row key;
      Value value;
      if (!ReadRow(*in, &key) || !ReadValue(*in, &value)) {
        return Status::ParseError("restore: corrupt entry in map " + name);
      }
      it->second.Set(key, std::move(value));
    }
  }

  const uint64_t nextremes = in->u64();
  for (uint64_t t = 0; t < nextremes && in->ok(); ++t) {
    const std::string name = in->str();
    auto it = extremes_.find(name);
    if (it == extremes_.end()) {
      return Status::ParseError(
          "restore: snapshot names unknown extreme map '" + name + "'");
    }
    const uint64_t ngroups = in->u64();
    for (uint64_t g = 0; g < ngroups && in->ok(); ++g) {
      Row key;
      if (!ReadRow(*in, &key)) {
        return Status::ParseError("restore: corrupt key in extreme map " +
                                  name);
      }
      const uint64_t nvalues = in->u64();
      for (uint64_t v = 0; v < nvalues && in->ok(); ++v) {
        Value value;
        if (!ReadValue(*in, &value)) {
          return Status::ParseError("restore: corrupt value in extreme map " +
                                    name);
        }
        it->second.AddCount(key, value, in->i64());
      }
    }
  }

  if (!in->ok()) return Status::ParseError("restore: truncated snapshot");
  return Status::OK();
}

std::vector<std::string> Engine::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(program_.views.size());
  for (const compiler::ViewSpec& v : program_.views) names.push_back(v.name);
  return names;
}

Result<exec::QueryResult> Engine::View(const std::string& view_name) {
  const compiler::ViewSpec* view = program_.FindView(view_name);
  if (view == nullptr) {
    return Status::NotFound("unknown view: " + view_name);
  }
  exec::QueryResult out;
  // The view's columns are exactly the query's SELECT items (group keys
  // appear here iff the query selected them), matching SQL output schema.
  for (const compiler::ViewColumn& c : view->columns) {
    out.column_names.push_back(c.name);
  }

  auto emit_row = [&](const Bindings& env, const Row& key) -> Status {
    Row row;
    row.reserve(view->columns.size());
    for (const compiler::ViewColumn& c : view->columns) {
      if (c.kind == compiler::ViewColumn::Kind::kTerm) {
        DBT_ASSIGN_OR_RETURN(Value v,
                             eval_.EvalTerm(c.value, env, /*store_init=*/true));
        row.push_back(std::move(v));
      } else {
        const ExtremeMap* em = extreme_map(c.extreme_map);
        if (em == nullptr) {
          return Status::Internal("missing extreme map: " + c.extreme_map);
        }
        const compiler::MapDecl* decl = decls_.at(c.extreme_map);
        auto v = decl->extreme_kind == sql::AggKind::kMin ? em->Min(key)
                                                          : em->Max(key);
        row.push_back(v.has_value()
                          ? *v
                          : (c.type == Type::kDouble ? Value(0.0)
                                                     : Value(int64_t{0})));
      }
    }
    out.rows.emplace_back(std::move(row), 1);
    return Status::OK();
  };

  // HAVING: post-aggregation guard over the materialized group maps.
  auto passes_having = [&](const Bindings& env) -> Result<bool> {
    if (view->having == nullptr) return true;
    DBT_ASSIGN_OR_RETURN(
        Value v, eval_.EvalScalar(view->having, env, /*store_init=*/true));
    return !(v.is_numeric() && v.IsZero());
  };

  if (view->key_vars.empty()) {
    Bindings env;
    DBT_ASSIGN_OR_RETURN(bool pass, passes_having(env));
    if (pass) {
      DBT_RETURN_IF_ERROR(emit_row(env, {}));
    }
    return out;
  }
  const ValueMap* domain = value_map(view->domain_map);
  if (domain == nullptr) {
    return Status::Internal("missing domain map for view: " + view_name);
  }
  for (const auto& [key, count] : domain->entries()) {
    if (count.is_numeric() && count.IsZero()) continue;
    Bindings env;
    for (size_t i = 0; i < view->key_vars.size(); ++i) {
      env[view->key_vars[i]] = key[i];
    }
    DBT_ASSIGN_OR_RETURN(bool pass, passes_having(env));
    if (!pass) continue;
    DBT_RETURN_IF_ERROR(emit_row(env, key));
  }
  return out;
}

Result<exec::QueryResult> Engine::AdhocQuery(const std::string& sql) {
  return exec::Executor::Query(sql, program_.catalog, db_);
}

}  // namespace dbtoaster::runtime
