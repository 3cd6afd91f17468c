#include "src/codegen/cpp_gen.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <set>

#include "src/common/str.h"
#include "src/compiler/tir.h"
#include "src/compiler/tir_verify.h"
#include "src/ring/expr.h"

namespace dbtoaster::codegen {

using compiler::MapDecl;
using compiler::Program;
using compiler::Statement;
using compiler::Trigger;
using compiler::ViewColumn;
using compiler::ViewSpec;
using ring::Expr;
using ring::ExprPtr;
using ring::Term;
using ring::TermPtr;

namespace {

const char* CppType(Type t) {
  switch (t) {
    case Type::kInt:
    case Type::kDate:
      return "int64_t";
    case Type::kDouble:
      return "double";
    case Type::kString:
      return "std::string";
  }
  return "int64_t";
}

std::string KeyType(const std::vector<Type>& key_types) {
  std::vector<std::string> parts;
  for (Type t : key_types) parts.emplace_back(CppType(t));
  return "std::tuple<" + Join(parts, ", ") + ">";
}

std::string EscapeString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += "\"";
  return out;
}

std::string ValueLiteral(const Value& v) {
  if (v.is_string()) return EscapeString(v.AsString());
  if (v.is_double()) return StrFormat("%.17g", v.AsDouble());
  return StrFormat("INT64_C(%lld)", static_cast<long long>(v.AsInt()));
}

const char* SelOpName(sql::BinOp op) {
  switch (op) {
    case sql::BinOp::kEq: return "dbt::SelOp::kEq";
    case sql::BinOp::kNeq: return "dbt::SelOp::kNe";
    case sql::BinOp::kLt: return "dbt::SelOp::kLt";
    case sql::BinOp::kLe: return "dbt::SelOp::kLe";
    case sql::BinOp::kGt: return "dbt::SelOp::kGt";
    case sql::BinOp::kGe: return "dbt::SelOp::kGe";
    default: return "dbt::SelOp::kEq";
  }
}

/// EventBatch column element type backing a trigger parameter lane.
const char* ColElem(Type t) {
  switch (t) {
    case Type::kDouble: return "double";
    case Type::kString: return "std::string";
    default: return "int64_t";
  }
}

/// Equality of extracted guard sets as multisets (order-insensitive).
bool SamePredSet(const std::vector<tir::PredSpec>& a,
                 const std::vector<tir::PredSpec>& b) {
  if (a.size() != b.size()) return false;
  std::vector<bool> used(b.size(), false);
  for (const tir::PredSpec& pa : a) {
    bool found = false;
    for (size_t j = 0; j < b.size(); ++j) {
      if (!used[j] && tir::PredSpecEquals(pa, b[j])) {
        used[j] = true;
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

/// Collect ring atoms of `e` whose argument lists are not fully bound by
/// `bound`: slices and scans, whose contribution order is the iterated
/// store's internal layout. Point accesses (all args bound) read values
/// only and are layout-independent.
void CollectIteratedStores(const ExprPtr& e, const std::set<std::string>& bound,
                           std::set<std::string>* iterated) {
  if (e == nullptr) return;
  if (e->kind == ring::ExprKind::kRel || e->kind == ring::ExprKind::kMapRef) {
    for (const std::string& a : e->args) {
      if (bound.count(a) == 0) {
        iterated->insert(e->name);
        return;
      }
    }
    return;
  }
  for (const ExprPtr& c : e->children) {
    CollectIteratedStores(c, bound, iterated);
  }
}

/// Collect every store name the expression can read back at runtime: kRel
/// scans, kMapRef reads, and map reads buried inside value terms, lifts,
/// and comparison operands.
void CollectReadStores(const ExprPtr& e, std::set<std::string>* out) {
  if (e == nullptr) return;
  switch (e->kind) {
    case ring::ExprKind::kRel:
    case ring::ExprKind::kMapRef:
      out->insert(e->name);
      break;
    case ring::ExprKind::kValTerm:
    case ring::ExprKind::kLift:
      if (e->term != nullptr) e->term->CollectMapReads(out);
      break;
    case ring::ExprKind::kCmp:
      if (e->cmp_lhs != nullptr) e->cmp_lhs->CollectMapReads(out);
      if (e->cmp_rhs != nullptr) e->cmp_rhs->CollectMapReads(out);
      break;
    default:
      break;
  }
  for (const ExprPtr& c : e->children) CollectReadStores(c, out);
}

/// Per-program code generation context.
class Generator {
 public:
  Generator(const Program& program, const GenOptions& options)
      : p_(program), opts_(options), tir_(tir::Lower(program)) {
    for (const MapDecl& m : p_.maps) decls_[m.name] = &m;
    // Base relation maps: any relation whose trigger exists or that appears
    // in a statement RHS / init definition.
    for (const Trigger& t : p_.triggers) rels_.insert(t.relation);
    // Dead-store elimination for the base relation snapshots: rel_R_ is
    // materialized only when something can read it back — a statement RHS
    // scanning the relation, an init-on-access map definition, or a view
    // expression. A write-only snapshot (q6s's LINEITEM) costs one hash
    // update per event in every handler; eliding it is unobservable.
    std::set<std::string> reads;
    for (const Trigger& t : p_.triggers) {
      for (const Statement& s : t.statements) {
        CollectReadStores(s.rhs, &reads);
        CollectReadStores(s.extreme_guard, &reads);
        if (s.extreme_value != nullptr) {
          s.extreme_value->CollectMapReads(&reads);
        }
      }
    }
    for (const MapDecl& m : p_.maps) {
      if (m.needs_init) CollectReadStores(m.definition, &reads);
    }
    for (const ViewSpec& v : p_.views) {
      CollectReadStores(v.having, &reads);
      for (const ViewColumn& c : v.columns) {
        if (c.value != nullptr) c.value->CollectMapReads(&reads);
      }
    }
    for (const std::string& rel : rels_) {
      if (reads.count(rel) != 0) live_rels_.insert(rel);
    }
    AnalyzeShardPlan();
    ComputeRelaxedOk();
  }

  Result<std::string> Run();

 private:
  struct Env {
    /// variable -> C++ expression (already typed).
    std::map<std::string, std::string> vars;
    /// "true"/"false": may map initialiser results be cached?
    std::string store_flag = "false";
  };

  const Schema* RelSchema(const std::string& name) const {
    return p_.catalog.FindRelation(name);
  }

  std::string RelMapName(const std::string& rel) const {
    return "rel_" + rel + "_";
  }

  std::string Fresh(const std::string& base) {
    return StrFormat("%s%d", base.c_str(), ++temp_);
  }

  std::string Indent() const { return std::string(indent_ * 2, ' '); }
  void Line(std::string* out, const std::string& s) {
    *out += Indent() + s + "\n";
  }

  // ---- terms -------------------------------------------------------------

  Result<std::string> TermCpp(const TermPtr& t, const Env& env) {
    switch (t->kind) {
      case Term::Kind::kConst:
        return ValueLiteral(t->constant);
      case Term::Kind::kVar: {
        auto it = env.vars.find(t->var);
        if (it == env.vars.end()) {
          return Status::Internal("codegen: unbound variable " + t->var);
        }
        return it->second;
      }
      case Term::Kind::kMapRead: {
        std::vector<std::string> keys;
        for (const TermPtr& a : t->args) {
          DBT_ASSIGN_OR_RETURN(std::string k, TermCpp(a, env));
          keys.push_back(std::move(k));
        }
        const MapDecl* decl = decls_.count(t->map_name)
                                  ? decls_.at(t->map_name)
                                  : nullptr;
        if (decl == nullptr) {
          return Status::Internal("codegen: unknown map " + t->map_name);
        }
        std::string key = "std::make_tuple(" + Join(keys, ", ") + ")";
        if (decl->needs_init) {
          return StrFormat("%s_read(%s, %s)", decl->name.c_str(), key.c_str(),
                           env.store_flag.c_str());
        }
        return StrFormat("%s_.get(%s)", decl->name.c_str(), key.c_str());
      }
      case Term::Kind::kAdd:
      case Term::Kind::kSub:
      case Term::Kind::kMul: {
        DBT_ASSIGN_OR_RETURN(std::string l, TermCpp(t->lhs, env));
        DBT_ASSIGN_OR_RETURN(std::string r, TermCpp(t->rhs, env));
        const char* op = t->kind == Term::Kind::kAdd   ? "+"
                         : t->kind == Term::Kind::kSub ? "-"
                                                       : "*";
        return "(" + l + " " + op + " " + r + ")";
      }
      case Term::Kind::kDiv: {
        DBT_ASSIGN_OR_RETURN(std::string l, TermCpp(t->lhs, env));
        DBT_ASSIGN_OR_RETURN(std::string r, TermCpp(t->rhs, env));
        return "dbt::SafeDiv(static_cast<double>(" + l +
               "), static_cast<double>(" + r + "))";
      }
      case Term::Kind::kFunc1: {
        DBT_ASSIGN_OR_RETURN(std::string a, TermCpp(t->lhs, env));
        const char* fn = "dbt::ExtractYear";
        switch (t->func) {
          case sql::FuncKind::kExtractYear: fn = "dbt::ExtractYear"; break;
          case sql::FuncKind::kExtractMonth: fn = "dbt::ExtractMonth"; break;
          case sql::FuncKind::kExtractDay: fn = "dbt::ExtractDay"; break;
        }
        return StrFormat("%s(static_cast<int64_t>(%s))", fn, a.c_str());
      }
    }
    return Status::Internal("codegen: unhandled term kind");
  }

  static const char* CmpOp(sql::BinOp op) {
    switch (op) {
      case sql::BinOp::kEq: return "==";
      case sql::BinOp::kNeq: return "!=";
      case sql::BinOp::kLt: return "<";
      case sql::BinOp::kLe: return "<=";
      case sql::BinOp::kGt: return ">";
      case sql::BinOp::kGe: return ">=";
      default: return "==";
    }
  }

  // ---- expression loops ----------------------------------------------------

  /// Greedy factor ordering: delegates to the typed IR's planner so both
  /// backends loop in the same order (mirrors the interpreter's EvalProd).
  std::vector<ExprPtr> OrderFactors(const std::vector<ExprPtr>& factors,
                                    const Env& env) {
    std::set<std::string> bound;
    for (const auto& [v, cpp] : env.vars) bound.insert(v);
    return tir::OrderProductFactors(factors, bound);
  }

  using Sink = std::function<Status(const Env&, const std::string& value)>;

  /// Emit nested loops computing the contributions of `e` under `env`;
  /// `sink` is invoked at the innermost point with the multiplicative value
  /// expression (a product of factor values).
  Status EmitContribs(const ExprPtr& e, const Env& env, std::string* out,
                      const Sink& sink) {
    switch (e->kind) {
      case ring::ExprKind::kProd:
        return EmitProd(OrderFactors(e->children, env), 0, env, {}, out,
                        sink);
      case ring::ExprKind::kSum: {
        for (const ExprPtr& c : e->children) {
          DBT_RETURN_IF_ERROR(EmitContribs(c, env, out, sink));
        }
        return Status::OK();
      }
      default:
        return EmitProd({e}, 0, env, {}, out, sink);
    }
  }

  Status EmitProd(const std::vector<ExprPtr>& factors, size_t idx,
                  const Env& env, std::vector<std::string> values,
                  std::string* out, const Sink& sink) {
    if (idx == factors.size()) {
      std::string value =
          values.empty() ? std::string("INT64_C(1)") : Join(values, " * ");
      return sink(env, value);
    }
    const ExprPtr& f = factors[idx];
    switch (f->kind) {
      case ring::ExprKind::kConst: {
        values.push_back(ValueLiteral(f->constant));
        return EmitProd(factors, idx + 1, env, std::move(values), out, sink);
      }
      case ring::ExprKind::kValTerm: {
        DBT_ASSIGN_OR_RETURN(std::string v, TermCpp(f->term, env));
        values.push_back("(" + v + ")");
        return EmitProd(factors, idx + 1, env, std::move(values), out, sink);
      }
      case ring::ExprKind::kCmp: {
        DBT_ASSIGN_OR_RETURN(std::string l, TermCpp(f->cmp_lhs, env));
        DBT_ASSIGN_OR_RETURN(std::string r, TermCpp(f->cmp_rhs, env));
        if (f->cmp_op == sql::BinOp::kLike ||
            f->cmp_op == sql::BinOp::kNotLike) {
          Line(out, StrFormat("if (%sdbt::Like(%s, %s)) {",
                              f->cmp_op == sql::BinOp::kNotLike ? "!" : "",
                              l.c_str(), r.c_str()));
        } else {
          Line(out, StrFormat("if (%s %s %s) {", l.c_str(), CmpOp(f->cmp_op),
                              r.c_str()));
        }
        ++indent_;
        DBT_RETURN_IF_ERROR(
            EmitProd(factors, idx + 1, env, std::move(values), out, sink));
        --indent_;
        Line(out, "}");
        return Status::OK();
      }
      case ring::ExprKind::kLift: {
        DBT_ASSIGN_OR_RETURN(std::string t, TermCpp(f->term, env));
        auto it = env.vars.find(f->var);
        if (it != env.vars.end()) {
          Line(out, StrFormat("if (%s == %s) {", it->second.c_str(),
                              t.c_str()));
          ++indent_;
          DBT_RETURN_IF_ERROR(
              EmitProd(factors, idx + 1, env, std::move(values), out, sink));
          --indent_;
          Line(out, "}");
          return Status::OK();
        }
        std::string name = Fresh("v");
        Line(out, StrFormat("const auto %s = %s;", name.c_str(), t.c_str()));
        Env env2 = env;
        env2.vars[f->var] = name;
        return EmitProd(factors, idx + 1, env2, std::move(values), out, sink);
      }
      case ring::ExprKind::kNeg: {
        values.push_back("INT64_C(-1)");
        std::vector<ExprPtr> sub = factors;
        sub[idx] = f->children[0];
        return EmitProd(sub, idx, env, std::move(values), out, sink);
      }
      case ring::ExprKind::kRel:
      case ring::ExprKind::kMapRef: {
        bool is_rel = f->kind == ring::ExprKind::kRel;
        const MapDecl* decl = nullptr;
        std::string map_expr;
        if (is_rel) {
          map_expr = RelMapName(f->name);
        } else {
          decl = decls_.count(f->name) ? decls_.at(f->name) : nullptr;
          if (decl == nullptr) {
            return Status::Internal("codegen: unknown map " + f->name);
          }
          map_expr = decl->name + "_";
        }
        // Classify arguments.
        std::vector<std::string> bound_expr(f->args.size());
        std::vector<bool> is_bound(f->args.size(), false);
        std::map<std::string, size_t> first_of;
        std::vector<int> dup_of(f->args.size(), -1);
        bool all_bound = true;
        for (size_t i = 0; i < f->args.size(); ++i) {
          auto it = env.vars.find(f->args[i]);
          if (it != env.vars.end()) {
            is_bound[i] = true;
            bound_expr[i] = it->second;
            continue;
          }
          auto dup = first_of.find(f->args[i]);
          if (dup != first_of.end()) {
            dup_of[i] = static_cast<int>(dup->second);
            all_bound = false;
            continue;
          }
          first_of[f->args[i]] = i;
          all_bound = false;
        }
        if (all_bound) {
          // Point lookup.
          std::vector<std::string> keys;
          for (size_t i = 0; i < f->args.size(); ++i) {
            keys.push_back(bound_expr[i]);
          }
          std::string key =
              "std::make_tuple(" + Join(keys, ", ") + ")";
          std::string v = Fresh("v");
          if (!is_rel && decl->needs_init) {
            Line(out, StrFormat("const auto %s = %s_read(%s, %s);", v.c_str(),
                                decl->name.c_str(), key.c_str(),
                                env.store_flag.c_str()));
          } else {
            Line(out, StrFormat("const auto %s = %s.get(%s);", v.c_str(),
                                map_expr.c_str(), key.c_str()));
          }
          values.push_back(v);
          return EmitProd(factors, idx + 1, env, std::move(values), out,
                          sink);
        }
        // Slice access. With bound positions, go through a secondary slice
        // index (the nested-map access path of the paper's generated code);
        // otherwise scan all entries.
        std::vector<size_t> bpos;
        std::vector<std::string> bexprs;
        for (size_t i = 0; i < f->args.size(); ++i) {
          if (is_bound[i]) {
            bpos.push_back(i);
            bexprs.push_back(bound_expr[i]);
          }
        }
        // The shard plan admits point accesses only; a slice or scan here
        // would read across partitions while workers mutate them.
        if (plan_.ok) {
          return Status::Internal("codegen: non-point access under shard plan");
        }
        if (!bpos.empty()) {
          DBT_ASSIGN_OR_RETURN(StoreInfo info, StoreOf(f));
          std::string idx_name = RequestIndex(map_expr, bpos, info.key_types);
          std::string bucket = Fresh("b");
          std::string fk = Fresh("fk");
          std::string val = Fresh("v");
          Line(out, StrFormat("const auto* %s = %s.lookup(std::make_tuple(%s));",
                              bucket.c_str(), idx_name.c_str(),
                              Join(bexprs, ", ").c_str()));
          Line(out, StrFormat("if (%s != nullptr) for (const auto& %s : *%s) {",
                              bucket.c_str(), fk.c_str(), bucket.c_str()));
          ++indent_;
          Line(out, StrFormat("const auto %s = %s.get(%s);", val.c_str(),
                              map_expr.c_str(), fk.c_str()));
          Line(out, StrFormat("if (%s == 0) continue;  // stale index entry",
                              val.c_str()));
          Env env2 = env;
          for (size_t i = 0; i < f->args.size(); ++i) {
            std::string slot = StrFormat("std::get<%zu>(%s)", i, fk.c_str());
            if (is_bound[i]) continue;  // guaranteed equal by the index
            if (dup_of[i] >= 0) {
              Line(out, StrFormat("if (%s != std::get<%d>(%s)) continue;",
                                  slot.c_str(), dup_of[i], fk.c_str()));
            } else {
              std::string name = Fresh("v");
              Line(out, StrFormat("[[maybe_unused]] const auto %s = %s;",
                                  name.c_str(), slot.c_str()));
              env2.vars[f->args[i]] = name;
            }
          }
          std::vector<std::string> values2 = values;
          values2.push_back(val);
          DBT_RETURN_IF_ERROR(EmitProd(factors, idx + 1, env2,
                                       std::move(values2), out, sink));
          --indent_;
          Line(out, "}");
          return Status::OK();
        }
        std::string kv = Fresh("e");
        Line(out, StrFormat("for (const auto& %s : %s.entries()) {",
                            kv.c_str(), map_expr.c_str()));
        ++indent_;
        Env env2 = env;
        for (size_t i = 0; i < f->args.size(); ++i) {
          std::string slot =
              StrFormat("std::get<%zu>(%s.first)", i, kv.c_str());
          if (is_bound[i]) {
            Line(out, StrFormat("if (%s != %s) continue;", slot.c_str(),
                                bound_expr[i].c_str()));
          } else if (dup_of[i] >= 0) {
            Line(out, StrFormat("if (%s != std::get<%d>(%s.first)) continue;",
                                slot.c_str(), dup_of[i], kv.c_str()));
          } else {
            std::string name = Fresh("v");
            Line(out, StrFormat("[[maybe_unused]] const auto %s = %s;",
                                name.c_str(), slot.c_str()));
            env2.vars[f->args[i]] = name;
          }
        }
        std::vector<std::string> values2 = values;
        values2.push_back(kv + ".second");
        DBT_RETURN_IF_ERROR(
            EmitProd(factors, idx + 1, env2, std::move(values2), out, sink));
        --indent_;
        Line(out, "}");
        return Status::OK();
      }
      case ring::ExprKind::kAggSum: {
        // Scalar accumulation: all group vars must already be bound.
        for (const std::string& g : f->group_vars) {
          if (!env.vars.count(g)) {
            return Status::NotSupported(
                "codegen: AggSum factor with unbound group variable " + g);
          }
        }
        std::string acc = Fresh("acc");
        Line(out, StrFormat("double %s = 0;", acc.c_str()));
        Sink inner = [&](const Env& /*e2*/, const std::string& value) -> Status {
          Line(out, StrFormat("%s += static_cast<double>(%s);", acc.c_str(),
                              value.c_str()));
          return Status::OK();
        };
        DBT_RETURN_IF_ERROR(EmitContribs(f->children[0], env, out, inner));
        values.push_back(acc);
        return EmitProd(factors, idx + 1, env, std::move(values), out, sink);
      }
      case ring::ExprKind::kSum: {
        // 0/1 indicator sums (OR): accumulate into a scalar, then continue.
        std::string acc = Fresh("ind");
        Line(out, StrFormat("int64_t %s = 0;", acc.c_str()));
        Sink inner = [&](const Env& /*e2*/, const std::string& value) -> Status {
          Line(out, StrFormat("%s += (%s);", acc.c_str(), value.c_str()));
          return Status::OK();
        };
        for (const ExprPtr& c : f->children) {
          DBT_RETURN_IF_ERROR(EmitContribs(c, env, out, inner));
        }
        values.push_back(acc);
        return EmitProd(factors, idx + 1, env, std::move(values), out, sink);
      }
      case ring::ExprKind::kProd: {
        std::vector<ExprPtr> sub = factors;
        sub.erase(sub.begin() + static_cast<long>(idx));
        sub.insert(sub.begin() + static_cast<long>(idx),
                   f->children.begin(), f->children.end());
        return EmitProd(OrderFactors(sub, env), idx, env, std::move(values),
                        out, sink);
      }
      default:
        return Status::Internal("codegen: unexpected factor kind");
    }
  }

  // ---- statements ----------------------------------------------------------

  Status EmitDeltaStatement(const Statement& stmt, const Env& base_env,
                            const std::string& pend_name, std::string* out) {
    const MapDecl* decl = decls_.at(stmt.target);
    Line(out, "{  // " + stmt.ToString());
    ++indent_;

    auto emit_body = [&](const Env& env) -> Status {
      Sink sink = [&](const Env& e2, const std::string& value) -> Status {
        std::vector<std::string> keys;
        for (const std::string& kv : stmt.target_keys) {
          auto it = e2.vars.find(kv);
          if (it == e2.vars.end()) {
            return Status::Internal("codegen: unbound target key " + kv);
          }
          keys.push_back(it->second);
        }
        Line(out, StrFormat(
                      "%s.emplace_back(std::make_tuple(%s), "
                      "static_cast<%s>(%s));",
                      pend_name.c_str(), Join(keys, ", ").c_str(),
                      CppType(decl->value_type), value.c_str()));
        return Status::OK();
      };
      return EmitContribs(stmt.rhs, env, out, sink);
    };

    if (stmt.lhs_iterate.empty()) {
      DBT_RETURN_IF_ERROR(emit_body(base_env));
    } else {
      // LHS-driven iteration over the live keys of the target map, deduped
      // on the iterated positions when they do not cover the whole key.
      bool full = stmt.lhs_iterate.size() == stmt.target_keys.size();
      std::string lk = Fresh("lk");
      if (!full) {
        Line(out, StrFormat("std::set<std::string> seen_%s;", lk.c_str()));
      }
      Line(out, StrFormat("for (const auto& %s : %s_.entries()) {",
                          lk.c_str(), stmt.target.c_str()));
      ++indent_;
      Env env2 = base_env;
      std::string dedup_expr;
      for (size_t i = 0; i < stmt.lhs_iterate.size(); ++i) {
        size_t pos = stmt.lhs_iterate[i];
        std::string name = Fresh("v");
        Line(out, StrFormat("[[maybe_unused]] const auto %s = "
                            "std::get<%zu>(%s.first);",
                            name.c_str(), pos, lk.c_str()));
        env2.vars[stmt.target_keys[pos]] = name;
      }
      if (!full) {
        // Cheap textual dedup key (positions not covered by iteration are
        // event-bound and constant within this trigger execution).
        std::string parts;
        for (size_t pos : stmt.lhs_iterate) {
          parts += StrFormat(" + \"|\" + dbt_detail_to_string(std::get<%zu>(%s.first))",
                             pos, lk.c_str());
        }
        Line(out, StrFormat(
                      "if (!seen_%s.insert(std::string()%s).second) continue;",
                      lk.c_str(), parts.c_str()));
      }
      DBT_RETURN_IF_ERROR(emit_body(env2));
      --indent_;
      Line(out, "}");
    }
    --indent_;
    Line(out, "}");
    return Status::OK();
  }

  /// Statements that failed sign unification carry a one-sided mask; their
  /// emission is wrapped in a sign guard. Unified statements run for both
  /// polarities with kSignVar bound to the `sign` argument.
  bool MaskOpen(const tir::Stmt& s, std::string* out) {
    if (s.when == tir::Stmt::When::kBoth) return false;
    Line(out, s.when == tir::Stmt::When::kInsertOnly ? "if (sign > 0) {"
                                                     : "if (sign < 0) {");
    ++indent_;
    return true;
  }
  void MaskClose(bool opened, std::string* out) {
    if (!opened) return;
    --indent_;
    Line(out, "}");
  }

  Status EmitExtreme(const tir::Stmt& s, const Env& env, std::string* out);
  Status EmitReeval(const tir::Stmt& s, std::string* out);
  void EmitBaseUpdate(const tir::Trigger& t, std::string* out);
  Status EmitVecTrigger(const tir::Trigger& t, std::string* out);
  Status EmitRowPhases(const tir::Trigger& t, const Env& env,
                       std::string* out);
  Status EmitGroupPhases(const tir::Trigger& t, const Env& row_env,
                         std::string* out);
  Status EmitMaps(std::string* out);

  // ---- group-vectorized batch path ----------------------------------------
  //
  // Layout-exactness vs. layout-drift. Run-batched commits into DOUBLE maps
  // go through Map::find_value: a live key takes `*slot += v` per row (the
  // exact add() sequence — doubles are never erased by add), an absent key
  // falls back to per-row upd_ calls, so insertion order and float addition
  // order are bit-identical to per-event replay. Batching INTEGER targets (one
  // add per distinct key run) and statement-major phases over maps with
  // several writers keep every per-key SUM exact but can change a store's
  // internal LAYOUT (which transient zero got erased, insertion order).
  // That drift is admissible only when provably unobservable: no statement
  // or re-evaluation anywhere in the program iterates a drifted store into
  // a float accumulation, and no init-on-access map can snapshot it.

  /// True when a lane predicate is evaluable by the selection kernels with
  /// C++ semantics identical to the scalar comparison.
  bool PredSupported(const tir::PredSpec& ps) const {
    const bool int_lane = ps.lane_type != Type::kDouble &&
                          ps.lane_type != Type::kString;
    switch (ps.kind) {
      case tir::PredSpec::Kind::kCmp:
        if (ps.values.size() != 1) return false;
        if (ps.lane_type == Type::kString) {
          return (ps.op == sql::BinOp::kEq || ps.op == sql::BinOp::kNeq) &&
                 ps.values[0].is_string();
        }
        if (ps.values[0].is_string()) return false;
        // An int lane against a double constant would truncate in the
        // typed kernel; the guard stays in the RHS, compared in double.
        return !(int_lane && ps.values[0].is_double());
      case tir::PredSpec::Kind::kRange:
        return int_lane && ps.values.size() == 2 &&
               !ps.values[0].is_string() && !ps.values[0].is_double() &&
               !ps.values[1].is_string() && !ps.values[1].is_double();
      case tir::PredSpec::Kind::kIn: {
        if (ps.lane_type == Type::kString || ps.values.empty()) return false;
        for (const Value& v : ps.values) {
          if (v.is_string() || (int_lane && v.is_double())) return false;
        }
        return true;
      }
    }
    return false;
  }

  bool StmtPredsSupported(const tir::Stmt& s) const {
    if (s.preds.empty()) return false;
    for (const tir::PredSpec& ps : s.preds) {
      if (!PredSupported(ps)) return false;
    }
    return true;
  }

  /// One target-key lane of a run-batched statement.
  struct KeyLane {
    size_t lane = 0;  ///< trigger parameter index
    Type type = Type::kInt;
    const tir::PredSpec* pin = nullptr;  ///< equality guard fixing the lane
  };

  /// Run-batched commit eligibility: every extracted guard has a kernel,
  /// every target key is a plain event lane, string lanes are pinned by an
  /// equality guard, unpinned lanes are int64-sortable, and the required
  /// write-order relaxation is admissible for the target's value type.
  bool BatchableStmt(const tir::Trigger& t, const tir::Stmt& s,
                     std::vector<KeyLane>* lanes_out = nullptr) const {
    if (s.statically_zero || s.stmt.kind != Statement::Kind::kDelta ||
        !s.stmt.lhs_iterate.empty()) {
      return false;
    }
    const MapDecl* decl =
        decls_.count(s.stmt.target) ? decls_.at(s.stmt.target) : nullptr;
    if (decl == nullptr || decl->is_extreme || decl->needs_init) return false;
    const bool is_double = decl->value_type == Type::kDouble;
    if (!is_double && !relaxed_ok_) return false;
    if (!s.preds.empty() && !StmtPredsSupported(s)) return false;
    std::vector<KeyLane> lanes;
    for (const std::string& k : s.stmt.target_keys) {
      size_t li = SIZE_MAX;
      for (size_t i = 0; i < t.params.size(); ++i) {
        if (t.params[i].name == k) { li = i; break; }
      }
      if (li == SIZE_MAX) return false;
      KeyLane kl{li, t.params[li].type, nullptr};
      for (const tir::PredSpec& ps : s.preds) {
        if (ps.kind == tir::PredSpec::Kind::kCmp &&
            ps.op == sql::BinOp::kEq && ps.lane == li) {
          kl.pin = &ps;
          break;
        }
      }
      if (kl.pin == nullptr && kl.type == Type::kString) return false;
      if (kl.pin == nullptr && kl.type == Type::kDouble) return false;
      lanes.push_back(kl);
    }
    if (lanes_out) *lanes_out = std::move(lanes);
    return true;
  }

  /// Program-wide admissibility of layout drift (see block comment above):
  /// seed the set with integer targets the vectorized path would commit in
  /// merged/reordered order, then close over consumers that iterate a
  /// drifted store. A double-valued consumer, a re-evaluation scan, or any
  /// init-on-access map kills the relaxation globally.
  void ComputeRelaxedOk() {
    relaxed_ok_ = false;
    for (const MapDecl& m : p_.maps) {
      if (m.needs_init) return;
    }
    std::set<std::string> drifty;
    for (const tir::Trigger& t : tir_.triggers) {
      if (!t.vectorizable) continue;
      std::set<std::string> params;
      for (const tir::Param& pr : t.params) params.insert(pr.name);
      std::map<std::string, int> writers;
      for (const tir::Stmt& s : t.stmts) {
        if (s.stmt.kind == Statement::Kind::kDelta && !s.statically_zero) {
          ++writers[s.stmt.target];
        }
      }
      for (const tir::Stmt& s : t.stmts) {
        if (s.stmt.kind != Statement::Kind::kDelta || s.statically_zero) {
          continue;
        }
        const MapDecl* decl =
            decls_.count(s.stmt.target) ? decls_.at(s.stmt.target) : nullptr;
        if (decl == nullptr || decl->value_type == Type::kDouble) continue;
        bool keyed_by_params = true;
        for (const std::string& k : s.stmt.target_keys) {
          if (!params.count(k)) { keyed_by_params = false; break; }
        }
        if (keyed_by_params || writers[s.stmt.target] > 1) {
          drifty.insert(s.stmt.target);
        }
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (const tir::Trigger& t : tir_.triggers) {
        std::set<std::string> params;
        for (const tir::Param& pr : t.params) params.insert(pr.name);
        for (const tir::Stmt& s : t.stmts) {
          const Statement& st = s.stmt;
          std::set<std::string> iterated;
          if (st.kind == Statement::Kind::kReeval) {
            CollectIteratedStores(st.rhs, {}, &iterated);
            for (const std::string& m : iterated) {
              if (drifty.count(m)) return;  // float refresh scans the store
            }
            continue;
          }
          if (st.kind == Statement::Kind::kExtreme) {
            // Guards accumulate int64 indicators (exact under reorder);
            // values/keys are point reads.
            continue;
          }
          CollectIteratedStores(st.rhs, params, &iterated);
          if (!st.lhs_iterate.empty()) iterated.insert(st.target);
          bool reads_drifty = false;
          for (const std::string& m : iterated) {
            if (drifty.count(m)) { reads_drifty = true; break; }
          }
          if (!reads_drifty) continue;
          const MapDecl* decl =
              decls_.count(st.target) ? decls_.at(st.target) : nullptr;
          if (decl == nullptr || decl->value_type == Type::kDouble) return;
          if (drifty.insert(st.target).second) changed = true;
        }
      }
    }
    relaxed_ok_ = true;
  }

  /// The chunk rule, as in the interpreter: a vectorizable trigger (no
  /// delta statement reads what the trigger writes) takes the whole group
  /// in one pass, unless several writers of one target can neither FUSE
  /// into a single loop (the exact per-event commit interleave, sound for
  /// any value type: same mask and guard set) nor be merged statement-major
  /// under the integer drift relaxation. Every other trigger takes one row
  /// at a time.
  bool WholeGroup(const tir::Trigger& t) const {
    if (!t.vectorizable) return false;
    std::map<std::string, std::vector<const tir::Stmt*>> writers;
    for (const tir::Stmt& s : t.stmts) {
      if (s.stmt.kind == Statement::Kind::kDelta && !s.statically_zero) {
        writers[s.stmt.target].push_back(&s);
      }
    }
    for (const auto& [target, ws] : writers) {
      bool fusable = true;
      for (const tir::Stmt* w : ws) {
        fusable = fusable && w->when == ws[0]->when &&
                  SamePredSet(ws[0]->preds, w->preds);
      }
      if (fusable) continue;
      const MapDecl* decl = decls_.count(target) ? decls_.at(target) : nullptr;
      if (decl == nullptr || decl->value_type == Type::kDouble ||
          !relaxed_ok_) {
        return false;
      }
    }
    return true;
  }
  Status EmitInitFunctions(std::string* out);
  Status EmitViews(std::string* out);
  Status EmitViewShim(std::string* out);
  Status EmitBatchHandlers(std::string* out);
  Status EmitDispatcher(std::string* out);

  /// Key types of a storage member ("mN_" aggregate map or "rel_R_" base
  /// multiset) plus its value C++ type.
  struct StoreInfo {
    std::vector<Type> key_types;
    std::string value_type;
  };
  Result<StoreInfo> StoreOf(const ExprPtr& atom) const {
    if (atom->kind == ring::ExprKind::kRel) {
      const Schema* schema = RelSchema(atom->name);
      if (schema == nullptr) {
        return Status::Internal("codegen: unknown relation " + atom->name);
      }
      StoreInfo info;
      for (size_t i = 0; i < schema->num_columns(); ++i) {
        info.key_types.push_back(schema->column_type(i));
      }
      info.value_type = "int64_t";
      return info;
    }
    const MapDecl* decl =
        decls_.count(atom->name) ? decls_.at(atom->name) : nullptr;
    if (decl == nullptr) {
      return Status::Internal("codegen: unknown map " + atom->name);
    }
    return StoreInfo{decl->key_types, CppType(decl->value_type)};
  }

  /// Secondary slice indexes requested by partially-bound atom accesses.
  struct IndexReq {
    std::string store;               ///< member name, e.g. "m8_" / "rel_R_"
    std::vector<size_t> positions;   ///< bound key positions
    std::vector<Type> key_types;     ///< full key types of the store
  };
  /// Returns the index member name, registering the request if new.
  std::string RequestIndex(const std::string& store,
                           const std::vector<size_t>& positions,
                           const std::vector<Type>& key_types) {
    for (size_t i = 0; i < index_reqs_.size(); ++i) {
      if (index_reqs_[i].store == store &&
          index_reqs_[i].positions == positions) {
        return StrFormat("idx%zu_", i);
      }
    }
    index_reqs_.push_back(IndexReq{store, positions, key_types});
    return StrFormat("idx%zu_", index_reqs_.size() - 1);
  }

  // ---- shard plan ----------------------------------------------------------
  //
  // A program is shardable when a partition attribute can be chosen for
  // every streamed relation such that each trigger's entire execution —
  // every map read, every map write, the base-table update — touches only
  // keys that carry the triggering event's attribute value. Events can then
  // be hash-partitioned on that value into dbt::kNumShards fixed logical
  // shards and replayed concurrently, each shard owning its own partition
  // of every store (dbt::Sharded) with no locks and no shared allocator.
  //
  // The analysis is conservative: delta statements only (no hybrid
  // re-evaluation, no MIN/MAX multisets, no LHS iteration), no
  // init-on-access maps, and every map/relation atom fully bound by event
  // parameters (point accesses only — a slice or scan would cross shards).

  /// One point access to a store: the variable name routed at each key
  /// position ("" when the key term is not a plain event parameter).
  struct ShardAccess {
    std::string store;              ///< member name ("q0_", "rel_BIDS_")
    std::vector<std::string> args;  ///< per key position
    std::string relation;           ///< triggering relation
  };

  struct ShardPlanInfo {
    bool ok = false;
    std::map<std::string, std::string> rel_var;  ///< relation -> param name
    std::map<std::string, size_t> rel_pos;       ///< relation -> param index
    std::map<std::string, size_t> route;         ///< store member -> key pos
  };

  size_t RouteOf(const std::string& store) const {
    auto it = plan_.route.find(store);
    return it == plan_.route.end() ? 0 : it->second;
  }

  bool CollectTermAccesses(const TermPtr& t,
                           const std::set<std::string>& params,
                           const std::string& relation,
                           std::vector<ShardAccess>* out) {
    switch (t->kind) {
      case Term::Kind::kConst:
      case Term::Kind::kVar:
        return true;
      case Term::Kind::kMapRead: {
        const MapDecl* decl =
            decls_.count(t->map_name) ? decls_.at(t->map_name) : nullptr;
        if (decl == nullptr || decl->needs_init || decl->is_extreme) {
          return false;
        }
        ShardAccess access{decl->name + "_", {}, relation};
        for (const TermPtr& a : t->args) {
          if (!CollectTermAccesses(a, params, relation, out)) return false;
          access.args.push_back(
              a->kind == Term::Kind::kVar && params.count(a->var) ? a->var
                                                                  : "");
        }
        out->push_back(std::move(access));
        return true;
      }
      default:
        return (t->lhs == nullptr ||
                CollectTermAccesses(t->lhs, params, relation, out)) &&
               (t->rhs == nullptr ||
                CollectTermAccesses(t->rhs, params, relation, out));
    }
  }

  bool CollectExprAccesses(const ExprPtr& e,
                           const std::set<std::string>& params,
                           const std::string& relation,
                           std::vector<ShardAccess>* out) {
    switch (e->kind) {
      case ring::ExprKind::kConst:
        return true;
      case ring::ExprKind::kValTerm:
      case ring::ExprKind::kLift:
        return CollectTermAccesses(e->term, params, relation, out);
      case ring::ExprKind::kCmp:
        return CollectTermAccesses(e->cmp_lhs, params, relation, out) &&
               CollectTermAccesses(e->cmp_rhs, params, relation, out);
      case ring::ExprKind::kRel:
      case ring::ExprKind::kMapRef: {
        std::string store;
        if (e->kind == ring::ExprKind::kRel) {
          store = RelMapName(e->name);
        } else {
          const MapDecl* decl =
              decls_.count(e->name) ? decls_.at(e->name) : nullptr;
          if (decl == nullptr || decl->needs_init || decl->is_extreme) {
            return false;
          }
          store = decl->name + "_";
        }
        ShardAccess access{store, {}, relation};
        for (const std::string& a : e->args) {
          if (!params.count(a)) return false;  // unbound arg: a slice/scan
          access.args.push_back(a);
        }
        out->push_back(std::move(access));
        return true;
      }
      default:
        for (const ExprPtr& c : e->children) {
          if (!CollectExprAccesses(c, params, relation, out)) return false;
        }
        return true;
    }
  }

  void AnalyzeShardPlan() {
    if (p_.triggers.empty()) return;
    for (const MapDecl& m : p_.maps) {
      if (m.needs_init) return;  // initializers scan base tables on read
    }
    std::vector<ShardAccess> accesses;
    for (const Trigger& t : p_.triggers) {
      std::set<std::string> params(t.params.begin(), t.params.end());
      // The base-table update: full event tuple, all positions are params.
      accesses.push_back(
          ShardAccess{RelMapName(t.relation), t.params, t.relation});
      for (const Statement& st : t.statements) {
        if (st.kind != Statement::Kind::kDelta || !st.lhs_iterate.empty()) {
          return;
        }
        for (const std::string& k : st.target_keys) {
          if (!params.count(k)) return;
        }
        accesses.push_back(
            ShardAccess{st.target + "_", st.target_keys, t.relation});
        if (!CollectExprAccesses(st.rhs, params, t.relation, &accesses)) {
          return;
        }
      }
    }

    // Candidate partition params per relation: those present in every
    // access made by that relation's triggers.
    std::vector<std::string> rels(rels_.begin(), rels_.end());
    std::map<std::string, std::vector<std::string>> cands;
    for (const std::string& rel : rels) {
      const Trigger* any = nullptr;
      for (const Trigger& t : p_.triggers) {
        if (t.relation == rel) any = &t;
      }
      for (const std::string& pv : any->params) {
        bool in_all = true;
        for (const ShardAccess& a : accesses) {
          if (a.relation != rel) continue;
          if (std::find(a.args.begin(), a.args.end(), pv) == a.args.end()) {
            in_all = false;
            break;
          }
        }
        if (in_all) cands[rel].push_back(pv);
      }
      if (cands[rel].empty()) return;
    }

    // Pick one partition param per relation such that every store admits a
    // single routed key position consistent across all of its accesses.
    std::map<std::string, std::string> chosen;
    std::map<std::string, size_t> route;
    std::function<bool(size_t)> assign = [&](size_t i) -> bool {
      if (i == rels.size()) {
        route.clear();
        std::map<std::string, std::vector<const ShardAccess*>> by_store;
        for (const ShardAccess& a : accesses) {
          by_store[a.store].push_back(&a);
        }
        for (const auto& [store, list] : by_store) {
          const size_t arity = list.front()->args.size();
          bool found = false;
          for (size_t j = 0; j < arity && !found; ++j) {
            bool all_match = true;
            for (const ShardAccess* a : list) {
              if (j >= a->args.size() || a->args[j] != chosen[a->relation]) {
                all_match = false;
                break;
              }
            }
            if (all_match) {
              route[store] = j;
              found = true;
            }
          }
          if (!found) return false;
        }
        return true;
      }
      for (const std::string& v : cands[rels[i]]) {
        chosen[rels[i]] = v;
        if (assign(i + 1)) return true;
      }
      return false;
    };
    if (!assign(0)) return;

    plan_.ok = true;
    plan_.rel_var = chosen;
    plan_.route = std::move(route);
    for (const std::string& rel : rels) {
      const Trigger* any = nullptr;
      for (const Trigger& t : p_.triggers) {
        if (t.relation == rel) any = &t;
      }
      for (size_t i = 0; i < any->params.size(); ++i) {
        if (any->params[i] == chosen[rel]) plan_.rel_pos[rel] = i;
      }
    }
  }

  const Program& p_;
  GenOptions opts_;
  /// Typed trigger IR lowered once from p_: sign-unified triggers, typed
  /// parameters, shared factor ordering. All trigger emission reads it.
  tir::Module tir_;
  std::map<std::string, const MapDecl*> decls_;
  std::set<std::string> rels_;
  /// Relations whose base multiset some expression reads back; only these
  /// get a rel_R_ member and per-event maintenance (see ctor).
  std::set<std::string> live_rels_;
  ShardPlanInfo plan_;
  /// Program-wide verdict: may integer map layout drift (run-batched adds,
  /// statement-major multi-writer merges)? See ComputeRelaxedOk.
  bool relaxed_ok_ = false;
  std::vector<IndexReq> index_reqs_;
  int temp_ = 0;
  int indent_ = 1;
};

Status Generator::EmitMaps(std::string* out) {
  if (plan_.ok) {
    Line(out, "// --- shard plan: hash-partitioned state, "
              "dbt::kNumShards logical shards ---");
    for (const auto& [rel, var] : plan_.rel_var) {
      Line(out, StrFormat("//   %s events partition on %s (param %zu)",
                          rel.c_str(), var.c_str(), plan_.rel_pos.at(rel)));
    }
  }
  Line(out, "// --- base relation multiset maps (database snapshot) ---");
  for (const std::string& rel : rels_) {
    if (live_rels_.count(rel) == 0) {
      Line(out, StrFormat("// rel_%s_ elided: no statement, initializer, or "
                          "view reads it back",
                          rel.c_str()));
      continue;
    }
    const Schema* schema = RelSchema(rel);
    std::vector<Type> kt;
    for (size_t i = 0; i < schema->num_columns(); ++i) {
      kt.push_back(schema->column_type(i));
    }
    if (plan_.ok) {
      Line(out, StrFormat("dbt::Sharded<dbt::Map<%s, int64_t>, %zu> %s;",
                          KeyType(kt).c_str(),
                          RouteOf(RelMapName(rel)), RelMapName(rel).c_str()));
    } else {
      Line(out, StrFormat("dbt::Map<%s, int64_t> %s;",
                          KeyType(kt).c_str(), RelMapName(rel).c_str()));
    }
  }
  Line(out, "// --- aggregate maps ---");
  for (const MapDecl& m : p_.maps) {
    if (m.is_extreme) {
      Line(out, StrFormat("dbt::ExtremeMap<%s, %s> %s_;  // %s",
                          KeyType(m.key_types).c_str(),
                          CppType(m.value_type), m.name.c_str(),
                          sql::AggKindName(m.extreme_kind)));
    } else if (plan_.ok) {
      Line(out, StrFormat("dbt::Sharded<dbt::Map<%s, %s>, %zu> %s_;",
                          KeyType(m.key_types).c_str(),
                          CppType(m.value_type), RouteOf(m.name + "_"),
                          m.name.c_str()));
    } else {
      Line(out, StrFormat("dbt::Map<%s, %s> %s_;",
                          KeyType(m.key_types).c_str(),
                          CppType(m.value_type), m.name.c_str()));
    }
  }
  return Status::OK();
}

Status Generator::EmitInitFunctions(std::string* out) {
  for (const MapDecl& m : p_.maps) {
    if (m.is_extreme || !m.needs_init || m.definition == nullptr) continue;
    // V <name>_init(k0, ...) : evaluate the definition over base tables.
    std::vector<std::string> params;
    Env env;
    for (size_t i = 0; i < m.key_names.size(); ++i) {
      params.push_back(StrFormat("%s k%zu", CppType(m.key_types[i]), i));
      env.vars[m.key_names[i]] = StrFormat("k%zu", i);
    }
    Line(out, StrFormat("%s %s_init(%s) {", CppType(m.value_type),
                        m.name.c_str(), Join(params, ", ").c_str()));
    ++indent_;
    Line(out, StrFormat("%s acc{};", CppType(m.value_type)));
    Sink sink = [&](const Env& /*e2*/, const std::string& value) -> Status {
      Line(out, StrFormat("acc += static_cast<%s>(%s);",
                          CppType(m.value_type), value.c_str()));
      return Status::OK();
    };
    assert(m.definition->kind == ring::ExprKind::kAggSum);
    DBT_RETURN_IF_ERROR(
        EmitContribs(m.definition->children[0], env, out, sink));
    Line(out, "return acc;");
    --indent_;
    Line(out, "}");

    // Read helper with optional caching.
    Line(out, StrFormat("%s %s_read(const %s& k, bool store) {",
                        CppType(m.value_type), m.name.c_str(),
                        KeyType(m.key_types).c_str()));
    ++indent_;
    Line(out, StrFormat("if (%s_.contains(k)) return %s_.get(k);",
                        m.name.c_str(), m.name.c_str()));
    std::vector<std::string> gets;
    for (size_t i = 0; i < m.key_names.size(); ++i) {
      gets.push_back(StrFormat("std::get<%zu>(k)", i));
    }
    Line(out, StrFormat("const %s v = %s_init(%s);", CppType(m.value_type),
                        m.name.c_str(), Join(gets, ", ").c_str()));
    Line(out, StrFormat("if (store) st_%s_(k, v);", m.name.c_str()));
    Line(out, "return v;");
    --indent_;
    Line(out, "}");
  }
  return Status::OK();
}

Status Generator::EmitExtreme(const tir::Stmt& s, const Env& env,
                              std::string* out) {
  const Statement& stmt = s.stmt;
  Line(out, "{  // " + s.rendering);
  ++indent_;
  const bool opened = MaskOpen(s, out);
  std::string guard;
  if (stmt.extreme_guard != nullptr) {
    guard = Fresh("g");
    Line(out, StrFormat("int64_t %s = 0;", guard.c_str()));
    Sink sink = [&](const Env& /*e2*/, const std::string& value) -> Status {
      Line(out, StrFormat("%s += (%s);", guard.c_str(), value.c_str()));
      return Status::OK();
    };
    DBT_RETURN_IF_ERROR(EmitContribs(stmt.extreme_guard, env, out, sink));
    Line(out, StrFormat("if (%s != 0) {", guard.c_str()));
    ++indent_;
  }
  std::vector<std::string> keys;
  for (const std::string& kv : stmt.target_keys) {
    auto it = env.vars.find(kv);
    if (it == env.vars.end()) {
      return Status::Internal("codegen: unbound extreme key " + kv);
    }
    keys.push_back(it->second);
  }
  DBT_ASSIGN_OR_RETURN(std::string value, TermCpp(stmt.extreme_value, env));
  if (s.extreme_runtime_sign) {
    // Insert adds to / delete removes from the min/max multiset: the
    // multiset op direction is the event sign itself.
    Line(out, StrFormat("%s_.update(std::make_tuple(%s), %s, sign);",
                        stmt.target.c_str(), Join(keys, ", ").c_str(),
                        value.c_str()));
  } else {
    Line(out, StrFormat("%s_.%s(std::make_tuple(%s), %s);",
                        stmt.target.c_str(),
                        stmt.extreme_sign > 0 ? "add" : "remove",
                        Join(keys, ", ").c_str(), value.c_str()));
  }
  if (!guard.empty()) {
    --indent_;
    Line(out, "}");
  }
  MaskClose(opened, out);
  --indent_;
  Line(out, "}");
  return Status::OK();
}

/// Hybrid re-evaluation: recomputes the target from the post-state alone
/// (no event parameters are bound).
Status Generator::EmitReeval(const tir::Stmt& s, std::string* out) {
  const Statement& stmt = s.stmt;
  const MapDecl* decl = decls_.at(stmt.target);
  Line(out, "{  // " + s.rendering);
  ++indent_;
  const bool opened = MaskOpen(s, out);
  std::string acc = Fresh("acc");
  Line(out, StrFormat("%s %s{};", CppType(decl->value_type), acc.c_str()));
  Env renv;  // empty: reeval depends only on state
  renv.store_flag = "true";
  Sink sink = [&](const Env& /*e2*/, const std::string& value) -> Status {
    Line(out, StrFormat("%s += static_cast<%s>(%s);", acc.c_str(),
                        CppType(decl->value_type), value.c_str()));
    return Status::OK();
  };
  assert(stmt.rhs->kind == ring::ExprKind::kAggSum &&
         stmt.rhs->group_vars.empty());
  DBT_RETURN_IF_ERROR(EmitContribs(stmt.rhs->children[0], renv, out, sink));
  Line(out, StrFormat("%s_.clear();", stmt.target.c_str()));
  Line(out, StrFormat("%s_.set(std::tuple<>{}, %s);", stmt.target.c_str(),
                      acc.c_str()));
  MaskClose(opened, out);
  --indent_;
  Line(out, "}");
  return Status::OK();
}

void Generator::EmitBaseUpdate(const tir::Trigger& t, std::string* out) {
  if (live_rels_.count(t.relation) == 0) return;
  std::vector<std::string> args;
  for (size_t i = 0; i < t.params.size(); ++i) {
    args.push_back(StrFormat("c%zu[i]", i));
  }
  Line(out, StrFormat("upd_%s(std::make_tuple(%s), sign);",
                      RelMapName(t.relation).c_str(),
                      Join(args, ", ").c_str()));
}

/// The one generated body of a trigger. vec_<R>(lanes..., base, base_n,
/// sign) applies the rows `base` selects (nullptr: 0..base_n-1) in the phase
/// order of the interpreter's Engine::ApplyGroup: selection, delta
/// statements, the base table, extreme statements per row over the
/// post-state, then re-evaluations. A whole-group trigger (WholeGroup) runs
/// each phase once over all the rows; any other trigger runs every phase
/// once per row, its deltas buffered in pendings against the pre-state.
/// on_<R>, the typed per-event entry point, forwards its one row as
/// one-element lanes.
Status Generator::EmitVecTrigger(const tir::Trigger& t, std::string* out) {
  const std::string& rel = t.relation;
  // Row i of the call binds parameter k to lane c<k>.
  Env row_env;
  for (size_t i = 0; i < t.params.size(); ++i) {
    row_env.vars[t.params[i].name] = StrFormat("c%zu[i]", i);
  }
  row_env.vars[tir::kSignVar] = "sign";

  // [[maybe_unused]]: a lane may go unreferenced once the base-table
  // update is elided and no guard or RHS touches it.
  std::string cparams, lanes;
  std::vector<std::string> args;
  for (size_t i = 0; i < t.params.size(); ++i) {
    const tir::Param& p = t.params[i];
    cparams += StrFormat("[[maybe_unused]] const %s* c%zu, ",
                         ColElem(p.type), i);
    lanes += "&arg_" + p.name + ", ";
    args.push_back(p.type == Type::kString
                       ? "const std::string& arg_" + p.name
                       : StrFormat("%s arg_%s", CppType(p.type),
                                   p.name.c_str()));
  }
  args.push_back("const int64_t sign");
  Line(out, StrFormat("void vec_%s(%sconst uint32_t* base, "
                      "const uint32_t base_n, const int64_t sign) {",
                      rel.c_str(), cparams.c_str()));
  ++indent_;
  DBT_RETURN_IF_ERROR(WholeGroup(t) ? EmitGroupPhases(t, row_env, out)
                                    : EmitRowPhases(t, row_env, out));
  --indent_;
  Line(out, "}");
  Line(out, StrFormat("void on_%s(%s) {", rel.c_str(),
                      Join(args, ", ").c_str()));
  Line(out, StrFormat("  vec_%s(%snullptr, 1, sign);", rel.c_str(),
                      lanes.c_str()));
  Line(out, "}");
  return Status::OK();
}

/// One row at a time, exactly the per-event trigger: deltas evaluated
/// against the pre-state into pendings, the base table, the pendings
/// committed in statement order, then the extreme and re-evaluation
/// statements.
Status Generator::EmitRowPhases(const tir::Trigger& t, const Env& env,
                                std::string* out) {
  Line(out, "for (uint32_t ii = 0; ii < base_n; ++ii) {");
  ++indent_;
  Line(out, "[[maybe_unused]] const uint32_t i = "
            "base != nullptr ? base[ii] : ii;");
  // pend_names is aligned with t.stmts (empty for other kinds).
  std::vector<std::string> pend_names(t.stmts.size());
  for (size_t si = 0; si < t.stmts.size(); ++si) {
    const tir::Stmt& s = t.stmts[si];
    if (s.stmt.kind != Statement::Kind::kDelta) continue;
    if (s.statically_zero) {
      Line(out, "// [statically zero] " + s.rendering);
      continue;
    }
    const MapDecl* decl = decls_.at(s.stmt.target);
    pend_names[si] = StrFormat("pend%zu", si);
    Line(out, StrFormat("std::vector<std::pair<%s, %s>> %s;",
                        KeyType(decl->key_types).c_str(),
                        CppType(decl->value_type), pend_names[si].c_str()));
    const bool opened = MaskOpen(s, out);
    DBT_RETURN_IF_ERROR(EmitDeltaStatement(s.stmt, env, pend_names[si], out));
    MaskClose(opened, out);
  }
  EmitBaseUpdate(t, out);
  for (size_t si = 0; si < t.stmts.size(); ++si) {
    if (pend_names[si].empty()) continue;
    Line(out, StrFormat("for (const auto& kv : %s) upd_%s_(kv.first, "
                        "kv.second);",
                        pend_names[si].c_str(),
                        t.stmts[si].stmt.target.c_str()));
  }
  for (const tir::Stmt& s : t.stmts) {
    if (s.stmt.kind == Statement::Kind::kExtreme) {
      DBT_RETURN_IF_ERROR(EmitExtreme(s, env, out));
    }
  }
  for (const tir::Stmt& s : t.stmts) {
    if (s.stmt.kind == Statement::Kind::kReeval) {
      DBT_RETURN_IF_ERROR(EmitReeval(s, out));
    }
  }
  --indent_;
  Line(out, "}");
  return Status::OK();
}

/// Whole group in one pass. Extracted guards run once as selection kernels
/// over the lanes; each delta statement then iterates only its class's
/// survivors, statement-major, committing straight into the maps (no
/// statement reads what the trigger writes); statements whose target keys
/// are event lanes commit one probe per key run (dbt::KeyRuns). The base
/// table and the extreme statements follow per row, and the
/// re-evaluations run once. Contribution values, their order, and float
/// addition order are identical to per-row replay (see the layout-exactness
/// comment at the analysis layer).
Status Generator::EmitGroupPhases(const tir::Trigger& t, const Env& row_env,
                                  std::string* out) {
  struct StmtPlan {
    bool skip = false;      ///< statically zero, or not a delta statement
    size_t cls = SIZE_MAX;  ///< selection class (SIZE_MAX: iterate base)
    bool batched = false;
    std::vector<KeyLane> lanes;
    std::vector<const tir::PredSpec*> canon;  ///< canonical guard order
  };
  std::vector<StmtPlan> plans(t.stmts.size());

  // Canonical guard order: shared (popular) guards sort first so classes
  // overlap on a common prefix evaluated once. Reordering selection passes
  // is exact — each is a pure 0/1 mask.
  auto pred_tiebreak = [](const tir::PredSpec& ps) {
    std::string k = StrFormat("%03zu|%d|%d", ps.lane,
                              static_cast<int>(ps.kind),
                              static_cast<int>(ps.op));
    for (const Value& v : ps.values) k += "|" + ValueLiteral(v);
    return k;
  };
  auto popularity = [&](const tir::PredSpec& ps) {
    int n = 0;
    for (const tir::Stmt& s : t.stmts) {
      if (s.statically_zero || !StmtPredsSupported(s)) continue;
      for (const tir::PredSpec& q : s.preds) {
        if (tir::PredSpecEquals(ps, q)) { ++n; break; }
      }
    }
    return n;
  };

  std::vector<std::vector<const tir::PredSpec*>> classes;
  bool any_batched = false;
  for (size_t si = 0; si < t.stmts.size(); ++si) {
    const tir::Stmt& s = t.stmts[si];
    StmtPlan& pl = plans[si];
    if (s.statically_zero || s.stmt.kind != Statement::Kind::kDelta) {
      pl.skip = true;
      continue;
    }
    pl.batched = BatchableStmt(t, s, &pl.lanes);
    any_batched = any_batched || pl.batched;
    if (!StmtPredsSupported(s)) continue;  // no guards (or no kernel): base
    for (const tir::PredSpec& q : s.preds) pl.canon.push_back(&q);
    std::stable_sort(pl.canon.begin(), pl.canon.end(),
                     [&](const tir::PredSpec* a, const tir::PredSpec* b) {
                       const int pa = popularity(*a), pb = popularity(*b);
                       if (pa != pb) return pa > pb;
                       return pred_tiebreak(*a) < pred_tiebreak(*b);
                     });
    for (size_t ci = 0; ci < classes.size() && pl.cls == SIZE_MAX; ++ci) {
      if (classes[ci].size() != pl.canon.size()) continue;
      bool same = true;
      for (size_t j = 0; j < pl.canon.size() && same; ++j) {
        same = tir::PredSpecEquals(*classes[ci][j], *pl.canon[j]);
      }
      if (same) pl.cls = ci;
    }
    if (pl.cls == SIZE_MAX) {
      classes.push_back(pl.canon);
      pl.cls = classes.size() - 1;
    }
  }

  // Fusion: all writers of one target sharing a mask and selection class
  // collapse into one loop whose per-row body applies the statements in
  // order — the exact per-event commit interleave, sound for any value
  // type with no layout relaxation.
  std::vector<size_t> fuse_leader(t.stmts.size(), SIZE_MAX);
  std::map<size_t, std::vector<size_t>> fuse_groups;  // leader -> members
  {
    std::map<std::string, std::vector<size_t>> by_target;
    for (size_t si = 0; si < t.stmts.size(); ++si) {
      if (!plans[si].skip) {
        by_target[t.stmts[si].stmt.target].push_back(si);
      }
    }
    for (const auto& [tgt, idxs] : by_target) {
      if (idxs.size() < 2) continue;
      bool fusable = true;
      for (size_t k = 1; k < idxs.size() && fusable; ++k) {
        fusable = t.stmts[idxs[k]].when == t.stmts[idxs[0]].when &&
                  plans[idxs[k]].cls == plans[idxs[0]].cls;
      }
      if (!fusable) continue;
      for (size_t si : idxs) fuse_leader[si] = idxs[0];
      fuse_groups[idxs[0]] = idxs;
    }
  }
  auto lanes_equal = [](const std::vector<KeyLane>& a,
                        const std::vector<KeyLane>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].lane != b[i].lane) return false;
      if ((a[i].pin == nullptr) != (b[i].pin == nullptr)) return false;
      if (a[i].pin != nullptr &&
          !tir::PredSpecEquals(*a[i].pin, *b[i].pin)) {
        return false;
      }
    }
    return true;
  };

  // Longest guard prefix common to every class.
  size_t prefix_len = 0;
  if (classes.size() >= 2) {
    size_t min_len = classes[0].size();
    for (const auto& c : classes) min_len = std::min(min_len, c.size());
    while (prefix_len < min_len) {
      bool same = true;
      for (size_t ci = 1; ci < classes.size() && same; ++ci) {
        same = tir::PredSpecEquals(*classes[0][prefix_len],
                                   *classes[ci][prefix_len]);
      }
      if (!same) break;
      ++prefix_len;
    }
  }

  if (any_batched) Line(out, "uint64_t vec_runs = 0;");
  // The region markers bound the prologue for tools/lint_gen.sh.
  if (!classes.empty()) {
    Line(out, "uint64_t vec_rows = 0;");
    Line(out, "// --- selection prologue (guard extraction -> kernels) ---");
  }
  auto emit_pass = [&](const tir::PredSpec& ps, const std::string& in,
                       const std::string& inn, const std::string& sel,
                       const std::string& cnt_lhs) {
    const std::string lane = StrFormat("c%zu", ps.lane);
    const char* ty = ps.lane_type == Type::kDouble ? "double" : "int64_t";
    switch (ps.kind) {
      case tir::PredSpec::Kind::kCmp:
        if (ps.lane_type == Type::kString) {
          Line(out, StrFormat("%s = dbt::SelStr%s(%s, %s, %s, %s, %s);",
                              cnt_lhs.c_str(),
                              ps.op == sql::BinOp::kEq ? "Eq" : "Ne",
                              lane.c_str(),
                              EscapeString(ps.values[0].AsString()).c_str(),
                              in.c_str(), inn.c_str(), sel.c_str()));
        } else {
          Line(out, StrFormat("%s = dbt::SelCmp<%s>(%s, %s, %s, %s, %s, %s);",
                              cnt_lhs.c_str(), ty, lane.c_str(),
                              SelOpName(ps.op),
                              ValueLiteral(ps.values[0]).c_str(), in.c_str(),
                              inn.c_str(), sel.c_str()));
        }
        break;
      case tir::PredSpec::Kind::kRange:
        Line(out, StrFormat("%s = dbt::SelRange<int64_t>(%s, %s, %s, %s, %s, "
                            "%s);",
                            cnt_lhs.c_str(), lane.c_str(),
                            ValueLiteral(ps.values[0]).c_str(),
                            ValueLiteral(ps.values[1]).c_str(), in.c_str(),
                            inn.c_str(), sel.c_str()));
        break;
      case tir::PredSpec::Kind::kIn: {
        std::string arr = Fresh("inl");
        std::vector<std::string> lits;
        for (const Value& v : ps.values) lits.push_back(ValueLiteral(v));
        Line(out, StrFormat("const %s %s[] = {%s};", ty, arr.c_str(),
                            Join(lits, ", ").c_str()));
        Line(out, StrFormat("%s = dbt::SelIn<%s>(%s, %s, %zu, %s, %s, %s);",
                            cnt_lhs.c_str(), ty, lane.c_str(), arr.c_str(),
                            ps.values.size(), in.c_str(), inn.c_str(),
                            sel.c_str()));
        break;
      }
    }
  };
  if (prefix_len > 0) {
    Line(out, "// shared guard prefix");
    Line(out, "dbt::SelBuf sbp;");
    Line(out, "uint32_t* selp = sbp.data(base_n);");
    for (size_t j = 0; j < prefix_len; ++j) {
      emit_pass(*classes[0][j], j == 0 ? "base" : "selp",
                j == 0 ? "base_n" : "cntp", "selp",
                j == 0 ? "uint32_t cntp" : "cntp");
    }
  }
  for (size_t ci = 0; ci < classes.size(); ++ci) {
    const std::string sel = StrFormat("sel%zu", ci);
    const std::string cnt = StrFormat("cnt%zu", ci);
    if (prefix_len > 0 && classes[ci].size() == prefix_len) {
      Line(out, StrFormat("uint32_t* %s = selp;", sel.c_str()));
      Line(out, StrFormat("const uint32_t %s = cntp;", cnt.c_str()));
    } else {
      Line(out, StrFormat("dbt::SelBuf sb%zu;", ci));
      Line(out, StrFormat("uint32_t* %s = sb%zu.data(base_n);", sel.c_str(),
                          ci));
      for (size_t j = prefix_len; j < classes[ci].size(); ++j) {
        const bool first = j == prefix_len;
        emit_pass(*classes[ci][j],
                  first ? (prefix_len > 0 ? "selp" : "base") : sel,
                  first ? (prefix_len > 0 ? "cntp" : "base_n") : cnt, sel,
                  first ? "uint32_t " + cnt : cnt);
      }
    }
    Line(out, StrFormat("vec_rows += %s;", cnt.c_str()));
  }

  if (!classes.empty()) {
    Line(out, "// --- statement phases (statement-major, "
              "selection-vector iteration) ---");
  }
  for (size_t si = 0; si < t.stmts.size(); ++si) {
    const tir::Stmt& s = t.stmts[si];
    const StmtPlan& pl = plans[si];
    if (pl.skip) {
      if (s.statically_zero) Line(out, "// [statically zero] " + s.rendering);
      continue;
    }
    if (fuse_leader[si] != SIZE_MAX && fuse_leader[si] != si) {
      Line(out, "// [fused above] " + s.rendering);
      continue;
    }
    std::vector<size_t> members{si};
    if (fuse_groups.count(si)) members = fuse_groups.at(si);
    // One fused per-row body: each member statement's contributions in
    // statement order — the per-event apply sequence.
    auto emit_bodies =
        [&](const std::function<Sink(const tir::Stmt&)>& make_sink)
        -> Status {
      for (size_t mi : members) {
        const tir::Stmt& ms = t.stmts[mi];
        const ring::ExprPtr mrhs =
            plans[mi].cls != SIZE_MAX ? ms.vec_rhs : ms.stmt.rhs;
        DBT_RETURN_IF_ERROR(
            EmitContribs(mrhs, row_env, out, make_sink(ms)));
      }
      return Status::OK();
    };
    bool batched = pl.batched;
    for (size_t mi : members) {
      batched = batched && plans[mi].batched &&
                lanes_equal(pl.lanes, plans[mi].lanes);
    }
    const MapDecl* decl = decls_.at(s.stmt.target);
    const bool base_sel = pl.cls == SIZE_MAX;
    const std::string sel =
        base_sel ? "base" : StrFormat("sel%zu", pl.cls);
    const std::string cnt =
        base_sel ? "base_n" : StrFormat("cnt%zu", pl.cls);
    // [[maybe_unused]]: a fully run-key-bound RHS reads no per-row lane.
    const std::string row_at =
        base_sel ? "[[maybe_unused]] const uint32_t i = "
                   "base != nullptr ? base[ii] : ii;"
                 : StrFormat("[[maybe_unused]] const uint32_t i = %s[ii];",
                             sel.c_str());

    Line(out, "{  // " + s.rendering);
    ++indent_;
    const bool opened = MaskOpen(s, out);

    if (!batched) {
      Line(out, StrFormat("for (uint32_t ii = 0; ii < %s; ++ii) {",
                          cnt.c_str()));
      ++indent_;
      Line(out, row_at);
      auto make_sink = [&](const tir::Stmt& mref) -> Sink {
        const tir::Stmt* ms = &mref;
        return [&, ms](const Env& e2, const std::string& value) -> Status {
          std::vector<std::string> keys;
          for (const std::string& kv : ms->stmt.target_keys) {
            auto it = e2.vars.find(kv);
            if (it == e2.vars.end()) {
              return Status::Internal("codegen: unbound target key " + kv);
            }
            keys.push_back(it->second);
          }
          Line(out, StrFormat("upd_%s_(std::make_tuple(%s), "
                              "static_cast<%s>(%s));",
                              ms->stmt.target.c_str(),
                              Join(keys, ", ").c_str(),
                              CppType(decl->value_type), value.c_str()));
          return Status::OK();
        };
      };
      DBT_RETURN_IF_ERROR(emit_bodies(make_sink));
      --indent_;
      Line(out, "}");
    } else {
      std::vector<KeyLane> unpinned;
      for (const KeyLane& kl : pl.lanes) {
        if (kl.pin == nullptr) unpinned.push_back(kl);
      }
      std::vector<std::string> run_keys;
      size_t uj = 0;
      for (const KeyLane& kl : pl.lanes) {
        if (kl.pin != nullptr) {
          const Value& v = kl.pin->values[0];
          run_keys.push_back(
              kl.type == Type::kString
                  ? "std::string(" + EscapeString(v.AsString()) + ")"
                  : ValueLiteral(v));
        } else {
          run_keys.push_back(StrFormat("rk%zu", uj++));
        }
      }
      const std::string rkey =
          "std::make_tuple(" + Join(run_keys, ", ") + ")";
      const std::string& target = s.stmt.target;

      // Emits one key run: rows `iter_open`/`iter_row` walk, accumulated
      // into one probe/commit. A double target keeps the run's live slot
      // and adds each value to it in row order (the exact add() sequence:
      // doubles are never erased by add); an absent key takes per-row
      // upd_ calls. Integer targets sum the run and commit once.
      auto emit_run = [&](const std::string& iter_open,
                          const std::string& iter_row,
                          bool count_run) -> Status {
        const bool is_double = decl->value_type == Type::kDouble;
        const std::string acc = Fresh(is_double ? "slot" : "acc");
        if (is_double) {
          Line(out, StrFormat("double* %s = %s_.find_value(%s);",
                              acc.c_str(), target.c_str(), rkey.c_str()));
        } else {
          Line(out, StrFormat("int64_t %s = 0;", acc.c_str()));
        }
        Line(out, iter_open);
        ++indent_;
        Line(out, iter_row);
        Sink sink = [&](const Env&, const std::string& value) -> Status {
          if (!is_double) {
            Line(out, StrFormat("%s += static_cast<int64_t>(%s);",
                                acc.c_str(), value.c_str()));
            return Status::OK();
          }
          const std::string d = Fresh("d");
          Line(out, StrFormat("const double %s = static_cast<double>(%s);",
                              d.c_str(), value.c_str()));
          Line(out, StrFormat("if (%s != nullptr) *%s += %s; "
                              "else upd_%s_(%s, %s);",
                              acc.c_str(), acc.c_str(), d.c_str(),
                              target.c_str(), rkey.c_str(), d.c_str()));
          return Status::OK();
        };
        DBT_RETURN_IF_ERROR(
            emit_bodies([&](const tir::Stmt&) { return sink; }));
        --indent_;
        Line(out, "}");
        if (count_run) Line(out, "++vec_runs;");
        if (!is_double) {
          Line(out, StrFormat("upd_%s_(%s, %s);", target.c_str(),
                              rkey.c_str(), acc.c_str()));
        }
        return Status::OK();
      };

      if (unpinned.empty()) {
        // All key lanes pinned (or scalar target): the class is one run.
        Line(out, StrFormat("if (%s > 0) {", cnt.c_str()));
        ++indent_;
        DBT_RETURN_IF_ERROR(emit_run(
            StrFormat("for (uint32_t ii = 0; ii < %s; ++ii) {", cnt.c_str()),
            row_at, true));
        --indent_;
        Line(out, "}");
      } else {
        // Survivors sorted stably on the unpinned key lanes: per-key row
        // order stays ascending, so per-key write sequences are the
        // per-event ones.
        std::vector<std::string> keys;
        for (const KeyLane& kl : unpinned) {
          keys.push_back(StrFormat("c%zu", kl.lane));
        }
        Line(out, StrFormat("vec_runs += dbt::KeyRuns(%s, %s, {%s}, "
                            "[&](const uint32_t* run, const uint32_t run_n) {",
                            sel.c_str(), cnt.c_str(),
                            Join(keys, ", ").c_str()));
        ++indent_;
        for (size_t j = 0; j < unpinned.size(); ++j) {
          Line(out, StrFormat("const int64_t rk%zu = c%zu[run[0]];", j,
                              unpinned[j].lane));
        }
        DBT_RETURN_IF_ERROR(emit_run(
            "for (uint32_t ii = 0; ii < run_n; ++ii) {",
            "[[maybe_unused]] const uint32_t i = run[ii];", false));
        --indent_;
        Line(out, "});");
      }
    }

    MaskClose(opened, out);
    --indent_;
    Line(out, "}");
  }

  // Base table and extreme statements per row, over the post-state. No
  // delta statement read the triggering relation, and the extreme
  // statements read event parameters only, so each row's pair may run in
  // one loop.
  bool has_extreme = false, has_reeval = false;
  for (const tir::Stmt& s : t.stmts) {
    has_extreme |= s.stmt.kind == Statement::Kind::kExtreme;
    has_reeval |= s.stmt.kind == Statement::Kind::kReeval;
  }
  if (live_rels_.count(t.relation) != 0 || has_extreme) {
    Line(out, "for (uint32_t ii = 0; ii < base_n; ++ii) {");
    ++indent_;
    Line(out, "[[maybe_unused]] const uint32_t i = "
              "base != nullptr ? base[ii] : ii;");
    EmitBaseUpdate(t, out);
    for (const tir::Stmt& s : t.stmts) {
      if (s.stmt.kind == Statement::Kind::kExtreme) {
        DBT_RETURN_IF_ERROR(EmitExtreme(s, row_env, out));
      }
    }
    --indent_;
    Line(out, "}");
  }
  // Re-evaluations are deferrable here (nothing reads their targets), so
  // once per call over the final state equals once per row.
  if (has_reeval) {
    Line(out, "if (base_n != 0) {");
    ++indent_;
    for (const tir::Stmt& s : t.stmts) {
      if (s.stmt.kind == Statement::Kind::kReeval) {
        DBT_RETURN_IF_ERROR(EmitReeval(s, out));
      }
    }
    --indent_;
    Line(out, "}");
  }

  if (!classes.empty()) {
    Line(out, "selected_rows_.fetch_add(vec_rows, std::memory_order_relaxed);");
  }
  if (any_batched) {
    Line(out, "probe_runs_.fetch_add(vec_runs, std::memory_order_relaxed);");
  }
  return Status::OK();
}

Status Generator::EmitViews(std::string* out) {
  for (const compiler::ViewSpec& view : p_.views) {
    // Row type: key columns are part of `columns` already.
    std::vector<std::string> col_types;
    for (const auto& c : view.columns) col_types.emplace_back(CppType(c.type));
    std::string row_type = "std::tuple<" + Join(col_types, ", ") + ">";
    Line(out, StrFormat("std::vector<%s> view_%s() {", row_type.c_str(),
                        view.name.c_str()));
    ++indent_;
    Line(out, StrFormat("std::vector<%s> out;", row_type.c_str()));

    auto emit_columns = [&](const Env& env,
                            const std::string& key_expr) -> Status {
      std::vector<std::string> cols;
      for (const auto& c : view.columns) {
        if (c.kind == compiler::ViewColumn::Kind::kTerm) {
          DBT_ASSIGN_OR_RETURN(std::string v, TermCpp(c.value, env));
          cols.push_back(StrFormat("static_cast<%s>(%s)", CppType(c.type),
                                   v.c_str()));
        } else {
          std::string tmp = Fresh("x");
          const MapDecl* decl = decls_.at(c.extreme_map);
          Line(out, StrFormat("%s %s{};", CppType(c.type), tmp.c_str()));
          Line(out, StrFormat("%s_.%s(%s, &%s);", c.extreme_map.c_str(),
                              decl->extreme_kind == sql::AggKind::kMin
                                  ? "min"
                                  : "max",
                              key_expr.c_str(), tmp.c_str()));
          cols.push_back(tmp);
        }
      }
      Line(out, StrFormat("out.emplace_back(%s);", Join(cols, ", ").c_str()));
      return Status::OK();
    };

    // HAVING: accumulate the guard indicator; zero suppresses the row.
    auto emit_having_guard = [&](const Env& env) -> Result<std::string> {
      if (view.having == nullptr) return std::string();
      std::string acc = Fresh("hv");
      Line(out, StrFormat("int64_t %s = 0;", acc.c_str()));
      Sink sink = [&](const Env& /*e2*/, const std::string& value) -> Status {
        // The guard is a 0/1 indicator polynomial (OR contributes negative
        // correction terms), so contributions sum — they do not saturate.
        Line(out, StrFormat("%s += static_cast<int64_t>(%s);", acc.c_str(),
                            value.c_str()));
        return Status::OK();
      };
      DBT_RETURN_IF_ERROR(EmitContribs(view.having, env, out, sink));
      return acc;
    };

    if (view.key_vars.empty()) {
      Env env;
      env.store_flag = "true";
      DBT_ASSIGN_OR_RETURN(std::string guard, emit_having_guard(env));
      if (!guard.empty()) {
        Line(out, StrFormat("if (%s != 0) {", guard.c_str()));
        ++indent_;
      }
      DBT_RETURN_IF_ERROR(emit_columns(env, "std::tuple<>{}"));
      if (!guard.empty()) {
        --indent_;
        Line(out, "}");
      }
    } else {
      if (plan_.ok) {
        // Sharded domain: walk the partitions in fixed logical order, so
        // materialization is identical at every thread count.
        Line(out, "for (size_t shard = 0; shard < dbt::kNumShards; ++shard)");
        Line(out, StrFormat("for (const auto& dk : %s_.part(shard).entries()) {",
                            view.domain_map.c_str()));
      } else {
        Line(out, StrFormat("for (const auto& dk : %s_.entries()) {",
                            view.domain_map.c_str()));
      }
      ++indent_;
      Line(out, "if (dk.second == 0) continue;");
      Env env;
      env.store_flag = "true";
      for (size_t i = 0; i < view.key_vars.size(); ++i) {
        std::string name = Fresh("k");
        Line(out, StrFormat("[[maybe_unused]] const auto %s = "
                            "std::get<%zu>(dk.first);",
                            name.c_str(), i));
        env.vars[view.key_vars[i]] = name;
      }
      DBT_ASSIGN_OR_RETURN(std::string guard, emit_having_guard(env));
      if (!guard.empty()) {
        Line(out, StrFormat("if (%s == 0) continue;", guard.c_str()));
      }
      DBT_RETURN_IF_ERROR(emit_columns(env, "dk.first"));
      --indent_;
      Line(out, "}");
    }
    Line(out, "return out;");
    --indent_;
    Line(out, "}");
  }
  return Status::OK();
}

/// Per-relation batch handlers: one sign-parameterized entry point per
/// relation consumes a columnar (relation, op) group directly and hands its
/// flat typed lanes to the trigger's one body, vec_<R> (no per-event Value
/// unboxing). The ingest boundary puts every lane on its schema type; a
/// group whose layout still differs is refused (returns 0). Under a shard
/// plan, large groups are hash-partitioned on the relation's partition
/// attribute into the fixed logical shards and replayed on the worker pool,
/// one vec_<R> call per shard; shard isolation (every store partitioned on
/// the same attribute) makes this equal to the event-ordered replay, and
/// the fixed shard count makes it identical at every thread count.
Status Generator::EmitBatchHandlers(std::string* out) {
  for (const tir::Trigger& t : tir_.triggers) {
    const std::string& rel = t.relation;
    const size_t ncols = t.params.size();
    std::vector<std::string> tags(ncols), fields(ncols);
    for (size_t i = 0; i < ncols; ++i) {
      switch (t.params[i].type) {
        case Type::kDouble:
          tags[i] = "kF64";
          fields[i] = "f64";
          break;
        case Type::kString:
          tags[i] = "kStr";
          fields[i] = "str";
          break;
        default:
          tags[i] = "kI64";
          fields[i] = "i64";
          break;
      }
    }
    Line(out, StrFormat("size_t on_batch_%s(const dbt::EventBatch::Group& g, "
                        "const int64_t sign) {",
                        rel.c_str()));
    ++indent_;
    // A group is all-insert or all-delete; a missing trigger side skips the
    // whole group (same events the per-event dispatcher would reject).
    if (!t.has_insert) Line(out, "if (sign > 0) return 0;");
    if (!t.has_delete) Line(out, "if (sign < 0) return 0;");
    // Layout guard: the driving engine coerced every lane onto the schema,
    // so only a direct embedder's mistyped or malformed group fails it, and
    // is refused rather than read out of bounds or as padding.
    std::string check = StrFormat(
        "g.defect.kind != dbt::RowDefect::Kind::kNone || g.cols.size() != %zu",
        ncols);
    for (size_t i = 0; i < ncols; ++i) {
      check += StrFormat(" || g.cols[%zu].tag != dbt::EventColumn::Tag::%s",
                         i, tags[i].c_str());
    }
    Line(out, StrFormat("if (%s) return 0;", check.c_str()));
    Line(out, "const size_t n = g.rows;");
    std::string lanes;
    for (size_t i = 0; i < ncols; ++i) {
      Line(out, StrFormat("const %s* c%zu = g.cols[%zu].%s.data();",
                          ColElem(t.params[i].type), i, i, fields[i].c_str()));
      lanes += StrFormat("c%zu, ", i);
    }
    if (plan_.ok) {
      // Selection runs AFTER the shard split, over each shard's sub-range.
      Line(out, "if (n >= dbt::kShardBatchCutoff) {");
      ++indent_;
      Line(out, "std::vector<uint32_t> shard_idx[dbt::kNumShards];");
      Line(out, "for (uint32_t i = 0; i < n; ++i) {");
      ++indent_;
      Line(out, StrFormat("shard_idx[dbt::ShardOf(c%zu[i])].push_back(i);",
                          plan_.rel_pos.at(rel)));
      --indent_;
      Line(out, "}");
      Line(out, "dbt::shard_pool().RunShards(dbt::kNumShards, "
                "[&](size_t shard) {");
      ++indent_;
      Line(out, StrFormat("vec_%s(%sshard_idx[shard].data(), "
                          "static_cast<uint32_t>(shard_idx[shard].size()), "
                          "sign);",
                          rel.c_str(), lanes.c_str()));
      --indent_;
      Line(out, "});");
      Line(out, "return n;");
      --indent_;
      Line(out, "}");
    }
    Line(out, StrFormat("vec_%s(%snullptr, static_cast<uint32_t>(n), sign);",
                        rel.c_str(), lanes.c_str()));
    Line(out, "return n;");
    --indent_;
    Line(out, "}");
  }
  return Status::OK();
}

Status Generator::EmitDispatcher(std::string* out) {
  Line(out,
       "bool on_event(const std::string& relation, bool is_insert, const "
       "std::vector<dbt::Value>& t) override {");
  ++indent_;
  for (const tir::Trigger& trig : tir_.triggers) {
    Line(out, StrFormat("if (relation == \"%s\") {", trig.relation.c_str()));
    ++indent_;
    if (!trig.has_insert) Line(out, "if (is_insert) return false;");
    if (!trig.has_delete) Line(out, "if (!is_insert) return false;");
    std::vector<std::string> conv;
    for (size_t i = 0; i < trig.params.size(); ++i) {
      switch (trig.params[i].type) {
        case Type::kDouble:
          conv.push_back(StrFormat("dbt::AsDouble(t[%zu])", i));
          break;
        case Type::kString:
          conv.push_back(StrFormat("dbt::AsString(t[%zu])", i));
          break;
        default:
          conv.push_back(StrFormat("dbt::AsInt(t[%zu])", i));
          break;
      }
    }
    conv.push_back("is_insert ? INT64_C(1) : INT64_C(-1)");
    Line(out, StrFormat("on_%s(%s);", trig.relation.c_str(),
                        Join(conv, ", ").c_str()));
    Line(out, "return true;");
    --indent_;
    Line(out, "}");
  }
  Line(out, "return false;");
  --indent_;
  Line(out, "}");

  // Group-wise batch dispatch: one relation comparison per (relation, op)
  // group, then the fused columnar handler — no conversion pass.
  Line(out, "size_t on_batch(const dbt::EventBatch& batch) override {");
  ++indent_;
  Line(out, "size_t handled = 0;");
  Line(out, "for (const auto& g : batch.groups()) {");
  ++indent_;
  for (const tir::Trigger& trig : tir_.triggers) {
    Line(out, StrFormat("if (g.relation == \"%s\") { handled += "
                        "on_batch_%s(g, g.is_insert ? INT64_C(1) : "
                        "INT64_C(-1)); continue; }",
                        trig.relation.c_str(), trig.relation.c_str()));
  }
  --indent_;
  Line(out, "}");
  Line(out, "return handled;");
  --indent_;
  Line(out, "}");

  // Memory accounting for the bakeoff's memory bench.
  Line(out, "size_t total_map_entries() const override {");
  ++indent_;
  Line(out, "size_t n = 0;");
  for (const MapDecl& m : p_.maps) {
    Line(out, StrFormat("n += %s_.size();", m.name.c_str()));
  }
  Line(out, "return n;");
  --indent_;
  Line(out, "}");

  // True retained bytes: each container reports its slab-resident footprint
  // (probe arrays, recycled chunks) plus spilled string payloads.
  Line(out, "size_t state_bytes() const override {");
  ++indent_;
  Line(out, "size_t bytes = 0;");
  for (const std::string& rel : rels_) {
    if (live_rels_.count(rel) == 0) continue;
    Line(out, StrFormat("bytes += rel_%s_.bytes();", rel.c_str()));
  }
  for (const MapDecl& m : p_.maps) {
    Line(out, StrFormat("bytes += %s_.bytes();", m.name.c_str()));
  }
  for (size_t i = 0; i < index_reqs_.size(); ++i) {
    Line(out, StrFormat("bytes += idx%zu_.bytes();", i));
  }
  Line(out, "return bytes;");
  --indent_;
  Line(out, "}");

  // Selection-path observability for the bench harness.
  Line(out, "uint64_t selected_rows() const override {");
  ++indent_;
  Line(out, "return selected_rows_.load(std::memory_order_relaxed);");
  --indent_;
  Line(out, "}");
  Line(out, "uint64_t probe_runs() const override {");
  ++indent_;
  Line(out, "return probe_runs_.load(std::memory_order_relaxed);");
  --indent_;
  Line(out, "}");
  return Status::OK();
}

/// Dynamic view accessors: the generated program is drivable and readable
/// through dbt::StreamProgram without knowing the typed row shapes.
Status Generator::EmitViewShim(std::string* out) {
  std::vector<std::string> names;
  for (const compiler::ViewSpec& v : p_.views) {
    names.push_back(EscapeString(v.name));
  }
  Line(out, "std::vector<std::string> view_names() const override {");
  ++indent_;
  Line(out, StrFormat("return {%s};", Join(names, ", ").c_str()));
  --indent_;
  Line(out, "}");

  Line(out,
       "std::vector<std::string> view_column_names(const std::string& view) "
       "const override {");
  ++indent_;
  for (const compiler::ViewSpec& v : p_.views) {
    std::vector<std::string> cols;
    for (const auto& c : v.columns) cols.push_back(EscapeString(c.name));
    Line(out, StrFormat("if (view == %s) return {%s};",
                        EscapeString(v.name).c_str(),
                        Join(cols, ", ").c_str()));
  }
  Line(out, "return {};");
  --indent_;
  Line(out, "}");

  Line(out,
       "std::vector<std::vector<dbt::Value>> view_rows(const std::string& "
       "view) override {");
  ++indent_;
  Line(out, "std::vector<std::vector<dbt::Value>> out;");
  for (const compiler::ViewSpec& v : p_.views) {
    Line(out, StrFormat("if (view == %s) {", EscapeString(v.name).c_str()));
    ++indent_;
    Line(out, StrFormat("for (const auto& r : view_%s()) {", v.name.c_str()));
    ++indent_;
    std::vector<std::string> cells;
    for (size_t i = 0; i < v.columns.size(); ++i) {
      cells.push_back(StrFormat("dbt::Value{std::get<%zu>(r)}", i));
    }
    Line(out, StrFormat("out.push_back({%s});", Join(cells, ", ").c_str()));
    --indent_;
    Line(out, "}");
    --indent_;
    Line(out, "}");
  }
  Line(out, "return out;");
  --indent_;
  Line(out, "}");

  // Snapshot-publish hook: one consistent rendering of every view per
  // publish, consumed by the concurrent serving tier.
  Line(out, "std::vector<dbt::ViewRows> publish_snapshot() override {");
  ++indent_;
  Line(out, "std::vector<dbt::ViewRows> out;");
  Line(out, StrFormat("out.reserve(%zu);", p_.views.size()));
  for (const compiler::ViewSpec& v : p_.views) {
    Line(out, StrFormat("out.push_back(dbt::ViewRows{%s, view_rows(%s)});",
                        EscapeString(v.name).c_str(),
                        EscapeString(v.name).c_str()));
  }
  Line(out, "return out;");
  --indent_;
  Line(out, "}");
  return Status::OK();
}

Result<std::string> Generator::Run() {
  std::string body;
  DBT_RETURN_IF_ERROR(EmitMaps(&body));
  Line(&body, "");
  DBT_RETURN_IF_ERROR(EmitInitFunctions(&body));
  Line(&body, "");
  for (const tir::Trigger& trig : tir_.triggers) {
    DBT_RETURN_IF_ERROR(EmitVecTrigger(trig, &body));
    Line(&body, "");
  }
  DBT_RETURN_IF_ERROR(EmitViews(&body));
  Line(&body, "");
  DBT_RETURN_IF_ERROR(EmitViewShim(&body));
  Line(&body, "");
  DBT_RETURN_IF_ERROR(EmitBatchHandlers(&body));
  Line(&body, "");
  DBT_RETURN_IF_ERROR(EmitDispatcher(&body));
  Line(&body, "");

  // Secondary slice indexes discovered during emission, plus the mutation
  // wrappers that keep them in sync. In-class member order is irrelevant;
  // wrappers were referenced above and are defined here.
  Line(&body, "// --- secondary slice indexes ---");
  for (size_t i = 0; i < index_reqs_.size(); ++i) {
    const IndexReq& req = index_reqs_[i];
    std::vector<Type> prefix_types;
    for (size_t p : req.positions) prefix_types.push_back(req.key_types[p]);
    Line(&body, StrFormat("dbt::SliceIndex<%s, %s> idx%zu_;  // %s on (%s)",
                          KeyType(prefix_types).c_str(),
                          KeyType(req.key_types).c_str(), i,
                          req.store.c_str(),
                          [&] {
                            std::vector<std::string> ps;
                            for (size_t p : req.positions) {
                              ps.push_back(std::to_string(p));
                            }
                            return Join(ps, ",");
                          }()
                              .c_str()));
  }
  Line(&body, "// --- mutation wrappers (map + eager index maintenance) ---");
  auto emit_wrappers = [&](const std::string& store,
                           const std::vector<Type>& key_types,
                           const std::string& value_type) {
    std::string key_type = KeyType(key_types);
    std::string inserts;
    std::string erases;
    for (size_t i = 0; i < index_reqs_.size(); ++i) {
      const IndexReq& req = index_reqs_[i];
      if (req.store != store) continue;
      std::vector<std::string> gets;
      for (size_t p : req.positions) {
        gets.push_back(StrFormat("std::get<%zu>(k)", p));
      }
      inserts += StrFormat(" idx%zu_.insert(std::make_tuple(%s), k);", i,
                           Join(gets, ", ").c_str());
      erases += StrFormat(" idx%zu_.erase(std::make_tuple(%s), k);", i,
                          Join(gets, ", ").c_str());
    }
    if (inserts.empty()) {
      Line(&body,
           StrFormat("void upd_%s(const %s& k, %s d) { %s.add(k, d); }",
                     store.c_str(), key_type.c_str(), value_type.c_str(),
                     store.c_str()));
      Line(&body,
           StrFormat("void st_%s(const %s& k, %s v) { %s.set(k, v); }",
                     store.c_str(), key_type.c_str(), value_type.c_str(),
                     store.c_str()));
      return;
    }
    // Indexed stores: the Upd result drives the slice-index maintenance, so
    // a key erased by the map (count back to zero) leaves no stale entry.
    Line(&body,
         StrFormat("void upd_%s(const %s& k, %s d) { const dbt::Upd r = "
                   "%s.add(k, d); if (r == dbt::Upd::kLive) {%s } else if (r "
                   "== dbt::Upd::kErased) {%s } }",
                   store.c_str(), key_type.c_str(), value_type.c_str(),
                   store.c_str(), inserts.c_str(), erases.c_str()));
    Line(&body,
         StrFormat("void st_%s(const %s& k, %s v) { const dbt::Upd r = "
                   "%s.set(k, v); if (r == dbt::Upd::kLive) {%s } else {%s } "
                   "}",
                   store.c_str(), key_type.c_str(), value_type.c_str(),
                   store.c_str(), inserts.c_str(), erases.c_str()));
  };
  for (const std::string& rel : rels_) {
    if (live_rels_.count(rel) == 0) continue;
    const Schema* schema = RelSchema(rel);
    std::vector<Type> kt;
    for (size_t i = 0; i < schema->num_columns(); ++i) {
      kt.push_back(schema->column_type(i));
    }
    emit_wrappers(RelMapName(rel), kt, "int64_t");
  }
  for (const MapDecl& m : p_.maps) {
    if (m.is_extreme) continue;
    emit_wrappers(m.name + "_", m.key_types, CppType(m.value_type));
  }
  // State serde: published relation layouts for boundary validation, plus
  // whole-state save/load over every container member. The slice indexes
  // are derived state — load_state rebuilds them from the restored stores.
  Line(&body, "// --- state capture (checkpoint/restore) ---");
  Line(&body, "std::vector<dbt::RelationSchema> relation_schemas() const "
              "override {");
  ++indent_;
  {
    std::vector<std::string> schemas;
    for (const Schema& schema : p_.catalog.relations()) {
      std::vector<std::string> lanes;
      for (size_t i = 0; i < schema.num_columns(); ++i) {
        switch (schema.column_type(i)) {
          case Type::kString:
            lanes.push_back("dbt::EventColumn::Tag::kStr");
            break;
          case Type::kDouble:
            lanes.push_back("dbt::EventColumn::Tag::kF64");
            break;
          default:
            lanes.push_back("dbt::EventColumn::Tag::kI64");
            break;
        }
      }
      schemas.push_back(StrFormat("{%s, {%s}}",
                                  EscapeString(schema.name()).c_str(),
                                  Join(lanes, ", ").c_str()));
    }
    Line(&body, StrFormat("return {%s};", Join(schemas, ", ").c_str()));
  }
  --indent_;
  Line(&body, "}");

  // Stores in emission order: live base relations (set order), then the
  // aggregate maps in declaration order. Save and load must agree.
  std::vector<std::string> state_stores;
  for (const std::string& rel : rels_) {
    if (live_rels_.count(rel) != 0) state_stores.push_back(RelMapName(rel));
  }
  for (const MapDecl& m : p_.maps) state_stores.push_back(m.name + "_");

  Line(&body, "bool save_state(dbt::Ser& ser) const override {");
  ++indent_;
  Line(&body, "ser.u32(1u);  // program state format version");
  for (const std::string& store : state_stores) {
    Line(&body, StrFormat("%s.save(ser);", store.c_str()));
  }
  Line(&body, "return true;");
  --indent_;
  Line(&body, "}");

  Line(&body, "bool load_state(dbt::Deser& deser) override {");
  ++indent_;
  Line(&body, "if (deser.u32() != 1u) return false;");
  for (const std::string& store : state_stores) {
    Line(&body, StrFormat("if (!%s.load(deser)) return false;", store.c_str()));
  }
  for (size_t i = 0; i < index_reqs_.size(); ++i) {
    const IndexReq& req = index_reqs_[i];
    std::vector<std::string> gets;
    for (size_t p : req.positions) {
      gets.push_back(StrFormat("std::get<%zu>(k)", p));
    }
    Line(&body, StrFormat("idx%zu_.clear();", i));
    Line(&body,
         StrFormat("%s.for_each([this](const auto& k, const auto& v) { "
                   "(void)v; idx%zu_.insert(std::make_tuple(%s), k); });",
                   req.store.c_str(), i, Join(gets, ", ").c_str()));
  }
  Line(&body, "return deser.ok();");
  --indent_;
  Line(&body, "}");

  Line(&body, "// --- selection-path counters ---");
  Line(&body, "std::atomic<uint64_t> selected_rows_{0};");
  Line(&body, "std::atomic<uint64_t> probe_runs_{0};");

  std::string out;
  out += "// Generated by dbtc (DBToaster SQL-to-C++ compiler). DO NOT EDIT.\n";
  for (const compiler::ViewSpec& v : p_.views) {
    out += "//   view " + v.name + ": " + v.sql + "\n";
  }
  out += "#pragma once\n";
  out += "#include <algorithm>\n#include <cstdint>\n#include <set>\n";
  out += "#include <string>\n#include <tuple>\n#include <vector>\n";
  out += "#include \"" + opts_.runtime_header + "\"\n\n";
  out += "namespace " + opts_.name_space + " {\n\n";
  // Guarded so several generated headers can share one translation unit.
  out += "#ifndef DBT_GEN_DETAIL_HELPERS_\n";
  out += "#define DBT_GEN_DETAIL_HELPERS_\n";
  out += "inline std::string dbt_detail_to_string(int64_t v) { return "
         "std::to_string(v); }\n";
  out += "inline std::string dbt_detail_to_string(double v) { return "
         "std::to_string(v); }\n";
  out += "inline std::string dbt_detail_to_string(const std::string& v) { "
         "return v; }\n";
  out += "#endif  // DBT_GEN_DETAIL_HELPERS_\n\n";
  out += "struct " + opts_.class_name + " : public dbt::StreamProgram {\n";
  out += body;
  out += "};\n\n}  // namespace " + opts_.name_space + "\n";
  return out;
}

}  // namespace

Result<std::string> GenerateCpp(const Program& program,
                                const GenOptions& options) {
  // Refuse to emit code for a module that fails static verification: a bad
  // sign mask or stale arity must die here, not in the generated C++.
  {
    Status verified = tir::VerifyOrError(tir::Lower(program), "cpp_gen");
    if (!verified.ok()) return verified;
  }
  Generator gen(program, options);
  return gen.Run();
}

}  // namespace dbtoaster::codegen
