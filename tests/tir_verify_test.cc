// Static-verifier tests: every bench query and differential micro-query
// lowers to a module that verifies clean; every mutation in the
// tests/golden/bad/*.ir corpus is rejected with its pinned diagnostic; the
// liveness pass warns on a hand-built dead map.
//
// Corpus format (tests/golden/bad/<name>.ir):
//   # mutation: <registry name>
//   # expect: <diagnostic substring>
//   <full ToText() dump of the mutated module>
//
// Regenerate after an intentional IR change with:
//   DBT_REGEN_BAD=1 ./tir_verify_test
#include "src/compiler/tir_verify.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/compiler/compile.h"
#include "src/compiler/tir.h"
#include "src/ring/expr.h"
#include "src/ring/term.h"
#include "src/sql/parser.h"

#ifndef DBT_QUERY_DIR
#define DBT_QUERY_DIR "bench/queries"
#endif
#ifndef DBT_GOLDEN_DIR
#define DBT_GOLDEN_DIR "tests/golden"
#endif

namespace dbtoaster {
namespace {

using compiler::Statement;
using ring::Term;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Compile a dbtc-style script (CREATE TABLEs + SELECTs) like the driver.
compiler::Program CompileScript(const std::string& text) {
  auto script = sql::ParseScript(text);
  EXPECT_TRUE(script.ok()) << script.status().ToString();
  Catalog catalog;
  for (const auto& t : script.value().tables) {
    EXPECT_TRUE(catalog.AddRelation(t).ok());
  }
  compiler::Compiler c(catalog);
  size_t qi = 0;
  for (const auto& q : script.value().queries) {
    std::string name = q.name.empty() ? "q" + std::to_string(qi) : q.name;
    EXPECT_TRUE(c.AddQuery(name, *q.select).ok());
    ++qi;
  }
  auto program = c.Compile();
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

// ---------------------------------------------------------------------------
// Clean verification: bench queries.
// ---------------------------------------------------------------------------

class BenchQueryVerifies : public ::testing::TestWithParam<const char*> {};

TEST_P(BenchQueryVerifies, NoErrorsNoWarnings) {
  const std::string path =
      std::string(DBT_QUERY_DIR) + "/" + GetParam() + ".sql";
  compiler::Program p = CompileScript(ReadFile(path));
  tir::Module m = tir::Lower(p);
  tir::VerifyResult r = tir::Verify(m);
  EXPECT_EQ(r.num_errors, 0u) << r.ToString(path);
  EXPECT_EQ(r.num_warnings, 0u) << r.ToString(path);
  EXPECT_TRUE(tir::VerifyOrError(m, path, /*strict=*/true).ok());
}

INSTANTIATE_TEST_SUITE_P(AllBenchQueries, BenchQueryVerifies,
                         ::testing::Values("vwap", "sobi_bids", "mm",
                                           "best_bid", "q41", "revenue",
                                           "q3s", "q6s", "q12s", "q13s"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// ---------------------------------------------------------------------------
// Clean verification: the differential harness's micro-queries.
// ---------------------------------------------------------------------------

Catalog MicroCatalog() {
  Catalog c;
  EXPECT_TRUE(
      c.AddRelation(
           sql::ParseCreateTable(
               "create table R(K int, TAG string, V int, D date, X double)")
               .value())
          .ok());
  EXPECT_TRUE(
      c.AddRelation(
           sql::ParseCreateTable("create table S(K int, NOTE string, W int)")
               .value())
          .ok());
  return c;
}

struct MicroCase {
  const char* label;
  const char* sql;
};

// Test names print the label, not the struct's pointer bytes.
void PrintTo(const MicroCase& c, std::ostream* os) { *os << c.label; }

class MicroQueryVerifies : public ::testing::TestWithParam<MicroCase> {};

TEST_P(MicroQueryVerifies, NoErrors) {
  auto program = compiler::CompileQuery(MicroCatalog(), "q", GetParam().sql);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  tir::Module m = tir::Lower(program.value());
  tir::VerifyResult r = tir::Verify(m);
  EXPECT_EQ(r.num_errors, 0u) << r.ToString(GetParam().label);
  EXPECT_EQ(r.num_warnings, 0u) << r.ToString(GetParam().label);
}

INSTANTIATE_TEST_SUITE_P(
    AllMicroQueries, MicroQueryVerifies,
    ::testing::Values(
        MicroCase{"like", "select sum(R.V) from R where R.TAG like 'M%'"},
        MicroCase{"not_like",
                  "select R.K, count(*) from R where R.TAG not like "
                  "'%special%' group by R.K"},
        MicroCase{"in_list",
                  "select R.TAG, sum(R.V) from R where R.TAG in ('MAIL', "
                  "'SHIP', 'RAIL') group by R.TAG"},
        MicroCase{"case_when",
                  "select R.K, sum(case when R.TAG = 'MAIL' then R.V else 0 "
                  "end) from R group by R.K"},
        MicroCase{"case_chain",
                  "select sum(case when R.V < 2 then 10 when R.V < 5 then "
                  "R.V else 0 end) from R"},
        MicroCase{"extract_parts",
                  "select count(*) from R where EXTRACT(MONTH FROM R.D) = 3 "
                  "and EXTRACT(DAY FROM R.D) < 20"},
        MicroCase{"date_range",
                  "select R.K, sum(R.X) from R where R.D >= DATE "
                  "'1994-01-01' and R.D < DATE '1994-01-01' + INTERVAL '6' "
                  "MONTH group by R.K"},
        MicroCase{"between",
                  "select sum(R.V) from R where R.V between 2 and 5"},
        MicroCase{"having_hidden_agg",
                  "select R.K, sum(R.V) from R group by R.K having count(*) "
                  "> 3"},
        MicroCase{"having_with_min",
                  "select R.K, min(R.V) from R group by R.K having count(*) "
                  "> 2"},
        MicroCase{"having_bool",
                  "select R.TAG, count(*) from R group by R.TAG having "
                  "(sum(R.V) > 8 or count(*) > 5) and not (count(*) = 7)"},
        MicroCase{"string_group_eq",
                  "select R.TAG, count(*) from R, S where R.K = S.K and "
                  "R.TAG = S.NOTE group by R.TAG"},
        MicroCase{"left_join_count",
                  "select R.K, count(*) from R left outer join S on R.K = "
                  "S.K group by R.K"},
        MicroCase{"left_join_sum",
                  "select R.TAG, sum(R.V) from R left join S on R.K = S.K "
                  "and S.W > 3 group by R.TAG"},
        MicroCase{"left_join_having",
                  "select R.K, count(*) from R left outer join S on R.K = "
                  "S.K and S.NOTE like '%e%' group by R.K having count(*) > "
                  "2"},
        MicroCase{"left_join_degenerate",
                  "select R.K, count(*) from R left join S on R.K = S.K "
                  "where S.W > 2 group by R.K"},
        MicroCase{"left_join_global",
                  "select count(*) from R left join S on R.K = S.K"}),
    [](const ::testing::TestParamInfo<MicroCase>& info) {
      return std::string(info.param.label);
    });

// ---------------------------------------------------------------------------
// Mutated-IR rejection corpus.
// ---------------------------------------------------------------------------

constexpr const char kSimpleScript[] =
    "create table R(A int, B int);\n"
    "select B, sum(A) from R group by B;\n";

/// Find the first delta statement of the first trigger (the group-by sum
/// maintenance statement in kSimpleScript).
tir::Stmt* FirstDelta(tir::Module* m) {
  for (tir::Trigger& t : m->triggers) {
    for (tir::Stmt& s : t.stmts) {
      if (s.stmt.kind == Statement::Kind::kDelta) return &s;
    }
  }
  ADD_FAILURE() << "module has no delta statement";
  return nullptr;
}

compiler::MapDecl* DeclOf(compiler::Program* p, const std::string& name) {
  for (compiler::MapDecl& d : p->maps) {
    if (d.name == name) return &d;
  }
  ADD_FAILURE() << "no map declaration " << name;
  return nullptr;
}

struct Mutation {
  const char* name;
  const char* base;  ///< "simple" or a bench query name
  const char* expect;
  std::function<void(compiler::Program*, tir::Module*)> apply;
};

const std::vector<Mutation>& Mutations() {
  static const std::vector<Mutation>* kMutations = new std::vector<Mutation>{
      {"map_arity_shrunk", "simple", "keys are given",
       [](compiler::Program* p, tir::Module* m) {
         tir::Stmt* s = FirstDelta(m);
         compiler::MapDecl* d = DeclOf(p, s->stmt.target);
         ASSERT_FALSE(d->key_names.empty()) << "need a keyed map";
         d->key_names.pop_back();
         d->key_types.pop_back();
       }},
      {"write_unknown_map", "simple", "writes undeclared map 'q0_missing'",
       [](compiler::Program*, tir::Module* m) {
         FirstDelta(m)->stmt.target = "q0_missing";
       }},
      {"unbound_target_key", "simple", "target key 'zz' is never bound",
       [](compiler::Program*, tir::Module* m) {
         tir::Stmt* s = FirstDelta(m);
         ASSERT_FALSE(s->stmt.target_keys.empty());
         s->stmt.target_keys[0] = "zz";
       }},
      {"key_lane_flipped", "simple", "key lane STRING",
       [](compiler::Program* p, tir::Module* m) {
         tir::Stmt* s = FirstDelta(m);
         compiler::MapDecl* d = DeclOf(p, s->stmt.target);
         ASSERT_FALSE(d->key_types.empty());
         d->key_types[0] = Type::kString;
       }},
      {"extreme_flag_flipped", "simple",
       "targets extreme (min/max multiset) map",
       [](compiler::Program* p, tir::Module* m) {
         DeclOf(p, FirstDelta(m)->stmt.target)->is_extreme = true;
       }},
      {"sign_flag_dropped", "simple",
       "reads __sign but is not marked sign-dependent",
       [](compiler::Program*, tir::Module* m) {
         tir::Stmt* s = FirstDelta(m);
         ASSERT_TRUE(s->sign_dependent) << "need a sign-dependent delta";
         s->sign_dependent = false;
       }},
      {"insert_only_mask", "simple", "written only on insert events",
       [](compiler::Program*, tir::Module* m) {
         // Masking the group maintenance statement to inserts leaves the
         // view-read map stale after every delete.
         tir::Stmt* s = FirstDelta(m);
         s->when = tir::Stmt::When::kInsertOnly;
         s->sign_dependent = false;
         // Drop the {__sign} factor so the only complaint is the mask
         // (a masked statement must not read the sign).
         s->stmt.rhs = ring::Expr::ValTerm(Term::Var("a"));
       }},
      {"sign_in_reeval", "vwap", "re-evaluation statement reads __sign",
       [](compiler::Program*, tir::Module* m) {
         for (tir::Trigger& t : m->triggers) {
           for (tir::Stmt& s : t.stmts) {
             if (s.stmt.kind != Statement::Kind::kReeval) continue;
             s.stmt.rhs = ring::Expr::Prod(
                 {ring::Expr::ValTerm(Term::Var(tir::kSignVar)), s.stmt.rhs});
             s.sign_dependent = true;
             return;
           }
         }
         ADD_FAILURE() << "vwap module has no re-evaluation statement";
       }},
      {"false_parallel_claim", "vwap",
       "claims parallel_safe but re-analysis",
       [](compiler::Program*, tir::Module* m) {
         // vwap's trigger re-evaluates against init-on-access state; no
         // honest analysis can call it parallel-safe.
         ASSERT_FALSE(m->triggers.empty());
         m->triggers[0].vectorizable = true;
         m->triggers[0].parallel_safe = true;
       }},
      {"pred_lane_flipped", "q6s", "do not match re-derivation",
       [](compiler::Program*, tir::Module* m) {
         for (tir::Trigger& t : m->triggers) {
           for (tir::Stmt& s : t.stmts) {
             if (s.preds.empty()) continue;
             // Redirect the quantity guard onto the orderkey lane. Both
             // lanes are INT, so the direct lane/type checks stay silent and
             // only the extraction re-derivation can refute the claim.
             ASSERT_EQ(s.preds[0].lane_type, Type::kInt);
             ASSERT_NE(s.preds[0].lane, 0u);
             s.preds[0].lane = 0;
             return;
           }
         }
         ADD_FAILURE() << "q6s module has no extracted predicates";
       }},
      {"pred_constant_altered", "q12s", "types lane",
       [](compiler::Program*, tir::Module* m) {
         for (tir::Trigger& t : m->triggers) {
           for (tir::Stmt& s : t.stmts) {
             for (tir::PredSpec& ps : s.preds) {
               if (ps.lane_type != Type::kString) continue;
               // Point the string-equality guard at the date lane: the
               // lane/type soundness check rejects it outright.
               ps.lane = 2;
               return;
             }
           }
         }
         ADD_FAILURE() << "q12s module has no string predicate";
       }},
      {"partition_col_uncovered", "simple",
       "does not cover partition column",
       [](compiler::Program*, tir::Module* m) {
         // Claim routing on parameter 0 (a): the group map is keyed on b.
         ASSERT_FALSE(m->triggers.empty());
         tir::Trigger& t = m->triggers[0];
         t.parallel_safe = true;
         t.partition_cols = {0};
       }},
  };
  return *kMutations;
}

compiler::Program CompileBase(const std::string& base) {
  if (base == "simple") return CompileScript(kSimpleScript);
  return CompileScript(
      ReadFile(std::string(DBT_QUERY_DIR) + "/" + base + ".sql"));
}

TEST(BadIrCorpus, EveryMutationIsRejectedWithItsPinnedDiagnostic) {
  const std::string dir = std::string(DBT_GOLDEN_DIR) + "/bad";
  const bool regen = ::getenv("DBT_REGEN_BAD") != nullptr;

  std::map<std::string, const Mutation*> registry;
  for (const Mutation& mu : Mutations()) registry[mu.name] = &mu;

  size_t corpus_files = 0;
  for (const auto& [name, mu] : registry) {
    compiler::Program p = CompileBase(mu->base);
    tir::Module m = tir::Lower(p);
    {
      SCOPED_TRACE(name);
      mu->apply(&p, &m);
      if (::testing::Test::HasFatalFailure()) return;
    }
    const std::string text = "# mutation: " + std::string(mu->name) +
                             "\n# expect: " + mu->expect + "\n" + m.ToText();
    const std::string path = dir + "/" + name + ".ir";
    if (regen) {
      std::filesystem::create_directories(dir);
      std::ofstream out(path);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << text;
    } else {
      EXPECT_EQ(ReadFile(path), text)
          << name << ": mutated-IR dump drifted; regenerate with "
          << "DBT_REGEN_BAD=1 after verifying the change is intended";
    }
    ++corpus_files;

    // The actual gate: the verifier must reject the mutation, and one of
    // its diagnostics must carry the pinned substring.
    tir::VerifyResult r = tir::Verify(m);
    EXPECT_GT(r.num_errors, 0u) << name << ": mutation verified clean";
    bool matched = false;
    for (const tir::Diagnostic& d : r.diagnostics) {
      if (d.ToString().find(mu->expect) != std::string::npos) matched = true;
    }
    EXPECT_TRUE(matched) << name << ": no diagnostic contains \""
                         << mu->expect << "\"; got:\n"
                         << r.ToString();

    // And the hard-fail form used by the pipeline gates must trip too.
    EXPECT_FALSE(tir::VerifyOrError(m).ok()) << name;
  }

  // Every on-disk corpus file must correspond to a registered mutation —
  // a stray file would silently stop being exercised.
  if (!regen) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string stem = entry.path().stem().string();
      EXPECT_TRUE(registry.count(stem))
          << "tests/golden/bad/" << entry.path().filename().string()
          << " has no registered mutation";
    }
  }
  EXPECT_EQ(corpus_files, Mutations().size());
}

// ---------------------------------------------------------------------------
// Liveness: dead map warning on a hand-built module.
// ---------------------------------------------------------------------------

TEST(Liveness, DeadMapWarnsByDefaultAndFailsStrict) {
  compiler::Program p = CompileScript(kSimpleScript);
  tir::Module m = tir::Lower(p);
  ASSERT_TRUE(tir::Verify(m).ok(/*strict=*/true));

  // Graft a map no view or statement ever reads, maintained by an extra
  // delta statement on the existing trigger.
  compiler::MapDecl dead;
  dead.name = "m_dead";
  dead.value_type = Type::kInt;
  p.maps.push_back(dead);

  ASSERT_FALSE(m.triggers.empty());
  tir::Trigger& t = m.triggers[0];
  ASSERT_FALSE(t.stmts.empty());
  tir::Stmt extra = t.stmts[0];  // borrow var_types/env of a real statement
  extra.stmt.target = "m_dead";
  extra.stmt.target_keys.clear();
  extra.stmt.lhs_iterate.clear();
  extra.stmt.kind = Statement::Kind::kDelta;
  extra.stmt.rhs = ring::Expr::Prod(
      {ring::Expr::ValTerm(Term::Var(tir::kSignVar)),
       ring::Expr::ValTerm(Term::Var(t.params[0].name))});
  extra.sign_dependent = true;
  extra.when = tir::Stmt::When::kBoth;
  extra.rendering = extra.stmt.ToString();
  t.stmts.push_back(extra);
  // The grafted statement invalidates the previously derived shard plan;
  // under-claiming is always sound.
  t.vectorizable = false;
  t.parallel_safe = false;
  t.partition_cols.clear();

  tir::VerifyResult r = tir::Verify(m);
  EXPECT_EQ(r.num_errors, 0u) << r.ToString();
  ASSERT_GE(r.num_warnings, 1u);
  bool saw = false;
  for (const tir::Diagnostic& d : r.diagnostics) {
    if (d.message.find("'m_dead' is dead") != std::string::npos) saw = true;
  }
  EXPECT_TRUE(saw) << r.ToString();

  // Default verification passes; strict promotes the warning to a failure.
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.ok(/*strict=*/true));
  EXPECT_TRUE(tir::VerifyOrError(m).ok());
  EXPECT_FALSE(tir::VerifyOrError(m, "", /*strict=*/true).ok());
}

TEST(Liveness, CancellingDeltaWarns) {
  compiler::Program p = CompileScript(kSimpleScript);
  tir::Module m = tir::Lower(p);
  ASSERT_FALSE(m.triggers.empty());
  tir::Trigger& t = m.triggers[0];
  ASSERT_FALSE(t.stmts.empty());

  // a + (-a): structurally cancelling delta.
  tir::Stmt& s = t.stmts[0];
  ASSERT_EQ(s.stmt.kind, Statement::Kind::kDelta);
  ring::ExprPtr a = ring::Expr::ValTerm(Term::Var(t.params[0].name));
  s.stmt.rhs = ring::Expr::Sum({a, ring::Expr::Neg(a)});
  s.sign_dependent = false;

  tir::VerifyResult r = tir::Verify(m);
  bool saw = false;
  for (const tir::Diagnostic& d : r.diagnostics) {
    if (d.message.find("provably cancels") != std::string::npos) saw = true;
  }
  EXPECT_TRUE(saw) << r.ToString();
}

// ---------------------------------------------------------------------------
// Diagnostic rendering.
// ---------------------------------------------------------------------------

TEST(Diagnostics, ToStringCarriesRelationStmtAndCheck) {
  tir::Diagnostic d;
  d.check = "type";
  d.relation = "BIDS";
  d.stmt = 2;
  d.message = "boom";
  EXPECT_EQ(d.ToString(), "BIDS:stmt 2: error: [type] boom");

  d.severity = tir::Diagnostic::Severity::kWarning;
  d.relation.clear();
  d.stmt = -1;
  EXPECT_EQ(d.ToString(), "module: warning: [type] boom");
}

}  // namespace
}  // namespace dbtoaster
