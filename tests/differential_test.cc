// Cross-engine differential harness for the SQL fragment.
//
// Seeded random insert/delete streams are replayed batch-by-batch through
// every engine class — toaster-i (recursive delta compilation, interpreted),
// ivm1 (first-order IVM), reeval (full re-evaluation through the Volcano
// executor) and, for the checked-in bench queries, toaster-c (dbtc-generated
// C++) — asserting view equality after every batch. Batch sizes straddle
// dbt::kShardBatchCutoff so both the one-shard and the partitioned shard
// plans of ApplyBatch are exercised.
//
// For bench queries the generated program runs twice: once batched through
// the columnar on_batch_<R> handlers and once event by event through
// OnEvent, the per-row on_<R> path (toaster-c-event). The per-event copy
// replays each batch in its group order, so both see the same events in
// the same order and their views must match byte for byte — not even
// float tolerance applies.
//
// Engines that reject a query (ivm1 on LEFT JOIN, for example) are excluded
// for that query — but only with an explicit kNotSupported status, logged
// per case; any other rejection is a test failure. Enough engines must
// remain that every case is still a real differential.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_scripts.h"
#include "src/baseline/ivm1_engine.h"
#include "src/baseline/reeval_engine.h"
#include "src/common/rng.h"
#include "src/compiler/compile.h"
#include "src/compiler/translate.h"
#include "src/exec/binder.h"
#include "src/runtime/engine.h"
#include "src/runtime/stream_engine.h"
#include "src/sql/parser.h"
#include "tests/generated_programs.h"

namespace dbtoaster {
namespace {

using runtime::EventBatch;
using runtime::StreamEngine;

// ---------------------------------------------------------------------------
// Row comparison with a floating-point tolerance (engines sum doubles in
// different orders).
// ---------------------------------------------------------------------------
bool ValuesClose(const Value& a, const Value& b) {
  if (a.is_string() || b.is_string()) return a == b;
  if (a.is_int() && b.is_int()) return a.AsInt() == b.AsInt();
  const double x = a.AsDouble(), y = b.AsDouble();
  const double tol = 1e-6 * std::max({1.0, std::fabs(x), std::fabs(y)});
  return std::fabs(x - y) <= tol;
}

void ExpectSameView(const exec::QueryResult& want,
                    const exec::QueryResult& got, const std::string& label) {
  auto ws = want.SortedRows();
  auto gs = got.SortedRows();
  ASSERT_EQ(ws.size(), gs.size())
      << label << "\nwant:\n" << want.ToString() << "got:\n" << got.ToString();
  for (size_t i = 0; i < ws.size(); ++i) {
    ASSERT_EQ(ws[i].first.size(), gs[i].first.size()) << label;
    for (size_t c = 0; c < ws[i].first.size(); ++c) {
      ASSERT_TRUE(ValuesClose(ws[i].first[c], gs[i].first[c]))
          << label << " row " << i << " col " << c << "\nwant:\n"
          << want.ToString() << "got:\n" << got.ToString();
    }
  }
}

/// Exact comparison for the batched vs per-event replay of the *same*
/// generated program: both process the same events in the same order, so
/// the views must match without any float tolerance.
void ExpectIdenticalView(const exec::QueryResult& want,
                         const exec::QueryResult& got,
                         const std::string& label) {
  auto ws = want.SortedRows();
  auto gs = got.SortedRows();
  ASSERT_EQ(ws.size(), gs.size())
      << label << "\nwant:\n" << want.ToString() << "got:\n" << got.ToString();
  for (size_t i = 0; i < ws.size(); ++i) {
    ASSERT_TRUE(ws[i].first == gs[i].first && ws[i].second == gs[i].second)
        << label << " row " << i << " differs\nwant:\n" << want.ToString()
        << "got:\n" << got.ToString();
  }
}

// ---------------------------------------------------------------------------
// The harness: build the engine lineup for (catalog, sql), replay a seeded
// stream in batches, compare views after every batch.
// ---------------------------------------------------------------------------
struct EngineUnderTest {
  std::string name;
  std::unique_ptr<StreamEngine> engine;
  std::string view;  ///< this engine's registered view name
  std::unique_ptr<dbt::StreamProgram> program;  ///< toaster-c backing object
  bool per_event = false;  ///< replay each batch through OnEvent
};

void RunDifferential(const Catalog& catalog, const std::string& sql,
                     const std::string& label, uint64_t seed,
                     const std::string& generated_name = "",
                     size_t num_batches = 18) {
  std::vector<EngineUnderTest> engines;

  {
    auto program = compiler::CompileQuery(catalog, "q", sql);
    ASSERT_TRUE(program.ok()) << label << ": toaster-i compile failed: "
                              << program.status().ToString();
    engines.push_back(
        {"toaster-i",
         std::make_unique<runtime::Engine>(std::move(program).value()), "q",
         nullptr});
  }
  {
    auto e = std::make_unique<baseline::ReevalEngine>(catalog,
                                                      /*eager=*/false);
    ASSERT_TRUE(e->AddQuery("q", sql).ok()) << label << ": reeval rejected";
    engines.push_back({"reeval", std::move(e), "q", nullptr});
  }
  bool ivm1_excluded = false;
  {
    auto e = std::make_unique<baseline::Ivm1Engine>(catalog);
    Status st = e->AddQuery("q", sql);
    if (st.ok()) {
      engines.push_back({"ivm1", std::move(e), "q", nullptr});
    } else {
      // Only "outside the first-order fragment" is a legitimate reason to
      // drop an engine from the lineup; anything else (parse error, binder
      // bug) must fail loudly instead of silently shrinking the cross-check.
      ASSERT_EQ(st.code(), StatusCode::kNotSupported)
          << label << ": ivm1 rejected for an unexpected reason: "
          << st.ToString();
      ivm1_excluded = true;
      std::printf("[differential] %s: ivm1 excluded (%s)\n", label.c_str(),
                  st.ToString().c_str());
    }
  }
  // Index of the batched toaster-c engine, when a generated program runs.
  size_t batched_at = 0, per_event_at = 0;
  if (!generated_name.empty()) {
    for (bool per_event : {false, true}) {
      std::unique_ptr<dbt::StreamProgram> program =
          MakeGenerated(generated_name);
      ASSERT_NE(program, nullptr) << generated_name;
      EngineUnderTest e;
      e.name = per_event ? "toaster-c-event" : "toaster-c";
      e.engine = std::make_unique<runtime::CompiledProgramEngine>(
          program.get(), e.name);
      e.view = "q0";  // dbtc scripts auto-name their first query q0
      e.program = std::move(program);
      e.per_event = per_event;
      (per_event ? per_event_at : batched_at) = engines.size();
      engines.push_back(std::move(e));
    }
  }
  // Even with ivm1 out, every bench case still cross-checks four ways
  // (toaster-i, reeval, toaster-c, toaster-c-event) and every micro case at
  // least two (toaster-i vs reeval).
  const size_t min_engines = generated_name.empty() ? 2u : 4u;
  ASSERT_GE(engines.size(), min_engines)
      << label << (ivm1_excluded ? " (ivm1 excluded)" : "");

  // Seeded stream: random inserts plus deletions of live tuples, in batch
  // sizes straddling dbt::kShardBatchCutoff.
  const std::vector<EventBatch> stream = MakeStream(catalog, seed, num_batches);
  for (size_t b = 0; b < num_batches; ++b) {
    for (EngineUnderTest& e : engines) {
      if (e.per_event) {
        for (const Event& ev : EventsOf(stream[b])) {
          Status st = e.engine->OnEvent(ev);
          ASSERT_TRUE(st.ok()) << label << " " << e.name << ": "
                               << st.ToString();
        }
        continue;
      }
      Status st = e.engine->ApplyBatch(EventBatch(stream[b]));
      ASSERT_TRUE(st.ok()) << label << " " << e.name << ": " << st.ToString();
    }

    auto want = engines[0].engine->View(engines[0].view);
    ASSERT_TRUE(want.ok()) << label << " " << engines[0].name << ": "
                           << want.status().ToString();
    for (size_t e = 1; e < engines.size(); ++e) {
      auto got = engines[e].engine->View(engines[e].view);
      ASSERT_TRUE(got.ok()) << label << " " << engines[e].name << ": "
                            << got.status().ToString();
      ExpectSameView(want.value(), got.value(),
                     label + ": " + engines[0].name + " vs " +
                         engines[e].name + " after batch " +
                         std::to_string(b));
    }

    if (!generated_name.empty()) {
      auto bv = engines[batched_at].engine->View("q0");
      auto ev = engines[per_event_at].engine->View("q0");
      ASSERT_TRUE(bv.ok() && ev.ok()) << label;
      ExpectIdenticalView(bv.value(), ev.value(),
                          label + ": toaster-c batched vs per-event after "
                          "batch " + std::to_string(b));
    }
  }
}

// ---------------------------------------------------------------------------
// Every checked-in bench query, five engines where applicable.
// ---------------------------------------------------------------------------
class BenchQueryDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(BenchQueryDifferential, AllEnginesAgreeOnSeededStreams) {
  ScriptCase sc = LoadScript(GetParam());
  RunDifferential(sc.catalog, sc.sql, sc.name, /*seed=*/0xd1f * 31 + 7,
                  /*generated_name=*/sc.name);
}

// selzero/selhalf/selall pin the selectivity extremes of the selection
// prologue: guards passing 0%, ~50% (date range), and 100% of the seeded
// rows (IN-list and comparison kernels), each replayed batched, per event,
// and interpreted, with byte-identical views.
INSTANTIATE_TEST_SUITE_P(AllBenchQueries, BenchQueryDifferential,
                         ::testing::Values("vwap", "sobi_bids", "mm",
                                           "best_bid", "q41", "revenue",
                                           "q3s", "q6s", "q12s", "q13s",
                                           "selzero", "selhalf", "selall"));

// ivm1's first-order rewrite cannot express LEFT JOIN, so its exclusion on
// q13s must be a clean kNotSupported — never a crash or a stray error code
// that RunDifferential would (rightly) turn into a hard failure.
TEST(EngineLineup, Ivm1ExcludedOnLeftJoinWithNotSupported) {
  ScriptCase sc = LoadScript("q13s");
  baseline::Ivm1Engine e(sc.catalog);
  Status st = e.AddQuery("q", sc.sql);
  ASSERT_FALSE(st.ok()) << "ivm1 unexpectedly supports LEFT JOIN now; "
                           "update the lineup assertions in RunDifferential";
  EXPECT_EQ(st.code(), StatusCode::kNotSupported) << st.ToString();
}

// ---------------------------------------------------------------------------
// New-construct micro-queries (interpreted engines; no checked-in header).
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

class MicroQueryDifferential : public ::testing::TestWithParam<MicroCase> {};

TEST_P(MicroQueryDifferential, EnginesAgreeOnSeededStreams) {
  RunDifferential(MicroCatalog(), GetParam().sql, GetParam().label,
                  /*seed=*/0x5eed + std::string(GetParam().label).size());
}

INSTANTIATE_TEST_SUITE_P(
    NewConstructs, MicroQueryDifferential,
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
// Fragment boundaries: shapes with NULL-dependent semantics must be
// rejected by BOTH pipelines (never accepted with non-SQL answers by one
// while the other rejects — the differential would otherwise go blind).
// ---------------------------------------------------------------------------
TEST(FragmentBoundaries, BothPipelinesRejectIdentically) {
  Catalog cat = MicroCatalog();
  const char* kRejected[] = {
      // Grouping by the left-joined table's join-key column: unmatched rows
      // would group under NULL even though the key is equated to R.K.
      "select S.K, count(*) from R left join S on R.K = S.K group by S.K",
      // Subqueries in a LEFT JOIN query's predicates.
      "select count(*) from R left join S on R.K = S.K where R.V < (select "
      "sum(S.W) from S)",
      // Aggregates over the left-joined relation's columns.
      "select R.K, sum(S.W) from R left join S on R.K = S.K group by R.K",
      // Subqueries inside the LEFT JOIN's ON clause.
      "select count(*) from R left join S on S.K = (select sum(R.V) from R)",
      // Type-mismatched HAVING comparisons (string vs numeric, LIKE over
      // numbers) — must not fall through to cross-type Value ordering.
      "select R.TAG, count(*) from R group by R.TAG having R.TAG > 5",
      "select R.K, count(*) from R group by R.K having R.K like 'x%'",
  };
  int var_counter = 0;
  for (const char* q : kRejected) {
    auto stmt = sql::ParseSelect(q);
    ASSERT_TRUE(stmt.ok()) << q;
    auto translated =
        compiler::Translate(*stmt.value(), cat, "q", &var_counter);
    EXPECT_FALSE(translated.ok()) << "translator accepted: " << q;
    auto bound = exec::Bind(*stmt.value(), cat);
    EXPECT_FALSE(bound.ok()) << "binder accepted: " << q;
  }
}

}  // namespace
}  // namespace dbtoaster
