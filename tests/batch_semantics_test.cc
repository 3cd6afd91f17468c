// Batch-ingestion semantics of the unified StreamEngine API: for every
// engine, interleaved insert/delete batches must leave exactly the views
// that one-at-a-time replay of the same events produces — including MIN/MAX
// under delete-heavy batches (where grouping reorders deletes ahead of
// inserts) and slice-index consistency after batched mutation of
// init-on-access maps.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/baseline/ivm1_engine.h"
#include "src/baseline/reeval_engine.h"
#include "src/catalog/catalog.h"
#include "src/codegen/dbtoaster_runtime.h"
#include "src/common/rng.h"
#include "src/compiler/compile.h"
#include "src/runtime/engine.h"
#include "src/runtime/stream_engine.h"
#include "src/sql/parser.h"

namespace dbtoaster {
namespace {

using runtime::EventBatch;
using runtime::StreamEngine;

std::string Canon(const exec::QueryResult& r) {
  std::string s;
  for (const auto& [row, mult] : r.SortedRows()) {
    s += "(";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) s += ",";
      if (row[i].is_string()) {
        s += row[i].ToString();
      } else {
        char buf[64];
        snprintf(buf, sizeof(buf), "%.9g", row[i].AsDouble());
        s += buf;
      }
    }
    s += ")";
  }
  return s;
}

Catalog MakeCatalog(const char* schema) {
  auto script = sql::ParseScript(schema);
  EXPECT_TRUE(script.ok()) << script.status().ToString();
  Catalog cat;
  for (const auto& t : script.value().tables) {
    EXPECT_TRUE(cat.AddRelation(t).ok());
  }
  return cat;
}

/// A well-formed random stream: inserts of random tuples, deletes only of
/// live tuples (arbitrary lifetimes).
std::vector<Event> RandomStream(const Catalog& cat, Rng* rng, int n,
                                int distinct, double p_delete) {
  std::vector<Event> events, live;
  for (int i = 0; i < n; ++i) {
    if (!live.empty() && rng->Chance(p_delete)) {
      size_t pick = rng->Uniform(live.size());
      events.push_back(
          Event::Delete(live[pick].relation, live[pick].tuple));
      live.erase(live.begin() + static_cast<long>(pick));
      continue;
    }
    const auto& rels = cat.relations();
    const Schema& schema = rels[rng->Uniform(rels.size())];
    Row tuple;
    for (size_t col = 0; col < schema.num_columns(); ++col) {
      tuple.push_back(Value(rng->Range(0, distinct - 1)));
    }
    events.push_back(Event::Insert(schema.name(), std::move(tuple)));
    live.push_back(events.back());
  }
  return events;
}

struct BatchCase {
  const char* name;
  const char* schema;
  const char* query;
  double p_delete;
};

// Cases chosen to hit every batching path: the vectorized group loop
// (fig2_join3, grouped), the sequential fallback for self-reading triggers
// (self_join), extreme multisets under delete-heavy mixes (max_grouped,
// min_global), and the hybrid/deferred-reeval path with slice indexes
// (vwap_shape).
const BatchCase kCases[] = {
    {"fig2_join3",
     "create table R(A int, B int); create table S(B int, C int); "
     "create table T(C int, D int);",
     "select sum(R.A * T.D) from R, S, T where R.B = S.B and S.C = T.C",
     0.35},
    {"grouped",
     "create table R(A int, B int);",
     "select B, sum(A), count(*) from R group by B", 0.35},
    {"self_join",
     "create table R(A int, B int);",
     "select sum(r1.A * r2.A) from R r1, R r2 where r1.B = r2.B", 0.35},
    {"max_grouped",
     "create table R(A int, B int);",
     "select B, max(A) from R group by B", 0.55},
    {"min_global",
     "create table R(A int, B int);",
     "select min(A) from R", 0.55},
    {"vwap_shape",
     "create table BIDS(PRICE int, VOLUME int);",
     "select sum(b1.PRICE * b1.VOLUME) from BIDS b1 where "
     "(select sum(b2.VOLUME) from BIDS b2 where b2.PRICE > b1.PRICE) < 10",
     0.35},
};

class BatchSemantics : public ::testing::TestWithParam<
                           std::tuple<size_t /*case*/, uint64_t /*seed*/>> {};

TEST_P(BatchSemantics, BatchedEqualsOneAtATimeReplay) {
  const BatchCase& c = kCases[std::get<0>(GetParam())];
  uint64_t seed = std::get<1>(GetParam());
  Catalog cat = MakeCatalog(c.schema);

  auto p1 = compiler::CompileQuery(cat, "q", c.query);
  auto p2 = compiler::CompileQuery(cat, "q", c.query);
  ASSERT_TRUE(p1.ok()) << p1.status().ToString();
  ASSERT_TRUE(p2.ok()) << p2.status().ToString();
  runtime::Engine batched(std::move(p1).value());
  runtime::Engine sequential(std::move(p2).value());

  Rng rng(seed);
  std::vector<Event> events = RandomStream(cat, &rng, 300, 4, c.p_delete);

  size_t i = 0;
  while (i < events.size()) {
    size_t batch_size = 1 + rng.Uniform(17);
    EventBatch batch;
    for (size_t j = 0; j < batch_size && i < events.size(); ++j, ++i) {
      ASSERT_TRUE(sequential.OnEvent(events[i]).ok())
          << c.name << " event " << i;
      batch.Add(events[i]);
    }
    ASSERT_TRUE(batched.ApplyBatch(std::move(batch)).ok())
        << c.name << " batch ending at event " << i;

    auto got = batched.View("q");
    auto want = sequential.View("q");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_EQ(Canon(got.value()), Canon(want.value()))
        << c.name << " diverged after batch ending at event " << i;
  }
  EXPECT_EQ(batched.profile().events, sequential.profile().events);
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<size_t, uint64_t>>& info) {
  return std::string(kCases[std::get<0>(info.param)].name) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, BatchSemantics,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(kCases)),
                       ::testing::Values(11u, 12u, 13u)),
    CaseName);

// A batch whose grouping reorders a delete ahead of its own insert: the
// delete group exists first (delete of a pre-batch tuple), so the in-batch
// insert+delete pair lands delete-first. The MIN/MAX multiset must tolerate
// the transient negative count and converge to the replayed state.
TEST(BatchSemantics, ExtremeMapSurvivesReorderedInBatchDelete) {
  Catalog cat = MakeCatalog("create table R(A int, B int);");
  auto p1 = compiler::CompileQuery(cat, "q", "select max(A) from R");
  auto p2 = compiler::CompileQuery(cat, "q", "select max(A) from R");
  ASSERT_TRUE(p1.ok() && p2.ok());
  runtime::Engine batched(std::move(p1).value());
  runtime::Engine sequential(std::move(p2).value());

  for (StreamEngine* e : {static_cast<StreamEngine*>(&batched),
                          static_cast<StreamEngine*>(&sequential)}) {
    ASSERT_TRUE(e->OnInsert("R", {Value(3), Value(0)}).ok());
  }

  // Sequential order: delete R(3,0), insert R(9,1), delete R(9,1).
  std::vector<Event> tail = {Event::Delete("R", {Value(3), Value(0)}),
                             Event::Insert("R", {Value(9), Value(1)}),
                             Event::Delete("R", {Value(9), Value(1)})};
  EventBatch batch;
  for (const Event& ev : tail) {
    batch.Add(ev);
    ASSERT_TRUE(sequential.OnEvent(ev).ok());
  }
  // Grouping puts both deletes before the insert.
  ASSERT_EQ(batch.groups().size(), 2u);
  ASSERT_EQ(batch.groups()[0].kind, EventKind::kDelete);
  ASSERT_TRUE(batched.ApplyBatch(std::move(batch)).ok());

  auto got = batched.View("q");
  auto want = sequential.View("q");
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(Canon(got.value()), Canon(want.value()));

  // Both books are empty again: max falls back to the typed zero.
  EXPECT_EQ(batched.ViewScalar("q").value(), Value(int64_t{0}));
}

TEST(ExtremeMap, TotalizedCounts) {
  runtime::ExtremeMap m("m", 1, Type::kInt);
  Row k = {Value(1)};
  // Remove before add: transient negative count, then cancellation.
  m.Remove(k, Value(7));
  EXPECT_FALSE(m.Min(k).has_value());
  m.Add(k, Value(7));
  EXPECT_FALSE(m.Min(k).has_value());  // -1 + 1 == 0: still absent
  m.Add(k, Value(7));
  ASSERT_TRUE(m.Min(k).has_value());
  EXPECT_EQ(m.Min(k).value(), Value(7));
  // A negative count never surfaces as a MIN/MAX candidate.
  m.Remove(k, Value(3));
  ASSERT_TRUE(m.Min(k).has_value());
  EXPECT_EQ(m.Min(k).value(), Value(7));
  EXPECT_EQ(m.size(), 1u);
}

// The baselines implement the same ApplyBatch contract: batched ingestion
// through the StreamEngine interface equals their own per-event replay.
TEST(BatchSemantics, BaselinesMatchOwnReplayAndEachOther) {
  const char* schema =
      "create table R(A int, B int); create table S(B int, C int);";
  const char* query =
      "select S.C, sum(R.A) from R, S where R.B = S.B group by S.C";
  Catalog cat = MakeCatalog(schema);

  baseline::ReevalEngine reeval_b(cat), reeval_s(cat);
  baseline::Ivm1Engine ivm1_b(cat), ivm1_s(cat);
  ASSERT_TRUE(reeval_b.AddQuery("q", query).ok());
  ASSERT_TRUE(reeval_s.AddQuery("q", query).ok());
  ASSERT_TRUE(ivm1_b.AddQuery("q", query).ok());
  ASSERT_TRUE(ivm1_s.AddQuery("q", query).ok());
  auto program = compiler::CompileQuery(cat, "q", query);
  ASSERT_TRUE(program.ok());
  runtime::Engine toaster(std::move(program).value());

  std::vector<StreamEngine*> batched = {&reeval_b, &ivm1_b, &toaster};
  std::vector<StreamEngine*> replayed = {&reeval_s, &ivm1_s};

  Rng rng(99);
  std::vector<Event> events = RandomStream(cat, &rng, 240, 3, 0.3);
  size_t i = 0;
  while (i < events.size()) {
    size_t batch_size = 1 + rng.Uniform(13);
    EventBatch batch;
    for (size_t j = 0; j < batch_size && i < events.size(); ++j, ++i) {
      batch.Add(events[i]);
      for (StreamEngine* e : replayed) {
        ASSERT_TRUE(e->OnEvent(events[i]).ok());
      }
    }
    for (StreamEngine* e : batched) {
      EventBatch copy = batch;
      ASSERT_TRUE(e->ApplyBatch(std::move(copy)).ok()) << e->Name();
    }
    std::string want = Canon(reeval_s.View("q").value());
    for (StreamEngine* e : batched) {
      auto got = e->View("q");
      ASSERT_TRUE(got.ok()) << e->Name() << ": " << got.status().ToString();
      ASSERT_EQ(Canon(got.value()), want)
          << e->Name() << " diverged after batch ending at event " << i;
    }
    ASSERT_EQ(Canon(ivm1_s.View("q").value()), want);
  }
}

TEST(EventBatch, GroupsByRelationAndOpInFirstEncounterOrder) {
  EventBatch b;
  b.AddInsert("R", {Value(1)});
  b.AddDelete("S", {Value(2)});
  b.AddInsert("R", {Value(3)});
  b.AddInsert("S", {Value(4)});
  EXPECT_EQ(b.size(), 4u);
  ASSERT_EQ(b.groups().size(), 3u);
  EXPECT_EQ(b.groups()[0].relation, "R");
  EXPECT_EQ(b.groups()[0].kind, EventKind::kInsert);
  EXPECT_EQ(b.groups()[0].rows, 2u);
  EXPECT_EQ(b.groups()[1].relation, "S");
  EXPECT_EQ(b.groups()[1].kind, EventKind::kDelete);
  EXPECT_EQ(b.groups()[2].relation, "S");
  EXPECT_EQ(b.groups()[2].kind, EventKind::kInsert);
  b.Clear();
  EXPECT_TRUE(b.empty());
}

// Round-trip property over the columnar layout on both sides of the
// boundary: random mixed-type tuples pushed through Group::Add/add must
// reassemble exactly via RowAt/row, each column on the lane of its values'
// type (dates share the int64 lane).
TEST(EventBatch, ColumnarRoundTripPreservesRandomTypedTuples) {
  Rng rng(0xc01u);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t width = 1 + rng.Uniform(5);
    std::vector<int> kinds;  // 0 int, 1 double, 2 string, 3 date-as-days
    for (size_t c = 0; c < width; ++c) {
      kinds.push_back(static_cast<int>(rng.Uniform(4)));
    }
    auto make_value = [&](int kind) {
      switch (kind) {
        case 1: return Value(static_cast<double>(rng.Range(-50, 50)) / 8.0);
        case 2: return Value("s" + std::to_string(rng.Range(0, 9)));
        case 3: return Value(CivilToDays(1994, 1, 1) + rng.Range(0, 700));
        default: return Value(rng.Range(-100, 100));
      }
    };

    runtime::EventBatch::Group rgroup("R", EventKind::kInsert);
    dbt::EventBatch::Group dgroup;
    std::vector<Row> want;
    const size_t n = 1 + rng.Uniform(40);
    for (size_t i = 0; i < n; ++i) {
      Row tuple;
      std::vector<dbt::Value> dtuple;
      for (size_t c = 0; c < width; ++c) {
        Value v = make_value(kinds[c]);
        if (v.is_string()) {
          dtuple.emplace_back(v.AsString());
        } else if (v.is_int()) {
          dtuple.emplace_back(v.AsInt());
        } else {
          dtuple.emplace_back(v.AsDouble());
        }
        tuple.push_back(std::move(v));
      }
      rgroup.Add(tuple);
      dgroup.add(dtuple);
      want.push_back(std::move(tuple));
    }

    ASSERT_EQ(rgroup.rows, n);
    ASSERT_EQ(dgroup.rows, n);
    ASSERT_EQ(rgroup.cols.size(), width);
    for (size_t c = 0; c < width; ++c) {
      const auto expect_tag = kinds[c] == 1   ? dbt::EventColumn::Tag::kF64
                              : kinds[c] == 2 ? dbt::EventColumn::Tag::kStr
                                              : dbt::EventColumn::Tag::kI64;
      EXPECT_EQ(rgroup.cols[c].tag, expect_tag) << "trial " << trial;
    }
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(rgroup.RowAt(i), want[i]) << "trial " << trial << " row " << i;
      const std::vector<dbt::Value> dback = dgroup.row(i);
      ASSERT_EQ(dback.size(), width);
      for (size_t c = 0; c < width; ++c) {
        if (want[i][c].is_string()) {
          EXPECT_EQ(dbt::AsString(dback[c]), want[i][c].AsString());
        } else if (rgroup.cols[c].tag == dbt::EventColumn::Tag::kF64) {
          EXPECT_EQ(dbt::AsDouble(dback[c]), want[i][c].AsDouble());
        } else {
          EXPECT_EQ(dbt::AsInt(dback[c]), want[i][c].AsInt());
        }
      }
    }
  }
}

// The dbt-side boundary: a hand-written StreamProgram sees the default
// on_batch dispatch exactly once per event, group-ordered.
TEST(DbtStreamProgram, DefaultOnBatchDispatchesGroupwise) {
  struct Recorder : dbt::StreamProgram {
    std::vector<std::string> log;
    bool on_event(const std::string& relation, bool is_insert,
                  const std::vector<dbt::Value>& /*tuple*/) override {
      log.push_back((is_insert ? "+" : "-") + relation);
      return relation != "IGNORED";
    }
    std::vector<std::string> view_names() const override { return {}; }
    std::vector<std::string> view_column_names(
        const std::string&) const override {
      return {};
    }
    std::vector<std::vector<dbt::Value>> view_rows(
        const std::string&) override {
      return {};
    }
    size_t total_map_entries() const override { return 0; }
    size_t state_bytes() const override { return 0; }
  };

  Recorder rec;
  dbt::EventBatch batch;
  batch.add("R", true, {dbt::Value{int64_t{1}}});
  batch.add("IGNORED", true, {});
  batch.add("R", true, {dbt::Value{int64_t{2}}});
  batch.add("R", false, {dbt::Value{int64_t{1}}});
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(rec.on_batch(batch), 3u);
  EXPECT_EQ(rec.log,
            (std::vector<std::string>{"+R", "+R", "+IGNORED", "-R"}));

  // The runtime-side shim drives the same program through StreamEngine.
  runtime::CompiledProgramEngine shim(&rec, "mock");
  EXPECT_EQ(shim.Name(), "mock");
  EXPECT_TRUE(shim.OnInsert("R", {Value(5)}).ok());
  EXPECT_EQ(rec.log.back(), "+R");
  EXPECT_EQ(shim.View("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(shim.StateBytes(), 0u);
}


// ---------------------------------------------------------------------------
// NULL/empty-group semantics at the HAVING / LEFT JOIN boundary: a group
// whose row count returns to zero must vanish from the view — even when the
// HAVING guard references its aggregates (the guard must never resurrect a
// dead group), and even when the group only ever existed through the
// unmatched branch of a LEFT JOIN.
// ---------------------------------------------------------------------------
TEST(BatchSemantics, InsertThenDeleteVanishesUnderHavingAndLeftJoin) {
  Catalog cat = MakeCatalog(
      "create table R(K int, TAG string, V int, D date);"
      "create table S(K int, W int);");
  struct Case {
    const char* label;
    const char* sql;
  };
  const Case kCases[] = {
      // HAVING guard that is TRUE on all-zero aggregates: only the domain
      // may decide liveness.
      {"having_true_on_zero",
       "select R.K, count(*) from R group by R.K having count(*) < 10000"},
      {"having_sum",
       "select R.K, sum(R.V) from R group by R.K having sum(R.V) > 1"},
      // Unmatched-branch-only groups (S stays empty).
      {"left_join",
       "select R.K, count(*) from R left join S on R.K = S.K group by R.K"},
      {"left_join_having",
       "select R.K, count(*) from R left join S on R.K = S.K group by R.K "
       "having count(*) < 10000"},
      // New predicate constructs in the WHERE clause.
      {"like_case",
       "select R.TAG, sum(case when R.V > 2 then R.V else 0 end) from R "
       "where R.TAG like '%a%' or R.D >= DATE '1994-01-01' group by R.TAG"},
  };
  Rng rng(2024);
  for (const Case& c : kCases) {
    for (size_t batch_size : {size_t{1}, size_t{5}, size_t{96}}) {
      auto program = compiler::CompileQuery(cat, "q", c.sql);
      ASSERT_TRUE(program.ok()) << c.label << ": "
                                << program.status().ToString();
      runtime::Engine engine(std::move(program).value());

      std::vector<Event> inserts;
      for (int i = 0; i < 200; ++i) {
        Row r_tuple{Value(rng.Range(0, 5)),
                    Value(std::string(rng.Chance(0.5) ? "alpha" : "BETA")),
                    Value(rng.Range(0, 9)),
                    Value(CivilToDays(1994, 1, 1) + rng.Range(-40, 40))};
        inserts.push_back(Event::Insert("R", std::move(r_tuple)));
        if (rng.Chance(0.3)) {
          inserts.push_back(Event::Insert(
              "S", Row{Value(rng.Range(0, 5)), Value(rng.Range(0, 9))}));
        }
      }
      auto apply_all = [&](bool insert) {
        for (size_t i = 0; i < inserts.size(); i += batch_size) {
          EventBatch batch;
          for (size_t j = i; j < std::min(inserts.size(), i + batch_size);
               ++j) {
            batch.Add(insert ? EventKind::kInsert : EventKind::kDelete,
                      inserts[j].relation, inserts[j].tuple);
          }
          ASSERT_TRUE(engine.ApplyBatch(std::move(batch)).ok()) << c.label;
        }
      };
      apply_all(/*insert=*/true);
      auto mid = engine.View("q");
      ASSERT_TRUE(mid.ok()) << c.label;
      EXPECT_FALSE(mid.value().rows.empty()) << c.label;

      apply_all(/*insert=*/false);
      auto fin = engine.View("q");
      ASSERT_TRUE(fin.ok()) << c.label;
      EXPECT_TRUE(fin.value().rows.empty())
          << c.label << " @batch " << batch_size
          << ": groups must vanish when their count returns to zero, got\n"
          << fin.value().ToString();
      // The maps themselves must prune to empty as well (no zombie keys
      // keeping state resident).
      EXPECT_EQ(engine.TotalMapEntries(), 0u)
          << c.label << " @batch " << batch_size;
    }
  }
}

}  // namespace
}  // namespace dbtoaster
