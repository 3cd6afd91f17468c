// Runtime engine tests: snapshot (two-phase) statement semantics, the
// debugger/tracer callbacks, the profiler, view/Scalar APIs, the ad-hoc
// snapshot interface, and init-on-access behaviour.
#include <gtest/gtest.h>

#include "src/catalog/catalog.h"
#include "src/compiler/compile.h"
#include "src/runtime/engine.h"

namespace dbtoaster::runtime {
namespace {

Catalog RS() {
  Catalog cat;
  (void)cat.AddRelation(Schema("R", {{"A", Type::kInt}, {"B", Type::kInt}}));
  (void)cat.AddRelation(Schema("S", {{"B", Type::kInt}, {"C", Type::kInt}}));
  return cat;
}

Engine MakeEngine(const Catalog& cat, const std::string& sql) {
  auto program = compiler::CompileQuery(cat, "q", sql);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return Engine(std::move(program).value());
}

TEST(Engine, SnapshotSemanticsForSelfJoin) {
  // q = sum over R x R of r1.A*r2.A with r1.B = r2.B. On inserting (a,b)
  // the delta must use the PRE-state for the cross terms; the engine's
  // two-phase execution guarantees it. Verify against hand computation.
  Catalog cat = RS();
  Engine e = MakeEngine(
      cat, "select sum(r1.A * r2.A) from R r1, R r2 where r1.B = r2.B");
  ASSERT_TRUE(e.OnInsert("R", {Value(2), Value(1)}).ok());
  // R = {(2,1)}: q = 2*2 = 4.
  EXPECT_EQ(e.ViewScalar("q").value(), Value(4));
  ASSERT_TRUE(e.OnInsert("R", {Value(3), Value(1)}).ok());
  // q = (2+3)^2 = 25.
  EXPECT_EQ(e.ViewScalar("q").value(), Value(25));
  ASSERT_TRUE(e.OnDelete("R", {Value(2), Value(1)}).ok());
  EXPECT_EQ(e.ViewScalar("q").value(), Value(9));
}

TEST(Engine, EventValidation) {
  Catalog cat = RS();
  Engine e = MakeEngine(cat, "select sum(A) from R");
  EXPECT_EQ(e.OnInsert("R", {Value(1)}).code(),
            StatusCode::kInvalidArgument);  // arity
  // Events on relations the program ignores still update the snapshot.
  EXPECT_TRUE(e.OnInsert("S", {Value(1), Value(2)}).ok());
  EXPECT_EQ(e.database().FindTable("S")->Cardinality(), 1);
}

TEST(Engine, ViewScalarRequiresSingleValue) {
  Catalog cat = RS();
  Engine grouped = MakeEngine(cat, "select B, sum(A) from R group by B");
  (void)grouped.OnInsert("R", {Value(1), Value(2)});
  EXPECT_FALSE(grouped.ViewScalar("q").ok());
  EXPECT_FALSE(grouped.View("nope").ok());
}

TEST(Engine, GroupedViewDropsEmptyGroups) {
  Catalog cat = RS();
  Engine e = MakeEngine(cat, "select B, sum(A) from R group by B");
  (void)e.OnInsert("R", {Value(5), Value(1)});
  (void)e.OnInsert("R", {Value(7), Value(2)});
  EXPECT_EQ(e.View("q").value().rows.size(), 2u);
  (void)e.OnDelete("R", {Value(5), Value(1)});
  EXPECT_EQ(e.View("q").value().rows.size(), 1u);  // group 1 disappeared
}

TEST(Engine, AdhocSnapshotQueries) {
  Catalog cat = RS();
  Engine e = MakeEngine(cat, "select sum(A) from R");
  (void)e.OnInsert("R", {Value(1), Value(10)});
  (void)e.OnInsert("R", {Value(2), Value(20)});
  (void)e.OnInsert("S", {Value(10), Value(7)});
  auto r = e.AdhocQuery(
      "select sum(R.A) from R, S where R.B = S.B");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rows[0].first[0], Value(1));
  EXPECT_FALSE(e.AdhocQuery("select broken from").ok());
}

class RecordingSink : public TraceSink {
 public:
  void OnEvent(const Event& /*event*/) override { events++; }
  void OnStatement(const compiler::Statement& /*stmt*/,
                   size_t updates_applied) override {
    statements++;
    updates += updates_applied;
  }
  void OnMapUpdate(const std::string& /*map*/, const Row& /*key*/,
                   const Value& old_value,
                   const Value& new_value) override {
    map_updates++;
    EXPECT_NE(old_value, new_value);
  }
  int events = 0, statements = 0, map_updates = 0;
  size_t updates = 0;
};

TEST(Engine, DebuggerSeesEveryStatementAndMapCell) {
  Catalog cat = RS();
  Engine e = MakeEngine(
      cat, "select sum(R.A * S.C) from R, S where R.B = S.B");
  RecordingSink sink;
  e.set_trace_sink(&sink);
  (void)e.OnInsert("R", {Value(2), Value(1)});
  (void)e.OnInsert("S", {Value(1), Value(5)});
  EXPECT_EQ(sink.events, 2);
  EXPECT_GT(sink.statements, 0);
  EXPECT_GT(sink.map_updates, 0);
}

// A trace sink makes every chunk one event long: a traced ApplyBatch must
// leave the state of an untraced one, and its sink must see exactly what
// the sink of a traced per-event replay of the same events sees.
TEST(Engine, TracedBatchesMatchUntracedBatchesAndPerEventTrace) {
  Catalog cat = RS();
  struct Case {
    const char* sql;
    bool vectorizable;  ///< of the R trigger
  };
  for (const Case& c :
       {Case{"select sum(R.A * S.C) from R, S where R.B = S.B", true},
        Case{"select sum(r1.A * r2.A) from R r1, R r2 where r1.B = r2.B",
             false}}) {
    Engine untraced = MakeEngine(cat, c.sql);
    Engine traced = MakeEngine(cat, c.sql);
    Engine replayed = MakeEngine(cat, c.sql);
    ASSERT_EQ(traced.tir().FindTrigger("R")->vectorizable, c.vectorizable)
        << c.sql;
    RecordingSink batch_sink, event_sink;
    traced.set_trace_sink(&batch_sink);
    replayed.set_trace_sink(&event_sink);

    // Batches of 200 inserts (R groups past dbt::kShardBatchCutoff) plus
    // deletes of every third tuple of the batch before.
    std::vector<Event> prev;
    int num_events = 0;
    for (int b = 0; b < 3; ++b) {
      std::vector<Event> events;
      for (size_t i = 0; i < prev.size(); i += 3) {
        events.push_back(Event::Delete(prev[i].relation, prev[i].tuple));
      }
      prev.clear();
      for (int i = 0; i < 200; ++i) {
        const int k = b * 200 + i;
        prev.push_back(
            k % 2 == 0 ? Event::Insert("R", {Value(k % 7 + 1), Value(k % 5)})
                       : Event::Insert("S", {Value(k % 5), Value(k % 3 + 1)}));
        events.push_back(prev.back());
      }
      EventBatch plain, with_sink;
      for (const Event& ev : events) {
        plain.Add(ev);
        with_sink.Add(ev);
      }
      // The replay follows the batch's group order.
      for (const EventBatch::Group& g : with_sink.groups()) {
        for (size_t i = 0; i < g.rows; ++i) {
          ASSERT_TRUE(
              replayed.OnEvent(Event{g.kind, g.relation, g.RowAt(i)}).ok());
        }
      }
      ASSERT_TRUE(untraced.ApplyBatch(std::move(plain)).ok()) << c.sql;
      ASSERT_TRUE(traced.ApplyBatch(std::move(with_sink)).ok()) << c.sql;
      num_events += static_cast<int>(events.size());

      EXPECT_EQ(traced.ViewScalar("q").value(),
                untraced.ViewScalar("q").value())
          << c.sql << " batch " << b;
      EXPECT_EQ(traced.StateBytes(), untraced.StateBytes())
          << c.sql << " batch " << b;
    }
    EXPECT_EQ(batch_sink.events, num_events) << c.sql;
    EXPECT_EQ(batch_sink.events, event_sink.events) << c.sql;
    EXPECT_EQ(batch_sink.statements, event_sink.statements) << c.sql;
    EXPECT_EQ(batch_sink.updates, event_sink.updates) << c.sql;
    EXPECT_EQ(batch_sink.map_updates, event_sink.map_updates) << c.sql;
    EXPECT_GT(batch_sink.map_updates, 0) << c.sql;
  }
}

TEST(Engine, ProfilerAccumulates) {
  Catalog cat = RS();
  Engine e = MakeEngine(cat, "select sum(A) from R");
  for (int i = 0; i < 10; ++i) {
    (void)e.OnInsert("R", {Value(i + 1), Value(i % 2)});
  }
  EXPECT_EQ(e.profile().events, 10u);
  ASSERT_FALSE(e.profile().by_statement.empty());
  size_t total_updates = 0;
  for (const auto& [k, st] : e.profile().by_statement) {
    total_updates += st.updates;
  }
  EXPECT_EQ(total_updates, 10u);  // one q update per insert (all non-zero)
  e.ResetProfile();
  EXPECT_EQ(e.profile().events, 0u);
}

TEST(Engine, InitOnAccessStoresPostStateReads) {
  // VWAP-shaped range map: reads of missing keys evaluate the definition
  // over the snapshot and are cached on post-state reads, after which
  // incremental maintenance keeps them fresh.
  Catalog cat;
  (void)cat.AddRelation(
      Schema("BIDS", {{"PRICE", Type::kInt}, {"VOLUME", Type::kInt}}));
  auto program = compiler::CompileQuery(
      cat, "q",
      "select sum(b1.PRICE * b1.VOLUME) from BIDS b1 where "
      "(select sum(b2.VOLUME) from BIDS b2 where b2.PRICE > b1.PRICE) < 5");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Engine e(std::move(program).value());
  (void)e.OnInsert("BIDS", {Value(10), Value(3)});
  (void)e.OnInsert("BIDS", {Value(20), Value(4)});
  // deeper volume for price 10 is 4 -> included iff 4 < 5; for price 20 is
  // 0 -> included. q = 10*3 + 20*4 = 110.
  EXPECT_EQ(e.ViewScalar("q").value(), Value(110));
  (void)e.OnInsert("BIDS", {Value(30), Value(2)});
  // deeper(10)=6 (out), deeper(20)=2 (in), deeper(30)=0 (in): 80+60=140.
  EXPECT_EQ(e.ViewScalar("q").value(), Value(140));
  (void)e.OnDelete("BIDS", {Value(30), Value(2)});
  EXPECT_EQ(e.ViewScalar("q").value(), Value(110));
}

TEST(Engine, MemoryAccountersAreMonotoneUnderInserts) {
  Catalog cat = RS();
  Engine e = MakeEngine(cat, "select B, sum(A) from R group by B");
  size_t prev = e.MapMemoryBytes();
  for (int i = 0; i < 50; ++i) {
    (void)e.OnInsert("R", {Value(i), Value(i)});
  }
  EXPECT_GT(e.MapMemoryBytes(), prev);
  EXPECT_GT(e.TotalMapEntries(), 50u);  // sum map + domain map entries
}

}  // namespace
}  // namespace dbtoaster::runtime
