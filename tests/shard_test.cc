// Shard determinism contract of the parallel ApplyBatch layer: for every
// engine class, the same batched stream must produce byte-identical views
// and identical state_bytes at every worker-pool thread count (the logical
// shard count is fixed; threads only change who replays a shard), and the
// result must equal one-at-a-time sequential replay. Also unit-covers the
// ShardPool scheduling contract and the Sharded<Map> partitioned front.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_scripts.h"
#include "src/common/rng.h"
#include "src/runtime/stream_engine.h"
#include "src/sql/parser.h"
#include "src/workload/orderbook.h"
#include "tests/generated_programs.h"

namespace dbtoaster {
namespace {

using runtime::EventBatch;
using runtime::StreamEngine;

/// Every row and multiplicity, doubles at full precision: batched and
/// per-event views must be byte-identical, not merely close.
std::string Canon(const exec::QueryResult& r) {
  std::string s;
  for (const auto& [row, mult] : r.SortedRows()) {
    s += "(";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) s += ",";
      if (row[i].is_double()) {
        char buf[64];
        snprintf(buf, sizeof(buf), "%.17g", row[i].AsDouble());
        s += buf;
      } else {
        s += row[i].ToString();
      }
    }
    s += ")x" + std::to_string(mult);
  }
  return s;
}

/// Restores the pool to single-threaded when a test scope ends, so thread
/// state never leaks into other tests of this binary.
struct PoolGuard {
  ~PoolGuard() { runtime::shard_pool().set_threads(1); }
};

TEST(ShardPool, RunsEveryShardExactlyOnceAtEveryThreadCount) {
  PoolGuard guard;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    runtime::shard_pool().set_threads(threads);
    EXPECT_EQ(runtime::shard_pool().threads(), threads);
    std::atomic<int> counts[runtime::kNumShards] = {};
    runtime::shard_pool().RunShards(runtime::kNumShards, [&](size_t s) {
      counts[s].fetch_add(1);
    });
    for (size_t s = 0; s < runtime::kNumShards; ++s) {
      EXPECT_EQ(counts[s].load(), 1) << "threads=" << threads << " s=" << s;
    }
    // Repeated dispatch on the same persistent workers.
    std::atomic<int> total{0};
    for (int round = 0; round < 50; ++round) {
      runtime::shard_pool().RunShards(runtime::kNumShards,
                                      [&](size_t) { total.fetch_add(1); });
    }
    EXPECT_EQ(total.load(), 50 * static_cast<int>(runtime::kNumShards));
  }
}

TEST(ShardPool, ShardsWithinAWorkerRunInIncreasingOrder) {
  PoolGuard guard;
  runtime::shard_pool().set_threads(2);
  std::vector<std::vector<size_t>> per_thread_order(2);
  std::mutex mu;
  runtime::shard_pool().RunShards(runtime::kNumShards, [&](size_t s) {
    // Worker identity = s % threads under the static stripe schedule.
    std::lock_guard<std::mutex> lk(mu);
    per_thread_order[s % 2].push_back(s);
  });
  for (const std::vector<size_t>& order : per_thread_order) {
    for (size_t i = 1; i < order.size(); ++i) {
      EXPECT_LT(order[i - 1], order[i]);
    }
  }
}

TEST(Sharded, RoutesByKeyComponentAndSumsAcrossParts) {
  dbt::Sharded<dbt::Map<std::tuple<int64_t, int64_t>, int64_t>, 0> m;
  for (int64_t k = 0; k < 200; ++k) {
    m.add(std::make_tuple(k, k * 7), k + 1);
  }
  EXPECT_EQ(m.size(), 200u);
  size_t parts_total = 0, nonempty = 0;
  for (size_t s = 0; s < dbt::kNumShards; ++s) {
    parts_total += m.part(s).size();
    if (m.part(s).size() > 0) ++nonempty;
    // Every key in part s routes to s: partition ownership is exact.
    for (const auto& e : m.part(s).entries()) {
      EXPECT_EQ(m.shard_of(e.first), s);
    }
  }
  EXPECT_EQ(parts_total, 200u);
  EXPECT_GT(nonempty, 1u) << "200 keys should spread across partitions";
  for (int64_t k = 0; k < 200; ++k) {
    EXPECT_TRUE(m.contains(std::make_tuple(k, k * 7)));
    EXPECT_EQ(m.get(std::make_tuple(k, k * 7)), k + 1);
  }
  EXPECT_GT(m.bytes(), 0u);
  // Cancelling an entry erases it from its partition only.
  m.add(std::make_tuple(int64_t{3}, int64_t{21}), -4);
  EXPECT_FALSE(m.contains(std::make_tuple(int64_t{3}, int64_t{21})));
  EXPECT_EQ(m.size(), 199u);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
}

TEST(FlatMap, ShrinksAfterMassDeletion) {
  dbt::FlatMap<std::tuple<int64_t>, int64_t> m;
  for (int64_t k = 0; k < 4096; ++k) m.try_emplace(std::make_tuple(k), k);
  const size_t peak = m.capacity();
  for (int64_t k = 0; k < 4090; ++k) m.erase(std::make_tuple(k));
  EXPECT_LT(m.capacity(), peak / 8) << "capacity must track live entries";
  for (int64_t k = 4090; k < 4096; ++k) {
    EXPECT_EQ(*m.find(std::make_tuple(k)), k);
  }
}

// ---------------------------------------------------------------------------
// The determinism property across all four engine classes.
// ---------------------------------------------------------------------------

struct RunOutput {
  std::string view;
  size_t state_bytes = 0;
};

/// Cuts the stream into consecutive batches whose sizes cycle through
/// `sizes`.
std::vector<EventBatch> Batches(const std::vector<Event>& events,
                                const std::vector<size_t>& sizes) {
  std::vector<EventBatch> out;
  for (size_t i = 0, b = 0; i < events.size(); ++b) {
    EventBatch batch;
    for (size_t j = 0; j < sizes[b % sizes.size()] && i < events.size();
         ++j, ++i) {
      batch.Add(events[i].kind, events[i].relation, events[i].tuple);
    }
    out.push_back(std::move(batch));
  }
  return out;
}

RunOutput Output(StreamEngine* engine, const std::string& view_name) {
  auto view = engine->View(view_name);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  return RunOutput{view.ok() ? Canon(view.value()) : std::string(),
                   engine->StateBytes()};
}

/// Drives `engine` through the stream in batches whose sizes cycle through
/// `batch_sizes` and returns the final canonical view plus retained state.
RunOutput RunBatched(StreamEngine* engine, const std::vector<Event>& events,
                     const std::vector<size_t>& batch_sizes,
                     const std::string& view_name = "q") {
  for (EventBatch& batch : Batches(events, batch_sizes)) {
    EXPECT_TRUE(engine->ApplyBatch(std::move(batch)).ok());
  }
  return Output(engine, view_name);
}

std::unique_ptr<StreamEngine> MakeEngine(const std::string& name,
                                         const Catalog& catalog,
                                         const std::string& sql,
                                         dbt::StreamProgram* program) {
  auto engine = bench::MakeBakeoffEngine(name, catalog, sql, program);
  EXPECT_NE(engine, nullptr) << name;
  return engine;
}

TEST(ShardDeterminism, ViewsAndStateIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  Catalog catalog = workload::OrderBookCatalog();
  const std::string sql = workload::MarketMakerQuery();

  workload::OrderBookConfig cfg;
  cfg.p_modify = 0.2;
  cfg.p_withdraw = 0.15;
  workload::OrderBookGenerator gen(cfg);
  const std::vector<Event> full_stream = gen.Generate(6000);

  // Per-engine stream lengths: the toaster engines replay the whole stream;
  // the baselines' one-at-a-time reference is O(|DB|) or worse per event
  // (that asymmetry is the paper's point), so they cover shorter prefixes.
  const std::map<std::string, size_t> stream_len = {
      {"toaster-i", full_stream.size()},
      {"toaster-c", full_stream.size()},
      {"ivm1", 2500},
      {"reeval", 400},
  };

  // Batched runs at 1, 2 and 8 threads vs a one-at-a-time sequential
  // replay reference: views equal to the replay, and byte-identical views
  // AND identical state_bytes across thread counts. Batch 512 puts the
  // per-(relation, op) groups across the shard cutoff.
  for (const char* name : {"toaster-i", "ivm1", "reeval", "toaster-c"}) {
    // dbtc names registered views q0, q1, ...; the engines use the given name.
    const std::string view_name =
        std::string(name) == "toaster-c" ? "q0" : "q";
    const std::vector<Event> events(
        full_stream.begin(),
        full_stream.begin() + static_cast<long>(stream_len.at(name)));

    runtime::shard_pool().set_threads(1);
    std::string reference;
    {
      dbtoaster_gen::mm_Program program;
      auto engine = MakeEngine(name, catalog, sql, &program);
      ASSERT_NE(engine, nullptr);
      for (const Event& ev : events) {
        ASSERT_TRUE(engine->OnEvent(ev).ok());
      }
      auto view = engine->View(view_name);
      ASSERT_TRUE(view.ok()) << name << ": " << view.status().ToString();
      reference = Canon(view.value());
    }

    RunOutput at_one;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      runtime::shard_pool().set_threads(threads);
      dbtoaster_gen::mm_Program program;
      auto engine = MakeEngine(name, catalog, sql, &program);
      ASSERT_NE(engine, nullptr);
      RunOutput out = RunBatched(engine.get(), events, {512}, view_name);
      EXPECT_EQ(out.view, reference)
          << name << " diverged from sequential replay at threads=" << threads;
      if (threads == 1) {
        at_one = out;
      } else {
        EXPECT_EQ(out.view, at_one.view)
            << name << " view not thread-count invariant at " << threads;
        EXPECT_EQ(out.state_bytes, at_one.state_bytes)
            << name << " state not thread-count invariant at " << threads;
      }
    }
  }
}

// The interpreted engine's sharded path on a single-relation grouped
// aggregate (partition key = the group-by column), crossing the batch-size
// cutoff in both directions and under a delete-heavy mix.
TEST(ShardDeterminism, InterpretedGroupedAggregateAcrossCutoff) {
  PoolGuard guard;
  auto script = sql::ParseScript("create table R(A int, B int);");
  ASSERT_TRUE(script.ok());
  Catalog cat;
  for (const auto& t : script.value().tables) {
    ASSERT_TRUE(cat.AddRelation(t).ok());
  }
  const char* query = "select B, sum(A), count(*) from R group by B";

  Rng rng(42);
  std::vector<Event> events, live;
  for (int i = 0; i < 4000; ++i) {
    if (!live.empty() && rng.Chance(0.4)) {
      size_t pick = rng.Uniform(live.size());
      events.push_back(Event::Delete("R", live[pick].tuple));
      live.erase(live.begin() + static_cast<long>(pick));
    } else {
      Row tuple = {Value(rng.Range(0, 1000)), Value(rng.Range(0, 64))};
      events.push_back(Event::Insert("R", std::move(tuple)));
      live.push_back(events.back());
    }
  }

  auto ref_program = compiler::CompileQuery(cat, "q", query);
  ASSERT_TRUE(ref_program.ok());
  runtime::Engine reference(std::move(ref_program).value());
  runtime::shard_pool().set_threads(1);
  for (const Event& ev : events) ASSERT_TRUE(reference.OnEvent(ev).ok());
  auto ref_view = reference.View("q");
  ASSERT_TRUE(ref_view.ok());
  const std::string want = Canon(ref_view.value());

  for (size_t batch : {size_t{16}, size_t{63}, size_t{64}, size_t{1024}}) {
    RunOutput at_one;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      runtime::shard_pool().set_threads(threads);
      auto program = compiler::CompileQuery(cat, "q", query);
      ASSERT_TRUE(program.ok());
      runtime::Engine engine(std::move(program).value());
      RunOutput out = RunBatched(&engine, events, {batch});
      EXPECT_EQ(out.view, want)
          << "batch=" << batch << " threads=" << threads;
      if (threads == 1) {
        at_one = out;
      } else {
        EXPECT_EQ(out.state_bytes, at_one.state_bytes)
            << "batch=" << batch << " threads=" << threads;
      }
    }
  }
}

/// Replays the stream one event at a time through OnEvent: the one-row
/// on_<R> forwarders of a generated program, the sequential path of the
/// interpreter. With `batch_sizes`, each batch RunBatched would apply is
/// replayed in its group order, the order ApplyBatch applies its rows in,
/// so double sums see the same additions in the same sequence.
RunOutput RunPerEvent(StreamEngine* engine, const std::vector<Event>& events,
                      const std::string& view_name = "q",
                      const std::vector<size_t>& batch_sizes = {}) {
  if (batch_sizes.empty()) {
    for (const Event& ev : events) EXPECT_TRUE(engine->OnEvent(ev).ok());
  } else {
    for (const EventBatch& batch : Batches(events, batch_sizes)) {
      for (const Event& ev : EventsOf(batch)) {
        EXPECT_TRUE(engine->OnEvent(ev).ok());
      }
    }
  }
  return Output(engine, view_name);
}

// Batched ingest — selection prologues, statement-major vec phases, and
// the shard split past dbt::kShardBatchCutoff — must be a pure performance
// rewrite of per-event replay through OnEvent: byte-identical views at
// every thread count, and state_bytes identical across thread counts.
// Covers the dbtc-generated sharded vec path (batch 512 crosses the
// cutoff, so selection runs after the shard split) and the interpreted
// engine's SelectionClasses mirror on a pred-guarded grouped aggregate,
// below and above the cutoff.
TEST(ShardDeterminism, BatchedMatchesPerEventAcrossThreads) {
  PoolGuard pool_guard;

  // Generated programs: mm's guards feed the selection prologue; q41's and
  // best_bid's triggers take the whole group in one vec_<R> call, vwap's and
  // q13s's ORDERS trigger one row per call with pendings. Batches of 1, just
  // below and at dbt::kShardBatchCutoff, and 1024 (selection after the
  // shard split); the reference replays each batch per event in its group
  // order.
  std::vector<std::pair<const char*, std::vector<Event>>> programs;
  {
    workload::OrderBookConfig cfg;
    cfg.p_modify = 0.2;
    cfg.p_withdraw = 0.15;
    workload::OrderBookGenerator gen(cfg);
    programs.emplace_back("mm", gen.Generate(6000));
  }
  for (const char* name : {"q41", "best_bid", "vwap", "q13s"}) {
    std::vector<Event> events;
    for (const EventBatch& b : MakeStream(LoadScript(name).catalog, 29, 40)) {
      for (Event& ev : EventsOf(b)) events.push_back(std::move(ev));
    }
    programs.emplace_back(name, std::move(events));
  }
  const std::vector<size_t> sizes = {1, dbt::kShardBatchCutoff - 1,
                                     dbt::kShardBatchCutoff, 1024};
  for (const auto& [name, events] : programs) {
    runtime::shard_pool().set_threads(1);
    auto ref_program = MakeGenerated(name);
    ASSERT_NE(ref_program, nullptr) << name;
    runtime::CompiledProgramEngine reference(ref_program.get());
    const RunOutput want = RunPerEvent(&reference, events, "q0", sizes);

    RunOutput at_one;
    for (size_t threads : {size_t{1}, size_t{8}}) {
      runtime::shard_pool().set_threads(threads);
      auto program = MakeGenerated(name);
      runtime::CompiledProgramEngine engine(program.get());
      RunOutput out = RunBatched(&engine, events, sizes, "q0");
      EXPECT_EQ(out.view, want.view) << name << " threads=" << threads;
      EXPECT_EQ(out.state_bytes, want.state_bytes)
          << name << " threads=" << threads;
      if (threads == 1) {
        at_one = out;
      } else {
        EXPECT_EQ(out.state_bytes, at_one.state_bytes)
            << name << " threads=" << threads;
      }
    }
  }

  // Interpreted engine: a guarded grouped aggregate through the
  // SelectionClasses skip (batch 16 = one-shard plan, 1024 = partitioned).
  {
    auto script = sql::ParseScript("create table R(A int, B int);");
    ASSERT_TRUE(script.ok());
    Catalog cat;
    for (const auto& t : script.value().tables) {
      ASSERT_TRUE(cat.AddRelation(t).ok());
    }
    const char* query =
        "select B, sum(A), count(*) from R where A < 500 group by B";

    Rng rng(17);
    std::vector<Event> events, live;
    for (int i = 0; i < 4000; ++i) {
      if (!live.empty() && rng.Chance(0.4)) {
        size_t pick = rng.Uniform(live.size());
        events.push_back(Event::Delete("R", live[pick].tuple));
        live.erase(live.begin() + static_cast<long>(pick));
      } else {
        Row tuple = {Value(rng.Range(0, 1000)), Value(rng.Range(0, 64))};
        events.push_back(Event::Insert("R", std::move(tuple)));
        live.push_back(events.back());
      }
    }

    runtime::shard_pool().set_threads(1);
    auto ref_program = compiler::CompileQuery(cat, "q", query);
    ASSERT_TRUE(ref_program.ok());
    runtime::Engine reference(std::move(ref_program).value());
    const RunOutput want = RunPerEvent(&reference, events);

    for (size_t batch : {size_t{16}, size_t{1024}}) {
      RunOutput at_one;
      for (size_t threads : {size_t{1}, size_t{8}}) {
        runtime::shard_pool().set_threads(threads);
        auto program = compiler::CompileQuery(cat, "q", query);
        ASSERT_TRUE(program.ok());
        runtime::Engine engine(std::move(program).value());
        RunOutput out = RunBatched(&engine, events, {batch});
        EXPECT_EQ(out.view, want.view)
            << "batch=" << batch << " threads=" << threads;
        EXPECT_EQ(out.state_bytes, want.state_bytes)
            << "batch=" << batch << " threads=" << threads;
        if (threads == 1) {
          at_one = out;
        } else {
          EXPECT_EQ(out.state_bytes, at_one.state_bytes)
              << "batch=" << batch << " threads=" << threads;
        }
      }
    }
  }
}

// The re-evaluation baseline refreshes multiple registered views on the
// worker pool (one task per query). Two standing queries at threads {1, 8}
// must agree with one-at-a-time replay and with each other — this is the
// only engine path where the pool runs whole Executor queries, so it needs
// its own coverage (and runs under the TSan CI job).
TEST(ShardDeterminism, ReevalRefreshesMultipleViewsInParallel) {
  PoolGuard guard;
  Catalog catalog = workload::OrderBookCatalog();
  workload::OrderBookGenerator gen(workload::OrderBookConfig{});
  std::vector<Event> events = gen.Generate(400);
  const char* kTotals = "select sum(PRICE * VOLUME), sum(VOLUME) from BIDS";

  runtime::shard_pool().set_threads(1);
  baseline::ReevalEngine reference(catalog);
  ASSERT_TRUE(reference.AddQuery("q", workload::MarketMakerQuery()).ok());
  ASSERT_TRUE(reference.AddQuery("totals", kTotals).ok());
  for (const Event& ev : events) ASSERT_TRUE(reference.OnEvent(ev).ok());
  const std::string want_q = Canon(reference.View("q").value());
  const std::string want_totals = Canon(reference.View("totals").value());

  for (size_t threads : {size_t{1}, size_t{8}}) {
    runtime::shard_pool().set_threads(threads);
    baseline::ReevalEngine engine(catalog);
    ASSERT_TRUE(engine.AddQuery("q", workload::MarketMakerQuery()).ok());
    ASSERT_TRUE(engine.AddQuery("totals", kTotals).ok());
    size_t i = 0;
    while (i < events.size()) {
      EventBatch batch;
      for (size_t j = 0; j < 128 && i < events.size(); ++j, ++i) {
        batch.Add(events[i]);
      }
      ASSERT_TRUE(engine.ApplyBatch(std::move(batch)).ok());
    }
    EXPECT_EQ(Canon(engine.View("q").value()), want_q)
        << "threads=" << threads;
    EXPECT_EQ(Canon(engine.View("totals").value()), want_totals)
        << "threads=" << threads;
  }
}

// Double-valued aggregates: a grouped double sum has a partition key, so
// per-key application order is preserved exactly and the sharded path runs;
// an ungrouped (scalar-target) double sum has none — shard-order merging
// would reorder non-associative float additions — so it must stay on the
// event-ordered path. The profiler's sharded_groups counter observes which
// path ran.
TEST(ShardDeterminism, DoubleTargetsShardOnlyWithPartitionKey) {
  PoolGuard guard;
  auto script = sql::ParseScript("create table R(A double, B int);");
  ASSERT_TRUE(script.ok());
  Catalog cat;
  for (const auto& t : script.value().tables) {
    ASSERT_TRUE(cat.AddRelation(t).ok());
  }

  Rng rng(7);
  std::vector<Event> events;
  for (int i = 0; i < 512; ++i) {
    events.push_back(Event::Insert(
        "R", {Value(rng.NextDouble() * 100.0), Value(rng.Range(0, 31))}));
  }

  auto run = [&](const char* query, size_t threads) -> std::string {
    runtime::shard_pool().set_threads(threads);
    auto program = compiler::CompileQuery(cat, "q", query);
    EXPECT_TRUE(program.ok());
    runtime::Engine engine(std::move(program).value());
    RunOutput out = RunBatched(&engine, events, {512});
    if (std::string(query).find("group by") != std::string::npos) {
      EXPECT_GT(engine.profile().sharded_groups, 0u)
          << "grouped double sum should take the sharded path";
    } else {
      EXPECT_EQ(engine.profile().sharded_groups, 0u)
          << "scalar double sum must stay event-ordered";
    }
    return out.view;
  };

  for (const char* query :
       {"select sum(A) from R", "select B, sum(A) from R group by B"}) {
    auto ref_program = compiler::CompileQuery(cat, "q", query);
    ASSERT_TRUE(ref_program.ok());
    runtime::Engine reference(std::move(ref_program).value());
    runtime::shard_pool().set_threads(1);
    for (const Event& ev : events) ASSERT_TRUE(reference.OnEvent(ev).ok());
    auto ref_view = reference.View("q");
    ASSERT_TRUE(ref_view.ok());
    const std::string want = Canon(ref_view.value());
    std::string at_one;
    for (size_t threads : {size_t{1}, size_t{8}}) {
      std::string got = run(query, threads);
      EXPECT_EQ(got, want) << query << " threads=" << threads;
      if (threads == 1) {
        at_one = got;
      } else {
        EXPECT_EQ(got, at_one) << query << " not thread-count invariant";
      }
    }
  }
}

}  // namespace
}  // namespace dbtoaster
