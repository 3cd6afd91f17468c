// §2 data-model claims, on the unified StreamEngine API.
//
// Axis 1 — update mix: relations under *arbitrary* sequences of inserts,
// updates and deletes (no window semantics). Throughput across add/modify/
// withdraw mixes of the order-book stream — deletions are first-class (sum
// has an inverse), so the rate stays flat.
//
// Axis 2 — batch size: ApplyBatch amortizes dispatch, trigger lookup and
// profiler bookkeeping over vectors of deltas. Every engine class ingests
// the same stream through the same interface at batch sizes {1, 16, 256,
// 4096}; the interpreted engine must beat its own batch=1 rate at 4096.
//
// Axis 3 — threads: the hash-sharded parallel ApplyBatch layer. The thread
// axis {1, 2, 4, 8} crosses the batch axis; per the determinism contract
// the views are identical at every point, only the rate moves. Speedup
// needs both a shardable query (market-maker partitions on BROKER_ID) and
// batches large enough to cross the shard cutoff — batch=1 rows are the
// control that cannot parallelize.
//
// Machine-readable results land in BENCH_update_mix.json (the recorded
// perf trajectory; CI uploads it as an artifact).
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/gen/mm.hpp"
#include "bench/gen/q12s.hpp"
#include "bench/gen/q13s.hpp"
#include "bench/gen/q3s.hpp"
#include "bench/gen/q6s.hpp"
#include "src/common/rng.h"
#include "src/sql/parser.h"
#include "src/workload/orderbook.h"

namespace dbtoaster::bench {
namespace {

struct Cell {
  std::string sweep;   // "batch" | "threads" | "prologue-<q>" | ...
  std::string engine;
  size_t batch = 0;
  size_t threads = 1;
  size_t events = 0;
  double seconds = 0;
  double selectivity = -1;       // predicate hit-rate axis; -1 = n/a
  uint64_t selected_rows = 0;    // rows surviving selection passes
  uint64_t probe_runs = 0;       // run-batched map commits

  double Rate() const {
    return seconds > 0 ? static_cast<double>(events) / seconds : 0;
  }
};

std::vector<Cell> g_cells;

void RunMixSweep(bool quick) {
  Catalog catalog = workload::OrderBookCatalog();
  std::printf("== throughput vs update mix (market-maker query) ==\n");
  std::printf("%8s %8s %8s | %14s %14s\n", "add%", "modify%", "withdraw%",
              "toaster-i ev/s", "toaster-c ev/s");
  struct Mix {
    double modify, withdraw;
  };
  for (const Mix mix : {Mix{0.0, 0.0}, Mix{0.2, 0.1}, Mix{0.25, 0.25},
                        Mix{0.2, 0.5}, Mix{0.1, 0.7}}) {
    workload::OrderBookConfig cfg;
    cfg.p_modify = mix.modify;
    cfg.p_withdraw = mix.withdraw;
    workload::OrderBookGenerator gen(cfg);
    std::vector<Event> events = gen.Generate(quick ? 20000 : 150000);

    auto program =
        compiler::CompileQuery(catalog, "q", workload::MarketMakerQuery());
    runtime::Engine interpreted(std::move(program).value());
    auto [n1, s1] = TimedEngineRun(events, quick ? 0.2 : 1.5, &interpreted);

    dbtoaster_gen::mm_Program generated;
    runtime::CompiledProgramEngine compiled(&generated);
    auto [n2, s2] = TimedEngineRun(events, quick ? 0.2 : 1.5, &compiled);

    std::printf("%8.0f %8.0f %8.0f | %14.0f %14.0f\n",
                (1.0 - mix.modify - mix.withdraw) * 100, mix.modify * 100,
                mix.withdraw * 100, n1 / s1, n2 / s2);
  }
  std::printf(
      "\nshape check: throughput is flat across mixes — deletes cost the "
      "same\nas inserts under delta processing.\n");
}

void RunBatchSweep(bool quick) {
  Catalog catalog = workload::OrderBookCatalog();
  workload::OrderBookConfig cfg;
  cfg.p_modify = 0.2;
  cfg.p_withdraw = 0.1;
  workload::OrderBookGenerator gen(cfg);
  std::vector<Event> events = gen.Generate(quick ? 40000 : 400000);
  const std::string sql = workload::MarketMakerQuery();
  const double kBudget = quick ? 0.15 : 1.0;  // s per (engine, batch) cell
  const size_t kBatchSizes[] = {1, 16, 256, 4096};

  std::printf(
      "\n== events/sec vs batch size (market-maker query, unified "
      "StreamEngine API) ==\n");
  std::printf("%-12s", "engine");
  for (size_t bs : kBatchSizes) std::printf(" %13s=%-4zu", "batch", bs);
  std::printf(" %10s\n", "4096/1");
  std::printf("%s\n", std::string(92, '-').c_str());

  for (const char* name : {"toaster-i", "ivm1", "reeval", "toaster-c"}) {
    std::printf("%-12s", name);
    double rate_1 = 0, rate_max = 0;
    for (size_t bs : kBatchSizes) {
      // A fresh engine per cell: state growth must not leak across cells.
      dbtoaster_gen::mm_Program generated;
      std::unique_ptr<runtime::StreamEngine> engine =
          MakeBakeoffEngine(name, catalog, sql, &generated);
      if (engine == nullptr) {
        std::printf(" %18s", "n/a");
        continue;
      }
      auto [n, s] = TimedBatchRun(events, kBudget, bs, engine.get());
      double rate = s > 0 ? static_cast<double>(n) / s : 0;
      if (bs == 1) rate_1 = rate;
      rate_max = rate;
      g_cells.push_back(Cell{"batch", name, bs, 1, n, s});
      std::printf(" %18.0f", rate);
    }
    std::printf(" %9.2fx\n", rate_1 > 0 ? rate_max / rate_1 : 0.0);
  }
  std::printf(
      "\nshape check: batching amortizes per-event dispatch; the "
      "interpreted\nengine's batch=4096 rate must beat its batch=1 rate, "
      "and reeval gains\nthe most (one view refresh per batch instead of "
      "per event).\n");
}

void RunThreadSweep(bool quick) {
  Catalog catalog = workload::OrderBookCatalog();
  workload::OrderBookConfig cfg;
  cfg.p_modify = 0.2;
  cfg.p_withdraw = 0.1;
  workload::OrderBookGenerator gen(cfg);
  std::vector<Event> events = gen.Generate(quick ? 40000 : 400000);
  const std::string sql = workload::MarketMakerQuery();
  const double kBudget = quick ? 0.1 : 0.6;  // s per (engine, batch, T) cell
  const size_t kBatchSizes[] = {1, 256, 4096};
  const size_t kThreads[] = {1, 2, 4, 8};

  std::printf(
      "\n== events/sec vs threads x batch (market-maker query, "
      "hash-sharded ApplyBatch) ==\n");
  std::printf("%-12s %-6s", "engine", "batch");
  for (size_t t : kThreads) std::printf(" %12s=%-2zu", "threads", t);
  std::printf(" %10s\n", "8t/1t");
  std::printf("%s\n", std::string(90, '-').c_str());

  for (const char* name : {"toaster-i", "ivm1", "reeval", "toaster-c"}) {
    for (size_t bs : kBatchSizes) {
      std::printf("%-12s %-6zu", name, bs);
      double rate_1 = 0, rate_last = 0;
      for (size_t threads : kThreads) {
        runtime::shard_pool().set_threads(threads);
        dbtoaster_gen::mm_Program generated;
        std::unique_ptr<runtime::StreamEngine> engine =
            MakeBakeoffEngine(name, catalog, sql, &generated);
        if (engine == nullptr) {
          std::printf(" %15s", "n/a");
          continue;
        }
        auto [n, s] = TimedBatchRun(events, kBudget, bs, engine.get());
        double rate = s > 0 ? static_cast<double>(n) / s : 0;
        if (threads == 1) rate_1 = rate;
        rate_last = rate;
        g_cells.push_back(Cell{"threads", name, bs, threads, n, s});
        std::printf(" %15.0f", rate);
      }
      std::printf(" %9.2fx\n", rate_1 > 0 ? rate_last / rate_1 : 0.0);
    }
  }
  runtime::shard_pool().set_threads(1);
  std::printf(
      "\nshape check: the sharded engines (toaster-c, and toaster-i's "
      "parallel\ndelta phase) scale with threads at batch>=256 on "
      "multi-core hosts;\nbatch=1 rows are the no-parallelism control. "
      "Views are identical at\nevery cell (tests/shard_test.cc enforces "
      "it). On a single-core host\nthe 8t/1t column records the "
      "oversubscription overhead instead.\n");
}

// ---------------------------------------------------------------------------
// Axis 4 — SQL fragment: the TPC-H-shaped queries that exercise the grown
// grammar (LEFT JOIN + HAVING + NOT LIKE, CASE WHEN + IN-lists + EXTRACT,
// DATE arithmetic, string predicates) through every engine class. The
// streams are seeded random insert/delete mixes over each query's own
// schema (deletes target live tuples).
// ---------------------------------------------------------------------------

Value FragmentValue(Rng* rng, Type type) {
  switch (type) {
    case Type::kInt:
      return Value(rng->Range(0, 63));
    case Type::kDouble: {
      static const double kPool[] = {0.04, 0.05, 0.06, 0.07, 0.10, 1.5, 20.0};
      return Value(kPool[rng->Uniform(std::size(kPool))]);
    }
    case Type::kString: {
      static const char* kPool[] = {"BUILDING",  "AUTOMOBILE",
                                    "MAIL",      "SHIP",
                                    "RAIL",      "1-URGENT",
                                    "2-HIGH",    "3-MEDIUM",
                                    "no remarks", "customer special requests"};
      return Value(std::string(kPool[rng->Uniform(std::size(kPool))]));
    }
    case Type::kDate: {
      const int64_t lo = CivilToDays(1993, 6, 1);
      const int64_t hi = CivilToDays(1995, 6, 30);
      return Value(lo + rng->Range(0, hi - lo));
    }
  }
  return Value(int64_t{0});
}

std::vector<Event> FragmentStream(const Catalog& catalog, size_t n,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> rels;
  for (const Schema& s : catalog.relations()) rels.push_back(s.name());
  std::map<std::string, std::vector<Row>> live;
  std::vector<Event> out;
  out.reserve(n);
  while (out.size() < n) {
    const std::string& rel = rels[rng.Uniform(rels.size())];
    std::vector<Row>& rows = live[rel];
    if (!rows.empty() && rng.Chance(0.3)) {
      size_t pick = rng.Uniform(rows.size());
      out.push_back(Event::Delete(rel, rows[pick]));
      rows.erase(rows.begin() + static_cast<long>(pick));
      continue;
    }
    const Schema* schema = catalog.FindRelation(rel);
    Row tuple;
    for (size_t c = 0; c < schema->num_columns(); ++c) {
      tuple.push_back(FragmentValue(&rng, schema->column_type(c)));
    }
    rows.push_back(tuple);
    out.push_back(Event::Insert(rel, std::move(tuple)));
  }
  return out;
}

std::unique_ptr<dbt::StreamProgram> FragmentProgram(const std::string& name) {
  if (name == "q3s") return std::make_unique<dbtoaster_gen::q3s_Program>();
  if (name == "q6s") return std::make_unique<dbtoaster_gen::q6s_Program>();
  if (name == "q12s") return std::make_unique<dbtoaster_gen::q12s_Program>();
  if (name == "q13s") return std::make_unique<dbtoaster_gen::q13s_Program>();
  return nullptr;
}

void RunFragmentSweep(bool quick) {
  const double kBudget = quick ? 0.1 : 0.6;  // s per (query, engine, batch)
  const size_t kBatchSizes[] = {1, 256};

  std::printf(
      "\n== events/sec on the grown SQL fragment (LEFT JOIN / HAVING / "
      "CASE / IN / LIKE / dates) ==\n");
  std::printf("%-8s %-12s", "query", "engine");
  for (size_t bs : kBatchSizes) std::printf(" %13s=%-4zu", "batch", bs);
  std::printf("\n%s\n", std::string(56, '-').c_str());

  const char* kQueries[] = {"q3s", "q6s", "q12s", "q13s"};
  for (size_t qi = 0; qi < std::size(kQueries); ++qi) {
    const char* name = kQueries[qi];
    const std::string path =
        std::string(DBT_QUERY_DIR) + "/" + name + ".sql";
    std::ifstream f(path);
    if (!f.good()) {
      std::fprintf(stderr, "missing query script %s\n", path.c_str());
      continue;
    }
    std::stringstream ss;
    ss << f.rdbuf();
    auto script = sql::ParseScript(ss.str());
    if (!script.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   script.status().ToString().c_str());
      continue;
    }
    Catalog catalog;
    for (const auto& t : script.value().tables) {
      (void)catalog.AddRelation(t);
    }
    const std::string sql = script.value().queries[0].select->ToString();
    // Seed from the query index: distinct per query, stable across
    // machines and checkout paths.
    std::vector<Event> events = FragmentStream(
        catalog, quick ? 20000 : 150000, 0xf7a9 + qi * 0x9e3779b97f4aULL);

    for (const char* engine_name :
         {"toaster-i", "ivm1", "reeval", "toaster-c"}) {
      std::printf("%-8s %-12s", name, engine_name);
      for (size_t bs : kBatchSizes) {
        std::unique_ptr<dbt::StreamProgram> generated =
            FragmentProgram(name);
        std::unique_ptr<runtime::StreamEngine> engine =
            MakeBakeoffEngine(engine_name, catalog, sql, generated.get());
        if (engine == nullptr) {
          std::printf(" %18s", "n/a");
          continue;
        }
        auto [n, s] = TimedBatchRun(events, kBudget, bs, engine.get());
        double rate = s > 0 ? static_cast<double>(n) / s : 0;
        g_cells.push_back(Cell{std::string("fragment-") + name, engine_name,
                               bs, 1, n, s});
        std::printf(" %18.0f", rate);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nshape check: the compiled engines ingest the new fragment at "
      "delta-processing\nrates; ivm1 reports n/a on LEFT JOIN (first-order "
      "deltas cannot maintain the\nunmatched branch) and reeval pays a full "
      "re-evaluation per batch.\n");
}

// Parse a checked-in bench query script into its catalog (schema only; the
// generated program supplies the maintenance logic).
bool LoadQueryCatalog(const char* name, Catalog* catalog) {
  const std::string path = std::string(DBT_QUERY_DIR) + "/" + name + ".sql";
  std::ifstream f(path);
  if (!f.good()) {
    std::fprintf(stderr, "missing query script %s\n", path.c_str());
    return false;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  auto script = sql::ParseScript(ss.str());
  if (!script.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 script.status().ToString().c_str());
    return false;
  }
  for (const auto& t : script.value().tables) (void)catalog->AddRelation(t);
  return true;
}

// Axis 2c — the predicate-heavy fragment queries on the columnar batch
// path: the acceptance meter for the vectorized-selection prologue. Each
// query's generated program ingests its own seeded random stream at batch
// {256, 4096}; the selection counters (selected_rows / probe_runs) land in
// the JSON.
void RunSelectionPrologueSweep(bool quick) {
  const double kBudget = quick ? 0.1 : 0.6;  // s per (query, batch)
  const size_t kBatchSizes[] = {256, 4096};

  std::printf(
      "\n== events/sec on predicate-heavy queries (toaster-c, columnar "
      "batches) ==\n");
  std::printf("%-8s", "query");
  for (size_t bs : kBatchSizes) std::printf(" %13s=%-4zu", "batch", bs);
  std::printf("\n%s\n", std::string(46, '-').c_str());

  const char* kQueries[] = {"q3s", "q6s", "q12s"};
  for (size_t qi = 0; qi < std::size(kQueries); ++qi) {
    const char* name = kQueries[qi];
    Catalog catalog;
    if (!LoadQueryCatalog(name, &catalog)) continue;
    std::vector<Event> events = FragmentStream(
        catalog, quick ? 20000 : 150000, 0x5e1ec7 + qi * 0x9e3779b97f4aULL);
    std::printf("%-8s", name);
    for (size_t bs : kBatchSizes) {
      std::unique_ptr<dbt::StreamProgram> generated = FragmentProgram(name);
      runtime::CompiledProgramEngine engine(generated.get());
      auto [n, s] = TimedBatchRun(events, kBudget, bs, &engine);
      Cell cell{std::string("prologue-") + name, engine.Name(), bs, 1, n, s};
      cell.selected_rows = generated->selected_rows();
      cell.probe_runs = generated->probe_runs();
      g_cells.push_back(cell);
      std::printf(" %18.0f", s > 0 ? static_cast<double>(n) / s : 0);
    }
    std::printf("\n");
  }
  std::printf(
      "\nshape check: selection passes + run-batched probes make "
      "low-selectivity\nqueries cheaper per event; batched and per-event "
      "replay stay byte-identical\n(tests/differential_test.cc).\n");
}

// Axis 5 — selectivity: q6s with its shipdate guard's hit-rate dialed from
// 0%% to 100%% (the other predicates always pass). The columnar path's
// selection prologue makes skipped rows nearly free.
void RunSelectivitySweep(bool quick) {
  Catalog catalog;
  if (!LoadQueryCatalog("q6s", &catalog)) return;
  const double kBudget = quick ? 0.1 : 0.6;  // s per hit-rate cell
  const size_t kBatch = 4096;
  const double kHitRates[] = {0.0, 0.25, 0.5, 0.75, 1.0};

  // LINEITEM(orderkey, quantity, extendedprice, discount, shipdate):
  // quantity < 24, discount in [0.05, 0.07] always hold; shipdate lands in
  // [1994-01-01, 1995-01-01) with probability `hit`.
  const int64_t in_lo = CivilToDays(1994, 1, 1);
  const int64_t in_hi = CivilToDays(1995, 1, 1);
  auto make_stream = [&](double hit) {
    Rng rng(0xbadd1ce + static_cast<uint64_t>(hit * 1000));
    std::vector<Event> out;
    const size_t n = quick ? 20000 : 150000;
    out.reserve(n);
    static const double kDisc[] = {0.05, 0.06, 0.07};
    for (size_t i = 0; i < n; ++i) {
      const int64_t date = rng.Chance(hit)
                               ? in_lo + rng.Range(0, in_hi - in_lo - 1)
                               : in_hi + rng.Range(0, 364);
      Row tuple{Value(rng.Range(0, 63)), Value(rng.Range(0, 23)),
                Value(20.0), Value(kDisc[rng.Uniform(std::size(kDisc))]),
                Value(date)};
      out.push_back(Event::Insert("LINEITEM", std::move(tuple)));
    }
    return out;
  };

  std::printf(
      "\n== events/sec vs predicate hit-rate (q6s shipdate guard, batch "
      "%zu) ==\n", kBatch);
  for (double h : kHitRates) std::printf(" %11s=%-3.0f%%", "hit", h * 100);
  std::printf("\n%s\n", std::string(80, '-').c_str());

  for (double hit : kHitRates) {
    std::vector<Event> events = make_stream(hit);
    std::unique_ptr<dbt::StreamProgram> generated = FragmentProgram("q6s");
    runtime::CompiledProgramEngine engine(generated.get());
    auto [n, s] = TimedBatchRun(events, kBudget, kBatch, &engine);
    Cell cell{"selectivity-q6s", engine.Name(), kBatch, 1, n, s};
    cell.selectivity = hit;
    cell.selected_rows = generated->selected_rows();
    cell.probe_runs = generated->probe_runs();
    g_cells.push_back(cell);
    std::printf(" %16.0f", s > 0 ? static_cast<double>(n) / s : 0);
  }
  std::printf("\n");
  std::printf(
      "\nshape check: the columnar rate rises as selectivity drops "
      "(skipped rows\ncost one branch-free lane compare); selected_rows "
      "in the JSON tracks the\nhit-rate linearly.\n");
}

bool WriteJson(const std::string& path) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  f << "[\n";
  for (size_t i = 0; i < g_cells.size(); ++i) {
    const Cell& c = g_cells[i];
    f << "  {\"sweep\": \"" << c.sweep << "\", \"engine\": \"" << c.engine
      << "\", \"batch\": " << c.batch << ", \"threads\": " << c.threads
      << ", \"events\": " << c.events << ", \"seconds\": " << c.seconds
      << ", \"events_per_sec\": " << c.Rate();
    if (c.selectivity >= 0) f << ", \"selectivity\": " << c.selectivity;
    f << ", \"selected_rows\": " << c.selected_rows
      << ", \"probe_runs\": " << c.probe_runs << "}"
      << (i + 1 < g_cells.size() ? "," : "") << "\n";
  }
  f << "]\n";
  f.flush();
  if (!f) {
    std::fprintf(stderr, "write to %s failed\n", path.c_str());
    return false;
  }
  std::printf("\nwrote %s (%zu cells)\n", path.c_str(), g_cells.size());
  return true;
}

}  // namespace
}  // namespace dbtoaster::bench

int main(int argc, char** argv) {
  // --quick: small stream + tight budgets, for the CI perf-smoke step
  // (asserts the benches still build and run, not timing thresholds).
  bool quick = false;
  std::string out_path = "BENCH_update_mix.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out <path>]\n", argv[0]);
      return 2;
    }
  }
  dbtoaster::bench::RunMixSweep(quick);
  dbtoaster::bench::RunBatchSweep(quick);
  dbtoaster::bench::RunThreadSweep(quick);
  dbtoaster::bench::RunFragmentSweep(quick);
  dbtoaster::bench::RunSelectionPrologueSweep(quick);
  dbtoaster::bench::RunSelectivitySweep(quick);
  return dbtoaster::bench::WriteJson(out_path) ? 0 : 1;
}
