// §4.2 bakeoff, financial application (order book trading).
//
// Reproduces the paper's DBMS-bakeoff table for the finance queries: tuple
// throughput per engine on the synthetic TotalView-style order-book stream.
//   reeval    — full re-evaluation per delta (PostgreSQL / HSQLDB / DBMS 'A'
//               architecture class)
//   ivm1      — first-order IVM with indexed delta queries (STREAM /
//               commercial stream processor 'B' class)
//   toaster-i — DBToaster's recursive compilation, trigger interpreter
//   toaster-c — DBToaster's generated C++ (dbtc, compiled into this binary)
//
// All four run behind the unified StreamEngine API (the compiled programs
// through the dbt::StreamProgram string-dispatch shim).
//
// Expected shape (the paper claims 1–3 orders of magnitude): toaster-c >>
// toaster-i > ivm1 >> reeval; VWAP is n/a for ivm1 (nested aggregates) and
// reeval collapses on it.
#include <functional>
#include <memory>

#include "bench/bench_common.h"
#include "bench/gen/vwap.hpp"
#include "bench/gen/sobi_bids.hpp"
#include "bench/gen/mm.hpp"
#include "bench/gen/best_bid.hpp"
#include "src/workload/orderbook.h"

namespace dbtoaster::bench {
namespace {

struct QuerySpec {
  std::string name;
  std::string sql;
  std::function<std::unique_ptr<dbt::StreamProgram>()> compiled;
};

/// Prints the bakeoff table; returns the number of rejected events.
size_t Run() {
  Catalog catalog = workload::OrderBookCatalog();
  workload::OrderBookGenerator gen;
  std::vector<Event> events = gen.Generate(400000);
  const double kBudget = 2.0;  // seconds per (engine, query) cell

  std::vector<QuerySpec> queries = {
      {"vwap", workload::VwapQuery(),
       [] { return std::make_unique<dbtoaster_gen::vwap_Program>(); }},
      {"sobi_bids", workload::SobiBidLeg(),
       [] { return std::make_unique<dbtoaster_gen::sobi_bids_Program>(); }},
      {"market_maker", workload::MarketMakerQuery(),
       [] { return std::make_unique<dbtoaster_gen::mm_Program>(); }},
      {"best_bid", workload::BestBidQuery(),
       [] { return std::make_unique<dbtoaster_gen::best_bid_Program>(); }},
  };

  PrintHeader("finance bakeoff (order book stream)");
  size_t rejected = 0;
  for (const QuerySpec& q : queries) {
    std::unique_ptr<dbt::StreamProgram> program = q.compiled();
    rejected += RunBakeoffQuery(catalog, q.name, q.sql, program.get(), events,
                                kBudget);
  }
  std::printf(
      "\nshape check: expect toaster-c >> toaster-i > ivm1 >> reeval;\n"
      "vwap: ivm1 n/a (nested aggregates need recursive compilation).\n");
  return rejected;
}

}  // namespace
}  // namespace dbtoaster::bench

int main() {
  // A rejected event is timed but does no work: the table would be wrong.
  return dbtoaster::bench::Run() == 0 ? 0 : 1;
}
