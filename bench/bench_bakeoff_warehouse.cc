// §4.2 bakeoff, data-warehouse loading application.
//
// Reproduces the paper's combined loading + analysis experiment: the TPC-H-
// shaped update stream flows through SSB Q4.1 (the data-integration 5-way
// join and the aggregation compiled together) and a simpler revenue rollup,
// across the four engine architectures — all behind the unified
// StreamEngine API.
#include <functional>
#include <memory>

#include "bench/bench_common.h"
#include "bench/gen/q41.hpp"
#include "bench/gen/revenue.hpp"
#include "src/workload/tpch.h"

namespace dbtoaster::bench {
namespace {

/// Prints the bakeoff table; returns the number of rejected events.
size_t Run() {
  Catalog catalog = workload::TpchCatalog();
  workload::TpchGenerator gen;
  std::vector<Event> events = gen.Generate(400000);
  const double kBudget = 2.0;

  struct QuerySpec {
    std::string name;
    std::string sql;
    std::function<std::unique_ptr<dbt::StreamProgram>()> compiled;
  };
  std::vector<QuerySpec> queries = {
      {"ssb_q41", workload::SsbQ41Query(),
       [] { return std::make_unique<dbtoaster_gen::q41_Program>(); }},
      {"revenue", workload::RevenueByYearQuery(),
       [] { return std::make_unique<dbtoaster_gen::revenue_Program>(); }},
  };

  PrintHeader("warehouse bakeoff (TPC-H -> SSB loading stream)");
  size_t rejected = 0;
  for (const QuerySpec& q : queries) {
    std::unique_ptr<dbt::StreamProgram> program = q.compiled();
    rejected += RunBakeoffQuery(catalog, q.name, q.sql, program.get(), events,
                                kBudget);
  }
  std::printf(
      "\nshape check: compiling integration+aggregation together lets the\n"
      "toaster engines sustain loading rates the interpreter classes "
      "cannot.\n");
  return rejected;
}

}  // namespace
}  // namespace dbtoaster::bench

int main() {
  // A rejected event is timed but does no work: the table would be wrong.
  return dbtoaster::bench::Run() == 0 ? 0 : 1;
}
