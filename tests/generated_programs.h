// The dbtc-generated program of every checked-in bench query, by script
// name, for tests that drive toaster-c through CompiledProgramEngine.
#ifndef DBTOASTER_TESTS_GENERATED_PROGRAMS_H_
#define DBTOASTER_TESTS_GENERATED_PROGRAMS_H_

#include <memory>
#include <string>

#include "bench/gen/best_bid.hpp"
#include "bench/gen/mm.hpp"
#include "bench/gen/q12s.hpp"
#include "bench/gen/q13s.hpp"
#include "bench/gen/q3s.hpp"
#include "bench/gen/q41.hpp"
#include "bench/gen/q6s.hpp"
#include "bench/gen/revenue.hpp"
#include "bench/gen/selall.hpp"
#include "bench/gen/selhalf.hpp"
#include "bench/gen/selzero.hpp"
#include "bench/gen/sobi_bids.hpp"
#include "bench/gen/vwap.hpp"

namespace dbtoaster {

/// A fresh generated program for bench query `name` (nullptr if unknown).
inline std::unique_ptr<dbt::StreamProgram> MakeGenerated(
    const std::string& name) {
  using namespace dbtoaster_gen;
  if (name == "vwap") return std::make_unique<vwap_Program>();
  if (name == "sobi_bids") return std::make_unique<sobi_bids_Program>();
  if (name == "mm") return std::make_unique<mm_Program>();
  if (name == "best_bid") return std::make_unique<best_bid_Program>();
  if (name == "q41") return std::make_unique<q41_Program>();
  if (name == "revenue") return std::make_unique<revenue_Program>();
  if (name == "q3s") return std::make_unique<q3s_Program>();
  if (name == "q6s") return std::make_unique<q6s_Program>();
  if (name == "q12s") return std::make_unique<q12s_Program>();
  if (name == "q13s") return std::make_unique<q13s_Program>();
  if (name == "selzero") return std::make_unique<selzero_Program>();
  if (name == "selhalf") return std::make_unique<selhalf_Program>();
  if (name == "selall") return std::make_unique<selall_Program>();
  return nullptr;
}

}  // namespace dbtoaster

#endif  // DBTOASTER_TESTS_GENERATED_PROGRAMS_H_
