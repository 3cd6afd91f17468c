// Seeded input streams of the workloads that the src/workload generators do
// not provide. Every stream is well formed: a delete names a tuple that is
// live at that point of the stream.
#ifndef DBTOASTER_BENCH_PIPELINE_INPUTS_H_
#define DBTOASTER_BENCH_PIPELINE_INPUTS_H_

#include <cstdint>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/storage/table.h"

namespace dbtoaster::pipeline {

/// Random inserts over `catalog`'s relations, 30% of events deleting a live
/// tuple instead; typed values from small pools so joins hit and the
/// fragment queries' predicates stay partially selective.
std::vector<Event> FragmentStream(const Catalog& catalog, size_t n,
                                  uint64_t seed);

/// An "unshipped orders" dashboard feed over bench/queries/q3s.sql's schema:
/// 2,000 CUSTOMER rows, then ORDERS with growing ORDERKEYs, each followed by
/// its 1-7 LINEITEMs. Once `window` orders are live, each new order evicts
/// the oldest one (its LINEITEMs, then the order). Exactly `n` events.
std::vector<Event> DashboardStream(size_t n, size_t window, uint64_t seed);

}  // namespace dbtoaster::pipeline

#endif  // DBTOASTER_BENCH_PIPELINE_INPUTS_H_
