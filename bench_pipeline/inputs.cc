#include "inputs.h"

#include <deque>
#include <map>
#include <string>

#include "src/common/rng.h"
#include "src/common/value.h"

namespace dbtoaster::pipeline {

namespace {

Value FragmentValue(Rng* rng, Type type) {
  switch (type) {
    case Type::kInt:
      return Value(rng->Range(0, 63));
    case Type::kDouble: {
      static const double kPool[] = {0.04, 0.05, 0.06, 0.07, 0.10, 1.5, 20.0};
      return Value(kPool[rng->Uniform(std::size(kPool))]);
    }
    case Type::kString: {
      static const char* kPool[] = {"BUILDING",   "AUTOMOBILE",
                                    "MAIL",       "SHIP",
                                    "RAIL",       "1-URGENT",
                                    "2-HIGH",     "3-MEDIUM",
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

}  // namespace

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
      const size_t pick = rng.Uniform(rows.size());
      out.push_back(Event::Delete(rel, rows[pick]));
      rows[pick] = std::move(rows.back());
      rows.pop_back();
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

std::vector<Event> DashboardStream(size_t n, size_t window, uint64_t seed) {
  constexpr int64_t kCustomers = 2000;
  static const char* kSegments[] = {"BUILDING", "AUTOMOBILE", "MACHINERY",
                                    "HOUSEHOLD", "FURNITURE"};
  Rng rng(seed);
  std::vector<Event> out;
  out.reserve(n + 16);
  // Segments round-robin: every seed has the same 400 BUILDING customers'
  // worth of view rows to publish.
  for (int64_t c = 1; c <= kCustomers; ++c) {
    out.push_back(Event::Insert(
        "CUSTOMER",
        {Value(c), Value(std::string(kSegments[c % std::size(kSegments)]))}));
  }
  // Order dates straddle the query's 1995-03-15 cutoff; ship dates trail
  // them by up to two months, so about a tenth of live orders are unshipped
  // BUILDING orders and show in the view.
  const int64_t cutoff = CivilToDays(1995, 3, 15);
  struct Order {
    Row order;
    std::vector<Row> lines;
  };
  std::deque<Order> live;
  int64_t next_key = 1;
  while (out.size() < n) {
    Order o;
    const int64_t key = next_key++;
    const int64_t date = cutoff - 60 + rng.Range(0, 89);
    o.order = {Value(key), Value(rng.Range(1, kCustomers)), Value(date),
               Value(int64_t{0})};
    out.push_back(Event::Insert("ORDERS", o.order));
    const int64_t lines = rng.Range(1, 7);
    for (int64_t l = 0; l < lines; ++l) {
      Row line{Value(key), Value(rng.Range(90000, 10500000) / 100.0),
               Value(rng.Range(0, 10) / 100.0),
               Value(date + rng.Range(1, 60))};
      out.push_back(Event::Insert("LINEITEM", line));
      o.lines.push_back(std::move(line));
    }
    live.push_back(std::move(o));
    if (live.size() > window) {
      for (Row& line : live.front().lines) {
        out.push_back(Event::Delete("LINEITEM", std::move(line)));
      }
      out.push_back(Event::Delete("ORDERS", std::move(live.front().order)));
      live.pop_front();
    }
  }
  out.erase(out.begin() + static_cast<long>(n), out.end());
  return out;
}

}  // namespace dbtoaster::pipeline
