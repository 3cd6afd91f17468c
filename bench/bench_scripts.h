// Shared by the tests and tools that replay the checked-in bench queries
// (bench/queries/*.sql, found through the DBT_QUERY_DIR compile
// definition): each script's catalog and single query, and seeded
// insert/delete streams over a catalog, pre-split into batches.
#ifndef DBTOASTER_BENCH_BENCH_SCRIPTS_H_
#define DBTOASTER_BENCH_BENCH_SCRIPTS_H_

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/common/rng.h"
#include "src/runtime/stream_engine.h"
#include "src/sql/parser.h"

namespace dbtoaster {

struct ScriptCase {
  std::string name;
  Catalog catalog;
  std::string sql;
};

/// Parse bench/queries/<name>.sql into `out`; false, with the reason on
/// stderr, when the script is missing or malformed or does not hold
/// exactly one query.
inline bool LoadScript(const std::string& name, ScriptCase* out) {
  out->name = name;
  const std::string path = std::string(DBT_QUERY_DIR) + "/" + name + ".sql";
  std::ifstream f(path);
  if (!f.good()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
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
  for (const sql::CreateTableStmt& t : script.value().tables) {
    if (!out->catalog.AddRelation(t).ok()) return false;
  }
  if (script.value().queries.size() != 1) {
    std::fprintf(stderr, "%s: expected exactly one query\n", path.c_str());
    return false;
  }
  out->sql = script.value().queries[0].select->ToString();
  return true;
}

/// Returning form for tests: a script that fails to load leaves `sql`
/// empty, so the test fails where it compiles the query.
inline ScriptCase LoadScript(const std::string& name) {
  ScriptCase out;
  LoadScript(name, &out);
  return out;
}

/// Typed random values: small domains so joins hit, predicates stay
/// partially selective, and deletions find prior inserts.
inline Value RandomValue(Rng* rng, Type type) {
  switch (type) {
    case Type::kInt:
      return Value(rng->Range(0, 7));
    case Type::kDouble: {
      static const double kPool[] = {0.04, 0.05, 0.06, 0.07, 0.10, 1.5, 20.0};
      return Value(kPool[rng->Uniform(std::size(kPool))]);
    }
    case Type::kString: {
      // Includes the literals the queries compare against, plus strings
      // around the LIKE pattern boundaries.
      static const char* kPool[] = {
          "BUILDING",        "AUTOMOBILE",
          "MAIL",            "SHIP",
          "RAIL",            "1-URGENT",
          "2-HIGH",          "3-MEDIUM",
          "no remarks",      "customer special requests noted",
          "special requests", "requests special"};
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

/// Seeded mixed insert/delete stream over the catalog, pre-split into
/// batches whose sizes cycle through {1, 7, 64, 150}, straddling
/// dbt::kShardBatchCutoff (deletes always target live tuples).
inline std::vector<runtime::EventBatch> MakeStream(const Catalog& catalog,
                                                   uint64_t seed,
                                                   size_t num_batches) {
  Rng rng(seed);
  std::map<std::string, std::vector<Row>> live;
  std::vector<std::string> rels;
  for (const Schema& s : catalog.relations()) rels.push_back(s.name());
  const size_t kBatchSizes[] = {1, 7, 64, 150};
  std::vector<runtime::EventBatch> batches(num_batches);
  for (size_t b = 0; b < num_batches; ++b) {
    const size_t batch_size = kBatchSizes[b % std::size(kBatchSizes)];
    for (size_t ev = 0; ev < batch_size; ++ev) {
      const std::string& rel = rels[rng.Uniform(rels.size())];
      std::vector<Row>& rows = live[rel];
      if (!rows.empty() && rng.Chance(0.35)) {
        size_t pick = rng.Uniform(rows.size());
        Row victim = rows[pick];
        rows.erase(rows.begin() + static_cast<long>(pick));
        batches[b].AddDelete(rel, victim);
      } else {
        const Schema* schema = catalog.FindRelation(rel);
        Row tuple;
        for (size_t c = 0; c < schema->num_columns(); ++c) {
          tuple.push_back(RandomValue(&rng, schema->column_type(c)));
        }
        rows.push_back(tuple);
        batches[b].AddInsert(rel, tuple);
      }
    }
  }
  return batches;
}

/// The events of a batch, in its group order.
inline std::vector<Event> EventsOf(const runtime::EventBatch& batch) {
  std::vector<Event> out;
  for (const runtime::EventBatch::Group& g : batch.groups()) {
    for (size_t i = 0; i < g.rows; ++i) {
      out.push_back(Event{g.kind, g.relation, g.RowAt(i)});
    }
  }
  return out;
}

}  // namespace dbtoaster

#endif  // DBTOASTER_BENCH_BENCH_SCRIPTS_H_
