// Shared helpers for the bakeoff benchmark binaries: the standard engine
// lineup behind the unified StreamEngine API, time-budgeted event/batch
// runs that count rejected ingest calls, and table printing.
#ifndef DBTOASTER_BENCH_BENCH_COMMON_H_
#define DBTOASTER_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/baseline/ivm1_engine.h"
#include "src/baseline/reeval_engine.h"
#include "src/compiler/compile.h"
#include "src/runtime/engine.h"
#include "src/runtime/stream_engine.h"
#include "src/storage/table.h"

namespace dbtoaster::bench {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One time-budgeted run: the events fed, the wall time, and the ingest
/// calls the engine refused with a non-OK Status (a refused event is still
/// counted in `events`, so a run with rejections measures nothing).
struct Timed {
  size_t events = 0;
  double seconds = 0;
  size_t rejected = 0;
};

struct RunResult {
  std::string engine;
  std::string query;
  size_t events = 0;
  double seconds = 0;
  size_t rejected = 0;
  size_t state_bytes = 0;
  bool supported = true;

  double EventsPerSec() const {
    return seconds > 0 ? static_cast<double>(events) / seconds : 0;
  }
};

/// Drive any StreamEngine one event at a time until the stream ends or
/// `budget_s` elapses. Checks the clock every 64 events so slow engines
/// stop promptly and fast engines aren't timer-bound.
inline Timed TimedEngineRun(const std::vector<Event>& events, double budget_s,
                            runtime::StreamEngine* engine) {
  Timed out;
  const double start = NowSeconds();
  while (out.events < events.size()) {
    if (!engine->OnEvent(events[out.events++]).ok()) ++out.rejected;
    if ((out.events & 63u) == 0 && NowSeconds() - start > budget_s) break;
  }
  out.seconds = NowSeconds() - start;
  return out;
}

/// Drive any StreamEngine in batches of `batch_size` events. Batch assembly
/// is inside the measured loop (it is part of the ingestion cost); the
/// clock is checked every >= 64 events regardless of batch size so small
/// batches aren't timer-bound.
inline Timed TimedBatchRun(const std::vector<Event>& events, double budget_s,
                           size_t batch_size, runtime::StreamEngine* engine) {
  Timed out;
  const double start = NowSeconds();
  size_t i = 0, next_check = 63;
  while (i < events.size()) {
    runtime::EventBatch batch;
    size_t end = std::min(events.size(), i + batch_size);
    for (; i < end; ++i) {
      batch.Add(events[i].kind, events[i].relation, events[i].tuple);
    }
    if (!engine->ApplyBatch(std::move(batch)).ok()) ++out.rejected;
    if (i > next_check) {
      if (NowSeconds() - start > budget_s) break;
      next_check = i + 63;
    }
  }
  out.events = i;
  out.seconds = NowSeconds() - start;
  return out;
}

/// One engine of the standard bakeoff lineup; `engine` is null when the
/// architecture class cannot support the query (printed as "n/a").
struct BakeoffEntry {
  std::string name;
  std::unique_ptr<runtime::StreamEngine> engine;
};

/// Build one engine of the standard lineup by name ("reeval", "ivm1",
/// "toaster-i", "toaster-c"); null when the architecture class cannot
/// support the query. `compiled` is required only for "toaster-c".
inline std::unique_ptr<runtime::StreamEngine> MakeBakeoffEngine(
    const std::string& name, const Catalog& catalog, const std::string& sql,
    dbt::StreamProgram* compiled = nullptr) {
  if (name == "reeval") {
    auto e = std::make_unique<baseline::ReevalEngine>(catalog, /*eager=*/true);
    if (!e->AddQuery("q", sql).ok()) return nullptr;
    return e;
  }
  if (name == "ivm1") {
    auto e = std::make_unique<baseline::Ivm1Engine>(catalog);
    if (!e->AddQuery("q", sql).ok()) return nullptr;
    return e;
  }
  if (name == "toaster-i") {
    auto program = compiler::CompileQuery(catalog, "q", sql);
    if (!program.ok()) return nullptr;
    return std::make_unique<runtime::Engine>(std::move(program).value());
  }
  if (name == "toaster-c" && compiled != nullptr) {
    return std::make_unique<runtime::CompiledProgramEngine>(compiled);
  }
  return nullptr;
}

/// The four architecture classes of the §4.2 bakeoff, all behind the same
/// StreamEngine interface. `compiled` (a dbtc-generated program) may be
/// null to omit the toaster-c row.
inline std::vector<BakeoffEntry> MakeBakeoffEngines(
    const Catalog& catalog, const std::string& sql,
    dbt::StreamProgram* compiled = nullptr) {
  std::vector<BakeoffEntry> out;
  for (const char* name : {"reeval", "ivm1", "toaster-i"}) {
    out.push_back({name, MakeBakeoffEngine(name, catalog, sql)});
  }
  if (compiled != nullptr) {
    out.push_back(
        {"toaster-c", MakeBakeoffEngine("toaster-c", catalog, sql, compiled)});
  }
  return out;
}

/// The events of `events` on relations the compiled program declares: the
/// one stream all four engines of a bakeoff row are fed, so no engine is
/// timed on events another one refuses.
inline std::vector<Event> DeclaredEvents(const std::vector<Event>& events,
                                         const dbt::StreamProgram& program) {
  std::set<std::string> declared;
  for (const dbt::RelationSchema& r : program.relation_schemas()) {
    declared.insert(r.name);
  }
  std::vector<Event> out;
  for (const Event& ev : events) {
    if (declared.count(ev.relation) != 0) out.push_back(ev);
  }
  return out;
}

inline void PrintHeader(const char* title) {
  std::printf("\n== %s ==\n", title);
  std::printf("%-14s %-12s %12s %10s %14s %14s\n", "query", "engine",
              "events", "seconds", "events/sec", "state KiB");
  std::printf("%s\n", std::string(82, '-').c_str());
}

inline void PrintRow(const RunResult& r) {
  if (!r.supported) {
    std::printf("%-14s %-12s %12s %10s %14s %14s\n", r.query.c_str(),
                r.engine.c_str(), "-", "-", "n/a", "-");
    return;
  }
  std::printf("%-14s %-12s %12zu %10.3f %14.0f %14.1f\n", r.query.c_str(),
              r.engine.c_str(), r.events, r.seconds, r.EventsPerSec(),
              static_cast<double>(r.state_bytes) / 1024.0);
  if (r.rejected > 0) {
    std::fprintf(stderr, "%s %s: %zu of %zu events rejected\n",
                 r.query.c_str(), r.engine.c_str(), r.rejected, r.events);
  }
}

/// Time every engine of the lineup on one query, one event at a time over
/// the events its compiled program declares, and print a row per engine.
/// Returns the number of events the engines rejected.
inline size_t RunBakeoffQuery(const Catalog& catalog, const std::string& query,
                              const std::string& sql,
                              dbt::StreamProgram* compiled,
                              const std::vector<Event>& events,
                              double budget_s) {
  const std::vector<Event> stream = DeclaredEvents(events, *compiled);
  size_t rejected = 0;
  for (BakeoffEntry& entry : MakeBakeoffEngines(catalog, sql, compiled)) {
    RunResult r{.engine = entry.name, .query = query};
    if (entry.engine != nullptr) {
      const Timed t = TimedEngineRun(stream, budget_s, entry.engine.get());
      r.events = t.events;
      r.seconds = t.seconds;
      r.rejected = t.rejected;
      r.state_bytes = entry.engine->StateBytes();
      rejected += t.rejected;
    } else {
      r.supported = false;
    }
    PrintRow(r);
  }
  return rejected;
}

}  // namespace dbtoaster::bench

#endif  // DBTOASTER_BENCH_BENCH_COMMON_H_
