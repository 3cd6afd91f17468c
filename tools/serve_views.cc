// Multi-reader view-serving driver: measures writer throughput and publish
// latency while N snapshot readers and a delta subscriber run concurrently,
// quantifying reader/writer interference on the concurrent serving tier.
//
// For each reader count the driver replays the same seeded stream through a
// fresh engine with serving enabled, spins the readers on Snapshot()
// (verifying epoch monotonicity), polls one subscriber's delta stream, and
// reports:
//
//   - writer batches/s and mean per-batch latency (ingest + publish)
//   - reader snapshot reads/s (aggregate across readers)
//   - subscriber deltas received and total delta rows
//
// The readers=0 row plus the serving-off baseline isolate the cost of the
// publish section itself. Exit status is non-zero if any reader observes a
// non-monotonic epoch or the writer fails.
//
//   serve_views [--engine=toaster-i|toaster-c] [--batches=N] [--rows=N]
//               [--readers=0,1,2,8] [--seed=S]
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_scripts.h"
#include "bench/gen/mm.hpp"
#include "src/common/rng.h"
#include "src/compiler/compile.h"
#include "src/runtime/engine.h"
#include "src/runtime/stream_engine.h"
#include "src/sql/parser.h"

namespace dbtoaster {
namespace {

using runtime::EventBatch;
using runtime::StreamEngine;
using runtime::ViewSnapshot;
using runtime::ViewSubscriber;

/// Seeded mixed insert/delete stream; all-int mm columns, bounded key space
/// so views stay small while churn stays high.
std::vector<EventBatch> MakeStream(const Catalog& catalog, uint64_t seed,
                                   size_t num_batches, size_t rows_per_batch) {
  Rng rng(seed);
  std::map<std::string, std::vector<Row>> live;
  std::vector<std::string> rels;
  for (const Schema& s : catalog.relations()) rels.push_back(s.name());
  std::vector<EventBatch> batches(num_batches);
  for (size_t b = 0; b < num_batches; ++b) {
    for (size_t ev = 0; ev < rows_per_batch; ++ev) {
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
          tuple.push_back(Value(rng.Range(0, 63)));
        }
        rows.push_back(tuple);
        batches[b].AddInsert(rel, tuple);
      }
    }
  }
  return batches;
}

struct EngineInstance {
  std::unique_ptr<dbt::StreamProgram> program;
  std::unique_ptr<StreamEngine> engine;
  std::string view;
};

bool MakeEngine(const std::string& kind, const ScriptCase& sc,
                EngineInstance* out) {
  if (kind == "toaster-i") {
    auto program = compiler::CompileQuery(sc.catalog, "q", sc.sql);
    if (!program.ok()) {
      std::fprintf(stderr, "compile: %s\n",
                   program.status().ToString().c_str());
      return false;
    }
    out->engine = std::make_unique<runtime::Engine>(std::move(program).value());
    out->view = "q";
    return true;
  }
  if (kind == "toaster-c") {
    out->program = std::make_unique<dbtoaster_gen::mm_Program>();
    out->engine =
        std::make_unique<runtime::CompiledProgramEngine>(out->program.get());
    out->view = "q0";
    return true;
  }
  std::fprintf(stderr, "unknown engine kind '%s'\n", kind.c_str());
  return false;
}

struct RunResult {
  bool ok = false;
  double writer_secs = 0;
  uint64_t snapshot_reads = 0;
  uint64_t deltas = 0;
  uint64_t delta_rows = 0;
};

RunResult RunConfig(const std::string& kind, const ScriptCase& sc,
                    const std::vector<EventBatch>& stream, size_t num_readers,
                    bool serve) {
  RunResult out;
  EngineInstance inst;
  if (!MakeEngine(kind, sc, &inst)) return out;
  StreamEngine* engine = inst.engine.get();
  if (serve && !engine->EnableServing().ok()) return out;

  std::atomic<bool> done{false};
  std::atomic<bool> reader_error{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(num_readers);
  for (size_t r = 0; r < num_readers; ++r) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      uint64_t n = 0;
      while (!done.load(std::memory_order_acquire)) {
        ViewSnapshot snap = engine->Snapshot();
        if (!snap.valid() || snap.epoch() < last) {
          reader_error.store(true);
          break;
        }
        last = snap.epoch();
        ++n;
      }
      reads.fetch_add(n);
    });
  }

  ViewSubscriber sub;
  std::thread sub_thread;
  std::atomic<uint64_t> deltas{0}, delta_rows{0};
  if (serve) {
    auto s = engine->Subscribe();
    if (!s.ok()) {
      done.store(true);
      for (auto& t : readers) t.join();
      return out;
    }
    sub = std::move(s).value();
    sub_thread = std::thread([&] {
      while (!done.load(std::memory_order_acquire)) {
        for (const auto& d : sub.Poll()) {
          deltas.fetch_add(1);
          for (const auto& v : d->views) {
            delta_rows.fetch_add(v.added.size() + v.removed.size());
          }
        }
        std::this_thread::yield();
      }
      for (const auto& d : sub.Poll()) {
        deltas.fetch_add(1);
        for (const auto& v : d->views) {
          delta_rows.fetch_add(v.added.size() + v.removed.size());
        }
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  bool writer_ok = true;
  for (const EventBatch& b : stream) {
    if (!engine->ApplyBatch(EventBatch(b)).ok()) {
      writer_ok = false;
      break;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  if (sub_thread.joinable()) sub_thread.join();

  out.ok = writer_ok && !reader_error.load();
  out.writer_secs = std::chrono::duration<double>(t1 - t0).count();
  out.snapshot_reads = reads.load();
  out.deltas = deltas.load();
  out.delta_rows = delta_rows.load();
  return out;
}

int Run(int argc, char** argv) {
  std::string kind = "toaster-c";
  size_t batches = 400;
  size_t rows = 128;
  uint64_t seed = 1;
  std::vector<size_t> reader_counts = {0, 1, 2, 8};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--engine=", 0) == 0) {
      kind = arg.substr(9);
    } else if (arg.rfind("--batches=", 0) == 0) {
      batches =
          static_cast<size_t>(std::strtoull(arg.c_str() + 10, nullptr, 10));
    } else if (arg.rfind("--rows=", 0) == 0) {
      rows = static_cast<size_t>(std::strtoull(arg.c_str() + 7, nullptr, 10));
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--readers=", 0) == 0) {
      reader_counts.clear();
      std::stringstream ss(arg.substr(10));
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        reader_counts.push_back(
            static_cast<size_t>(std::strtoull(tok.c_str(), nullptr, 10)));
      }
    } else {
      std::fprintf(stderr,
                   "usage: serve_views [--engine=toaster-i|toaster-c] "
                   "[--batches=N] [--rows=N] [--readers=0,1,2,8] [--seed=S]\n");
      return 2;
    }
  }

  ScriptCase sc;
  if (!LoadScript("mm", &sc)) return 2;
  const std::vector<EventBatch> stream = MakeStream(sc.catalog, seed, batches,
                                                    rows);

  std::printf("serve_views: engine=%s query=mm batches=%zu rows/batch=%zu\n",
              kind.c_str(), batches, rows);
  std::printf("%-14s %12s %12s %14s %10s %12s\n", "config", "batches/s",
              "us/batch", "snap reads/s", "deltas", "delta rows");

  bool ok = true;
  // Serving-off baseline: the pure ingest cost, no publish section.
  RunResult base = RunConfig(kind, sc, stream, 0, /*serve=*/false);
  ok = ok && base.ok;
  std::printf("%-14s %12.0f %12.1f %14s %10s %12s\n", "no-serving",
              batches / base.writer_secs,
              1e6 * base.writer_secs / static_cast<double>(batches), "-", "-",
              "-");

  for (size_t nr : reader_counts) {
    RunResult r = RunConfig(kind, sc, stream, nr, /*serve=*/true);
    ok = ok && r.ok;
    char label[32];
    std::snprintf(label, sizeof(label), "%zu readers", nr);
    std::printf("%-14s %12.0f %12.1f %14.0f %10llu %12llu\n", label,
                batches / r.writer_secs,
                1e6 * r.writer_secs / static_cast<double>(batches),
                static_cast<double>(r.snapshot_reads) / r.writer_secs,
                static_cast<unsigned long long>(r.deltas),
                static_cast<unsigned long long>(r.delta_rows));
  }
  std::printf("-> %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dbtoaster

int main(int argc, char** argv) { return dbtoaster::Run(argc, argv); }
