// Workload `interp`: the trigger interpreter (toaster-i) on mm's order-book
// stream plus the four SQL-fragment queries, each on its own seeded stream
// with 30% deletes. The only workload where the interpreter and, at set-up,
// the in-process compiler do the work. Every step feeds the next 128 events
// of each stream to its engine and counts as one ingest call; interleaving
// the five engines keeps the latency distribution unimodal (running them
// one after another moved the median by 12-17% between runs).
#include "bench/gen/mm.hpp"
#include "bench/gen/q12s.hpp"
#include "bench/gen/q13s.hpp"
#include "bench/gen/q3s.hpp"
#include "bench/gen/q6s.hpp"
#include "harness.h"
#include "inputs.h"
#include "src/workload/orderbook.h"

namespace dbtoaster::pipeline {
namespace {

constexpr size_t kEventsPerQuery = 30000;
constexpr size_t kStep = 128;
const char* const kQueries[] = {"mm", "q3s", "q6s", "q12s", "q13s"};

std::unique_ptr<dbt::StreamProgram> MakeProgram(const std::string& q) {
  if (q == "mm") return std::make_unique<dbtoaster_gen::mm_Program>();
  if (q == "q3s") return std::make_unique<dbtoaster_gen::q3s_Program>();
  if (q == "q6s") return std::make_unique<dbtoaster_gen::q6s_Program>();
  if (q == "q12s") return std::make_unique<dbtoaster_gen::q12s_Program>();
  return std::make_unique<dbtoaster_gen::q13s_Program>();
}

class Interp final : public Workload {
 public:
  size_t threads() const override { return 4; }
  size_t num_streams() const override { return 4; }

  Status Init() override {
    for (const char* q : kQueries) {
      Result<QueryScript> s = LoadQueryScript(q);
      if (!s.ok()) return s.status();
      scripts_.push_back(std::move(s).value());
    }
    return Status::OK();
  }

  void Generate(uint64_t seed) override {
    streams_.clear();
    for (size_t k = 0; k < scripts_.size(); ++k) {
      if (k == 0) {
        workload::OrderBookConfig cfg;
        cfg.seed = DeriveSeed(seed, k);
        std::vector<Event> book =
            workload::OrderBookGenerator(cfg).Generate(kEventsPerQuery);
        book.erase(book.begin() + kEventsPerQuery, book.end());
        streams_.push_back(std::move(book));
      } else {
        streams_.push_back(FragmentStream(scripts_[k].catalog, kEventsPerQuery,
                                          DeriveSeed(seed, k)));
      }
    }
  }

  Status Setup(Ctx& ctx) override {
    engines_.clear();
    for (const QueryScript& s : scripts_) {
      Result<EngineSlot> slot = InterpretedSlot(&s, ctx);
      if (!slot.ok()) return slot.status();
      engines_.push_back(std::move(slot).value());
    }
    return Status::OK();
  }

  size_t num_calls() const override {
    return (kEventsPerQuery + kStep - 1) / kStep;
  }

  size_t Call(size_t i, Ctx& ctx) override {
    size_t events = 0;
    for (size_t k = 0; k < engines_.size(); ++k) {
      runtime::EventBatch batch = StepBatch(k, i);
      events += batch.size();
      Apply(engines_[k], std::move(batch), ctx);
    }
    return events;
  }

  void Check(Ctx& ctx) override {
    // The generated programs replay the same steps; re-evaluation would
    // take minutes on these streams.
    for (size_t k = 0; k < engines_.size(); ++k) {
      std::unique_ptr<dbt::StreamProgram> program = MakeProgram(kQueries[k]);
      runtime::CompiledProgramEngine oracle(program.get());
      for (size_t i = 0; i < num_calls(); ++i) {
        ctx.ops.Record(oracle.ApplyBatch(StepBatch(k, i)), "oracle ingest");
      }
      CheckView(engines_[k], oracle, program->view_names().front(), ctx);
    }
    CheckCheckpointRoundTrip(engines_, ctx);
    CheckServing(engines_, ctx);
  }

 private:
  runtime::EventBatch StepBatch(size_t k, size_t i) const {
    const std::vector<Event>& s = streams_[k];
    runtime::EventBatch batch;
    for (size_t j = i * kStep; j < std::min(s.size(), (i + 1) * kStep); ++j) {
      batch.Add(s[j].kind, s[j].relation, s[j].tuple);
    }
    return batch;
  }

  std::vector<QueryScript> scripts_;  ///< engines point into it
  std::vector<std::vector<Event>> streams_;
};

}  // namespace

std::unique_ptr<Workload> MakeInterp() { return std::make_unique<Interp>(); }

}  // namespace dbtoaster::pipeline
