// Workload `load`: the paper's warehouse-loading case. The TPC-H-shaped
// loading stream (dimensions first, then orders with 5% corrections) goes
// through SSB Q4.1's five-way join and the revenue rollup, 256 events per
// ApplyBatch call; each program receives only the relations its schema
// declares.
#include "bench/gen/q41.hpp"
#include "bench/gen/revenue.hpp"
#include "harness.h"
#include "src/workload/tpch.h"

namespace dbtoaster::pipeline {
namespace {

constexpr size_t kEvents = 40000;
constexpr size_t kBatch = 256;

class Load final : public Workload {
 public:
  size_t threads() const override { return 4; }
  size_t num_streams() const override { return 8; }

  Status Init() override {
    for (const char* q : {"q41", "revenue"}) {
      Result<QueryScript> s = LoadQueryScript(q);
      if (!s.ok()) return s.status();
      scripts_.push_back(std::move(s).value());
    }
    return Status::OK();
  }

  void Generate(uint64_t seed) override {
    workload::TpchConfig cfg;
    cfg.seed = seed;
    events_ = workload::TpchGenerator(cfg).Generate(kEvents);
  }

  Status Setup(Ctx& ctx) override {
    engines_.clear();
    engines_.push_back(CompiledSlot(
        "q41", [] { return std::make_unique<dbtoaster_gen::q41_Program>(); },
        ctx));
    engines_.push_back(CompiledSlot(
        "revenue",
        [] { return std::make_unique<dbtoaster_gen::revenue_Program>(); },
        ctx));
    router_.Build(engines_);
    return Status::OK();
  }

  size_t num_calls() const override {
    return (events_.size() + kBatch - 1) / kBatch;
  }

  size_t Call(size_t i, Ctx& ctx) override {
    const size_t lo = i * kBatch;
    const size_t hi = std::min(events_.size(), lo + kBatch);
    std::vector<runtime::EventBatch> batches =
        router_.Assemble(events_, lo, hi, engines_.size());
    for (size_t e = 0; e < engines_.size(); ++e) {
      if (!batches[e].empty()) Apply(engines_[e], std::move(batches[e]), ctx);
    }
    return hi - lo;
  }

  void Check(Ctx& ctx) override {
    std::unique_ptr<runtime::StreamEngine> oracle =
        ReevalOracle(workload::TpchCatalog(), scripts_, events_, ctx);
    for (const EngineSlot& slot : engines_) {
      CheckView(slot, *oracle, slot.query, ctx);
    }
    CheckCheckpointRoundTrip(engines_, ctx);
    CheckServing(engines_, ctx);
  }

 private:
  std::vector<QueryScript> scripts_;
  std::vector<Event> events_;
  Router router_;
};

}  // namespace

std::unique_ptr<Workload> MakeLoad() { return std::make_unique<Load>(); }

}  // namespace dbtoaster::pipeline
