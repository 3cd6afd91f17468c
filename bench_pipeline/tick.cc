// Workloads `tick` and `vwap`: the paper's order-book trading case on the
// per-event (n = 1) path. Each event of the order-book stream is one
// ingest call: an OnEvent to every compiled program whose schema declares
// the event's relation.
//
// Both workloads cover both book sides, so every event costs about the
// same and the latency distribution has one mode. With bid-side legs only,
// ASKS events reached mm alone and the median sat on the boundary between
// the cheap and the expensive half of the calls.
//   tick: SOBI volume/notional totals, best prices and market-maker
//         detection: cheap triggers, so dispatch and validation dominate.
//   vwap: the VWAP legs, whose nested-aggregate (hybrid re-evaluation)
//         triggers dominate.
#include "bench/gen/best_ask.hpp"
#include "bench/gen/best_bid.hpp"
#include "bench/gen/mm.hpp"
#include "bench/gen/sobi_asks.hpp"
#include "bench/gen/sobi_bids.hpp"
#include "bench/gen/vwap.hpp"
#include "bench/gen/vwap_asks.hpp"
#include "harness.h"
#include "src/workload/orderbook.h"

namespace dbtoaster::pipeline {
namespace {

using Programs = std::vector<std::pair<std::string, ProgramFactory>>;

template <typename Program>
ProgramFactory Factory() {
  return [] { return std::make_unique<Program>(); };
}

class OrderBook final : public Workload {
 public:
  OrderBook(size_t streams, size_t events, Programs programs)
      : num_streams_(streams),
        num_events_(events),
        programs_(std::move(programs)) {}

  size_t threads() const override { return 1; }
  size_t num_streams() const override { return num_streams_; }

  Status Init() override {
    for (const auto& [name, make] : programs_) {
      Result<QueryScript> s = LoadQueryScript(name);
      if (!s.ok()) return s.status();
      scripts_.push_back(std::move(s).value());
    }
    return Status::OK();
  }

  void Generate(uint64_t seed) override {
    workload::OrderBookConfig cfg;  // default 25% modify / 25% withdraw
    cfg.seed = seed;
    events_ = workload::OrderBookGenerator(cfg).Generate(num_events_);
    events_.erase(events_.begin() + num_events_, events_.end());
  }

  Status Setup(Ctx& ctx) override {
    engines_.clear();
    for (const auto& [name, make] : programs_) {
      engines_.push_back(CompiledSlot(name, make, ctx));
    }
    router_.Build(engines_);
    return Status::OK();
  }

  size_t num_calls() const override { return events_.size(); }

  size_t Call(size_t i, Ctx& ctx) override {
    const Event& ev = events_[i];
    const std::vector<size_t>& route = router_.Route(ev.relation);
    if (route.empty()) ctx.ops.Check(false, "no engine ingests " + ev.relation);
    for (size_t e : route) Send(engines_[e], ev, ctx);
    return 1;
  }

  void Check(Ctx& ctx) override {
    std::unique_ptr<runtime::StreamEngine> oracle = ReevalOracle(
        workload::OrderBookCatalog(), scripts_, events_, ctx);
    for (const EngineSlot& slot : engines_) {
      CheckView(slot, *oracle, slot.query, ctx);
    }
    CheckCheckpointRoundTrip(engines_, ctx);
    CheckServing(engines_, ctx);
  }

 private:
  size_t num_streams_;
  size_t num_events_;
  Programs programs_;
  std::vector<QueryScript> scripts_;
  std::vector<Event> events_;
  Router router_;
};

}  // namespace

std::unique_ptr<Workload> MakeTick() {
  return std::make_unique<OrderBook>(
      16, 100000,
      Programs{{"sobi_bids", Factory<dbtoaster_gen::sobi_bids_Program>()},
               {"sobi_asks", Factory<dbtoaster_gen::sobi_asks_Program>()},
               {"best_bid", Factory<dbtoaster_gen::best_bid_Program>()},
               {"best_ask", Factory<dbtoaster_gen::best_ask_Program>()},
               {"mm", Factory<dbtoaster_gen::mm_Program>()}});
}

std::unique_ptr<Workload> MakeVwap() {
  return std::make_unique<OrderBook>(
      6, 40000,
      Programs{{"vwap", Factory<dbtoaster_gen::vwap_Program>()},
               {"vwap_asks", Factory<dbtoaster_gen::vwap_asks_Program>()}});
}

}  // namespace dbtoaster::pipeline
