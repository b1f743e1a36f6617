// Event-kernel microbenchmarks: raw schedule+dispatch throughput of the
// typed POD event queue, and batched (coalesced same-arrival) delivery
// dispatch against the one-event-per-message baseline on an identical
// engine workload. Results are byte-identical across dispatch modes by
// construction (see DeterminismTest.BatchedDispatchIsByteIdenticalTo-
// PerMessageDispatch); these benchmarks measure only the kernel cost.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "core/lela.h"
#include "net/delay_model.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace d3t {
namespace {

// ---------------------------------------------------------------------------
// Raw queue: schedule a batch of POD events, then dispatch them all

/// Minimal handler: typed dispatch costs one virtual call and a switch.
class CountingHandler : public sim::EventHandler {
 public:
  void HandleEvent(sim::SimTime, const sim::Event& event) override {
    sum_ += event.a;
  }
  uint64_t sum() const { return sum_; }

 private:
  uint64_t sum_ = 0;
};

void BM_EventQueuePodDispatch(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  Rng rng(1);
  CountingHandler handler;
  for (auto _ : state) {
    sim::EventQueue queue;
    for (size_t i = 0; i < batch; ++i) {
      queue.Schedule(
          static_cast<sim::SimTime>(rng.NextBounded(1 << 20)),
          sim::Event::Delivery(static_cast<uint32_t>(i), i));
    }
    while (!queue.empty()) queue.RunNext(&handler);
  }
  benchmark::DoNotOptimize(handler.sum());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_EventQueuePodDispatch)->Arg(1024)->Arg(16384);

// ---------------------------------------------------------------------------
// Engine: batched vs per-message delivery dispatch
//
// A coalescing-heavy regime: every item ticks on the same lockstep
// second (a synchronized scan cycle, e.g. a sensor-grid sweep), the
// per-edge computational delay is zero and pair delays are uniform, so
// all of a node's pushes within one instant arrive at each child
// together. Batched dispatch turns those per-message heap operations
// into one event per (child, instant).

struct EventKernelFixture {
  EventKernelFixture() : delays(net::OverlayDelayModel::Uniform(1, 0)) {
    Rng rng(17);
    const size_t repos = 80, items = 24, ticks = 300;
    core::InterestOptions workload;
    workload.repository_count = repos;
    workload.item_count = items;
    workload.item_probability = 0.8;
    auto interests = core::GenerateInterests(workload, rng);
    delays = net::OverlayDelayModel::Uniform(repos + 1, sim::Millis(20));
    core::LelaOptions lela;
    lela.coop_degree = 6;
    auto built = core::BuildOverlay(delays, interests, items, lela, rng);
    overlay = std::make_unique<core::Overlay>(std::move(built->overlay));
    // Lockstep traces: every item moves by a fresh cent amount at every
    // whole second, so each tick is a genuine update.
    for (size_t i = 0; i < items; ++i) {
      std::vector<trace::Tick> tick_list;
      double value = 20.0 + static_cast<double>(i);
      for (size_t k = 0; k < ticks; ++k) {
        tick_list.push_back({sim::Seconds(static_cast<double>(k)), value});
        value += (rng.NextBernoulli(0.5) ? 1.0 : -1.0) *
                 (0.01 + 0.01 * static_cast<double>(rng.NextBounded(3)));
      }
      traces.emplace_back("L" + std::to_string(i), std::move(tick_list));
    }
  }

  net::OverlayDelayModel delays;
  std::unique_ptr<core::Overlay> overlay;
  std::vector<trace::Trace> traces;
};

void RunDispatchBenchmark(benchmark::State& state, bool coalesce,
                          bool drain_spans) {
  static EventKernelFixture fixture;
  core::EngineOptions options;
  options.comp_delay = 0;
  options.coalesce_deliveries = coalesce;
  options.drain_process_spans = drain_spans;
  core::EngineMetrics last{};
  for (auto _ : state) {
    core::DistributedDisseminator policy;
    core::Engine engine(*fixture.overlay, fixture.delays, fixture.traces,
                        policy, options);
    auto metrics = engine.Run();
    benchmark::DoNotOptimize(metrics);
    last = *metrics;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(last.messages));
  state.counters["delivery_batches"] =
      static_cast<double>(last.delivery_batches);
  state.counters["process_wakeups"] =
      static_cast<double>(last.process_wakeups);
  state.counters["coalesced_frac"] =
      last.messages == 0 ? 0.0
                         : static_cast<double>(last.coalesced_messages) /
                               static_cast<double>(last.messages);
}

/// PR 3's per-message dispatch baseline: one physical event per message
/// and per job.
void BM_EnginePerMessageDispatch(benchmark::State& state) {
  RunDispatchBenchmark(state, /*coalesce=*/false, /*drain_spans=*/false);
}
BENCHMARK(BM_EnginePerMessageDispatch)->Unit(benchmark::kMillisecond);

/// PR 3's batched-delivery kernel: same-arrival messages coalesce into
/// one Delivery event, but each job still gets its own NodeProcess.
void BM_EngineBatchedDispatch(benchmark::State& state) {
  RunDispatchBenchmark(state, /*coalesce=*/true, /*drain_spans=*/false);
}
BENCHMARK(BM_EngineBatchedDispatch)->Unit(benchmark::kMillisecond);

/// Span-draining kernel (current default): batched delivery plus one
/// NodeProcess wakeup consuming the node's whole pending span in a
/// single busy-server pass.
void BM_EngineSpanDrain(benchmark::State& state) {
  RunDispatchBenchmark(state, /*coalesce=*/true, /*drain_spans=*/true);
}
BENCHMARK(BM_EngineSpanDrain)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace d3t

BENCHMARK_MAIN();
