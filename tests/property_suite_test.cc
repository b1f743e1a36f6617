// Cross-module randomized properties checked against independent
// reference implementations: the event queue against std::multimap
// scheduling, the fidelity tracker against a brute-force replay,
// Trace::ValueAt against linear scan, and shortest-path delays against
// the triangle inequality.

#include <map>
#include <vector>

#include "common/random.h"
#include "core/fidelity.h"
#include "gtest/gtest.h"
#include "net/routing.h"
#include "net/topology_generator.h"
#include "sim/event_queue.h"
#include "trace/synthetic.h"

namespace d3t {
namespace {

// ---------------------------------------------------------------------------
// Event queue vs reference

/// Records the payload `b` of every event it receives, in dispatch order.
struct FiredLog : sim::EventHandler {
  std::vector<uint64_t> fired;
  void HandleEvent(sim::SimTime, const sim::Event& event) override {
    fired.push_back(event.b);
  }
};

TEST(PropertySuite, EventQueueMatchesReferenceOrdering) {
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    Rng rng(seed);
    sim::EventQueue queue;
    FiredLog log;
    // Reference: time -> tag. A multimap keeps equal keys in insertion
    // order, which is exactly the queue's tie-break promise.
    std::multimap<sim::SimTime, uint64_t> reference;
    uint64_t next_tag = 0;
    auto pop_and_check = [&] {
      const uint64_t expected = reference.begin()->second;
      reference.erase(reference.begin());
      queue.RunNext(&log);
      ASSERT_FALSE(log.fired.empty());
      EXPECT_EQ(log.fired.back(), expected) << "seed " << seed;
    };

    for (int op = 0; op < 3000; ++op) {
      if (rng.NextDouble() < 0.55 || queue.empty()) {
        // A narrow time range makes equal-time ties common.
        const sim::SimTime when =
            static_cast<sim::SimTime>(rng.NextBounded(1000));
        const uint64_t tag = next_tag++;
        queue.Schedule(when, sim::Event::Delivery(0, tag));
        reference.emplace(when, tag);
      } else {
        pop_and_check();
      }
      ASSERT_EQ(queue.size(), reference.size());
    }
    while (!reference.empty()) pop_and_check();
    EXPECT_TRUE(queue.empty());
  }
}

// ---------------------------------------------------------------------------
// Fidelity tracker vs brute-force replay

TEST(PropertySuite, FidelityTrackerMatchesBruteForceReplay) {
  for (uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    Rng rng(seed);
    const core::Coherency c = rng.NextDoubleInRange(0.05, 0.5);
    const double initial = 10.0;
    core::FidelityTracker tracker(c, initial);

    // Random interleaving of source/repo value steps at integer times.
    struct Event {
      sim::SimTime t;
      bool is_source;
      double value;
    };
    std::vector<Event> events;
    sim::SimTime t = 0;
    for (int i = 0; i < 200; ++i) {
      t += 1 + static_cast<sim::SimTime>(rng.NextBounded(50));
      events.push_back(Event{t, rng.NextBernoulli(0.5),
                             initial + rng.NextDoubleInRange(-1.0, 1.0)});
    }
    const sim::SimTime end = t + 10;
    for (const Event& event : events) {
      if (event.is_source) {
        tracker.OnSourceValue(event.t, event.value);
      } else {
        tracker.OnRepositoryValue(event.t, event.value);
      }
    }
    tracker.Finalize(end);

    // Brute force: piecewise-constant replay between event times.
    double source = initial, repo = initial;
    sim::SimTime out_of_sync = 0;
    sim::SimTime prev = 0;
    auto violated = [&] { return std::abs(source - repo) > c + 1e-6; };
    for (const Event& event : events) {
      if (violated()) out_of_sync += event.t - prev;
      prev = event.t;
      (event.is_source ? source : repo) = event.value;
    }
    if (violated()) out_of_sync += end - prev;

    EXPECT_EQ(tracker.out_of_sync_time(), out_of_sync) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Lazy (trace-bound) tracker vs eager push replay

TEST(PropertySuite, LazyTrackerMatchesEagerTracker) {
  // The two feeding modes must agree bit-for-bit: the lazy tracker sees
  // the source process only through its bound trace (caught up on repo
  // updates and at Finalize), the eager one is pushed every change.
  for (uint64_t seed : {61u, 62u, 63u, 64u, 65u}) {
    Rng rng(seed);
    const core::Coherency c = rng.NextDoubleInRange(0.05, 0.5);
    const double initial = 10.0;

    std::vector<trace::Tick> ticks = {{0, initial}};
    sim::SimTime t = 0;
    for (int i = 0; i < 300; ++i) {
      t += 1 + static_cast<sim::SimTime>(rng.NextBounded(40));
      // Mix genuine changes with value-repeating polls.
      const double value = rng.NextBernoulli(0.3)
                               ? ticks.back().value
                               : initial + rng.NextDoubleInRange(-1.0, 1.0);
      ticks.push_back({t, value});
    }

    struct RepoEvent {
      sim::SimTime t;
      double value;
    };
    std::vector<RepoEvent> repo_events;
    sim::SimTime rt = 0;
    for (int i = 0; i < 60; ++i) {
      rt += 1 + static_cast<sim::SimTime>(rng.NextBounded(200));
      repo_events.push_back(
          {rt, initial + rng.NextDoubleInRange(-1.0, 1.0)});
    }
    const sim::SimTime end = std::max(t, rt) + 10;

    // Bind the raw timeline, repeats included — the lazy cursor must
    // skip them exactly like the eager replay (which never pushes them).
    core::FidelityTracker lazy(c, &ticks);
    core::FidelityTracker eager(c, initial);
    size_t cursor = 1;
    double last_source = initial;
    auto push_source_until = [&](sim::SimTime limit) {
      while (cursor < ticks.size() && ticks[cursor].time <= limit) {
        if (ticks[cursor].value != last_source) {
          last_source = ticks[cursor].value;
          eager.OnSourceValue(ticks[cursor].time, last_source);
        }
        ++cursor;
      }
    };
    for (const RepoEvent& event : repo_events) {
      push_source_until(event.t);
      eager.OnRepositoryValue(event.t, event.value);
      lazy.OnRepositoryValue(event.t, event.value);
    }
    push_source_until(end);
    eager.Finalize(end);
    lazy.Finalize(end);

    EXPECT_EQ(lazy.out_of_sync_time(), eager.out_of_sync_time())
        << "seed " << seed;
    EXPECT_EQ(lazy.LossPercent(), eager.LossPercent()) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Trace::ValueAt vs linear reference

TEST(PropertySuite, ValueAtMatchesLinearScan) {
  Rng rng(31);
  trace::SyntheticTraceOptions options;
  options.tick_count = 500;
  Result<trace::Trace> trace = trace::GenerateSyntheticTrace(options, rng);
  ASSERT_TRUE(trace.ok());
  const auto& ticks = trace->ticks();
  auto reference = [&](sim::SimTime t) {
    double v = ticks.front().value;
    for (const trace::Tick& tick : ticks) {
      if (tick.time > t) break;
      v = tick.value;
    }
    return v;
  };
  for (int i = 0; i < 2000; ++i) {
    const sim::SimTime t = static_cast<sim::SimTime>(
        rng.NextBounded(static_cast<uint64_t>(ticks.back().time) + 1000));
    EXPECT_DOUBLE_EQ(trace->ValueAt(t), reference(t)) << "t=" << t;
  }
  // Exact tick boundaries.
  for (size_t k = 0; k < ticks.size(); k += 37) {
    EXPECT_DOUBLE_EQ(trace->ValueAt(ticks[k].time), ticks[k].value);
    EXPECT_DOUBLE_EQ(trace->ValueAt(ticks[k].time - 1), reference(ticks[k].time - 1));
  }
}

// ---------------------------------------------------------------------------
// Shortest paths satisfy the triangle inequality & identity axioms

TEST(PropertySuite, ShortestPathDelaysAreAMetric) {
  Rng rng(41);
  net::TopologyGeneratorOptions options;
  options.router_count = 60;
  options.repository_count = 12;
  Result<net::Topology> topo = net::GenerateTopology(options, rng);
  ASSERT_TRUE(topo.ok());
  Result<net::RoutingTables> routing =
      net::RoutingTables::FloydWarshall(*topo);
  ASSERT_TRUE(routing.ok());
  const size_t n = topo->node_count();
  for (int trial = 0; trial < 4000; ++trial) {
    const net::NodeId a = static_cast<net::NodeId>(rng.NextBounded(n));
    const net::NodeId b = static_cast<net::NodeId>(rng.NextBounded(n));
    const net::NodeId k = static_cast<net::NodeId>(rng.NextBounded(n));
    EXPECT_LE(routing->Delay(a, b),
              routing->Delay(a, k) + routing->Delay(k, b));
    EXPECT_EQ(routing->Delay(a, a), 0);
    EXPECT_GE(routing->Delay(a, b), 0);
  }
}

// ---------------------------------------------------------------------------
// Pareto tail: the generated link-delay family really is heavy-tailed

TEST(PropertySuite, ParetoTailHeavierThanExponential) {
  Rng rng(51);
  const double mean = 15.0, minimum = 2.0;
  size_t pareto_extreme = 0, expo_extreme = 0;
  const double threshold = 10.0 * mean;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextParetoWithMean(minimum, mean) > threshold) ++pareto_extreme;
    if (rng.NextExponential(mean) > threshold) ++expo_extreme;
  }
  // Exponential beyond 10 means: e^-10 ~ 4.5e-5 of samples (~9 of 200k).
  // The Pareto with alpha ~1.15 lands two orders of magnitude higher.
  EXPECT_GT(pareto_extreme, expo_extreme * 10);
}

}  // namespace
}  // namespace d3t
