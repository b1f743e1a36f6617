#include <functional>
#include <vector>

#include "gtest/gtest.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace d3t::sim {
namespace {

/// Records every typed event it receives, then runs the optional
/// `on_event` reaction (which may schedule further events).
struct RecordingHandler : EventHandler {
  struct Seen {
    SimTime t;
    Event event;
  };
  std::vector<Seen> seen;
  std::function<void(SimTime, const Event&)> on_event;

  void HandleEvent(SimTime t, const Event& event) override {
    seen.push_back({t, event});
    if (on_event) on_event(t, event);
  }

  /// Payload `a` of every event seen, in dispatch order.
  std::vector<uint32_t> Tags() const {
    std::vector<uint32_t> tags;
    for (const Seen& s : seen) tags.push_back(s.event.a);
    return tags;
  }
};

TEST(TimeTest, Conversions) {
  EXPECT_EQ(Millis(12.5), 12500);
  EXPECT_EQ(Seconds(1.0), 1000000);
  EXPECT_DOUBLE_EQ(ToMillis(12500), 12.5);
  EXPECT_DOUBLE_EQ(ToSeconds(2500000), 2.5);
}

TEST(EventQueueTest, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.PeekTime(), kSimTimeMax);
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  RecordingHandler handler;
  q.Schedule(30, Event::NodeProcess(3));
  q.Schedule(10, Event::NodeProcess(1));
  q.Schedule(20, Event::NodeProcess(2));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.PeekTime(), 10);
  EXPECT_EQ(q.RunNext(&handler), 10);
  EXPECT_EQ(q.PeekTime(), 20);
  while (!q.empty()) q.RunNext(&handler);
  EXPECT_EQ(handler.Tags(), (std::vector<uint32_t>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  RecordingHandler handler;
  for (uint32_t i = 0; i < 10; ++i) q.Schedule(5, Event::NodeProcess(i));
  while (!q.empty()) q.RunNext(&handler);
  EXPECT_EQ(handler.Tags(),
            (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueueTest, TypedEventsDispatchThroughHandler) {
  EventQueue q;
  RecordingHandler handler;
  q.Schedule(20, Event::Delivery(7, 42));
  q.Schedule(10, Event::SourceTick(3, 5));
  q.Schedule(30, Event::NodeProcess(9));
  while (!q.empty()) q.RunNext(&handler);
  ASSERT_EQ(handler.seen.size(), 3u);
  EXPECT_EQ(handler.seen[0].t, 10);
  EXPECT_EQ(handler.seen[0].event.kind, EventKind::kSourceTick);
  EXPECT_EQ(handler.seen[0].event.a, 3u);
  EXPECT_EQ(handler.seen[0].event.b, 5u);
  EXPECT_EQ(handler.seen[1].event.kind, EventKind::kDelivery);
  EXPECT_EQ(handler.seen[1].event.a, 7u);
  EXPECT_EQ(handler.seen[1].event.b, 42u);
  EXPECT_EQ(handler.seen[2].event.kind, EventKind::kNodeProcess);
  EXPECT_EQ(handler.seen[2].event.a, 9u);
}

// Each round pops the slot the round's first push took while a growing
// tail of later events stays pending, so heap slots are reused under a
// non-empty heap; the tail is scheduled in reverse time order.
TEST(EventQueueTest, SlotRecyclingKeepsCorrectness) {
  EventQueue q;
  RecordingHandler handler;
  for (uint32_t round = 0; round < 100; ++round) {
    q.Schedule(round * 10, Event::NodeProcess(round));
    q.Schedule(100000 - round, Event::NodeProcess(1000 + round));
    EXPECT_EQ(q.RunNext(&handler), round * 10);
  }
  EXPECT_EQ(q.size(), 100u);
  while (!q.empty()) q.RunNext(&handler);
  ASSERT_EQ(handler.seen.size(), 200u);
  for (uint32_t k = 0; k < 100; ++k) {
    EXPECT_EQ(handler.seen[k].event.a, k);
    EXPECT_EQ(handler.seen[100 + k].event.a, 1099 - k);
  }
}

// The handler is the queue's callback into its driver: it may schedule
// at the instant being dispatched, and those events still run after the
// ones already pending at that instant (insertion order).
TEST(EventQueueTest, CallbackMaySchedule) {
  EventQueue q;
  RecordingHandler handler;
  handler.on_event = [&](SimTime t, const Event& event) {
    if (event.kind == EventKind::kNodeProcess && event.a < 4) {
      q.Schedule(t, Event::NodeProcess(event.a + 1));
    }
  };
  q.Schedule(0, Event::NodeProcess(0));
  q.Schedule(0, Event::FinalizeHook());
  while (!q.empty()) q.RunNext(&handler);
  ASSERT_EQ(handler.seen.size(), 6u);
  EXPECT_EQ(handler.seen[1].event.kind, EventKind::kFinalizeHook);
  for (const auto& s : handler.seen) EXPECT_EQ(s.t, 0);
  EXPECT_EQ(handler.Tags(), (std::vector<uint32_t>{0, 0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, NowAdvancesWithEvents) {
  Simulator sim;
  RecordingHandler handler;
  sim.set_handler(&handler);
  sim.ScheduleAfter(100, Event::NodeProcess(1));
  sim.Run();
  ASSERT_EQ(handler.seen.size(), 1u);
  EXPECT_EQ(handler.seen[0].t, 100);
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulatorTest, RunUntilHorizonLeavesLaterEvents) {
  Simulator sim;
  RecordingHandler handler;
  sim.set_handler(&handler);
  sim.ScheduleAt(10, Event::NodeProcess(1));
  sim.ScheduleAt(20, Event::NodeProcess(2));
  sim.ScheduleAt(30, Event::NodeProcess(3));
  // An event exactly at the horizon runs; later ones stay pending.
  EXPECT_EQ(sim.RunUntil(20), 2u);
  EXPECT_EQ(handler.Tags(), (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.queue().size(), 1u);
  // A horizon short of the next event still advances the clock to it.
  EXPECT_EQ(sim.RunUntil(25), 0u);
  EXPECT_EQ(sim.now(), 25);
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  RecordingHandler handler;
  handler.on_event = [&](SimTime, const Event& event) {
    if (event.a == 1) sim.ScheduleAfter(5, Event::NodeProcess(2));
  };
  sim.set_handler(&handler);
  sim.ScheduleAfter(10, Event::NodeProcess(1));
  sim.Run();
  ASSERT_EQ(handler.seen.size(), 2u);
  EXPECT_EQ(handler.seen[0].t, 10);
  EXPECT_EQ(handler.seen[1].t, 15);
}

TEST(SimulatorTest, ZeroDelaySelfChainTerminates) {
  Simulator sim;
  RecordingHandler handler;
  handler.on_event = [&](SimTime, const Event& event) {
    if (event.a + 1 < 1000) {
      sim.ScheduleAfter(0, Event::NodeProcess(event.a + 1));
    }
  };
  sim.set_handler(&handler);
  sim.ScheduleAfter(0, Event::NodeProcess(0));
  sim.Run();
  EXPECT_EQ(handler.seen.size(), 1000u);
  EXPECT_EQ(sim.now(), 0);
}

TEST(SimulatorTest, DispatchesTypedEventsToRegisteredHandler) {
  Simulator sim;
  RecordingHandler handler;
  sim.set_handler(&handler);
  sim.ScheduleAfter(100, Event::SourceTick(2, 4));
  sim.ScheduleAt(50, Event::Delivery(1, 3));
  sim.Run();
  ASSERT_EQ(handler.seen.size(), 2u);
  EXPECT_EQ(handler.seen[0].t, 50);
  EXPECT_EQ(handler.seen[0].event.kind, EventKind::kDelivery);
  EXPECT_EQ(handler.seen[1].t, 100);
  EXPECT_EQ(handler.seen[1].event.kind, EventKind::kSourceTick);
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(SimulatorTest, ManyEventsStressOrder) {
  Simulator sim;
  SimTime last = -1;
  bool monotone = true;
  RecordingHandler handler;
  handler.on_event = [&](SimTime now, const Event& event) {
    if (now < last) monotone = false;
    last = now;
    EXPECT_EQ(now, static_cast<SimTime>(event.b));
  };
  sim.set_handler(&handler);
  for (uint32_t i = 0; i < 20000; ++i) {
    // Pseudo-random but deterministic times, carried in the payload.
    const SimTime t = (i * 7919) % 10007;
    sim.ScheduleAt(t, Event::Delivery(i, static_cast<uint64_t>(t)));
  }
  sim.Run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.events_executed(), 20000u);
}

}  // namespace
}  // namespace d3t::sim
