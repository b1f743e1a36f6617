#include "sim/simulator.h"

#include <cassert>

namespace d3t::sim {

void Simulator::ScheduleAfter(SimTime delay, Event event) {
  assert(delay >= 0);
  queue_.Schedule(now_ + delay, event);
}

void Simulator::ScheduleAt(SimTime when, Event event) {
  assert(when >= now_);
  queue_.Schedule(when, event);
}

uint64_t Simulator::RunUntil(SimTime horizon) {
  uint64_t executed = 0;
  while (!queue_.empty()) {
    const SimTime next = queue_.PeekTime();
    if (next > horizon) break;
    // Advance the clock before running the event so that now() is the
    // event's firing time inside the handler.
    now_ = next;
    queue_.RunNext(handler_);
    ++executed;
  }
  events_executed_ += executed;
  if (now_ < horizon && horizon != kSimTimeMax) now_ = horizon;
  return executed;
}

}  // namespace d3t::sim
