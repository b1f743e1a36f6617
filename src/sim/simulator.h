#ifndef D3T_SIM_SIMULATOR_H_
#define D3T_SIM_SIMULATOR_H_

#include <cstdint>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace d3t::sim {

/// Discrete-event simulation driver: owns the clock and the event queue
/// and advances time by dispatching typed POD events, in (time,
/// insertion) order, to the registered EventHandler.
class Simulator {
 public:
  SimTime now() const { return now_; }
  EventQueue& queue() { return queue_; }

  /// Registers the receiver of typed events. Must be set before any
  /// event fires.
  void set_handler(EventHandler* handler) { handler_ = handler; }

  /// Schedules a typed event `delay` microseconds from now (delay >= 0).
  void ScheduleAfter(SimTime delay, Event event);

  /// Schedules a typed event at absolute time `when` (>= now()).
  void ScheduleAt(SimTime when, Event event);

  /// Runs events until the queue empties or `horizon` is passed (events
  /// scheduled strictly after `horizon` are left pending). Returns the
  /// number of events executed.
  uint64_t RunUntil(SimTime horizon);

  /// Runs all pending events to exhaustion.
  uint64_t Run() { return RunUntil(kSimTimeMax); }

  /// Number of events executed so far.
  uint64_t events_executed() const { return events_executed_; }

 private:
  SimTime now_ = 0;
  EventQueue queue_;
  EventHandler* handler_ = nullptr;
  uint64_t events_executed_ = 0;
};

}  // namespace d3t::sim

#endif  // D3T_SIM_SIMULATOR_H_
