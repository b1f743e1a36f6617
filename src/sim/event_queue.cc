#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace d3t::sim {

// d3t-lint: hot
void EventQueue::Schedule(SimTime when, Event event) {
  assert(when >= 0);
  heap_.push_back(Item{when, next_seq_++, event});
  std::push_heap(heap_.begin(), heap_.end(), FiresLater);
}

// d3t-lint: hot
SimTime EventQueue::RunNext(EventHandler* handler) {
  assert(!heap_.empty());
  assert(handler != nullptr);
  std::pop_heap(heap_.begin(), heap_.end(), FiresLater);
  const Item top = heap_.back();
  heap_.pop_back();  // before dispatch: the handler may schedule
  handler->HandleEvent(top.when, top.event);
  return top.when;
}

}  // namespace d3t::sim
