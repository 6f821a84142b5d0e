#include "sim/event_queue.h"

#include <limits>

#include "util/check.h"

namespace wire::sim {

void EventQueue::schedule(SimTime time, EventKind kind, std::uint32_t payload,
                          std::uint32_t aux) {
  WIRE_REQUIRE(time >= last_popped_,
               "cannot schedule an event in the simulated past");
  heap_.push(Event{time, next_seq_++, kind, payload, aux});
  if (is_tracked(kind)) tracked_.push(time);
}

void EventQueue::arm(GuardSlot slot, SimTime time, EventKind kind) {
  WIRE_REQUIRE(time >= last_popped_,
               "cannot arm a guard in the simulated past");
  WIRE_REQUIRE(!is_tracked(kind), "guard slots cannot hold tracked kinds");
  slots_[index(slot)] = Event{time, next_seq_++, kind, 0, 0};
  armed_[index(slot)] = true;
}

std::size_t EventQueue::leading_slot() const {
  const Event* lead = heap_.empty() ? nullptr : &heap_.top();
  std::size_t slot = kNoSlot;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (armed_[i] && (lead == nullptr || Later{}(*lead, slots_[i]))) {
      lead = &slots_[i];
      slot = i;
    }
  }
  return slot;
}

SimTime EventQueue::next_time() const {
  WIRE_REQUIRE(!empty(), "next_time on empty queue");
  const std::size_t slot = leading_slot();
  return slot == kNoSlot ? heap_.top().time : slots_[slot].time;
}

SimTime EventQueue::next_tracked_time() const {
  if (tracked_.empty()) return std::numeric_limits<SimTime>::infinity();
  return tracked_.top();
}

Event EventQueue::pop() {
  WIRE_REQUIRE(!empty(), "pop on empty queue");
  const std::size_t slot = leading_slot();
  if (slot != kNoSlot) {
    armed_[slot] = false;
    last_popped_ = slots_[slot].time;
    return slots_[slot];
  }
  Event e = heap_.top();
  heap_.pop();
  last_popped_ = e.time;
  if (is_tracked(e.kind)) {
    WIRE_CHECK(!tracked_.empty() && tracked_.top() == e.time,
               "tracked-kind mirror heap out of sync with the event queue");
    tracked_.pop();
  }
  return e;
}

}  // namespace wire::sim
