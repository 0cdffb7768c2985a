#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace adc::sim {

EventQueue::Slot EventQueue::acquire() {
  if (free_.empty()) {
    slab_.emplace_back();
    return static_cast<Slot>(slab_.size() - 1);
  }
  const Slot slot = free_.back();
  free_.pop_back();
  return slot;
}

void EventQueue::push(SimTime at, Slot slot) {
  assert(at >= last_popped_ && "cannot schedule into the past");
  heap_.push_back(Entry{at, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule(SimTime at, Action action) {
  const Slot slot = acquire();
  Event& event = slab_[slot];
  event.action = std::move(action);
  event.delivery = false;
  push(at, slot);
}

EventQueue::Slot EventQueue::park(const Message& msg) {
  const Slot slot = acquire();
  Event& event = slab_[slot];
  event.message = msg;
  event.delivery = true;
  return slot;
}

void EventQueue::schedule_delivery(SimTime at, Slot slot) {
  assert(slot < slab_.size() && slab_[slot].delivery);
  push(at, slot);
}

SimTime EventQueue::next_time() const noexcept {
  return heap_.empty() ? kSimTimeMax : heap_.front().time;
}

EventQueue::Popped EventQueue::pop_next() {
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry entry = heap_.back();
  heap_.pop_back();
  last_popped_ = entry.time;
  ++executed_;

  Event& event = slab_[entry.slot];
  Popped popped{entry.time, nullptr, std::nullopt};
  if (event.delivery) {
    popped.delivery = event.message;
  } else {
    popped.action = std::move(event.action);
    event.action = nullptr;
  }
  free_.push_back(entry.slot);
  return popped;
}

SimTime EventQueue::run_next() {
  Popped popped = pop_next();
  assert(!popped.delivery && "run_next() runs actions; deliveries are popped by their owner");
  popped.action();
  return popped.time;
}

}  // namespace adc::sim
