// Deterministic discrete-event queue.
//
// Events at equal simulated times are delivered in scheduling order (a
// monotone sequence number breaks ties), so a fixed seed reproduces the
// exact same simulation — the property all replay tests rely on.
//
// The heap holds only (time, seq, slot) triples; the events themselves
// live in a slab of reusable slots.  An event is either a typed delivery
// (the Message, stored by value) or an arbitrary Action.  Slab, free list
// and heap only ever grow, so once a run has reached its peak queue depth
// scheduling and popping a delivery allocate nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/message.h"
#include "util/types.h"

namespace adc::sim {

class EventQueue {
 public:
  using Action = std::function<void()>;
  using Slot = std::uint32_t;

  /// Schedules `action` at absolute time `at` (must be >= the time of the
  /// most recently popped event).
  void schedule(SimTime at, Action action);

  /// Stores `msg` in a free slot without scheduling it: the slot is
  /// scheduled later with schedule_delivery(at, slot), exactly once.
  /// Lets a sender hand out a delivery whose time is not known yet.
  Slot park(const Message& msg);

  /// Schedules the delivery parked in `slot` at absolute time `at`.  The
  /// tie-breaking sequence number is taken now, not at park() time.
  void schedule_delivery(SimTime at, Slot slot);

  /// Schedules a delivery of `msg` at absolute time `at`.
  void schedule_delivery(SimTime at, const Message& msg) { schedule_delivery(at, park(msg)); }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Time of the next event; kSimTimeMax when empty.
  SimTime next_time() const noexcept;

  /// Pops and runs the earliest event, which must be an action; returns
  /// its time.  Requires !empty().
  SimTime run_next();

  /// Pops the earliest event without running it (callers that need to
  /// advance a clock before executing, e.g. the Simulator).  Requires
  /// !empty().  Exactly one of `action` and `delivery` is set.
  struct Popped {
    SimTime time;
    Action action;
    std::optional<Message> delivery;
  };
  Popped pop_next();

  /// Total events executed so far.
  std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct Event {
    Action action;    // empty for a delivery
    Message message;  // the delivery's message
    bool delivery = false;
  };
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    Slot slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  Slot acquire();
  void push(SimTime at, Slot slot);

  std::vector<Entry> heap_;  // binary min-heap on (time, seq)
  std::vector<Event> slab_;
  std::vector<Slot> free_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  SimTime last_popped_ = 0;
};

}  // namespace adc::sim
