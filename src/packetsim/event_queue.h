// Discrete-event core for the packet-level simulator.
//
// Events are small PODs in a 4-ary min-heap ordered by (at, seq): `seq` is
// the schedule order, so events at the same instant run first-scheduled
// first, and the run order is a pure function of the schedule calls. This is
// the future-event-queue design of CloudSim (Calheiros et al.). Hot-path
// events are typed — a kind plus two integer operands, dispatched by the
// owner's EventHandler — so scheduling one allocates nothing once the heap
// has grown. Generic callbacks stay available: they sit in a slot table and
// are moved out and run, never copied.
#ifndef CLOUDTALK_SRC_PACKETSIM_EVENT_QUEUE_H_
#define CLOUDTALK_SRC_PACKETSIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/units.h"

namespace cloudtalk {
namespace packetsim {

struct Event {
  Seconds at = 0;
  uint64_t seq = 0;
  uint32_t kind = 0;  // kCallback, or a kind the handler defines.
  uint32_t a = 0;
  uint64_t b = 0;
};

// Runs the typed events of one queue.
class EventHandler {
 public:
  virtual void OnEvent(const Event& event) = 0;

 protected:
  ~EventHandler() = default;
};

class EventQueue {
 public:
  // The kind of a Schedule(at, fn) event; `a` is its callback slot.
  static constexpr uint32_t kCallback = 0;

  // `handler` runs every typed event; it may be null when only callbacks
  // are scheduled.
  explicit EventQueue(EventHandler* handler = nullptr) : handler_(handler) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  Seconds now() const { return now_; }

  // An event in the past runs at now().
  void Schedule(Seconds at, std::function<void()> fn) {
    uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<uint32_t>(callbacks_.size());
      callbacks_.push_back(std::move(fn));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      callbacks_[slot] = std::move(fn);
    }
    ScheduleTyped(at, kCallback, slot);
  }

  // `kind` must not be kCallback.
  void ScheduleTyped(Seconds at, uint32_t kind, uint32_t a, uint64_t b = 0) {
    Push(Event{at < now_ ? now_ : at, next_seq_++, kind, a, b});
  }

  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }
  // Events that have run.
  int64_t processed() const { return processed_; }

  // Runs the earliest event if it is due by `deadline`; false when none is.
  bool Step(Seconds deadline) {
    if (heap_.empty() || heap_.front().at > deadline) {
      return false;
    }
    const Event event = PopTop();
    now_ = event.at;
    ++processed_;
    if (event.kind == kCallback) {
      // Moved out first: the callback may schedule into its own slot.
      std::function<void()> fn = std::move(callbacks_[event.a]);
      callbacks_[event.a] = nullptr;
      free_slots_.push_back(event.a);
      fn();
    } else {
      handler_->OnEvent(event);
    }
    return true;
  }

  // Runs events until `t` (inclusive); time ends at t.
  void RunUntil(Seconds t) {
    while (Step(t)) {
    }
    if (now_ < t) {
      now_ = t;
    }
  }

  // Runs until no events remain or `hard_deadline` passes.
  void RunUntilIdle(Seconds hard_deadline = 1e9) {
    while (Step(hard_deadline)) {
    }
  }

 private:
  static constexpr size_t kArity = 4;

  static bool Before(const Event& x, const Event& y) {
    return x.at != y.at ? x.at < y.at : x.seq < y.seq;
  }

  void Push(const Event& event) {
    size_t i = heap_.size();
    heap_.push_back(event);
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!Before(event, heap_[parent])) {
        break;
      }
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = event;
  }

  Event PopTop() {
    const Event top = heap_.front();
    const Event last = heap_.back();
    heap_.pop_back();
    const size_t n = heap_.size();
    if (n == 0) {
      return top;
    }
    size_t i = 0;
    while (true) {
      const size_t first = i * kArity + 1;
      if (first >= n) {
        break;
      }
      const size_t end = first + kArity < n ? first + kArity : n;
      size_t best = first;
      for (size_t c = first + 1; c < end; ++c) {
        if (Before(heap_[c], heap_[best])) {
          best = c;
        }
      }
      if (!Before(heap_[best], last)) {
        break;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
    return top;
  }

  EventHandler* handler_;
  std::vector<Event> heap_;
  std::vector<std::function<void()>> callbacks_;
  std::vector<uint32_t> free_slots_;
  Seconds now_ = 0;
  uint64_t next_seq_ = 0;
  int64_t processed_ = 0;
};

}  // namespace packetsim
}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_PACKETSIM_EVENT_QUEUE_H_
