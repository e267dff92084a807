// Allocation-free discrete-event kernel.
//
// EventKernel<Payload> is the one event calendar: the exec engine's closed
// loops and program interleaving both run on it with fixed-vocabulary event
// records.  Events pop in (timestamp, key, seq) order — `key` orders
// same-timestamp events (the exec engine passes the issuing core id, so
// same-timestamp bursts interleave in core order) and `seq` (insertion
// order) breaks key ties — so a run is deterministic.  Time is carried in
// nanoseconds as `double`, the paper's reporting unit (one core cycle at
// 2.5 GHz = 0.4 ns).  Instead of a std::priority_queue of std::function
// events, the kernel uses:
//
//  * a flat binary heap of POD-friendly records, popped by *moving* out of
//    the vector (priority_queue::top() forces a copy of every payload);
//  * epoch batching: all events sharing the front timestamp are drained
//    from the heap in one pass into a sorted epoch buffer and then consumed
//    by cursor, so the heap is touched once per distinct timestamp instead
//    of once per event.  Same-timestamp rescheduling — the dominant pattern
//    in the exec engine, where completions re-issue at now() — bypasses the
//    heap entirely via an ordered insert into the live epoch;
//  * reserve(), so steady-state scheduling never allocates.
//
// The payload is opaque: dispatch is a caller-supplied callable invoked as
// `dispatch(payload)` with now() already advanced to the event's timestamp.
// With a trivially-copyable Payload the kernel performs no per-event heap
// allocation at all.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace hsw {

using SimTime = double;  // nanoseconds since simulation start

template <typename Payload>
class EventKernel {
 public:
  // Pre-sizes the future heap (and the epoch buffer a quarter of it).
  void reserve(std::size_t events) {
    heap_.reserve(events);
    epoch_.reserve(events / 4 + 1);
  }

  // Schedules `payload` at absolute time `when` (must be >= now()).  `key`
  // orders same-timestamp events (smaller first); events with equal keys
  // keep insertion order.
  void schedule_at(SimTime when, std::int32_t key, Payload payload) {
    assert(when >= now_ && "cannot schedule into the past");
    Record rec{when, key, next_seq_++, std::move(payload)};
    if (cursor_ < epoch_.size() && when == now_) {
      // The live epoch already holds every other event of this timestamp in
      // (key, seq) order.  The new record's seq is larger than all of
      // theirs, so an upper-bound insert by key keeps the global order
      // exact: before larger keys, after equal ones.
      const auto pos = std::upper_bound(
          epoch_.begin() + static_cast<std::ptrdiff_t>(cursor_), epoch_.end(),
          rec.key,
          [](std::int32_t k, const Record& r) { return k < r.key; });
      epoch_.insert(pos, std::move(rec));
      return;
    }
    heap_.push_back(std::move(rec));
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  void schedule_after(SimTime delay, std::int32_t key, Payload payload) {
    assert(delay >= 0.0);
    schedule_at(now_ + delay, key, std::move(payload));
  }

  // Runs events until the kernel drains or `max_events` is hit.  Returns
  // the number of events executed.
  template <typename Dispatch>
  std::uint64_t run(Dispatch&& dispatch, std::uint64_t max_events = ~0ull) {
    std::uint64_t executed = 0;
    while (executed < max_events) {
      if (cursor_ == epoch_.size() && !begin_epoch()) break;
      Payload payload = std::move(epoch_[cursor_++].payload);
      dispatch(payload);
      ++executed;
    }
    return executed;
  }

  // Runs events with time <= `until`; time advances to `until` even if
  // fewer events exist.
  template <typename Dispatch>
  std::uint64_t run_until(SimTime until, Dispatch&& dispatch) {
    std::uint64_t executed = 0;
    for (;;) {
      if (cursor_ == epoch_.size()) {
        if (heap_.empty() || heap_.front().when > until) break;
        begin_epoch();
      } else if (now_ > until) {
        // A prior bounded run() stopped mid-epoch beyond this horizon.
        break;
      }
      Payload payload = std::move(epoch_[cursor_++].payload);
      dispatch(payload);
      ++executed;
    }
    if (now_ < until) now_ = until;
    return executed;
  }

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] bool empty() const {
    return heap_.empty() && cursor_ == epoch_.size();
  }
  [[nodiscard]] std::size_t pending() const {
    return heap_.size() + (epoch_.size() - cursor_);
  }
  void clear() {
    heap_.clear();
    epoch_.clear();
    cursor_ = 0;
    now_ = 0.0;
    next_seq_ = 0;
  }

 private:
  struct Record {
    SimTime when;
    std::int32_t key;
    std::uint64_t seq;
    Payload payload;
  };
  struct Later {
    bool operator()(const Record& a, const Record& b) const {
      if (a.when != b.when) return a.when > b.when;
      if (a.key != b.key) return a.key > b.key;
      return a.seq > b.seq;
    }
  };

  // Drains every heap record sharing the front timestamp into the epoch
  // buffer.  Successive pops come out in (key, seq) order, so the buffer is
  // sorted without a sort.  Returns false when the kernel is drained.
  bool begin_epoch() {
    epoch_.clear();
    cursor_ = 0;
    if (heap_.empty()) return false;
    const SimTime when = heap_.front().when;
    now_ = when;
    do {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      epoch_.push_back(std::move(heap_.back()));
      heap_.pop_back();
    } while (!heap_.empty() && heap_.front().when == when);
    return true;
  }

  std::vector<Record> heap_;   // future timestamps, binary-heap ordered
  std::vector<Record> epoch_;  // the current timestamp, (key, seq)-sorted
  std::size_t cursor_ = 0;     // next epoch record to dispatch
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace hsw
