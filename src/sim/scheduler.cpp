#include "sim/scheduler.hpp"

#include <algorithm>
#include <utility>

namespace tlbsim::sim {

std::uint32_t Scheduler::allocSlot() {
  if (freeHead_ != kNoPos) {
    const std::uint32_t idx = freeHead_;
    freeHead_ = slots_[idx].nextFree;
    slots_[idx].nextFree = kNoPos;
    return idx;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::freeSlot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.fn = nullptr;  // destroy the closure now, not at slot reuse
  s.heapPos = kNoPos;
  ++s.gen;  // every handle minted for this occupancy goes stale
  s.nextFree = freeHead_;
  freeHead_ = idx;
}

std::uint32_t Scheduler::insert(SimTime when, EventFn&& fn) {
  if (when < now_) when = now_;  // Release clamp; Debug DCHECKed upstream
  const std::uint32_t idx = allocSlot();
  slots_[idx].fn = std::move(fn);
  heap_.emplace_back();
  siftUp(heap_.size() - 1, Entry{when, nextSeq_++, idx});
  return idx;
}

/// Sift `e` up from the hole at `pos` and place it.
void Scheduler::siftUp(std::size_t pos, Entry e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

/// The smallest of the children starting at `first` (which must exist).
std::size_t Scheduler::smallestChild(std::size_t first) const {
  const std::size_t last = std::min(first + kArity, heap_.size());
  std::size_t best = first;
  for (std::size_t c = first + 1; c < last; ++c) {
    if (before(heap_[c], heap_[best])) best = c;
  }
  return best;
}

void Scheduler::siftDown(std::size_t pos) {
  const Entry e = heap_[pos];
  const std::size_t n = heap_.size();
  for (std::size_t first = pos * kArity + 1; first < n;
       first = pos * kArity + 1) {
    const std::size_t best = smallestChild(first);
    if (!before(heap_[best], e)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, e);
}

void Scheduler::popTop() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Walk the root's hole down the smallest children to a leaf, then let
  // the old last entry climb back from there.
  std::size_t pos = 0;
  for (std::size_t first = 1; first < n; first = pos * kArity + 1) {
    const std::size_t best = smallestChild(first);
    place(pos, heap_[best]);
    pos = best;
  }
  siftUp(pos, last);
}

void Scheduler::removeFromHeap(std::size_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    // The replacement may violate the heap property in either direction.
    siftUp(pos, last);
    siftDown(slots_[last.slot].heapPos);
  }
}

bool Scheduler::cancelSlot(std::uint32_t slot, std::uint32_t gen) {
  if (!slotPending(slot, gen)) return false;
  removeFromHeap(slots_[slot].heapPos);
  freeSlot(slot);
  return true;
}

bool Scheduler::step(SimTime limit) {
  if (!heap_.empty()) {
    const Entry top = heap_[0];
    if (top.time > limit) {
      // Do not advance past the limit; leave the event pending.
      if (limit != kMaxTime && limit > now_) now_ = limit;
      return false;
    }
    TLBSIM_DCHECK(top.time >= now_,
                  "event time regressed: %lld < now %lld (heap corruption?)",
                  static_cast<long long>(top.time.ns()),
                  static_cast<long long>(now_.ns()));
    now_ = top.time;
    // Move the callback out and retire the slot *before* invoking, so the
    // event counts as fired inside its own callback: a handle to it is
    // inert, and the slot is immediately reusable.
    EventFn fn = std::move(slots_[top.slot].fn);
    popTop();
    freeSlot(top.slot);
    ++executed_;
    fn();
    return true;
  }
  if (limit != kMaxTime && limit > now_) now_ = limit;
  return false;
}

std::uint64_t Scheduler::run(SimTime limit) {
  runLimit_ = limit;
  for (std::size_t i = 0; i < periodics_.size(); ++i) {
    if (!periodics_[i].armed) armPeriodic(i);
  }
  std::uint64_t n = 0;
  while (step(limit)) ++n;
  return n;
}

void Scheduler::every(SimTime period, EventFn fn, SimTime start,
                      const char* name) {
  TLBSIM_DCHECK(period > 0_ns, "every() needs a positive period, got %lld ns",
                static_cast<long long>(period.ns()));
  Periodic timer;
  timer.period = period;
  timer.fn = std::move(fn);
  timer.nextDue = start;
  timer.name = name;
  periodics_.push_back(std::move(timer));
  armPeriodic(periodics_.size() - 1);
}

void Scheduler::armPeriodic(std::size_t idx) {
  Periodic& t = periodics_[idx];
  // Park ticks beyond the run limit so a bounded run() can drain the queue;
  // run() re-arms parked timers when the limit rises.
  if (t.nextDue > runLimit_) {
    t.armed = false;
    return;
  }
  t.armed = true;
  insert(t.nextDue, [this, idx] { firePeriodic(idx); });
}

void Scheduler::firePeriodic(std::size_t idx) {
  Periodic& t = periodics_[idx];
  if (tickHook_) tickHook_(t.name, now_);
  t.fn();
  t.nextDue = now_ + t.period;
  armPeriodic(idx);
}

}  // namespace tlbsim::sim
