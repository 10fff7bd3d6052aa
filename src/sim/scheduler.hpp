// Discrete-event scheduler: the heart of the simulator.
//
// The event core is an *indexed* 4-ary min-heap over stable slots:
//
//   slots_  stable storage for pending callbacks plus each slot's current
//           position in the heap. Freed slots go on an intrusive free list
//           and are reused, so the steady-state schedule/fire/cancel path
//           performs zero heap allocations once the vectors reach their
//           high-water capacity. A callback never moves after insertion.
//   heap_   the 4-ary heap itself, holding keyed entries — (time, seq,
//           slot), 24 bytes each. Comparisons read the entries alone, so a
//           sift touches only the contiguous heap array; the only write
//           into a slot is its back-pointer update.
//
// Events are ordered by (time, seq); seq is a monotonically increasing
// sequence number assigned at schedule time, so events with equal
// timestamps fire in scheduling order and runs are deterministic. That
// total order is strict, which makes the firing order independent of the
// heap's arity and sift strategy — the invariant the byte-identical-output
// tests lean on.
//
// Popping the minimum is bottom-up (Floyd): the hole left at the root
// walks down the smallest children to a leaf, and the heap's old last
// entry sifts up from there. The last entry is almost always among the
// latest events, so it rarely climbs, and the walk down saves the
// compare against it at every level that a top-down sift would pay.
//
// Cancellation is *in-place*: an EventHandle names its slot (plus a
// generation counter that invalidates stale handles), and cancel()
// removes the slot's heap entry with an O(log n) sift. No tombstones, no
// live-id hash set, no dead entries for pop() to skip.
//
// Callbacks are sim::EventFn — a small-buffer-optimized move-only
// callable (util::InlineFunction). Closures capturing up to
// kEventInlineBytes stay inline; every closure the per-packet path
// creates is pinned under that budget by tests/sim/alloc_count_test, and
// the trivially copyable ones relocate into their slot with a memcpy.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/inline_function.hpp"
#include "util/units.hpp"

namespace tlbsim::sim {

/// Inline capture budget for event callbacks. Hot-path closures (link
/// transmit/delivery, TCP timers, periodic re-arms) capture a pointer or
/// two plus a small index — far below this; the budget leaves headroom
/// without bloating the per-slot footprint.
inline constexpr std::size_t kEventInlineBytes = 48;

using EventFn = util::InlineFunction<void(), kEventInlineBytes>;

class Scheduler;

/// Move-only owner of one pending event. Destroying or re-assigning the
/// handle cancels the event if it is still pending (RAII); release()
/// detaches instead. A handle whose event has fired (or was cancelled)
/// is inert: pending() is false and cancel() is a no-op — including
/// inside the event's own callback, where the event counts as fired.
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(EventHandle&& other) noexcept
      : sched_(other.sched_), slot_(other.slot_), gen_(other.gen_) {
    other.sched_ = nullptr;
  }
  EventHandle& operator=(EventHandle&& other) noexcept {
    if (this != &other) {
      cancel();
      sched_ = other.sched_;
      slot_ = other.slot_;
      gen_ = other.gen_;
      other.sched_ = nullptr;
    }
    return *this;
  }
  EventHandle(const EventHandle&) = delete;
  EventHandle& operator=(const EventHandle&) = delete;
  ~EventHandle() { cancel(); }

  /// True while the event is scheduled and has not fired or been
  /// cancelled.
  bool pending() const;

  /// Cancel the event in O(log n). Returns true if it was pending;
  /// idempotent otherwise.
  bool cancel();

  /// Drop ownership without cancelling: the event fires normally and the
  /// handle becomes inert.
  void release() { sched_ = nullptr; }

  explicit operator bool() const { return pending(); }

 private:
  friend class Scheduler;
  EventHandle(Scheduler* sched, std::uint32_t slot, std::uint32_t gen)
      : sched_(sched), slot_(slot), gen_(gen) {}

  Scheduler* sched_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Scheduler {
 public:
  /// Hook invoked once per periodic-timer fire (observability). `name` is
  /// the timer's label, nullptr for anonymous timers.
  using PeriodicTickHook = util::InlineFunction<void(const char*, SimTime)>;

  SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` ns from now, returning a cancellable
  /// handle. A negative delay is always a unit bug upstream (time never
  /// flows backwards in the simulation), so Debug builds reject it.
  [[nodiscard]] EventHandle schedule(SimTime delay, EventFn&& fn) {
    checkDelay(delay);
    return scheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at absolute time `when`. A `when` in the past is a
  /// logic bug upstream (the caller computed a stale timestamp):
  /// Debug builds reject it via TLBSIM_DCHECK; Release builds clamp to
  /// now() so the event still fires and time stays monotone. Callers with
  /// a legitimately might-be-past timestamp must clamp explicitly
  /// (std::max(when, now())) — that states the intent and passes Debug.
  [[nodiscard]] EventHandle scheduleAt(SimTime when, EventFn&& fn) {
    checkPast(when);
    const std::uint32_t slot = insert(when, std::move(fn));
    return EventHandle(this, slot, slots_[slot].gen);
  }

  /// Fire-and-forget variants: no handle, for events that are never
  /// cancelled (packet serialization/propagation, one-shot arming).
  void post(SimTime delay, EventFn&& fn) {
    checkDelay(delay);
    postAt(now_ + delay, std::move(fn));
  }
  void postAt(SimTime when, EventFn&& fn) {
    checkPast(when);
    insert(when, std::move(fn));
  }

  /// Register `fn` to fire every `period` starting at `start`. Ticks whose
  /// time exceeds the current run limit are parked (so a bounded run()
  /// terminates) and revived by a later run() with a higher limit. With an
  /// unbounded run() the timer keeps the event queue alive forever — give
  /// run() a limit when periodic timers exist.
  ///
  /// `name` (a string literal or other pointer outliving the scheduler)
  /// labels the timer's ticks for the periodic-tick hook; nullptr keeps
  /// the timer anonymous.
  void every(SimTime period, EventFn fn, SimTime start = {},
             const char* name = nullptr);

  /// Install the per-tick observability hook (empty to remove). Without a
  /// hook a periodic fire costs one branch.
  void setPeriodicTickHook(PeriodicTickHook hook) {
    tickHook_ = std::move(hook);
  }

  /// Run events until the queue is empty or `limit` is reached.
  /// Returns the number of events executed.
  std::uint64_t run(SimTime limit = kMaxTime);

  /// Run a single event; returns false if none pending (or past `limit`).
  bool step(SimTime limit = kMaxTime);

  bool empty() const { return heap_.empty(); }
  std::size_t pendingEvents() const { return heap_.size(); }
  std::uint64_t executedEvents() const { return executed_; }

  static constexpr SimTime kMaxTime = SimTime::max();

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kArity = 4;
  static constexpr std::uint32_t kNoPos = 0xffffffffu;

  /// One heap element: the event's ordering key and its slot.
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  struct Slot {
    EventFn fn;
    std::uint32_t heapPos = kNoPos;  ///< kNoPos while free / firing
    std::uint32_t gen = 0;           ///< bumped on every free
    std::uint32_t nextFree = kNoPos; ///< free-list link while free
  };

  struct Periodic {
    SimTime period;
    EventFn fn;
    SimTime nextDue;
    bool armed = false;
    const char* name = nullptr;
  };

  void checkDelay(SimTime delay) const {
    TLBSIM_DCHECK(delay >= 0_ns, "negative delay %lld ns at t=%lld",
                  static_cast<long long>(delay.ns()),
                  static_cast<long long>(now_.ns()));
  }
  void checkPast(SimTime when) const {
    TLBSIM_DCHECK(when >= now_,
                  "scheduleAt(%lld ns) is in the past (now %lld ns); clamp "
                  "explicitly with std::max(when, now()) if intended",
                  static_cast<long long>(when.ns()),
                  static_cast<long long>(now_.ns()));
  }

  static bool before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;  // seq is unique -> strict total order
  }

  std::uint32_t allocSlot();
  void freeSlot(std::uint32_t idx);
  std::uint32_t insert(SimTime when, EventFn&& fn);
  void place(std::size_t pos, const Entry& e) {
    heap_[pos] = e;
    slots_[e.slot].heapPos = static_cast<std::uint32_t>(pos);
  }
  void siftUp(std::size_t pos, Entry e);
  void siftDown(std::size_t pos);
  std::size_t smallestChild(std::size_t first) const;
  void popTop();
  void removeFromHeap(std::size_t pos);
  bool cancelSlot(std::uint32_t slot, std::uint32_t gen);
  bool slotPending(std::uint32_t slot, std::uint32_t gen) const {
    return slot < slots_.size() && slots_[slot].gen == gen &&
           slots_[slot].heapPos != kNoPos;
  }

  void armPeriodic(std::size_t idx);
  void firePeriodic(std::size_t idx);

  std::vector<Slot> slots_;
  std::vector<Entry> heap_;
  std::uint32_t freeHead_ = kNoPos;
  std::vector<Periodic> periodics_;
  PeriodicTickHook tickHook_;
  SimTime now_;
  SimTime runLimit_ = kMaxTime;
  std::uint64_t nextSeq_ = 1;
  std::uint64_t executed_ = 0;
};

inline bool EventHandle::pending() const {
  return sched_ != nullptr && sched_->slotPending(slot_, gen_);
}

inline bool EventHandle::cancel() {
  if (sched_ == nullptr) return false;
  Scheduler* s = sched_;
  sched_ = nullptr;
  return s->cancelSlot(slot_, gen_);
}

}  // namespace tlbsim::sim
