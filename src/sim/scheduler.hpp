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
// Reserved keys. A caller that needs an event only in some outcomes can
// reserve the key (time, seq) the event would get if posted now, decide
// later, and post it at that key if it turns out to be needed: the event
// then fires exactly where it would have fired had it been posted at
// reservation time. passed(time, seq) tells whether the run has already
// reached a key. A key can carry a follower: the event that the key's
// event would post first thing when it fired, posted now instead. The
// follower fires exactly where it would have fired then, whether or not
// the key's event is ever posted, so the firing order, and every output,
// is the same as if the key's event always ran. The link transmitter is
// the only user (tlbsim_lint `reserved-key`): the transmit-end key carries
// the delivery, and the transmit end itself is posted only when something
// waits for the transmitter.
//
// A follower takes seq key + 1 and waits at its own time. That is its
// exact place unless another event is created at that time after the
// follower and before the run passes the key: the follower would then
// have been created after it. The scheduler watches for that (a small
// table of follower times, checked for each creation that lands where a
// follower could wait) and then moves the follower back to its key; when
// the run passes the key, the follower returns to its time with the next
// seq, as the key's event's post would have taken it. Followers at one
// time order by their keys.
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

#include <algorithm>
#include <array>
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

  /// Reserve the key (when, seq) an event posted at `when` now would get,
  /// without posting one; returns its seq.
  std::uint64_t reserveKey(SimTime when) {
    noteCreation(when);
    return nextSeq_++;
  }

  /// Reserve a key at `keyTime` that carries `follower`: the event the
  /// key's event would post at `when` first thing when it fired. Returns
  /// the key's seq.
  std::uint64_t reserveKeyWithFollower(SimTime keyTime, SimTime when,
                                       EventFn&& follower);

  /// Post `fn` at the reserved key (when, seq). A key is posted at most
  /// once, and never once passed(); Debug builds check both.
  void postReserved(SimTime when, std::uint64_t seq, EventFn&& fn);

  /// True once the run has reached key (when, seq): the event firing now
  /// has that key or a later one, or a bounded run() stopped at or after
  /// `when` with the key already reserved. An event posted at a passed key
  /// would be in the past.
  bool passed(SimTime when, std::uint64_t seq) const {
    return when < now_ || (when == now_ && seq <= firedSeq_);
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
  /// Entry::follow of a plain entry. A follower's holds its lag behind its
  /// key in ns, plus one, under kLagMask; kAtKey is set while it waits at
  /// the key itself, and kReturned once it is back at its time with the
  /// seq taken when the run passed the key.
  static constexpr std::uint32_t kPlain = 0;
  static constexpr std::uint32_t kAtKey = 0x80000000u;
  static constexpr std::uint32_t kReturned = 0x40000000u;
  static constexpr std::uint32_t kLagMask = 0x3fffffffu;

  /// One heap element: the event's ordering key and its slot.
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t follow = kPlain;
  };

  /// The latest key whose follower waits at `time` among those hashed to
  /// one table cell; `time` is kMixed once two times share the cell. A
  /// cell is live until the run passes its key.
  struct FollowerMark {
    SimTime time = -1_ns;
    SimTime keyTime;
    std::uint64_t keySeq = 0;
  };
  static constexpr SimTime kMixed = -2_ns;
  static constexpr std::size_t kMarkBits = 8;

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
    if ((a.follow | b.follow) == kPlain) {
      return a.seq < b.seq;  // seq is unique -> strict total order
    }
    return followerBefore(a, b);
  }
  static bool followerBefore(const Entry& a, const Entry& b);
  /// A follower at its own time (with seq key + 1, or returned).
  static bool atOwnTime(const Entry& e) {
    return e.follow != kPlain && (e.follow & kAtKey) == 0;
  }
  static SimTime lagOf(const Entry& e) {
    return SimTime::fromNs((e.follow & kLagMask) - 1);
  }

  /// An event (or key) is created at `when`: move back to their keys the
  /// followers waiting there whose keys the run has not passed. Such a
  /// follower lies at least its lag past now, and no later than the
  /// latest follower, which rules out most creations at once.
  void noteCreation(SimTime when) {
    if (when > lastFollowerTime_ || when - now_ < minFollowerLag_) return;
    const FollowerMark& m = marks_[markIndex(when)];
    if ((m.time == when || m.time == kMixed) && !passed(m.keyTime, m.keySeq)) {
      moveFollowersToKeys(when);
    }
  }
  static std::size_t markIndex(SimTime t) {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(t.ns()) * 0x9e3779b97f4a7c15ULL) >>
        (64 - kMarkBits));
  }
  void markFollower(SimTime when, SimTime keyTime, std::uint64_t keySeq);
  void moveFollowersToKeys(SimTime when);

  std::uint32_t allocSlot();
  void freeSlot(std::uint32_t idx);
  std::uint32_t insert(SimTime when, EventFn&& fn) {
    noteCreation(std::max(when, now_));
    return insert(Entry{when, nextSeq_++, 0}, std::move(fn));
  }
  /// Insert `fn` under `e`'s key (e.slot is filled in).
  std::uint32_t insert(Entry e, EventFn&& fn);
  /// Move now() to a run limit no pending event precedes: every key at or
  /// before it that has been reserved so far counts as passed.
  void advanceTo(SimTime limit) {
    if (limit != kMaxTime && limit >= now_) {
      now_ = limit;
      firedSeq_ = nextSeq_ - 1;
    }
  }
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
  /// Seq of the event firing at now() (or of the last key reserved when a
  /// bounded run stopped at now()); see passed().
  std::uint64_t firedSeq_ = 0;
  std::array<FollowerMark, std::size_t{1} << kMarkBits> marks_{};
  SimTime minFollowerLag_ = kMaxTime;
  SimTime lastFollowerTime_ = -1_ns;
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
