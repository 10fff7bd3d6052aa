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

std::uint32_t Scheduler::insert(Entry e, EventFn&& fn) {
  if (e.time < now_) e.time = now_;  // Release clamp; Debug DCHECKed upstream
  e.slot = allocSlot();
  slots_[e.slot].fn = std::move(fn);
  heap_.emplace_back();
  siftUp(heap_.size() - 1, e);
  return e.slot;
}

void Scheduler::postReserved(SimTime when, std::uint64_t seq, EventFn&& fn) {
  TLBSIM_DCHECK(seq < nextSeq_, "seq %llu was never reserved",
                static_cast<unsigned long long>(seq));
  TLBSIM_DCHECK(!passed(when, seq),
                "reserved key (%lld ns, %llu) posted in the past (now %lld "
                "ns, firing seq %llu)",
                static_cast<long long>(when.ns()),
                static_cast<unsigned long long>(seq),
                static_cast<long long>(now_.ns()),
                static_cast<unsigned long long>(firedSeq_));
  // A key that already fired is caught above as passed; one still pending
  // is in the heap.
  TLBSIM_DCHECK(std::none_of(heap_.begin(), heap_.end(),
                             [seq](const Entry& e) {
                               return e.follow == kPlain && e.seq == seq;
                             }),
                "reserved key (%lld ns, %llu) posted twice",
                static_cast<long long>(when.ns()),
                static_cast<unsigned long long>(seq));
  insert(Entry{when, seq, 0}, std::move(fn));
}

std::uint64_t Scheduler::reserveKeyWithFollower(SimTime keyTime,
                                                SimTime when,
                                                EventFn&& follower) {
  TLBSIM_DCHECK(keyTime >= now_ && when >= keyTime &&
                    (when - keyTime).ns() < std::int64_t{kLagMask},
                "follower at %lld ns of a key at %lld ns (now %lld ns)",
                static_cast<long long>(when.ns()),
                static_cast<long long>(keyTime.ns()),
                static_cast<long long>(now_.ns()));
  const std::uint64_t keySeq = reserveKey(keyTime);
  minFollowerLag_ = std::min(minFollowerLag_, when - keyTime);
  lastFollowerTime_ = std::max(lastFollowerTime_, when);
  markFollower(when, keyTime, keySeq);
  insert(Entry{when, nextSeq_++, 0,
               static_cast<std::uint32_t>((when - keyTime).ns() + 1)},
         std::move(follower));
  return keySeq;
}

bool Scheduler::followerBefore(const Entry& a, const Entry& b) {
  if (atOwnTime(a) && atOwnTime(b)) {
    // Each would have taken its seq when the run passed its key, so they
    // follow their keys. With equal key times seqs do too: a waiting
    // follower holds key + 1, and a returned one a seq taken when its key
    // passed, which precedes the seq of any follower still waiting here
    // with a later key (that one was posted after, or it would have been
    // moved back by the return).
    const SimTime keyA = a.time - lagOf(a);
    const SimTime keyB = b.time - lagOf(b);
    if (keyA != keyB) return keyA < keyB;
    return a.seq < b.seq;
  }
  if (a.seq != b.seq) return a.seq < b.seq;
  // A follower back at its key, and the key's own event: the follower
  // goes first, as that event's first post.
  return (a.follow & kAtKey) != 0;
}

void Scheduler::markFollower(SimTime when, SimTime keyTime,
                             std::uint64_t keySeq) {
  FollowerMark& m = marks_[markIndex(when)];
  if (passed(m.keyTime, m.keySeq)) {
    m = FollowerMark{when, keyTime, keySeq};
    return;
  }
  if (m.time != when) m.time = kMixed;
  if (keyTime > m.keyTime || (keyTime == m.keyTime && keySeq > m.keySeq)) {
    m.keyTime = keyTime;
    m.keySeq = keySeq;
  }
}

void Scheduler::moveFollowersToKeys(SimTime when) {
  // A move sifts entries down past the scan position, so scan again until
  // a pass moves nothing; each follower moves at most once.
  for (bool moved = true; moved;) {
    moved = false;
    for (std::size_t pos = 0; pos < heap_.size(); ++pos) {
      const Entry e = heap_[pos];
      if (e.time == when && e.follow != kPlain &&
          (e.follow & (kAtKey | kReturned)) == 0 &&
          !passed(e.time - lagOf(e), e.seq - 1)) {
        siftUp(pos, Entry{e.time - lagOf(e), e.seq - 1, e.slot,
                          e.follow | kAtKey});
        moved = true;
      }
    }
  }
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
  while (!heap_.empty()) {
    const Entry top = heap_[0];
    // Do not advance past the limit; leave the event pending.
    if (top.time > limit) break;
    TLBSIM_DCHECK(top.time >= now_,
                  "event time regressed: %lld < now %lld (heap corruption?)",
                  static_cast<long long>(top.time.ns()),
                  static_cast<long long>(now_.ns()));
    now_ = top.time;
    firedSeq_ = top.seq;
    if ((top.follow & kAtKey) != 0) {
      // The run passes the key: the follower returns to its time with the
      // seq the key's event's first post would have taken.
      popTop();
      const SimTime when = top.time + lagOf(top);
      noteCreation(when);
      heap_.emplace_back();
      siftUp(heap_.size() - 1, Entry{when, nextSeq_++, top.slot,
                                      (top.follow & kLagMask) | kReturned});
      continue;
    }
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
  advanceTo(limit);
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
