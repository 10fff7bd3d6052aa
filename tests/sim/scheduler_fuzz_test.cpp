// Property tests for the event core.
//
// The first family checks accounting (pending/executed counters stay
// exact under random interleavings of schedule / cancel / step). The
// second checks *firing order* against an executable reference model: a
// flat list of (time, seq) records fired by a sort — the semantics the
// indexed heap must reproduce exactly for runs to be deterministic and
// byte-identical across heap layouts. The third runs that model in
// lockstep over a simulator-sized population with re-entrant callbacks.
// The second and third also reserve keys, post some of them later (the
// link's transmit-end pattern), and check passed() against the model.
#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <map>
#include <vector>

#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace tlbsim::sim {
namespace {

class SchedulerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerFuzz, AccountingStaysExact) {
  Scheduler sched;
  Rng rng(GetParam());
  std::vector<EventHandle> live;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t fired = 0;
  SimTime lastNow;

  for (int op = 0; op < 8000; ++op) {
    const double action = rng.uniform();
    if (action < 0.5) {
      const SimTime delay = SimTime::fromNs(rng.uniformInt(0, 1000));
      live.push_back(sched.schedule(delay, [&fired] { ++fired; }));
      ++scheduled;
    } else if (action < 0.7 && !live.empty()) {
      const std::size_t idx = rng.uniformInt(live.size());
      if (live[idx].cancel()) ++cancelled;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      sched.step();
      EXPECT_GE(sched.now(), lastNow);
      lastNow = sched.now();
    }
    ASSERT_EQ(sched.pendingEvents(), scheduled - cancelled - fired);
  }

  for (auto& h : live) h.release();  // let the tail fire
  sched.run();
  EXPECT_EQ(sched.pendingEvents(), 0u);
  EXPECT_EQ(fired, scheduled - cancelled);
  EXPECT_EQ(sched.executedEvents(), fired);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz,
                         ::testing::Values(3, 5, 7, 9));

// Reference model: every scheduled event is a record; firing order is a
// stable sort by (time, schedule order). The real scheduler must emit
// tokens in exactly the model's order, whatever the heap does internally.
class SchedulerOrderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerOrderFuzz, FiringOrderMatchesReferenceModel) {
  Scheduler sched;
  Rng rng(GetParam());

  struct Ref {
    SimTime time;
    std::uint64_t order;  ///< position in global scheduling order
    int token;
    bool cancelled = false;
    bool fired = false;
  };
  // A reserved key not yet posted: it owns model record `ref`, which the
  // model treats as cancelled unless and until it is posted.
  struct Reservation {
    std::size_t ref;
    std::uint64_t seq;
  };
  std::vector<Reservation> reserved;
  // Every run(until) fires all keys at or before `until`, so a key has
  // passed exactly when its time is at or before the last limit.
  SimTime lastUntil = -1_ns;
  std::vector<Ref> model;
  // Handle index i owns model record liveRef[i].
  std::vector<EventHandle> live;
  std::vector<std::size_t> liveRef;
  std::vector<int> actual;
  std::uint64_t order = 0;
  int nextToken = 0;

  // Fire every non-cancelled model record with time <= t, in (time,
  // order) order, and append its token to `expected`.
  std::vector<int> expected;
  const auto modelRunTo = [&](SimTime t) {
    std::vector<Ref*> due;
    for (auto& r : model) {
      if (!r.cancelled && !r.fired && r.time <= t) due.push_back(&r);
    }
    std::sort(due.begin(), due.end(), [](const Ref* a, const Ref* b) {
      if (a->time != b->time) return a->time < b->time;
      return a->order < b->order;
    });
    for (Ref* r : due) {
      r->fired = true;
      expected.push_back(r->token);
    }
  };

  for (int op = 0; op < 4000; ++op) {
    const double action = rng.uniform();
    if (action < 0.45) {
      const SimTime delay = SimTime::fromNs(rng.uniformInt(0, 500));
      const int token = nextToken++;
      model.push_back(Ref{sched.now() + delay, order++, token});
      liveRef.push_back(model.size() - 1);
      live.push_back(
          sched.schedule(delay, [&actual, token] { actual.push_back(token); }));
    } else if (action < 0.50) {
      const SimTime delay = SimTime::fromNs(rng.uniformInt(0, 500));
      model.push_back(Ref{sched.now() + delay, order++, nextToken++});
      model.back().cancelled = true;
      reserved.push_back(
          Reservation{model.size() - 1, sched.reserveKey(model.back().time)});
    } else if (action < 0.55 && !reserved.empty()) {
      const std::size_t idx = rng.uniformInt(reserved.size());
      const Reservation r = reserved[idx];
      reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(idx));
      Ref& ref = model[r.ref];
      const bool passed = ref.time <= lastUntil;
      ASSERT_EQ(sched.passed(ref.time, r.seq), passed) << "op " << op;
      if (!passed) {
        ref.cancelled = false;
        const int token = ref.token;
        sched.postReserved(ref.time, r.seq,
                           [&actual, token] { actual.push_back(token); });
      }
    } else if (action < 0.75 && !live.empty()) {
      const std::size_t idx = rng.uniformInt(live.size());
      const bool was = live[idx].cancel();
      Ref& r = model[liveRef[idx]];
      EXPECT_EQ(was, !r.cancelled && !r.fired);
      if (was) r.cancelled = true;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      liveRef.erase(liveRef.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      const SimTime until =
          sched.now() + SimTime::fromNs(rng.uniformInt(0, 200));
      sched.run(until);
      modelRunTo(until);
      lastUntil = until;
      ASSERT_EQ(actual, expected) << "divergence after run(" << until.ns()
                                  << " ns), op " << op;
      // Drop handles for fired events so RAII destruction later cannot
      // cancel anything the model considers fired.
      for (std::size_t i = live.size(); i-- > 0;) {
        if (!live[i].pending()) {
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          liveRef.erase(liveRef.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
    }
  }

  for (auto& h : live) h.release();
  for (const Reservation& r : reserved) {
    const Ref& ref = model[r.ref];
    EXPECT_EQ(sched.passed(ref.time, r.seq), ref.time <= lastUntil);
  }
  sched.run();
  modelRunTo(Scheduler::kMaxTime);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(sched.executedEvents(), expected.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerOrderFuzz,
                         ::testing::Values(11, 13, 17, 19, 23));

// The simulator's own regime, checked against the same reference order: a
// population of over a thousand pending events on a coarse time grid (so
// most share their timestamp with others), long RTO-style timers parked
// deep in the heap and cancelled or re-armed at arbitrary positions, and
// callbacks that post, schedule and cancel from inside fn() — the Link and
// TCP patterns. The model is an ordered map keyed by (time, scheduling
// order) and fires in lockstep: at each callback the token must be the
// model's minimum. Keys with followers (the Link's transmit end and
// delivery) are modelled the way the scheduler must reproduce: the key
// sits in the map as a marker, and when the run reaches it the follower
// enters the map at its own time with the next scheduling order.
class ReentrantModel {
 public:
  static constexpr std::size_t kPreload = 1200;
  static constexpr std::size_t kTimers = 96;

  explicit ReentrantModel(std::uint64_t seed)
      : rng_(seed), timers_(kTimers), timerRef_(kTimers, kNone) {
    for (std::size_t i = 0; i < kPreload; ++i) postPacket();
    for (std::size_t k = 0; k < kTimers; ++k) armTimer(k);
  }

  /// Fire `budget` events with the callbacks' work on, then drain.
  void run(std::uint64_t budget) {
    while (fired_ < budget && !diverged_) {
      ASSERT_TRUE(sched_.step());
      ASSERT_EQ(sched_.pendingEvents(), pending_.size());
    }
    pendingAtBudget_ = pending_.size();
    draining_ = true;
    sched_.run();
    EXPECT_FALSE(diverged_);
    EXPECT_TRUE(pending_.empty());
    EXPECT_EQ(sched_.pendingEvents(), 0u);
    EXPECT_EQ(sched_.executedEvents(), fired_);
  }

  std::uint64_t fired() const { return fired_; }
  std::uint64_t cancelled() const { return cancelled_; }
  std::uint64_t reservedPosted() const { return reservedPosted_; }
  std::uint64_t reservedPassed() const { return reservedPassed_; }
  std::uint64_t followersFired() const { return followersFired_; }
  std::size_t pendingAtBudget() const { return pendingAtBudget_; }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  /// Set in a pending_ value that is a key's marker, not an event.
  static constexpr std::size_t kMarker = std::size_t{1} << 62;

  struct Key {
    std::int64_t ns;
    std::uint64_t order;
    int kind = 1;  ///< 0: a key's marker, which precedes the key's event
    auto operator<=>(const Key&) const = default;
  };

  /// Delays on a 100 ns grid: many events land on the same timestamp,
  /// including now() itself.
  SimTime packetDelay() {
    return SimTime::fromNs(100 * rng_.uniformInt(0, 30));
  }
  SimTime timerDelay() {
    return SimTime::fromNs(100 * rng_.uniformInt(500, 2000));
  }

  std::size_t record(SimTime delay) {
    const std::size_t token = keys_.size();
    keys_.push_back(Key{(sched_.now() + delay).ns(), order_++});
    pending_.emplace(keys_.back(), token);
    return token;
  }

  void postPacket() {
    const SimTime delay = packetDelay();
    const std::size_t token = record(delay);
    sched_.post(delay, [this, token] { onFire(token, kNone); });
  }

  /// Reserve a key on the packet grid without posting it; the model only
  /// learns of it if it is posted.
  void reserveKey() {
    const SimTime when = sched_.now() + packetDelay();
    const std::size_t token = keys_.size();
    keys_.push_back(Key{when.ns(), order_++});
    reserved_.push_back(Reserved{token, sched_.reserveKey(when)});
  }

  /// Reserve a key on the packet grid that carries a follower a few grid
  /// steps (or none) later. The model holds the key's marker; the follower
  /// only gets its place when the run reaches the key.
  void reserveKeyWithFollower() {
    const SimTime keyTime = sched_.now() + packetDelay();
    const SimTime when = keyTime + SimTime::fromNs(100 * rng_.uniformInt(0, 4));
    const std::size_t keyToken = keys_.size();
    keys_.push_back(Key{keyTime.ns(), order_++});
    const std::size_t follower = keys_.size();
    keys_.push_back(Key{when.ns(), 0});  // order set when the key passes
    isFollower_.resize(keys_.size());
    isFollower_[follower] = true;
    Key marker = keys_[keyToken];
    marker.kind = 0;
    pending_.emplace(marker, follower | kMarker);
    const std::uint64_t seq = sched_.reserveKeyWithFollower(
        keyTime, when, [this, follower] { onFire(follower, kNone); });
    reserved_.push_back(Reserved{keyToken, seq});
  }

  /// The run reached every marker ahead of the next event: their
  /// followers take their places, in key order.
  void passMarkers() {
    while (!pending_.empty() && (pending_.begin()->second & kMarker) != 0) {
      const std::size_t follower = pending_.begin()->second & ~kMarker;
      pending_.erase(pending_.begin());
      keys_[follower].order = order_++;
      pending_.emplace(keys_[follower], follower);
    }
  }

  /// Post a random outstanding reservation if its key is still ahead of
  /// the event firing now (`current`); drop it otherwise.
  void postReservedKey(std::size_t current) {
    const std::size_t idx = rng_.uniformInt(reserved_.size());
    const Reserved r = reserved_[idx];
    reserved_.erase(reserved_.begin() + static_cast<std::ptrdiff_t>(idx));
    const SimTime when = SimTime::fromNs(keys_[r.token].ns);
    const bool passed = keys_[r.token] <= keys_[current];
    EXPECT_EQ(sched_.passed(when, r.seq), passed)
        << "reserved token " << r.token << " at token " << current;
    if (passed) {
      ++reservedPassed_;
      return;
    }
    pending_.emplace(keys_[r.token], r.token);
    const std::size_t token = r.token;
    sched_.postReserved(when, r.seq, [this, token] { onFire(token, kNone); });
    ++reservedPosted_;
  }

  /// (Re-)arm timer k; the move-assignment cancels a still-pending arm.
  void armTimer(std::size_t k) {
    retireTimer(k, /*viaCancel=*/false);
    const SimTime delay = timerDelay();
    const std::size_t token = record(delay);
    timerRef_[k] = token;
    timers_[k] = sched_.schedule(delay, [this, token, k] { onFire(token, k); });
  }

  /// Mirror the cancellation of timer k's current arm into the model.
  void retireTimer(std::size_t k, bool viaCancel) {
    const std::size_t ref = timerRef_[k];
    const bool modelPending = ref != kNone && pending_.erase(keys_[ref]) == 1;
    EXPECT_EQ(timers_[k].pending(), modelPending);
    if (viaCancel) {
      EXPECT_EQ(timers_[k].cancel(), modelPending);
    }
    if (modelPending) ++cancelled_;
  }

  void onFire(std::size_t token, std::size_t timer) {
    if (diverged_) return;
    passMarkers();
    const std::size_t expected = pending_.begin()->second;
    if (token != expected) {
      diverged_ = true;
      ADD_FAILURE() << "fired token " << token << " but the model expects "
                    << expected << " after " << fired_ << " events";
      return;
    }
    EXPECT_EQ(sched_.now().ns(), keys_[token].ns);
    pending_.erase(pending_.begin());
    ++fired_;
    if (token < isFollower_.size() && isFollower_[token]) ++followersFired_;
    if (timer != kNone) {
      EXPECT_FALSE(timers_[timer].pending());  // fired counts as not pending
    }
    if (draining_) return;

    // A packet event re-posts itself (sometimes twice), keeping the
    // population above its preload size; some events also touch timers.
    if (timer == kNone) {
      postPacket();
      if (rng_.uniform() < 0.05) postPacket();
    }
    // Reserve keys now and then, most with a follower; post about half of
    // them from a later callback, while some have passed by then.
    if (rng_.uniform() < 0.05) reserveKey();
    if (timer == kNone && rng_.uniform() < 0.2) reserveKeyWithFollower();
    if (!reserved_.empty() && rng_.uniform() < 0.05) postReservedKey(token);
    const double action = rng_.uniform();
    if (action < 0.25) {
      armTimer(rng_.uniformInt(kTimers));
    } else if (action < 0.35) {
      retireTimer(rng_.uniformInt(kTimers), /*viaCancel=*/true);
    } else if (action < 0.40 && timer != kNone) {
      armTimer(timer);  // the RTO re-arming itself from its own callback
    }
  }

  struct Reserved {
    std::size_t token;
    std::uint64_t seq;
  };

  Scheduler sched_;
  Rng rng_;
  std::vector<Key> keys_;               ///< by token
  std::vector<Reserved> reserved_;      ///< reserved, not yet posted
  std::map<Key, std::size_t> pending_;  ///< the reference order
  std::vector<EventHandle> timers_;
  std::vector<std::size_t> timerRef_;  ///< token of each timer's arm
  std::uint64_t order_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t reservedPosted_ = 0;
  std::uint64_t reservedPassed_ = 0;
  std::uint64_t followersFired_ = 0;
  std::vector<bool> isFollower_;  ///< by token
  std::size_t pendingAtBudget_ = 0;
  bool draining_ = false;
  bool diverged_ = false;
};

class SchedulerPopulationFuzz
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerPopulationFuzz, ReentrantCallbacksKeepReferenceOrder) {
  ReentrantModel model(GetParam());
  model.run(20'000);
  EXPECT_GE(model.pendingAtBudget(), ReentrantModel::kPreload);
  EXPECT_GT(model.cancelled(), 1000u);
  EXPECT_GT(model.fired(), 20'000u);
  EXPECT_GT(model.reservedPosted(), 20u);
  EXPECT_GT(model.reservedPassed(), 20u);
  EXPECT_GT(model.followersFired(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPopulationFuzz,
                         ::testing::Values(29, 31, 37));

TEST(SchedulerFuzz, CancelDuringCallbackIsSafe) {
  Scheduler sched;
  EventHandle second;
  bool secondFired = false;
  sched.post(10_ns, [&] { second.cancel(); });
  second = sched.schedule(20_ns, [&] { secondFired = true; });
  sched.run();
  EXPECT_FALSE(secondFired);
  EXPECT_EQ(sched.pendingEvents(), 0u);
}

TEST(SchedulerFuzz, CancelFromInsideOwnCallback) {
  // The slot is freed before the callback runs, so self-cancel is inert
  // and the slot is immediately reusable for events scheduled inside the
  // callback.
  Scheduler sched;
  EventHandle self;
  bool rescheduled = false;
  self = sched.schedule(10_ns, [&] {
    EXPECT_FALSE(self.cancel());
    sched.post(5_ns, [&] { rescheduled = true; });
  });
  sched.run();
  EXPECT_TRUE(rescheduled);
  EXPECT_EQ(sched.executedEvents(), 2u);
}

TEST(SchedulerFuzz, ReschedulingDuringRunKeepsOrder) {
  // A callback that re-arms its own timer (the RTO pattern): each firing
  // must see the handle inert, and the re-armed event must interleave
  // correctly with an independent event stream.
  Scheduler sched;
  std::vector<int> order;
  EventHandle rto;
  int rearms = 0;
  struct Rearm {
    Scheduler& sched;
    EventHandle& rto;
    int& rearms;
    std::vector<int>& order;
    void fire() {
      order.push_back(100 + rearms);
      if (++rearms < 3) {
        rto = sched.schedule(20_ns, [this] { fire(); });
      }
    }
  } rearm{sched, rto, rearms, order};
  rto = sched.schedule(20_ns, [&rearm] { rearm.fire(); });
  for (int i = 0; i < 6; ++i) {
    sched.post(SimTime::fromNs(10 + 10 * i),
               [&order, i] { order.push_back(i); });
  }
  sched.run();
  // 10:0 · 20: rto (scheduled before the t=20 post) then 1 · 30:2 ·
  // 40: 3 then the re-armed rto (re-armed later, so later seq) · 50:4 ·
  // 60: 5 then rto.
  EXPECT_EQ(order, (std::vector<int>{0, 100, 1, 2, 3, 101, 4, 5, 102}));
}

TEST(SchedulerFuzz, ScheduleDuringCallbackRuns) {
  Scheduler sched;
  struct Chain {
    Scheduler& sched;
    int depth = 0;
    void fire() {
      if (++depth < 100) sched.post(1_ns, [this] { fire(); });
    }
  } chain{sched};
  sched.post(0_ns, [&chain] { chain.fire(); });
  sched.run();
  EXPECT_EQ(chain.depth, 100);
}

}  // namespace
}  // namespace tlbsim::sim
