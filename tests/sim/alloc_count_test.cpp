// Counts global operator new/delete to prove the event core's claim:
// once warm, the schedule / fire / cancel path — including periodic
// timer re-arms — performs zero heap allocations. Runs under the ASan
// CI jobs too, where the replacement operators still interpose above
// the sanitizer's malloc.
#include <gtest/gtest.h>

#include <vector>

#include "../alloc_counter.hpp"
#include "sim/scheduler.hpp"

namespace tlbsim::sim {
namespace {

TEST(AllocCount, CounterSeesHeapFallback) {
  // Sanity-check the instrumentation itself: an over-budget closure must
  // take EventFn's heap path and show up in the counter...
  struct Big {
    unsigned char pad[kEventInlineBytes + 16] = {};
    void operator()() const {}
  };
  const auto before = newCalls();
  EventFn heap{Big{}};
  const auto afterHeap = newCalls();
  // ...while a pointer-sized closure stays inline and does not.
  int x = 0;
  EventFn inlineFn{[&x] { ++x; }};
  const auto afterInline = newCalls();
  EXPECT_GT(afterHeap, before);
  EXPECT_EQ(afterInline, afterHeap);
}

TEST(AllocCount, SteadyStateEventPathIsAllocationFree) {
  Scheduler s;
  std::uint64_t fired = 0;

  // Warm-up: drive slots_/heap_ to a high-water capacity well above
  // anything the measured phase needs, and register the periodic timer
  // (its Periodic record is a one-time allocation).
  {
    std::vector<EventHandle> warm;
    warm.reserve(1024);
    for (int i = 0; i < 1024; ++i) {
      warm.push_back(
          s.schedule(SimTime::fromNs(i % 97), [&fired] { ++fired; }));
    }
    for (std::size_t i = 0; i < warm.size(); i += 2) warm[i].cancel();
    for (auto& h : warm) h.release();
  }
  s.every(50_ns, [&fired] { ++fired; }, /*start=*/50_ns, "tick");
  s.run(s.now() + 2000_ns);

  // Measured phase: schedule / cancel / fire churn, with periodic ticks
  // interleaved, entirely within the warmed capacity.
  const auto before = newCalls();
  EventHandle rto;
  for (int round = 0; round < 2000; ++round) {
    s.post(3_ns, [&fired] { ++fired; });
    s.post(7_ns, [&fired] { ++fired; });
    rto = s.schedule(40_ns, [&fired] { ++fired; });  // re-assign cancels
    EventHandle cancelled = s.schedule(11_ns, [&fired] { ++fired; });
    cancelled.cancel();
    s.run(s.now() + 25_ns);
  }
  rto.cancel();
  s.run(s.now() + 100_ns);
  const auto after = newCalls();
  EXPECT_EQ(after, before) << (after - before)
                           << " allocations on the steady-state path";
  EXPECT_GT(fired, 0u);
}

}  // namespace
}  // namespace tlbsim::sim
