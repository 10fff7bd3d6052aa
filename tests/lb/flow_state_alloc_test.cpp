// Counts global operator new/delete to prove FlowStateTable's claim: once
// the slot pool has reached its high-water capacity, the touch / erase /
// purge / evict packet path performs zero heap allocations. Separate test
// binary (like sim_alloc_count_test) so the replaced operators cannot
// perturb other tests.
#include <gtest/gtest.h>

#include "../alloc_counter.hpp"
#include "lb/flow_state_table.hpp"
#include "util/rng.hpp"

namespace tlbsim::lb {
namespace {

struct Payload {
  std::uint64_t bytes = 0;
  int port = -1;
};

TEST(FlowStateAlloc, CounterSeesAllocations) {
  const auto before = newCalls();
  auto* p = new int(7);
  EXPECT_GT(newCalls(), before);
  delete p;
}

TEST(FlowStateAlloc, SteadyStatePathIsAllocationFree) {
  FlowStateConfig cfg;
  cfg.maxFlows = 2048;
  cfg.initialCapacity = 64;
  cfg.idleTimeout = microseconds(10);
  FlowStateTable<Payload> t(cfg);

  // Warm-up: force the pool through its full doubling schedule to the
  // maxFlows high-water mark (the last allocations the table ever makes).
  SimTime now;
  for (FlowId id = 0; id < 2048; ++id) {
    now += 1_ns;
    t.touch(id, now);
  }
  ASSERT_EQ(t.capacity(), cfg.maxFlows);

  // Measured phase: hit + miss touches (the misses evict at capacity),
  // erases, and idle purges — every mutation the packet path performs.
  Rng rng(0xA110C);
  const auto before = newCalls();
  for (int step = 0; step < 100000; ++step) {
    now += 3_ns;
    // Disjoint from the warm-up keys, so the first touches miss against a
    // full table and must take the capacity-eviction path.
    const FlowId id = 4096 + static_cast<FlowId>(step / 8) +
                      rng.uniformInt(std::uint64_t{1024});
    auto r = t.touch(id, now);
    r.state.bytes += 1460;
    if (step % 7 == 0) t.erase(id + 1);
    if (step % 512 == 0) t.purgeIdle(now);
  }
  const auto after = newCalls();
  EXPECT_EQ(after, before) << (after - before)
                           << " allocations on the steady-state path";
  EXPECT_LE(t.size(), cfg.maxFlows);
  EXPECT_GT(t.stats().evictedCapacity, 0u);
  EXPECT_GT(t.stats().purgedIdle, 0u);
}

}  // namespace
}  // namespace tlbsim::lb
