// Counts global operator new/delete across whole Experiment::run() calls
// to prove the packet path is allocation-free end to end: links, queues,
// switch forwarding with its uplink view, every selector's decision and
// the TCP endpoints. What a run may still allocate is per-run and
// per-flow setup plus a bounded amount of container growth (queue rings,
// reorder buffers, the event pool) -- never a cost per packet. So the same
// flows at four times their size must allocate (almost) exactly as much.
// Separate binary: the replacement operators must not perturb other tests.
#include <gtest/gtest.h>

#include <string>

#include "../alloc_counter.hpp"
#include "fault/plan.hpp"
#include "harness/experiment.hpp"
#include "obs/metrics.hpp"

namespace tlbsim::harness {
namespace {

/// Allocations the 4x run may make beyond the 1x run: deeper queue rings,
/// more reorder-buffer holes and a larger event pool, each growing by
/// doubling. A per-packet allocation would instead add tens of thousands.
constexpr unsigned long long kGrowthSlack = 256;

/// 2 leaves x 4 spines x 4 hosts; every host sends one cross-leaf flow,
/// starts staggered so flows overlap and queues build.
ExperimentConfig config(Scheme scheme, std::int64_t sizeScale,
                        const std::string& fault = "") {
  ExperimentConfig cfg;
  cfg.topo.numLeaves = 2;
  cfg.topo.numSpines = 4;
  cfg.topo.hostsPerLeaf = 4;
  cfg.topo.linkDelay = microseconds(12.5);
  cfg.topo.bufferPackets = 64;
  cfg.scheme.scheme = scheme;
  cfg.seed = 11;
  cfg.maxDuration = seconds(5);
  cfg.audit = ExperimentConfig::Audit::kOff;
  const int hosts = cfg.topo.numLeaves * cfg.topo.hostsPerLeaf;
  for (int i = 0; i < 2 * hosts; ++i) {
    transport::FlowSpec f;
    f.id = static_cast<FlowId>(i + 1);
    f.src = i % hosts;
    f.dst = (f.src + cfg.topo.hostsPerLeaf + i / hosts) % hosts;
    f.size = (i % 3 == 0 ? 1200 * kKB : 200 * kKB) * sizeScale;
    f.start = microseconds(50) * static_cast<std::int64_t>(i);
    cfg.flows.push_back(f);
  }
  if (!fault.empty()) {
    std::string err;
    EXPECT_TRUE(fault::parseLinkFaults(fault, &cfg.fault, &err)) << err;
  }
  return cfg;
}

struct RunCost {
  unsigned long long allocs = 0;
  std::uint64_t forwards = 0;
  std::uint64_t faultEvents = 0;
};

/// Allocations of one sinks-off run(), and the switch forwards of the
/// same (deterministic) run counted through the metrics registry.
RunCost measure(const ExperimentConfig& cfg) {
  RunCost cost;
  {
    const Experiment exp(cfg);
    const auto before = newCalls();
    const auto res = exp.run();
    cost.allocs = newCalls() - before;
    cost.faultEvents = res.faultEventsApplied;
    EXPECT_EQ(res.ledger.completedCount([](const auto&) { return true; }),
              res.ledger.size());
  }
  Experiment counted(cfg);
  const auto& metrics = counted.ownMetrics();
  (void)counted.run();
  for (const auto& [name, value] : metrics.counterValues()) {
    if (name.starts_with("switch.") && name.ends_with(".forwarded")) {
      cost.forwards += value;
    }
  }
  return cost;
}

void expectAllocationFree(Scheme scheme, const std::string& fault = "") {
  const RunCost small = measure(config(scheme, 1, fault));
  const RunCost large = measure(config(scheme, 4, fault));
  ASSERT_GT(small.allocs, 0u) << "allocation counter not interposed";
  ASSERT_GT(large.forwards, 3 * small.forwards);
  // Both runs see the whole fault plan (down and up) mid-transfer.
  EXPECT_EQ(small.faultEvents, fault.empty() ? 0u : 2u);
  EXPECT_EQ(large.faultEvents, small.faultEvents);
  EXPECT_LE(large.allocs, small.allocs + kGrowthSlack)
      << "1x: " << small.allocs << " allocations / " << small.forwards
      << " forwards; 4x: " << large.allocs << " / " << large.forwards;
  EXPECT_LT(static_cast<double>(large.allocs) /
                static_cast<double>(large.forwards),
            0.01);
}

TEST(PacketPathAlloc, TlbRunDoesNotAllocatePerPacket) {
  expectAllocationFree(Scheme::kTlb);
}

TEST(PacketPathAlloc, DrillRunDoesNotAllocatePerPacket) {
  expectAllocationFree(Scheme::kDrill);
}

TEST(PacketPathAlloc, EcmpRunDoesNotAllocatePerPacket) {
  expectAllocationFree(Scheme::kEcmp);
}

TEST(PacketPathAlloc, MaskedViewUnderLinkFlapDoesNotAllocatePerPacket) {
  // A leaf uplink goes down and comes back while flows are active, so the
  // switch hands the selector a view with the dead port masked out.
  expectAllocationFree(Scheme::kTlb, "leaf0-spine1,down@300us,up@900us");
}

}  // namespace
}  // namespace tlbsim::harness
