// Integration tests: full TCP simulations over the fat-tree, run through
// the same Experiment pipeline as the leaf-spine.
#include <gtest/gtest.h>

#include "fat_tree_mix.hpp"
#include "harness/experiment.hpp"
#include "obs/metrics.hpp"

namespace tlbsim::harness {
namespace {

class FatTreeSchemeSweep
    : public ::testing::TestWithParam<std::tuple<Scheme, std::uint64_t>> {};

// Every scheme, audited: both decision tiers run it, the conservation
// laws hold at every control tick and every flow completes.
TEST_P(FatTreeSchemeSweep, AllFlowsComplete) {
  const auto [scheme, seed] = GetParam();
  ExperimentConfig cfg = fatTreeMix(scheme, seed);
  cfg.audit = ExperimentConfig::Audit::kOn;
  const auto res = runExperiment(cfg);
  EXPECT_EQ(res.ledger.completedCount([](const auto&) { return true; }),
            res.ledger.size())
      << schemeName(scheme) << " seed " << seed;
  EXPECT_GT(res.auditChecks, 0u);
  EXPECT_EQ(res.auditViolations, 0u) << schemeName(scheme) << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, FatTreeSchemeSweep,
    ::testing::Combine(::testing::ValuesIn(allSchemes()),
                       ::testing::Values(1, 2)));

TEST(FatTreeExperiment, DeterministicForSameSeed) {
  const auto a = runExperiment(fatTreeMix(Scheme::kTlb, 5));
  const auto b = runExperiment(fatTreeMix(Scheme::kTlb, 5));
  ASSERT_EQ(a.ledger.size(), b.ledger.size());
  for (std::size_t i = 0; i < a.ledger.size(); ++i) {
    EXPECT_EQ(a.ledger.flows()[i].fct, b.ledger.flows()[i].fct);
  }
}

TEST(FatTreeExperiment, TlbInstancesLiveAtBothTiers) {
  Experiment exp(fatTreeMix(Scheme::kTlb));
  const obs::MetricsRegistry& m = exp.ownMetrics();
  const auto res = exp.run();
  EXPECT_EQ(res.ledger.size(), exp.config().flows.size());
  // TLB runs on 8 edge + 8 agg switches, each with its own control loop.
  for (const char* sw : {"edge0.0", "edge3.1", "agg0.0", "agg3.1"}) {
    const std::string name = std::string("tlb.") + sw + ".control_ticks";
    const obs::Counter* ticks = m.findCounter(name);
    ASSERT_NE(ticks, nullptr) << name;
    EXPECT_GT(ticks->value(), 0u) << name;
  }
}

TEST(FatTreeExperiment, HardStopRespected) {
  auto cfg = fatTreeMix(Scheme::kEcmp);
  cfg.maxDuration = microseconds(100);
  const auto res = runExperiment(cfg);
  EXPECT_LE(res.endTime, microseconds(100) + microseconds(1));
  EXPECT_LT(res.ledger.completedCount([](const auto&) { return true; }),
            res.ledger.size());
}

}  // namespace
}  // namespace tlbsim::harness
