// Integration tests: full simulations through the public harness API.
#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "obs/metrics.hpp"
#include "workload/traffic_gen.hpp"

namespace tlbsim::harness {
namespace {

ExperimentConfig smallConfig(Scheme scheme, std::uint64_t seed = 7) {
  ExperimentConfig cfg;
  cfg.topo.numLeaves = 2;
  cfg.topo.numSpines = 4;
  cfg.topo.hostsPerLeaf = 4;
  cfg.topo.linkDelay = microseconds(12.5);
  cfg.topo.bufferPackets = 128;
  cfg.scheme.scheme = scheme;
  cfg.seed = seed;
  cfg.maxDuration = seconds(5);

  workload::BasicMixConfig mix;
  mix.numShort = 20;
  mix.numLong = 2;
  mix.numHosts = 8;
  mix.hostsPerLeaf = 4;
  mix.longSize = 2 * kMB;
  Rng rng(seed);
  cfg.flows = workload::basicMixWorkload(mix, rng);
  return cfg;
}

TEST(Experiment, AllFlowsCompleteUnderTlb) {
  const auto res = runExperiment(smallConfig(Scheme::kTlb));
  EXPECT_EQ(res.ledger.completedCount([](const auto&) { return true; }),
            res.ledger.size());
  EXPECT_GT(res.endTime, 0_ns);
}

TEST(Experiment, FctsArePositiveAndBounded) {
  const auto res = runExperiment(smallConfig(Scheme::kTlb));
  for (const auto& f : res.ledger.flows()) {
    ASSERT_TRUE(f.completed);
    EXPECT_GT(f.fct, 0_ns);
    EXPECT_LT(f.fct, seconds(5));
  }
}

TEST(Experiment, DeterministicForSameSeed) {
  const auto a = runExperiment(smallConfig(Scheme::kTlb, 3));
  const auto b = runExperiment(smallConfig(Scheme::kTlb, 3));
  ASSERT_EQ(a.ledger.size(), b.ledger.size());
  for (std::size_t i = 0; i < a.ledger.size(); ++i) {
    EXPECT_EQ(a.ledger.flows()[i].fct, b.ledger.flows()[i].fct);
  }
  EXPECT_EQ(a.totalDrops, b.totalDrops);
}

TEST(Experiment, SamplingPopulatesSeries) {
  auto cfg = smallConfig(Scheme::kTlb);
  cfg.sampleInterval = microseconds(100);
  const auto res = runExperiment(cfg);
  EXPECT_FALSE(res.longThroughputGbps.empty());
  EXPECT_FALSE(res.shortQueueDelayUs.empty());
  EXPECT_FALSE(res.fabricUtilization.empty());
}

TEST(Experiment, TlbRunRecordsQthTrace) {
  Experiment exp(smallConfig(Scheme::kTlb));
  const auto& metrics = exp.ownMetrics();
  exp.run();
  const obs::Series* qth = metrics.findSeries("tlb.leaf0.qth_bytes");
  ASSERT_NE(qth, nullptr);
  EXPECT_FALSE(qth->empty());
}

TEST(Experiment, NonTlbSchemesHaveNoQthTrace) {
  Experiment exp(smallConfig(Scheme::kEcmp));
  const auto& metrics = exp.ownMetrics();
  exp.run();
  EXPECT_EQ(metrics.findSeries("tlb.leaf0.qth_bytes"), nullptr);
  EXPECT_EQ(metrics.toJson().find("\"tlb."), std::string::npos)
      << "an ECMP run must register no tlb.* metric";
}

TEST(Experiment, QueueLenSamplesAreNonNegative) {
  auto cfg = smallConfig(Scheme::kRps);
  const auto res = runExperiment(cfg);
  if (!res.shortQueueLenPkts.empty()) {
    EXPECT_GE(res.shortQueueLenPkts.min(), 0.0);
  }
}

TEST(Experiment, TlbAutoFillsPhysicalParameters) {
  // A deliberately wrong TLB RTT must be corrected from the topology.
  auto cfg = smallConfig(Scheme::kTlb);
  cfg.scheme.tlb.rtt = seconds(1);
  const auto res = runExperiment(cfg);
  EXPECT_EQ(res.ledger.completedCount([](const auto&) { return true; }),
            res.ledger.size());
}

TEST(Experiment, HardStopLeavesFlowsIncomplete) {
  auto cfg = smallConfig(Scheme::kEcmp);
  cfg.maxDuration = microseconds(200);  // barely one RTT
  const auto res = runExperiment(cfg);
  EXPECT_LT(res.ledger.completedCount([](const auto&) { return true; }),
            res.ledger.size());
  EXPECT_LE(res.endTime, microseconds(200) + microseconds(1));
}

// Property sweep: every scheme must complete the whole small mix, under
// several seeds, with zero stuck flows.
class SchemeSweep
    : public ::testing::TestWithParam<std::tuple<Scheme, std::uint64_t>> {};

TEST_P(SchemeSweep, CompletesEverything) {
  const auto [scheme, seed] = GetParam();
  const auto res = runExperiment(smallConfig(scheme, seed));
  EXPECT_EQ(res.ledger.completedCount([](const auto&) { return true; }),
            res.ledger.size())
      << schemeName(scheme) << " seed " << seed;
  // Conservation: every completed sender acked exactly its flow size.
  for (const auto& f : res.ledger.flows()) {
    EXPECT_TRUE(f.completed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeSweep,
    ::testing::Combine(
        ::testing::Values(Scheme::kEcmp, Scheme::kWcmp, Scheme::kRps,
                          Scheme::kDrill, Scheme::kPresto, Scheme::kLetFlow,
                          Scheme::kConga, Scheme::kHermes, Scheme::kRoundRobin,
                          Scheme::kFlowLevel,
                          Scheme::kShortestQueue, Scheme::kFixedGranularity,
                          Scheme::kTlb),
        ::testing::Values(1, 2, 3)));

// Asymmetric fabrics: flows must still complete when two uplinks degrade.
class AsymmetrySweep : public ::testing::TestWithParam<Scheme> {};

TEST_P(AsymmetrySweep, CompletesWithDegradedLinks) {
  auto cfg = smallConfig(GetParam());
  cfg.topo.overrides.push_back({0, 1, 0.25, 1.0});  // quarter bandwidth
  cfg.topo.overrides.push_back({0, 2, 1.0, 8.0});   // 8x delay
  const auto res = runExperiment(cfg);
  EXPECT_EQ(res.ledger.completedCount([](const auto&) { return true; }),
            res.ledger.size());
}

INSTANTIATE_TEST_SUITE_P(Asym, AsymmetrySweep,
                         ::testing::Values(Scheme::kEcmp, Scheme::kRps,
                                           Scheme::kPresto, Scheme::kLetFlow,
                                           Scheme::kTlb));

TEST(ExperimentClass, OwnedSinksAreWiredIntoTheRun) {
  Experiment exp(smallConfig(Scheme::kTlb));
  auto& metrics = exp.ownMetrics();
  auto& trace = exp.ownTrace(1000);
  EXPECT_EQ(exp.metrics(), &metrics);
  EXPECT_EQ(exp.trace(), &trace);

  const ExperimentResult res = exp.run();
  EXPECT_GT(res.ledger.completedCount(stats::FlowLedger::isShort), 0u);
  EXPECT_FALSE(metrics.counterValues().empty())
      << "a run with owned metrics must record counters";
}

TEST(ExperimentClass, RunIsRepeatableAndConst) {
  const Experiment exp(smallConfig(Scheme::kLetFlow));
  const ExperimentResult a = exp.run();
  const ExperimentResult b = exp.run();
  EXPECT_EQ(a.endTime, b.endTime);
  EXPECT_EQ(a.executedEvents, b.executedEvents);
  EXPECT_GT(a.executedEvents, 0u);
  EXPECT_DOUBLE_EQ(a.shortAfctSec(), b.shortAfctSec());
}

TEST(ExperimentClass, MoveTransfersOwnedSinks) {
  Experiment src(smallConfig(Scheme::kRps));
  auto& metrics = src.ownMetrics();
  Experiment dst = std::move(src);
  EXPECT_EQ(dst.metrics(), &metrics);
  const ExperimentResult res = dst.run();
  EXPECT_GT(res.ledger.completedCount(stats::FlowLedger::isShort), 0u);
}

TEST(ExperimentClass, SummarizeMatchesTheFreeFunction) {
  const ExperimentConfig cfg = smallConfig(Scheme::kTlb);
  Experiment exp(cfg);
  const ExperimentResult res = exp.run();
  const auto fromClass = exp.summarize(res).toJson();
  const auto fromFree = summarizeExperiment(cfg, res).toJson();
  EXPECT_EQ(fromClass, fromFree);
}

TEST(Experiment, TlbShortFlowsBeatEcmpOnTheBasicMix) {
  // The paper's headline direction at this small scale: TLB's short-flow
  // AFCT should not be worse than ECMP's (averaged over seeds to avoid
  // single-run noise).
  double tlbSum = 0.0;
  double ecmpSum = 0.0;
  for (std::uint64_t seed : {11, 22, 33}) {
    tlbSum += runExperiment(smallConfig(Scheme::kTlb, seed)).shortAfctSec();
    ecmpSum += runExperiment(smallConfig(Scheme::kEcmp, seed)).shortAfctSec();
  }
  EXPECT_LE(tlbSum, ecmpSum * 1.05);
}

}  // namespace
}  // namespace tlbsim::harness
