#include "check/invariant_audit.hpp"

#include <gtest/gtest.h>

#include <string>

#include "harness/experiment.hpp"
#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "workload/traffic_gen.hpp"

namespace tlbsim::check {
namespace {

InvariantAuditor::Config lenient() {
  InvariantAuditor::Config cfg;
  cfg.assertOnViolation = false;
  return cfg;
}

TEST(InvariantAuditor, CleanStartHasNoViolations) {
  InvariantAuditor auditor(lenient());
  auditor.auditNow(microseconds(1));
  auditor.auditNow(microseconds(2));
  EXPECT_EQ(auditor.violationCount(), 0u);
  EXPECT_GE(auditor.checksRun(), 2u);
}

TEST(InvariantAuditor, DetectsTimeRegression) {
  InvariantAuditor auditor(lenient());
  auditor.auditNow(microseconds(100));
  auditor.auditNow(microseconds(50));
  ASSERT_EQ(auditor.violationCount(), 1u);
  EXPECT_NE(auditor.violations()[0].what.find("time regressed"),
            std::string::npos);
  EXPECT_EQ(auditor.violations()[0].time, microseconds(50));
}

TEST(InvariantAuditor, RecordingIsBoundedButCountIsNot) {
  auto cfg = lenient();
  cfg.maxRecorded = 2;
  InvariantAuditor auditor(cfg);
  for (int i = 5; i >= 1; --i) {
    auditor.auditNow(microseconds(i));  // strictly decreasing: 4 regressions
  }
  EXPECT_EQ(auditor.violationCount(), 4u);
  EXPECT_EQ(auditor.violations().size(), 2u);
}

TEST(InvariantAuditor, AssertOnViolationRoutesThroughFailureHandler) {
  static int fired = 0;
  fired = 0;
  auto prev = setFailureHandler(
      [](const char*, int, const char*, const char*) { ++fired; });
  InvariantAuditor auditor;  // default config asserts on violation
  auditor.auditNow(microseconds(10));
  auditor.auditNow(microseconds(5));
  setFailureHandler(prev);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(InvariantAuditor, WatchedLinkStaysConsistentThroughTraffic) {
  sim::Simulator simr;
  net::Link link(simr, gbps(1), microseconds(10), {16, 0});
  InvariantAuditor auditor(lenient());
  auditor.watchLink(link, "test-link");

  net::Packet pkt;
  pkt.flow = 1;
  pkt.size = 1500_B;
  pkt.payload = 1500_B;
  for (int i = 0; i < 4; ++i) link.send(pkt);
  auditor.auditNow(simr.now());  // mid-flight: queued + serializing
  simr.run();
  auditor.auditNow(simr.now());  // drained: all tx'd and delivered
  EXPECT_EQ(auditor.violationCount(), 0u);
  EXPECT_EQ(link.enqueuedPackets(), 4u);
  EXPECT_EQ(link.deliveredPackets(), 4u);
}

class CountingSink : public net::Node {
 public:
  void receive(net::Packet, int) override { ++received; }
  std::string name() const override { return "sink"; }
  int received = 0;
};

TEST(InvariantAuditor, WireConservationIsExactThroughMidSerializationFaults) {
  // Faults land while packets serialize and propagate; the auditor checks
  // tx == delivered + wire-dropped + on the wire every microsecond.
  sim::Simulator simr;
  CountingSink sink;
  net::Link link(simr, gbps(1), microseconds(10), {64, 0});
  link.connect(&sink, 0);
  InvariantAuditor::Config cfg = lenient();
  cfg.interval = microseconds(1);
  InvariantAuditor auditor(cfg);
  auditor.watchLink(link, "test-link");
  auditor.install(simr);

  net::Packet pkt;
  pkt.flow = 1;
  pkt.size = 1500_B;
  pkt.payload = 1500_B;
  for (int i = 0; i < 40; ++i) {
    simr.post(microseconds(7 * i), [&] { link.send(pkt); });
  }
  simr.post(microseconds(30), [&] { link.faultSetDropProb(0.3, 11); });
  simr.post(microseconds(55), [&] { link.faultSetDelayFactor(3.0); });
  simr.post(microseconds(61), [&] { link.faultDown(false); });
  simr.post(microseconds(66), [&] { link.faultUp(); });
  simr.post(microseconds(100), [&] { link.faultSetDelayFactor(1.0); });
  simr.post(microseconds(130), [&] { link.faultDown(false); });
  simr.post(microseconds(170), [&] { link.faultUp(); });
  simr.post(microseconds(200), [&] { link.faultDown(true); });
  simr.post(microseconds(230), [&] { link.faultUp(); });
  simr.post(microseconds(250), [&] { link.faultSetDropProb(0.0, 3); });
  simr.run(microseconds(600));

  EXPECT_GT(auditor.ticks(), 500u);
  EXPECT_EQ(auditor.violationCount(), 0u)
      << auditor.violations().front().what;
  EXPECT_GT(link.faultWireDrops(), 0u);
  EXPECT_EQ(link.wirePackets(), 0u);
  EXPECT_EQ(link.txPackets(),
            link.deliveredPackets() + link.faultWireDrops());
  EXPECT_EQ(link.deliveredPackets(),
            static_cast<std::uint64_t>(sink.received));
}

harness::ExperimentConfig auditedConfig(harness::Scheme scheme) {
  harness::ExperimentConfig cfg;
  cfg.topo.numLeaves = 2;
  cfg.topo.numSpines = 2;
  cfg.topo.hostsPerLeaf = 4;
  cfg.topo.linkDelay = microseconds(12.5);
  cfg.topo.bufferPackets = 64;
  cfg.scheme.scheme = scheme;
  cfg.seed = 11;
  cfg.maxDuration = seconds(5);
  cfg.audit = harness::ExperimentConfig::Audit::kOn;

  workload::BasicMixConfig mix;
  mix.numShort = 16;
  mix.numLong = 2;
  mix.numHosts = 8;
  mix.hostsPerLeaf = 4;
  mix.longSize = kMB;
  Rng rng(11);
  cfg.flows = workload::basicMixWorkload(mix, rng);
  return cfg;
}

TEST(InvariantAuditor, FullTlbExperimentAuditsClean) {
  const auto res = harness::runExperiment(auditedConfig(harness::Scheme::kTlb));
  EXPECT_GT(res.auditTicks, 0u);
  EXPECT_GT(res.auditChecks, res.auditTicks);
  EXPECT_EQ(res.auditViolations, 0u);
}

TEST(InvariantAuditor, FullEcmpExperimentAuditsClean) {
  const auto res =
      harness::runExperiment(auditedConfig(harness::Scheme::kEcmp));
  EXPECT_GT(res.auditTicks, 0u);
  EXPECT_EQ(res.auditViolations, 0u);
}

TEST(InvariantAuditor, AuditOffRunsNoChecks) {
  auto cfg = auditedConfig(harness::Scheme::kTlb);
  cfg.audit = harness::ExperimentConfig::Audit::kOff;
  const auto res = harness::runExperiment(cfg);
  EXPECT_EQ(res.auditTicks, 0u);
  EXPECT_EQ(res.auditChecks, 0u);
}

}  // namespace
}  // namespace tlbsim::check
