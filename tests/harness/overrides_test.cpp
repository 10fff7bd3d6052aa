#include "harness/overrides.hpp"

#include <gtest/gtest.h>

namespace tlbsim::harness {
namespace {

TEST(Overrides, AppliesTypedValues) {
  ExperimentConfig cfg;
  EXPECT_TRUE(applyOverride(cfg, "topo.buffer", "128"));
  EXPECT_EQ(cfg.topo.bufferPackets, 128);
  EXPECT_TRUE(applyOverride(cfg, "scheme", "letflow"));
  EXPECT_EQ(cfg.scheme.scheme, Scheme::kLetFlow);
  EXPECT_TRUE(applyOverride(cfg, "tlb.update-interval-us", "250"));
  EXPECT_EQ(cfg.scheme.tlb.updateInterval, microseconds(250));
  EXPECT_TRUE(applyOverride(cfg, "tcp.hole-guard", "false"));
  EXPECT_FALSE(cfg.tcp.holeRetransmitGuard);
}

TEST(Overrides, EcnThresholdKeepsTcpEcnConsistent) {
  ExperimentConfig cfg;
  EXPECT_TRUE(applyOverride(cfg, "topo.ecn-k", "0"));
  EXPECT_FALSE(cfg.tcp.enableEcn);
  EXPECT_TRUE(applyOverride(cfg, "topo.ecn-k", "65"));
  EXPECT_TRUE(cfg.tcp.enableEcn);
  EXPECT_EQ(cfg.topo.ecnThresholdPackets, 65);
}

TEST(Overrides, RejectsUnknownKeyWithExplanation) {
  ExperimentConfig cfg;
  std::string err;
  EXPECT_FALSE(applyOverride(cfg, "no.such.key", "1", &err));
  EXPECT_NE(err.find("no.such.key"), std::string::npos);
}

TEST(Overrides, RejectsGarbageValuesInsteadOfDefaulting) {
  ExperimentConfig cfg;
  const int before = cfg.topo.bufferPackets;
  std::string err;
  EXPECT_FALSE(applyOverride(cfg, "topo.buffer", "many", &err));
  EXPECT_EQ(cfg.topo.bufferPackets, before);
  EXPECT_FALSE(applyOverride(cfg, "topo.buffer", "128x", &err));
  EXPECT_FALSE(applyOverride(cfg, "scheme", "no-such-scheme", &err));
  EXPECT_FALSE(applyOverride(cfg, "topo.rate-gbps", "-1", &err));
}

TEST(Overrides, RejectsOneLeafFabric) {
  // A one-leaf fabric has no cross-leaf path for the workload generators
  // to draw a destination from.
  ExperimentConfig cfg;
  std::string err;
  EXPECT_FALSE(applyOverride(cfg, "topo.leaves", "1", &err));
  EXPECT_NE(err.find("topo.leaves"), std::string::npos) << err;
  EXPECT_EQ(cfg.topo.numLeaves, ExperimentConfig{}.topo.numLeaves);
  EXPECT_TRUE(applyOverride(cfg, "topo.leaves", "2"));
  EXPECT_EQ(cfg.topo.numLeaves, 2);
}

TEST(Overrides, RejectsLeafSpineKeysOnFatTree) {
  // A fat-tree builds from cfg.fatTree; a topo.* value would be ignored.
  ExperimentConfig cfg;
  cfg.fatTree = net::FatTreeConfig{};
  const ExperimentConfig before = cfg;
  for (const char* key : {"topo.buffer", "topo.rate-gbps", "topo.leaves",
                          "topo.ecn-k", "topo.rtt-us"}) {
    std::string err;
    EXPECT_FALSE(applyOverride(cfg, key, "8", &err)) << key;
    EXPECT_NE(err.find(key), std::string::npos) << err;
    EXPECT_NE(err.find("fat-tree"), std::string::npos) << err;
  }
  EXPECT_EQ(cfg.topo.bufferPackets, before.topo.bufferPackets);
  EXPECT_EQ(cfg.topo.numLeaves, before.topo.numLeaves);
  EXPECT_EQ(cfg.tcp.enableEcn, before.tcp.enableEcn);
  // Keys outside topo.* still apply to a fat-tree.
  EXPECT_TRUE(applyOverride(cfg, "scheme", "letflow"));
  EXPECT_EQ(cfg.scheme.scheme, Scheme::kLetFlow);
  // The list form stops at the rejected key.
  std::string err;
  EXPECT_FALSE(applyOverrides(cfg, {"scheme=tlb", "topo.buffer=256"}, &err));
  EXPECT_NE(err.find("topo.buffer"), std::string::npos) << err;
}

TEST(Overrides, ListAppliesInOrderAndStopsAtFirstFailure) {
  ExperimentConfig cfg;
  std::string err;
  EXPECT_TRUE(applyOverrides(
      cfg, {"topo.buffer=32", "topo.buffer=64", "scheme=rps"}, &err));
  EXPECT_EQ(cfg.topo.bufferPackets, 64);
  EXPECT_EQ(cfg.scheme.scheme, Scheme::kRps);

  EXPECT_FALSE(applyOverrides(cfg, {"topo.buffer=96", "nonsense"}, &err));
  EXPECT_EQ(cfg.topo.bufferPackets, 96) << "prefix before the failure applies";
  EXPECT_NE(err.find("key=value"), std::string::npos);
}

TEST(Overrides, HelpCoversEveryKey) {
  const auto help = overrideHelp();
  EXPECT_GE(help.size(), 15u);
  ExperimentConfig cfg;
  for (const std::string& line : help) {
    const std::string key = line.substr(0, line.find(' '));
    // Every documented key must be recognized (value may still be bad).
    std::string err;
    applyOverride(cfg, key, "not-a-value", &err);
    EXPECT_EQ(err.find("unknown override key"), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace tlbsim::harness
