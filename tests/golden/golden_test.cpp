// Golden outputs: FNV-64 digests of what small deterministic runs emit
// (summary JSON, flows NDJSON, queries NDJSON, sampled series). A refactor
// that claims to leave simulated behaviour unchanged must keep every digest
// here; a change that moves one on purpose updates it and says why.
//
// Each run is audited (Audit::kOn) and must finish with zero invariant
// violations. On a mismatch the failure message prints the new digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "../harness/fat_tree_mix.hpp"
#include "app/query_probe.hpp"
#include "fault/plan.hpp"
#include "harness/experiment.hpp"
#include "obs/flow_probe.hpp"
#include "workload/traffic_gen.hpp"

namespace tlbsim::harness {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv64(std::string_view bytes, std::uint64_t h = kFnvOffset) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Digest of a series' points: each timestamp's nanoseconds and each
/// value's exact bit pattern.
std::uint64_t seriesDigest(
    const std::vector<std::pair<SimTime, double>>& points) {
  std::uint64_t h = kFnvOffset;
  for (const auto& [t, v] : points) {
    const std::int64_t ns = t.ns();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = fnv64(std::string_view(reinterpret_cast<const char*>(&ns), sizeof(ns)),
              h);
    h = fnv64(
        std::string_view(reinterpret_cast<const char*>(&bits), sizeof(bits)),
        h);
  }
  return h;
}

/// Digest of a ledger: per flow, in ledger order, its id, completion,
/// FCT, ACKs, dup-ACKs, fast retransmits, timeouts and out-of-order
/// packets.
std::uint64_t ledgerDigest(const stats::FlowLedger& ledger) {
  std::string bytes;
  for (const stats::FlowResult& r : ledger.flows()) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%llu %d %lld %llu %llu %llu %llu %llu\n",
                  static_cast<unsigned long long>(r.spec.id),
                  r.completed ? 1 : 0, static_cast<long long>(r.fct.ns()),
                  static_cast<unsigned long long>(r.acks),
                  static_cast<unsigned long long>(r.dupAcks),
                  static_cast<unsigned long long>(r.fastRetransmits),
                  static_cast<unsigned long long>(r.timeouts),
                  static_cast<unsigned long long>(r.outOfOrderPackets));
    bytes += line;
  }
  return fnv64(bytes);
}

/// The basic short/long mix on a 2x4 leaf-spine with 4 hosts per leaf.
ExperimentConfig basicMix(Scheme scheme) {
  ExperimentConfig cfg;
  cfg.topo.numLeaves = 2;
  cfg.topo.numSpines = 4;
  cfg.topo.hostsPerLeaf = 4;
  cfg.topo.linkDelay = microseconds(12.5);
  cfg.topo.bufferPackets = 128;
  cfg.scheme.scheme = scheme;
  cfg.seed = 7;
  cfg.maxDuration = seconds(5);
  cfg.audit = ExperimentConfig::Audit::kOn;

  workload::BasicMixConfig mix;
  mix.numShort = 20;
  mix.numLong = 2;
  mix.numHosts = 8;
  mix.hostsPerLeaf = 4;
  mix.longSize = 2 * kMB;
  Rng rng(cfg.seed);
  cfg.flows = workload::basicMixWorkload(mix, rng);
  return cfg;
}

struct Digests {
  std::string summary;
  std::string flows;
  std::string queries;  ///< empty unless the app layer ran
};

Digests runAudited(ExperimentConfig cfg, ExperimentResult* out = nullptr) {
  Experiment exp(std::move(cfg));
  exp.ownFlows();
  if (exp.config().app.enabled()) exp.ownQueries();
  ExperimentResult res = exp.run();
  EXPECT_GT(res.auditChecks, 0u);
  EXPECT_EQ(res.auditViolations, 0u);
  Digests d;
  d.summary = hex(fnv64(exp.summarize(res).toJson()));
  d.flows = hex(fnv64(exp.flows()->toNdjson({})));
  if (exp.queries() != nullptr) {
    d.queries = hex(fnv64(exp.queries()->toNdjson({})));
  }
  if (out != nullptr) *out = std::move(res);
  return d;
}

struct SchemeGolden {
  const char* scheme;  ///< CLI spelling
  const char* summary;
  const char* flows;
};

// Expected digests per scheme on basicMix().
const SchemeGolden kSchemeGoldens[] = {
    {"ecmp", "0xb07c0b6104675cbd", "0xa0ceff5392fb8472"},
    {"wcmp", "0xe19e04ffe61fdd82", "0xef0b71bc3fe44ea7"},
    {"rps", "0x9e29b2f423a573d8", "0x211b8fbb0cfcd5db"},
    {"drill", "0xe1b0429c258586a2", "0xe964702b03d0c6e1"},
    {"presto", "0x795e08bc0582304e", "0xa292f08cdfa81291"},
    {"letflow", "0xd1594df8dd63c072", "0xb4f6fe71fd5eae01"},
    {"conga", "0xd6a9f38e56b56154", "0x20025ff49423e820"},
    {"hermes", "0xd74c31b34fa97e94", "0x496667e8a3e43c8a"},
    {"round-robin", "0xf3a6b365ecfb2bd4", "0x9c658f14f5f9f2f8"},
    {"flow-level", "0x432f8fabfeca09f1", "0x4ea1ef62b86d08df"},
    {"shortest-queue", "0x10cbe1fdc02f7937", "0x5966c4953457a070"},
    {"fixed-granularity", "0xace60a77130a5611", "0x2e205efa46349ac9"},
    {"tlb", "0xd8ab78e690b51aba", "0x77e2e44a3ac656b2"},
};

void PrintTo(const SchemeGolden& g, std::ostream* os) { *os << g.scheme; }

class GoldenScheme : public ::testing::TestWithParam<SchemeGolden> {};

TEST_P(GoldenScheme, SummaryAndFlowsMatch) {
  const SchemeGolden& g = GetParam();
  const auto scheme = parseScheme(g.scheme);
  ASSERT_TRUE(scheme.has_value()) << g.scheme;
  const Digests d = runAudited(basicMix(*scheme));
  EXPECT_EQ(d.summary, g.summary) << g.scheme << " summary JSON";
  EXPECT_EQ(d.flows, g.flows) << g.scheme << " flows NDJSON";
}

INSTANTIATE_TEST_SUITE_P(
    Golden, GoldenScheme, ::testing::ValuesIn(kSchemeGoldens),
    [](const ::testing::TestParamInfo<SchemeGolden>& info) {
      std::string name;
      for (const char c : std::string_view(info.param.scheme)) {
        if (c != '-') name.push_back(c);
      }
      return name;
    });

/// basicMix() under TLB with leaf0-spine1 down from 5 ms to 40 ms.
ExperimentConfig tlbLinkFlap() {
  ExperimentConfig cfg = basicMix(Scheme::kTlb);
  std::string err;
  const bool ok =
      fault::parseLinkFaults("leaf0-spine1,down@5ms,up@40ms", &cfg.fault, &err);
  EXPECT_TRUE(ok) << err;
  return cfg;
}

/// basicMix() under ECMP with ten partition-aggregate queries on top.
ExperimentConfig ecmpApp() {
  ExperimentConfig cfg = basicMix(Scheme::kEcmp);
  cfg.app.queries = 10;
  cfg.app.fanOut = 4;
  cfg.app.concurrency = 2;
  cfg.app.placement = app::Placement::kSpread;
  cfg.app.responseBytes = 16 * kKB;
  cfg.app.slo = milliseconds(10);
  return cfg;
}

TEST(Golden, TlbUnderLinkFlap) {
  ExperimentResult res;
  const Digests d = runAudited(tlbLinkFlap(), &res);
  EXPECT_EQ(res.faultEventsApplied, 2u);
  EXPECT_EQ(d.summary, "0x63465358c4ae4bb3");
  EXPECT_EQ(d.flows, "0x0557908753f2d72b");
}

TEST(Golden, EcmpAppQueries) {
  const Digests d = runAudited(ecmpApp());
  EXPECT_EQ(d.summary, "0xc57765217e69e8d3");
  EXPECT_EQ(d.flows, "0x27d85d4cfb734c23");
  EXPECT_EQ(d.queries, "0x08cac353c24c03e3");
}

TEST(Golden, TlbSampledSeries) {
  ExperimentConfig cfg = basicMix(Scheme::kTlb);
  cfg.sampleInterval = microseconds(100);
  ExperimentResult res;
  runAudited(std::move(cfg), &res);
  EXPECT_EQ(hex(seriesDigest(res.shortDupAckRatio.points())),
            "0xfb5c75b0c9b9b278");
  EXPECT_EQ(hex(seriesDigest(res.shortQueueDelayUs.points())),
            "0xe3418ba708f32cd6");
  EXPECT_EQ(hex(seriesDigest(res.longOooRatio.points())),
            "0x0ddb130ba6d5f31a");
  EXPECT_EQ(hex(seriesDigest(res.longThroughputGbps.points())),
            "0x882a966ecdac4cc2");
  EXPECT_EQ(hex(seriesDigest(res.fabricUtilization.points())),
            "0xb5a2c61da01eef17");
}

// The number of events each run executes. The count is exact and
// deterministic, so it gates the event core's cost per packet where no
// timing metric can: a change that adds events per packet fails here.
TEST(Golden, EventCounts) {
  const std::pair<const char*, ExperimentConfig> runs[] = {
      {"ecmp", basicMix(Scheme::kEcmp)},
      {"drill", basicMix(Scheme::kDrill)},
      {"tlb", basicMix(Scheme::kTlb)},
      {"tlb link flap", tlbLinkFlap()},
      {"ecmp app", ecmpApp()},
  };
  const std::uint64_t expected[] = {43788, 42980, 43612, 43030, 50733};
  for (std::size_t i = 0; i < std::size(runs); ++i) {
    Experiment exp(runs[i].second);
    const ExperimentResult res = exp.run();
    EXPECT_EQ(res.auditViolations, 0u) << runs[i].first;
    EXPECT_EQ(res.executedEvents, expected[i]) << runs[i].first;
  }
}

// The k=4 fat-tree test mix: both decision tiers (edge and aggregation)
// run the scheme.
TEST(Golden, FatTreeLedger) {
  const std::pair<Scheme, const char*> expected[] = {
      {Scheme::kEcmp, "0x3c250af847720420"},
      {Scheme::kLetFlow, "0xabd85071c5e7f8f6"},
      {Scheme::kTlb, "0x64183f22f309c66f"},
  };
  for (const auto& [scheme, digest] : expected) {
    const ExperimentResult res = runExperiment(fatTreeMix(scheme));
    EXPECT_EQ(hex(ledgerDigest(res.ledger)), digest) << schemeName(scheme);
  }
}

}  // namespace
}  // namespace tlbsim::harness
