// The sweep engine's contracts: byte-identical reports for any worker
// count, aggregation over the seed axis only, variant overrides applied
// in variant-wins order, and error propagation after the join.
#include "runner/runner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "../harness/fat_tree_mix.hpp"
#include "obs/json.hpp"

namespace tlbsim::runner {
namespace {

/// A tiny but real experiment: 2 leaves x 3 spines, a handful of flows.
/// Small enough that a full grid stays under a second per worker.
SweepScenario tinyScenario() {
  SweepScenario scenario;
  scenario.base = [](const SweepPoint&) {
    harness::ExperimentConfig cfg;
    cfg.topo.numLeaves = 2;
    cfg.topo.numSpines = 3;
    cfg.topo.hostsPerLeaf = 4;
    cfg.topo.linkDelay = microseconds(5);
    cfg.topo.bufferPackets = 64;
    cfg.topo.ecnThresholdPackets = 20;
    cfg.maxDuration = seconds(5);
    return cfg;
  };
  scenario.workload = [](harness::ExperimentConfig& cfg, const SweepPoint&) {
    Rng rng(cfg.seed);
    for (int i = 0; i < 6; ++i) {
      transport::FlowSpec f;
      f.id = i;
      f.src = static_cast<net::HostId>(rng.uniformInt(0, 3));
      f.dst = static_cast<net::HostId>(4 + rng.uniformInt(0, 3));
      f.size = 20 * kKB + rng.uniformInt(0, 40) * kKB;
      f.start = microseconds(static_cast<double>(rng.uniformInt(0, 200)));
      cfg.flows.push_back(f);
    }
  };
  return scenario;
}

SweepSpec tinySpec() {
  SweepSpec spec;
  spec.schemes = {harness::Scheme::kRps, harness::Scheme::kLetFlow,
                  harness::Scheme::kTlb};
  spec.seeds = {1, 2};
  return spec;
}

/// Reads a whole file (empty when it does not exist).
std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Runner, ReportIsByteIdenticalAcrossWorkerCounts) {
  const SweepScenario scenario = tinyScenario();
  const SweepSpec spec = tinySpec();

  RunnerOptions one;
  one.jobs = 1;
  RunnerOptions four;
  four.jobs = 4;
  RunnerOptions eight;
  eight.jobs = 8;

  const std::string j1 = runSweep(spec, scenario, one).toJson();
  const std::string j4 = runSweep(spec, scenario, four).toJson();
  const std::string j8 = runSweep(spec, scenario, eight).toJson();
  EXPECT_EQ(j1, j4);
  EXPECT_EQ(j1, j8);
}

TEST(Runner, ReportJsonParsesAndCarriesTheGrid) {
  const SweepReport report = runSweep(tinySpec(), tinyScenario(), {});
  const auto doc = obs::JsonValue::parse(report.toJson());
  ASSERT_TRUE(doc.has_value());
  const auto* sweep = doc->find("sweep");
  ASSERT_NE(sweep, nullptr);
  EXPECT_EQ(sweep->find("schemes")->items.size(), 3u);
  EXPECT_EQ(sweep->find("points")->number, 6.0);
  EXPECT_EQ(doc->find("runs")->items.size(), 6u);
  EXPECT_EQ(doc->find("aggregates")->items.size(), 3u);
  // Every run summary carries its identity keys.
  for (const auto& run : doc->find("runs")->items) {
    EXPECT_NE(run.find("scheme"), nullptr);
    EXPECT_NE(run.find("point_index"), nullptr);
    EXPECT_NE(run.find("base_seed"), nullptr);
  }
}

TEST(Runner, AggregatesAverageOverSeedsOnly) {
  const SweepReport report = runSweep(tinySpec(), tinyScenario(), {});
  ASSERT_EQ(report.runs.size(), 6u);
  ASSERT_EQ(report.aggregates.size(), 3u);
  for (const auto& agg : report.aggregates) {
    EXPECT_EQ(agg.runs, 2u);
    // Identity keys are not aggregated as metrics.
    EXPECT_EQ(agg.stats("seed"), nullptr);
    EXPECT_EQ(agg.stats("base_seed"), nullptr);
    EXPECT_EQ(agg.stats("point_index"), nullptr);
    const RunningStats* afct = agg.stats("short_afct_ms");
    ASSERT_NE(afct, nullptr);
    EXPECT_EQ(afct->count(), 2u);
  }
  // find() addresses the scheme axis.
  EXPECT_NE(report.find(harness::Scheme::kTlb), nullptr);
  EXPECT_EQ(report.find(harness::Scheme::kEcmp), nullptr);
}

TEST(Runner, RunsAreDeterministicPerPointSeed) {
  // Same spec run twice: identical results, not merely identical shapes.
  const SweepScenario scenario = tinyScenario();
  const SweepSpec spec = tinySpec();
  const SweepReport a = runSweep(spec, scenario, {});
  const SweepReport b = runSweep(spec, scenario, {});
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].point.runSeed, b.runs[i].point.runSeed);
    EXPECT_EQ(a.runs[i].result.endTime, b.runs[i].result.endTime);
    EXPECT_EQ(a.runs[i].result.executedEvents,
              b.runs[i].result.executedEvents);
  }
}

TEST(Runner, VariantOverridesWinOverAxisScheme) {
  SweepSpec spec;
  spec.schemes = {harness::Scheme::kTlb};
  spec.variants = {{"as-rps", {"scheme=rps"}}};
  harness::Scheme seen = harness::Scheme::kTlb;
  SweepScenario scenario = tinyScenario();
  scenario.workload = [&seen, inner = scenario.workload](
                          harness::ExperimentConfig& cfg,
                          const SweepPoint& pt) {
    seen = cfg.scheme.scheme;
    inner(cfg, pt);
  };
  const SweepReport report = runSweep(spec, scenario, {});
  EXPECT_EQ(seen, harness::Scheme::kRps);
  ASSERT_EQ(report.runs.size(), 1u);
  // The run summary reports the scheme that actually ran.
  const std::string* scheme = report.runs[0].summary.meta("scheme");
  ASSERT_NE(scheme, nullptr);
  EXPECT_EQ(*scheme, "RPS");
}

TEST(Runner, BadOverrideSurfacesAsErrorAfterDraining) {
  SweepSpec spec = tinySpec();
  spec.variants = {{"bad", {"no.such.key=1"}}};
  EXPECT_THROW(runSweep(spec, tinyScenario(), {}), std::runtime_error);
}

TEST(Runner, CollectMetricsFoldsCountersIntoSummaries) {
  SweepSpec spec;
  spec.schemes = {harness::Scheme::kTlb};
  RunnerOptions opt;
  opt.collectMetrics = true;
  const SweepReport report = runSweep(spec, tinyScenario(), opt);
  ASSERT_EQ(report.runs.size(), 1u);
  bool sawMetric = false;
  for (const auto& [key, value] : report.runs[0].summary.values()) {
    if (key.rfind("metric.", 0) == 0) sawMetric = true;
  }
  EXPECT_TRUE(sawMetric);
}

TEST(Runner, CollectFlowsFoldsSummariesByteIdenticallyAcrossWorkers) {
  const SweepScenario scenario = tinyScenario();
  const SweepSpec spec = tinySpec();
  RunnerOptions one;
  one.jobs = 1;
  one.collectFlows = true;
  RunnerOptions four;
  four.jobs = 4;
  four.collectFlows = true;

  const SweepReport r1 = runSweep(spec, scenario, one);
  const SweepReport r4 = runSweep(spec, scenario, four);
  EXPECT_EQ(r1.toJson(), r4.toJson());

  ASSERT_FALSE(r1.runs.empty());
  for (const auto& run : r1.runs) {
    ASSERT_NE(run.summary.value("flows.tracked"), nullptr);
    EXPECT_EQ(*run.summary.value("flows.tracked"), 6.0);
    ASSERT_NE(run.summary.value("flows.reorder_rate"), nullptr);
    ASSERT_NE(run.summary.value("flows.matrix_max_imbalance"), nullptr);
    // No NDJSON requested: the per-run blocks stay empty.
    EXPECT_TRUE(run.flowsNdjson.empty());
  }
}

TEST(Runner, FlowsNdjsonIsByteIdenticalAcrossWorkerCounts) {
  const SweepScenario scenario = tinyScenario();
  const SweepSpec spec = tinySpec();
  const std::string p1 = testing::TempDir() + "/runner_flows_j1.ndjson";
  const std::string p4 = testing::TempDir() + "/runner_flows_j4.ndjson";
  RunnerOptions one;
  one.jobs = 1;
  one.flowsNdjsonPath = p1;  // implies collectFlows
  RunnerOptions four;
  four.jobs = 4;
  four.flowsNdjsonPath = p4;

  runSweep(spec, scenario, one);
  runSweep(spec, scenario, four);
  const std::string t1 = slurp(p1);
  const std::string t4 = slurp(p4);
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, t4);

  // The concatenation is one meta line per run, in point index order.
  std::size_t metaLines = 0;
  std::istringstream lines(t1);
  std::string line;
  while (std::getline(lines, line)) {
    const auto doc = obs::JsonValue::parse(line);
    ASSERT_TRUE(doc.has_value());
    if (doc->find("type")->str == "meta") ++metaLines;
  }
  EXPECT_EQ(metaLines, spec.size());
  std::remove(p1.c_str());
  std::remove(p4.c_str());
}

TEST(Runner, FatTreeFlowsNdjsonIsByteIdenticalAcrossWorkerCounts) {
  SweepScenario scenario;
  scenario.base = [](const SweepPoint& pt) {
    return harness::fatTreeMix(pt.scheme, pt.baseSeed);
  };
  SweepSpec spec;
  spec.seeds = {1, 2, 3};
  const std::string p1 = testing::TempDir() + "/runner_fattree_j1.ndjson";
  const std::string p4 = testing::TempDir() + "/runner_fattree_j4.ndjson";
  RunnerOptions one;
  one.jobs = 1;
  one.flowsNdjsonPath = p1;
  RunnerOptions four;
  four.jobs = 4;
  four.flowsNdjsonPath = p4;

  const SweepReport r1 = runSweep(spec, scenario, one);
  const SweepReport r4 = runSweep(spec, scenario, four);
  EXPECT_EQ(r1.toJson(), r4.toJson());
  const std::string t1 = slurp(p1);
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, slurp(p4));
  // Every run recorded every flow (14 per run) at both decision tiers.
  for (const RunOutcome& run : r1.runs) {
    ASSERT_NE(run.summary.value("flows.tracked"), nullptr);
    EXPECT_EQ(*run.summary.value("flows.tracked"), 14.0);
  }
  std::remove(p1.c_str());
  std::remove(p4.c_str());
}

TEST(Runner, UnwritableNdjsonPathFailsBeforeAnyPointRuns) {
  for (const bool queries : {false, true}) {
    RunnerOptions opt;
    (queries ? opt.queriesNdjsonPath : opt.flowsNdjsonPath) =
        "/nonexistent-dir/x.ndjson";
    int ran = 0;
    SweepScenario scenario = tinyScenario();
    scenario.workload = [&ran, inner = scenario.workload](
                            harness::ExperimentConfig& cfg,
                            const SweepPoint& pt) {
      ++ran;
      inner(cfg, pt);
    };
    EXPECT_THROW(runSweep(tinySpec(), scenario, opt), std::runtime_error);
    EXPECT_EQ(ran, 0) << (queries ? "queries" : "flows");
  }
}

TEST(Runner, FaultCableOutsideTheFabricFailsBeforeAnyPointRuns) {
  SweepSpec spec = tinySpec();
  spec.variants = {{"ok", {}},
                   {"bad", {"fault.link=leaf9-spine1,down@1ms"}}};
  int ran = 0;
  RunnerOptions opt;
  opt.onRunDone = [&ran](const SweepPoint&,
                         const harness::ExperimentResult&) { ++ran; };
  try {
    runSweep(spec, tinyScenario(), opt);
    FAIL() << "expected the sweep to be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("leaf9-spine1 is not in the fabric"),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(ran, 0);
}

TEST(Runner, LeafSpineOverrideOnFatTreeFailsBeforeAnyPointRuns) {
  SweepScenario scenario;
  scenario.base = [](const SweepPoint& pt) {
    return harness::fatTreeMix(pt.scheme, pt.baseSeed);
  };
  SweepSpec spec;
  spec.variants = {{"base", {}}, {"small buffer", {"topo.buffer=8"}}};
  int ran = 0;
  RunnerOptions opt;
  opt.onRunDone = [&ran](const SweepPoint&,
                         const harness::ExperimentResult&) { ++ran; };
  try {
    runSweep(spec, scenario, opt);
    FAIL() << "expected the sweep to be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("topo.buffer"), std::string::npos) << what;
    EXPECT_NE(what.find("fat-tree"), std::string::npos) << what;
  }
  EXPECT_EQ(ran, 0);
}

TEST(Runner, OnRunDoneFiresOncePerPoint) {
  SweepSpec spec = tinySpec();
  RunnerOptions opt;
  opt.jobs = 4;
  int calls = 0;
  opt.onRunDone = [&calls](const SweepPoint&,
                           const harness::ExperimentResult&) { ++calls; };
  runSweep(spec, tinyScenario(), opt);
  EXPECT_EQ(calls, 6);
}

TEST(Runner, ResolveJobs) {
  EXPECT_EQ(resolveJobs(3), 3);
  EXPECT_GE(resolveJobs(0), 1);
  EXPECT_GE(resolveJobs(-1), 1);
}

}  // namespace
}  // namespace tlbsim::runner
