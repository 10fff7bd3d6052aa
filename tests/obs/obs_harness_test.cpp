// End-to-end observability: run a small TLB experiment with a metrics
// registry and event trace installed and check what the run recorded.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "obs/flow_probe.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_summary.hpp"
#include "obs/trace.hpp"
#include "workload/traffic_gen.hpp"

namespace tlbsim::harness {
namespace {

ExperimentConfig smallTlbConfig(std::uint64_t seed = 7) {
  ExperimentConfig cfg;
  cfg.topo.numLeaves = 2;
  cfg.topo.numSpines = 4;
  cfg.topo.hostsPerLeaf = 4;
  cfg.topo.linkDelay = microseconds(12.5);
  cfg.topo.bufferPackets = 128;
  cfg.scheme.scheme = Scheme::kTlb;
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

TEST(ObsHarness, QthSeriesSampledAtControlInterval) {
  obs::MetricsRegistry metrics;
  auto cfg = smallTlbConfig();
  cfg.sinks.metrics = &metrics;
  const auto res = runExperiment(cfg);
  ASSERT_GT(res.endTime, 0_ns);

  // One q_th snapshot per TLB control tick, at the configured cadence
  // (500 us by default), starting one interval in.
  const obs::Series* qth = metrics.findSeries("tlb.leaf0.qth_bytes");
  ASSERT_NE(qth, nullptr);
  ASSERT_FALSE(qth->empty());
  const SimTime interval = cfg.scheme.tlb.updateInterval;
  EXPECT_EQ(interval, microseconds(500));
  for (std::size_t i = 0; i < qth->size(); ++i) {
    EXPECT_EQ(qth->points()[i].first,
              (i + 1) * interval)
        << "snapshot " << i << " off-cadence";
    EXPECT_GE(qth->points()[i].second, 0.0);
  }
  // The series covers the whole run (one point per elapsed interval).
  const auto expected =
      static_cast<std::size_t>(res.endTime / interval);
  EXPECT_GE(qth->size() + 1, expected);  // last tick may fall past endTime

  const obs::Counter* ticks =
      metrics.findCounter("tlb.leaf0.control_ticks");
  ASSERT_NE(ticks, nullptr);
  EXPECT_EQ(ticks->value(), qth->size());
}

TEST(ObsHarness, PerPortAndPerClassCountersPopulated) {
  obs::MetricsRegistry metrics;
  auto cfg = smallTlbConfig();
  cfg.sinks.metrics = &metrics;
  const auto res = runExperiment(cfg);

  // Every leaf uplink registered tx/drop/mark counters.
  std::uint64_t tx = 0, drops = 0, marks = 0;
  for (int l = 0; l < cfg.topo.numLeaves; ++l) {
    for (int s = 0; s < cfg.topo.numSpines; ++s) {
      const std::string base = "port.leaf" + std::to_string(l) +
                               "->spine" + std::to_string(s);
      const obs::Counter* t = metrics.findCounter(base + ".tx_packets");
      const obs::Counter* d = metrics.findCounter(base + ".drops");
      const obs::Counter* m = metrics.findCounter(base + ".ecn_marks");
      ASSERT_NE(t, nullptr) << base;
      ASSERT_NE(d, nullptr) << base;
      ASSERT_NE(m, nullptr) << base;
      tx += t->value();
      drops += d->value();
      marks += m->value();
      ASSERT_NE(metrics.findGauge(base + ".queue_pkts"), nullptr) << base;
    }
  }
  EXPECT_GT(tx, 0u);
  // The uplink counters agree with the ledger-derived totals for the
  // same links (drops/marks can also occur at downlinks, so <=).
  EXPECT_LE(drops, res.totalDrops);
  EXPECT_LE(marks, res.totalEcnMarks);

  // Per-class decision counters: short flows sprayed (or stayed via
  // stickiness), and every decision was counted.
  const obs::Counter* spray = metrics.findCounter("tlb.leaf0.short.spray");
  const obs::Counter* reroute =
      metrics.findCounter("tlb.leaf0.long.reroute");
  const obs::Counter* stay = metrics.findCounter("tlb.leaf0.long.stay");
  ASSERT_NE(spray, nullptr);
  ASSERT_NE(reroute, nullptr);
  ASSERT_NE(stay, nullptr);
  EXPECT_GT(spray->value() +
                metrics.findCounter("tlb.leaf0.short.sticky_stay")->value(),
            0u);
  EXPECT_GT(stay->value() + reroute->value(), 0u);  // long flows decided

  // End-of-run gauges.
  ASSERT_NE(metrics.findGauge("sim.executed_events"), nullptr);
  EXPECT_GT(metrics.findGauge("sim.executed_events")->value(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.findGauge("run.completed_flows")->value(),
                   static_cast<double>(res.ledger.completedCount(
                       [](const auto&) { return true; })));
}

TEST(ObsHarness, TraceExportsParsableChromeJson) {
  obs::MetricsRegistry metrics;
  obs::EventTrace trace;
  auto cfg = smallTlbConfig();
  cfg.sinks.metrics = &metrics;
  cfg.sinks.trace = &trace;
  runExperiment(cfg);

  ASSERT_GT(trace.size(), 0u);
  const auto doc = obs::JsonValue::parse(trace.toJson());
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);

  bool sawTick = false, sawSpan = false, sawQthCounter = false;
  for (const auto& e : events->items) {
    const obs::JsonValue* name = e.find("name");
    const obs::JsonValue* ph = e.find("ph");
    if (name == nullptr || ph == nullptr) continue;
    if (name->str == "tlb.control_tick" && ph->str == "i") sawTick = true;
    if (ph->str == "X") sawSpan = true;
    if (ph->str == "C" && name->str == "tlb.leaf0") {
      const obs::JsonValue* args = e.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_NE(args->find("qth_bytes"), nullptr);
      sawQthCounter = true;
    }
  }
  EXPECT_TRUE(sawTick);
  EXPECT_TRUE(sawSpan);
  EXPECT_TRUE(sawQthCounter);
}

TEST(ObsHarness, ObsDoesNotChangeSimulationOutcome) {
  // Installing observers must not perturb the discrete-event schedule:
  // same seed with and without obs gives identical flow completion times.
  const auto plain = runExperiment(smallTlbConfig(3));
  obs::MetricsRegistry metrics;
  obs::EventTrace trace;
  auto cfg = smallTlbConfig(3);
  cfg.sinks.metrics = &metrics;
  cfg.sinks.trace = &trace;
  const auto observed = runExperiment(cfg);
  ASSERT_EQ(plain.ledger.size(), observed.ledger.size());
  for (std::size_t i = 0; i < plain.ledger.size(); ++i) {
    EXPECT_EQ(plain.ledger.flows()[i].fct, observed.ledger.flows()[i].fct);
  }
  EXPECT_EQ(plain.totalDrops, observed.totalDrops);
  EXPECT_EQ(plain.endTime, observed.endTime);
}

TEST(ObsHarness, FlowProbeDoesNotChangeSimulationOutcome) {
  // The probe's nullable-pointer contract: arming it must not perturb the
  // schedule, only observe it.
  const auto plain = runExperiment(smallTlbConfig(3));
  obs::FlowProbe flows;
  auto cfg = smallTlbConfig(3);
  cfg.sinks.flows = &flows;
  const auto probed = runExperiment(cfg);
  ASSERT_EQ(plain.ledger.size(), probed.ledger.size());
  for (std::size_t i = 0; i < plain.ledger.size(); ++i) {
    EXPECT_EQ(plain.ledger.flows()[i].fct, probed.ledger.flows()[i].fct);
  }
  EXPECT_EQ(plain.totalDrops, probed.totalDrops);
  EXPECT_EQ(plain.endTime, probed.endTime);
  EXPECT_EQ(plain.executedEvents, probed.executedEvents);
}

TEST(ObsHarness, FlowProbeRecordsMatchTheLedger) {
  obs::FlowProbe flows;
  auto cfg = smallTlbConfig(5);
  cfg.sinks.flows = &flows;
  const auto res = runExperiment(cfg);

  // Every flow declared and finished; completion state mirrors the ledger.
  ASSERT_EQ(flows.flowCount(), cfg.flows.size());
  EXPECT_EQ(flows.flowsNotTracked(), 0u);
  for (const auto& lf : res.ledger.flows()) {
    const obs::FlowRecord* rec = flows.find(lf.spec.id);
    ASSERT_NE(rec, nullptr) << "flow " << lf.spec.id;
    EXPECT_EQ(rec->completed, lf.completed);
    if (lf.completed) {
      EXPECT_EQ(rec->fct, lf.fct);
    }
    EXPECT_EQ(rec->size, lf.spec.size);
    EXPECT_EQ(rec->isShort, lf.spec.size < cfg.shortThreshold);
  }

  // The ledger's headline AFCT and p99 are reproducible from the probe's
  // records alone — the tlbsim_flows analyzer relies on exactly this.
  RunningStats shortMean;
  SampleSet shortFct;
  for (const obs::FlowRecord* rec : flows.sortedRecords()) {
    if (!rec->isShort || !rec->completed) continue;
    shortMean.add(toSeconds(rec->fct));
    shortFct.add(toSeconds(rec->fct));
  }
  EXPECT_NEAR(shortMean.mean(), res.shortAfctSec(), 1e-12);
  EXPECT_NEAR(shortFct.percentile(99.0), res.shortP99Sec(), 1e-12);

  // Data packets went somewhere: the per-flow uplink shares and the path
  // matrix both account for them.
  std::uint64_t sharePackets = 0;
  for (const obs::FlowRecord* rec : flows.sortedRecords()) {
    for (const auto& share : rec->uplinks) sharePackets += share.packets;
  }
  EXPECT_GT(sharePackets, 0u);
  // The matrix also counts ACK and undeclared traffic, so it dominates.
  EXPECT_GE(flows.pathMatrix().totalPackets(), sharePackets);
  EXPECT_GT(flows.pathMatrix().numLeaves(), 0);
}

TEST(ObsHarness, SummaryCarriesHeadlineNumbers) {
  auto cfg = smallTlbConfig();
  const auto res = runExperiment(cfg);
  const obs::RunSummary run = summarizeExperiment(cfg, res);
  ASSERT_NE(run.meta("scheme"), nullptr);
  EXPECT_EQ(*run.meta("scheme"), "TLB");
  ASSERT_NE(run.value("completed_flows"), nullptr);
  EXPECT_DOUBLE_EQ(*run.value("completed_flows"),
                   static_cast<double>(res.ledger.completedCount(
                       [](const auto&) { return true; })));
  ASSERT_NE(run.value("short_afct_ms"), nullptr);
  EXPECT_DOUBLE_EQ(*run.value("short_afct_ms"), res.shortAfctSec() * 1e3);
  EXPECT_TRUE(obs::JsonValue::parse(run.toJson()).has_value());
}

}  // namespace
}  // namespace tlbsim::harness
