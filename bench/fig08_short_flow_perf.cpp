// Figure 8: basic performance of SHORT flows under TLB vs baselines.
//
// Basic setup (Section 6.1). Time series over the run:
//   (a) reordering (dup-ACK) ratio of short flows,
//   (b) mean queueing delay of short-flow packets.
//
// Expected shape (paper): TLB has near-zero reordering (shorts and longs
// never share queues) and the lowest queueing delay throughout.
//
// The scheme axis runs through the parallel sweep engine (--jobs); the
// aggregated report lands in BENCH_fig08.json (--json overrides).
#include <cstdio>

#include "bench_common.hpp"
#include "runner/runner.hpp"

using namespace tlbsim;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parseBenchArgs(
      argc, argv, bench::kJobs | bench::kSeed | bench::kJson);
  std::printf("Figure 8: short-flow reordering and queueing delay\n");

  runner::SweepSpec spec;
  spec.schemes = {harness::Scheme::kRps, harness::Scheme::kPresto,
                  harness::Scheme::kLetFlow, harness::Scheme::kTlb};
  spec.seeds = {args.seed};
  spec.sweepSeed = args.seed;

  runner::SweepScenario scenario;
  scenario.base = [](const runner::SweepPoint& pt) {
    auto cfg = bench::basicSetup(pt.scheme);
    cfg.sampleInterval = milliseconds(1);
    return cfg;
  };
  scenario.workload = [](harness::ExperimentConfig& cfg,
                         const runner::SweepPoint&) {
    bench::addBasicMix(cfg);
  };

  runner::RunnerOptions ropt;
  ropt.jobs = args.jobs;
  const runner::SweepReport report = runner::runSweep(spec, scenario, ropt);

  stats::Table reorder({"time (ms)", "RPS", "Presto", "LetFlow", "TLB"});
  stats::Table delay({"time (ms)", "RPS (us)", "Presto (us)", "LetFlow (us)",
                      "TLB (us)"});
  // Print only the window in which short flows are active (the series is
  // all-zero once they finish while the long flows drain).
  const auto& base = report.runs[0].result.shortDupAckRatio.points();
  std::size_t lastActive = 0;
  for (const auto& run : report.runs) {
    const auto& pts = run.result.shortQueueDelayUs.points();
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (pts[i].second > 0.0) lastActive = std::max(lastActive, i);
    }
  }
  for (std::size_t i = 0; i <= lastActive && i < base.size(); i += 4) {
    std::vector<double> r1, r2;
    for (const auto& run : report.runs) {
      const auto& a = run.result.shortDupAckRatio.points();
      const auto& b = run.result.shortQueueDelayUs.points();
      r1.push_back(i < a.size() ? a[i].second : 0.0);
      r2.push_back(i < b.size() ? b[i].second : 0.0);
    }
    const std::string t = stats::fmt(toMilliseconds(base[i].first), 1);
    reorder.addRow(t, r1, 4);
    delay.addRow(t, r2, 1);
  }
  reorder.print("Fig 8(a): short-flow dup-ACK ratio over time");
  delay.print("Fig 8(b): short-flow mean queueing delay over time");

  stats::Table summary({"scheme", "dup-ACK ratio", "mean qdelay (us)",
                        "short AFCT (ms)"});
  for (const auto& run : report.runs) {
    summary.addRow(harness::schemeName(run.point.scheme),
                   {run.result.shortDupAckRatioTotal(),
                    run.result.shortDelayUsAll.mean(),
                    run.result.shortAfctSec() * 1e3},
                   4);
  }
  summary.print("Fig 8 summary (whole run)");

  const std::string jsonPath =
      args.jsonPath.empty() ? "BENCH_fig08.json" : args.jsonPath;
  if (!report.writeJsonFile(jsonPath)) {
    std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
    return 1;
  }
  std::printf("sweep JSON written to %s\n", jsonPath.c_str());
  return 0;
}
