// Figure 9: basic performance of LONG flows under TLB vs baselines.
//
// Basic setup (Section 6.1). Time series over the run:
//   (a) reordering (out-of-order) ratio of long flows,
//   (b) instantaneous long-flow throughput.
//
// Expected shape (paper): TLB reorders less than Presto and achieves
// higher instantaneous throughput than ECMP/Presto/LetFlow because the
// long-flow granularity adapts to the short-flow load.
#include <cstdio>

#include "bench_common.hpp"

using namespace tlbsim;

int main(int argc, char** argv) {
  (void)bench::parseBenchArgs(argc, argv, /*honoured=*/0);
  std::printf("Figure 9: long-flow reordering and instantaneous throughput\n");

  const harness::Scheme schemes[] = {
      harness::Scheme::kEcmp, harness::Scheme::kPresto,
      harness::Scheme::kLetFlow, harness::Scheme::kTlb};

  std::vector<harness::ExperimentResult> results;
  for (const auto scheme : schemes) {
    auto cfg = bench::basicSetup(scheme);
    bench::addBasicMix(cfg);
    cfg.sampleInterval = milliseconds(1);
    // tlbsim-lint: allow(bench-direct-experiment)
    results.push_back(harness::runExperiment(cfg));
  }

  stats::Table ooo({"time (ms)", "ECMP", "Presto", "LetFlow", "TLB"});
  stats::Table tput({"time (ms)", "ECMP (Gbps)", "Presto (Gbps)",
                     "LetFlow (Gbps)", "TLB (Gbps)"});
  // Print only while at least one scheme still has long flows running.
  const auto& base = results[0].longOooRatio.points();
  std::size_t lastActive = 0;
  for (const auto& res : results) {
    const auto& pts = res.longThroughputGbps.points();
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (pts[i].second > 0.01) lastActive = std::max(lastActive, i);
    }
  }
  for (std::size_t i = 0; i <= lastActive && i < base.size(); i += 4) {
    std::vector<double> r1, r2;
    for (const auto& res : results) {
      const auto& a = res.longOooRatio.points();
      const auto& b = res.longThroughputGbps.points();
      r1.push_back(i < a.size() ? a[i].second : 0.0);
      r2.push_back(i < b.size() ? b[i].second : 0.0);
    }
    const std::string t = stats::fmt(toMilliseconds(base[i].first), 1);
    ooo.addRow(t, r1, 4);
    tput.addRow(t, r2, 3);
  }
  ooo.print("Fig 9(a): long-flow out-of-order ratio over time");
  tput.print("Fig 9(b): per-flow long throughput over time");

  stats::Table summary({"scheme", "ooo ratio", "mean long goodput (Mbps)"});
  for (std::size_t s = 0; s < results.size(); ++s) {
    summary.addRow(harness::schemeName(schemes[s]),
                   {results[s].longOooRatioTotal(),
                    results[s].longGoodputGbps() * 1e3},
                   4);
  }
  summary.print("Fig 9 summary (whole run)");
  return 0;
}
