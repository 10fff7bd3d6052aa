// Domain example: TLB on a 3-tier k=4 fat-tree.
//
// Setting ExperimentConfig::fatTree makes the same harness::Experiment
// that runs the leaf-spine figures build a fat-tree instead. Every edge
// and aggregation switch then runs its own selector (two stacked
// load-balancing tiers), with TLB's inputs derived from the fabric.
//
//   $ ./fattree_demo
#include <cstdio>
#include <vector>

#include "harness/experiment.hpp"
#include "stats/report.hpp"
#include "util/rng.hpp"
#include "workload/flow_size_dist.hpp"

using namespace tlbsim;

namespace {

/// 4 long (5 MB) flows pod 0 -> pod 2, then 40 short (<100 KB) flows
/// between random cross-pod host pairs of the 16-host fabric.
std::vector<transport::FlowSpec> crossPodFlows(std::uint64_t seed) {
  constexpr int kHostsPerPod = 4;
  Rng rng(seed);
  workload::FlowSizeDistribution shortDist =
      workload::FlowSizeDistribution::uniform(20 * kKB, 90 * kKB);
  std::vector<transport::FlowSpec> flows;
  FlowId id = 1;
  for (int i = 0; i < 4; ++i) {
    transport::FlowSpec f;
    f.id = id++;
    f.src = static_cast<net::HostId>(i);      // pod 0
    f.dst = static_cast<net::HostId>(8 + i);  // pod 2
    f.size = 5 * kMB;
    flows.push_back(f);
  }
  SimTime t;
  for (int i = 0; i < 40; ++i) {
    t += microseconds(rng.uniform(50, 350));
    transport::FlowSpec f;
    f.id = id++;
    f.src = static_cast<net::HostId>(rng.uniformInt(16));
    do {
      f.dst = static_cast<net::HostId>(rng.uniformInt(16));
    } while (f.dst / kHostsPerPod == f.src / kHostsPerPod);
    f.size = shortDist.sample(rng);
    f.start = t;
    flows.push_back(f);
  }
  return flows;
}

}  // namespace

int main() {
  std::printf("k=4 fat-tree (16 hosts, 2 LB tiers): TLB vs baselines\n");

  stats::Table t({"scheme", "completed", "short AFCT (ms)",
                  "long goodput (Mbps)"});
  for (const auto scheme :
       {harness::Scheme::kEcmp, harness::Scheme::kRps,
        harness::Scheme::kLetFlow, harness::Scheme::kConga,
        harness::Scheme::kTlb}) {
    double afct = 0.0, tput = 0.0, done = 0.0;
    for (std::uint64_t seed : {1, 2, 3}) {
      harness::ExperimentConfig cfg;
      cfg.fatTree = net::FatTreeConfig{};  // k=4: 16 hosts, 4 pods, 4 cores
      cfg.scheme.scheme = scheme;
      cfg.seed = seed;
      cfg.flows = crossPodFlows(seed);
      const auto res = harness::runExperiment(cfg);
      afct += res.shortAfctSec() * 1e3;
      tput += res.longGoodputGbps() * 1e3;
      done += static_cast<double>(
          res.ledger.completedCount([](const auto&) { return true; }));
    }
    t.addRow(harness::schemeName(scheme), {done, afct / 3.0, tput / 3.0}, 2);
  }
  t.print("cross-pod traffic, 3 seeds");
  std::printf(
      "\nNote: selectors run independently at the edge AND aggregation\n"
      "tiers; TLB's flow tables and granularity calculators are per-switch\n"
      "state, so the same code deploys to both tiers unchanged.\n");
  return 0;
}
