// Extension experiment (beyond the paper): every scheme on a 3-tier k=4
// fat-tree, where load-balancing decisions stack at the edge AND
// aggregation tiers. The paper's evaluation is leaf-spine only; this
// checks that TLB's per-switch design composes across tiers.
//
// The runs go through the sweep engine with paired seeds: at each seed
// every scheme draws the same traffic. --json writes the sweep report,
// byte-identical for any --jobs value (CI diffs two worker counts).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runner/runner.hpp"

using namespace tlbsim;

namespace {

/// Cross-pod heavy-tailed mix drawn from cfg.seed: long flows pod0 ->
/// pod2, Poisson-ish shorts between random cross-pod pairs.
void addCrossPodMix(harness::ExperimentConfig& cfg, bool full) {
  Rng rng(cfg.seed * 31 + 7);
  const net::FatTreeConfig& ft = cfg.fatTree.value();
  const int hosts = ft.numHosts();
  const int hostsPerPod = ft.k * ft.k / 4;
  FlowId id = 1;
  for (int i = 0; i < (full ? 16 : 4); ++i) {
    transport::FlowSpec f;
    f.id = id++;
    f.src = static_cast<net::HostId>(i % hostsPerPod);
    f.dst = static_cast<net::HostId>(2 * hostsPerPod + i % hostsPerPod);
    f.size = 5 * kMB;
    cfg.flows.push_back(f);
  }
  SimTime t;
  for (int i = 0; i < (full ? 400 : 80); ++i) {
    t += microseconds(rng.uniform(30, 250));
    transport::FlowSpec f;
    f.id = id++;
    f.src = static_cast<net::HostId>(rng.uniformInt(
        static_cast<std::uint64_t>(hosts)));
    do {
      f.dst = static_cast<net::HostId>(rng.uniformInt(
          static_cast<std::uint64_t>(hosts)));
    } while (f.dst / hostsPerPod == f.src / hostsPerPod);
    f.size = ByteCount::fromBytes(
        rng.uniformInt((10 * kKB).bytes(), (95 * kKB).bytes()));
    f.start = t;
    f.deadline = milliseconds(25);
    cfg.flows.push_back(f);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parseBenchArgs(
      argc, argv,
      bench::kFull | bench::kJobs | bench::kSeed | bench::kJson |
          bench::kFlowsJson);
  std::printf("Extension: schemes on a k=%d fat-tree (2 LB tiers)\n",
              args.full ? 8 : 4);

  runner::SweepSpec spec;
  spec.schemes = {harness::Scheme::kEcmp,    harness::Scheme::kRps,
                  harness::Scheme::kPresto,  harness::Scheme::kLetFlow,
                  harness::Scheme::kConga,   harness::Scheme::kHermes,
                  harness::Scheme::kTlb};
  spec.seeds = bench::seedAxis(args.seed, 3);
  spec.sweepSeed = args.seed;

  runner::SweepScenario scenario;
  scenario.base = [&args](const runner::SweepPoint&) {
    harness::ExperimentConfig cfg;
    net::FatTreeConfig ft;
    ft.k = args.full ? 8 : 4;
    cfg.fatTree = ft;
    cfg.maxDuration = seconds(20);
    return cfg;
  };
  scenario.workload = [&args](harness::ExperimentConfig& cfg,
                              const runner::SweepPoint& pt) {
    cfg.seed = pt.baseSeed;  // paired across schemes
    addCrossPodMix(cfg, args.full);
  };

  runner::RunnerOptions ropt;
  ropt.jobs = args.jobs;
  ropt.flowsNdjsonPath = args.flowsJsonPath;
  ropt.onRunDone = [](const runner::SweepPoint& pt,
                      const harness::ExperimentResult&) {
    std::fprintf(stderr, "  %s done\n", pt.label().c_str());
  };
  runner::SweepReport report;
  try {
    report = runner::runSweep(spec, scenario, ropt);
  } catch (const std::exception& e) {
    bench::fail(e.what());
  }

  stats::Table t({"scheme", "short AFCT (ms)", "short p99 (ms)", "miss (%)",
                  "long goodput (Mbps)", "drops"});
  const char* keys[] = {"short_afct_ms", "short_p99_ms", "deadline_miss_ratio",
                        "long_goodput_gbps", "fabric_drops"};
  const double scales[] = {1.0, 1.0, 100.0, 1e3, 1.0};
  for (const harness::Scheme scheme : spec.schemes) {
    // Seed-axis means, summed in seed order.
    std::vector<double> row(std::size(keys), 0.0);
    for (const runner::RunOutcome& run : report.runs) {
      if (run.point.scheme != scheme) continue;
      for (std::size_t k = 0; k < row.size(); ++k) {
        row[k] += *run.summary.value(keys[k]) * scales[k];
      }
    }
    for (double& v : row) v /= static_cast<double>(spec.seeds.size());
    t.addRow(harness::schemeName(scheme), row, 2);
  }

  t.print("fat-tree cross-pod mix (3 seeds)");
  std::printf(
      "\nTLB runs unchanged at both tiers; its per-switch flow tables and\n"
      "granularity calculators are independent, exactly like the paper's\n"
      "per-leaf deployment.\n");
  if (!args.jsonPath.empty()) {
    if (!report.writeJsonFile(args.jsonPath)) {
      bench::fail("cannot write " + args.jsonPath);
    }
    std::printf("sweep JSON written to %s\n", args.jsonPath.c_str());
  }
  return 0;
}
