// Sweep-engine scaling driver: runs one reduced fig10-style grid
// (3 schemes x 5 loads x 5 seeds = 75 simulations) twice — single worker
// vs --jobs N (default: all cores) — and records the speedup plus a
// byte-identity check of the two aggregated JSON reports in
// BENCH_sweep_scaling.json.
//
// The identity check is the engine's core contract: worker count may only
// change wall-clock time, never a byte of the results.
#include <cstdio>

#include "bench_common.hpp"
#include "runner/runner.hpp"

using namespace tlbsim;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parseBenchArgs(
      argc, argv, bench::kFull | bench::kJobs | bench::kSeed | bench::kJson);
  std::printf("Sweep engine scaling: jobs=1 vs jobs=%d\n",
              runner::resolveJobs(args.jobs));

  const auto dist = workload::FlowSizeDistribution::webSearch(30 * kMB);

  runner::SweepSpec spec;
  spec.schemes = {harness::Scheme::kRps, harness::Scheme::kLetFlow,
                  harness::Scheme::kTlb};
  spec.loads = {0.2, 0.35, 0.5, 0.65, 0.8};
  spec.seeds = bench::seedAxis(args.seed, 5);
  spec.sweepSeed = args.seed;

  runner::SweepScenario scenario;
  scenario.base = [&args](const runner::SweepPoint& pt) {
    return bench::largeScaleSetup(pt.scheme, args.full);
  };
  scenario.workload = [&](harness::ExperimentConfig& cfg,
                          const runner::SweepPoint& pt) {
    bench::addPoissonWorkload(cfg, pt.load, dist, args.full ? 400 : 60);
  };

  runner::RunnerOptions serial;
  serial.jobs = 1;
  runner::RunnerOptions parallel;
  parallel.jobs = args.jobs;  // 0 = all cores

  std::printf("  running %zu simulations with 1 worker...\n", spec.size());
  const runner::SweepReport one = runner::runSweep(spec, scenario, serial);
  std::printf("  ...%.2fs; now with %d workers...\n", one.wallSeconds,
              runner::resolveJobs(parallel.jobs));
  const runner::SweepReport many = runner::runSweep(spec, scenario, parallel);
  std::printf("  ...%.2fs\n", many.wallSeconds);

  const bool identical = one.toJson() == many.toJson();
  const double speedup =
      many.wallSeconds > 0.0 ? one.wallSeconds / many.wallSeconds : 0.0;

  obs::RunSummary summary;
  summary.setMeta("figure", "sweep_scaling");
  summary.setMeta("grid", "3 schemes x 5 loads x 5 seeds");
  summary.setMeta("json_identical", identical ? "true" : "false");
  summary.set("hardware_concurrency",
              static_cast<double>(runner::resolveJobs(0)));
  summary.set("runs", static_cast<double>(spec.size()));
  summary.set("jobs_parallel",
              static_cast<double>(runner::resolveJobs(parallel.jobs)));
  summary.set("wall_s_jobs1", one.wallSeconds);
  summary.set("wall_s_jobsN", many.wallSeconds);
  summary.set("speedup", speedup);
  std::printf("%s", summary.toJson().c_str());

  const std::string jsonPath =
      args.jsonPath.empty() ? "BENCH_sweep_scaling.json" : args.jsonPath;
  if (!summary.writeJsonFile(jsonPath)) {
    std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
    return 1;
  }
  std::printf("written to %s\n", jsonPath.c_str());

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: reports differ between 1 and %d workers\n",
                 runner::resolveJobs(parallel.jobs));
    return 1;
  }
  return 0;
}
