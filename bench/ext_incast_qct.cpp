// Extension bench: partition-aggregate query completion under incast.
//
// Runs the closed-loop app layer (src/app) on the paper's basic setup and
// sweeps every load-balancing scheme through several fan-ins. Each query
// fans out to `fanIn` workers spread across the far leaf; the responses
// all converge on the aggregator's downlink — the classic incast pattern
// whose tail (the slowest worker) is what granularity decisions move.
//
// Reported per scheme and fan-in: p50/p99 query completion time and the
// SLO-miss percentage against a 5 ms query deadline. Expected shape:
// finer granularity (RPS, Presto, TLB's short-flow spraying) trims the
// p99 tail at high fan-in, while per-flow hashing (ECMP) strands whole
// queries behind one collision; reordering-hostile schemes pay on the
// 32 KB responses instead.
//
// Emits BENCH_incast_qct.json — a condensed, deterministic summary
// (identical for any --jobs value; CI diffs two worker counts).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runner/runner.hpp"

using namespace tlbsim;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parseBenchArgs(
      argc, argv, bench::kFull | bench::kJobs | bench::kSeed | bench::kJson);
  std::printf("Incast QCT: partition-aggregate queries per scheme\n");

  const std::vector<harness::Scheme> schemes = harness::allSchemes();
  const std::vector<int> fanIns =
      args.full ? std::vector<int>{4, 8, 16, 24} : std::vector<int>{4, 8, 16};

  runner::SweepSpec spec;
  spec.schemes = schemes;
  spec.seeds = bench::seedAxis(args.seed, args.full ? 5 : 2);
  spec.sweepSeed = args.seed;
  for (const int fanIn : fanIns) {
    spec.variants.push_back({"fanin" + std::to_string(fanIn),
                             {"app.fan-out=" + std::to_string(fanIn)}});
  }

  runner::SweepScenario scenario;
  scenario.base = [&args](const runner::SweepPoint& pt) {
    auto cfg = bench::basicSetup(pt.scheme, /*bufferPackets=*/256,
                                 /*seed=*/args.seed);
    cfg.maxDuration = seconds(5);
    // App-only run: the RPC service is the workload. Spread placement
    // forces every response across the fabric; the fan-out override per
    // variant then sets the incast degree.
    cfg.app.queries = args.full ? 200 : 60;
    cfg.app.arrival = app::Arrival::kClosedLoop;
    cfg.app.concurrency = 8;
    cfg.app.placement = app::Placement::kSpread;
    cfg.app.responseDist = app::ResponseDist::kFixed;
    cfg.app.responseBytes = 32 * kKB;
    cfg.app.slo = milliseconds(5);
    return cfg;
  };

  runner::RunnerOptions opt;
  opt.jobs = args.jobs;
  opt.collectQueries = true;
  std::printf("  running %zu simulations on %d workers...\n", spec.size(),
              runner::resolveJobs(args.jobs));
  const runner::SweepReport report = runner::runSweep(spec, scenario, opt);
  std::printf("  ...%.2fs\n", report.wallSeconds);

  const auto variantOf = [](int fanIn) {
    return "fanin" + std::to_string(fanIn);
  };

  std::vector<std::string> headers = {"scheme"};
  for (const int fanIn : fanIns) {
    headers.push_back("p99 @" + std::to_string(fanIn));
  }
  for (const int fanIn : fanIns) {
    headers.push_back("miss% @" + std::to_string(fanIn));
  }
  stats::Table t(headers);
  for (const auto scheme : schemes) {
    std::vector<double> row;
    for (const int fanIn : fanIns) {
      const auto* agg = report.find(scheme, variantOf(fanIn));
      row.push_back(agg != nullptr ? agg->mean("app.qct_p99_ms") : 0.0);
    }
    for (const int fanIn : fanIns) {
      const auto* agg = report.find(scheme, variantOf(fanIn));
      row.push_back(
          agg != nullptr ? agg->mean("app.slo_miss_ratio") * 100.0 : 0.0);
    }
    t.addRow(harness::schemeName(scheme), row, 2);
  }
  t.print("Query p99 (ms) and SLO-miss (%) vs fan-in, 5 ms SLO");

  // --- condensed JSON (byte-identical for any worker count) -------------
  obs::RunSummary summary;
  summary.setMeta("figure", "incast_qct");
  summary.setMeta("setup",
                  "closed-loop partition-aggregate on 2x15 leaf-spine, "
                  "32 KB responses, 5 ms SLO");
  summary.set("runs", static_cast<double>(spec.size()));
  summary.set("seeds", static_cast<double>(spec.seeds.size()));
  summary.set("queries_per_run",
              static_cast<double>(args.full ? 200 : 60));
  for (const auto scheme : schemes) {
    const std::string name = harness::schemeName(scheme);
    for (const int fanIn : fanIns) {
      const auto* agg = report.find(scheme, variantOf(fanIn));
      if (agg == nullptr) continue;
      const std::string prefix =
          name + ".fanin" + std::to_string(fanIn) + ".";
      summary.set(prefix + "qct_p50_ms", agg->mean("app.qct_p50_ms"));
      summary.set(prefix + "qct_p99_ms", agg->mean("app.qct_p99_ms"));
      summary.set(prefix + "slo_miss_pct",
                  agg->mean("app.slo_miss_ratio") * 100.0);
      summary.set(prefix + "retries", agg->mean("app.retries"));
    }
  }

  const std::string jsonPath =
      args.jsonPath.empty() ? "BENCH_incast_qct.json" : args.jsonPath;
  if (!summary.writeJsonFile(jsonPath)) {
    std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
    return 1;
  }
  std::printf("written to %s\n", jsonPath.c_str());
  return 0;
}
