// Extension bench: failure recovery under the tlbsim::fault subsystem.
//
// Sweeps ECMP / Presto / LetFlow / Hermes / TLB through four fault
// variants of a concentrated basic setup (2 leaves x 4 spines, 1 Gbps —
// few enough equal-cost paths that the faulted uplink always carries
// long-flow traffic when the fault fires):
//
//   baseline  — no fault (the reference for inflation ratios),
//   linkdown  — one leaf uplink hard-down at 50 ms, restored at 250 ms,
//   gray      — the same uplink silently drops 5% of packets from 50 ms
//               (queues look healthy, so queue-signal schemes are blind),
//   brownout  — the same uplink at quarter bandwidth from 50 ms to 250 ms.
//
// Reported per scheme: time-to-reroute of the long flows that were on the
// dead uplink, the goodput dip through the outage, and short-flow AFCT /
// long-flow goodput under each variant. Expected shape: schemes that
// re-select per packet or per flowlet (Presto, LetFlow, TLB) reroute
// within milliseconds; per-flow hashing (ECMP) strands its flows until
// TCP retransmission timeouts force new packets through the masked port
// map, and gray failure hurts everyone that trusts queue depth alone.
//
// Emits BENCH_failure_recovery.json — a condensed, deterministic summary
// (identical for any --jobs value; CI diffs two worker counts).
#include <cstdio>

#include "bench_common.hpp"
#include "runner/runner.hpp"

using namespace tlbsim;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parseBenchArgs(
      argc, argv, bench::kFull | bench::kJobs | bench::kSeed | bench::kJson);
  std::printf("Failure recovery: TLB vs ECMP/Presto/LetFlow/Hermes\n");

  const std::vector<harness::Scheme> schemes = {
      harness::Scheme::kEcmp, harness::Scheme::kPresto,
      harness::Scheme::kLetFlow, harness::Scheme::kHermes,
      harness::Scheme::kTlb};

  runner::SweepSpec spec;
  spec.schemes = schemes;
  spec.seeds = bench::seedAxis(args.seed, args.full ? 5 : 2);
  spec.sweepSeed = args.seed;
  spec.variants = {
      {"baseline", {}},
      {"linkdown", {"fault.link=leaf0-spine1,down@50ms,up@250ms"}},
      {"gray", {"fault.link=leaf0-spine1,drop=0.05@50ms"}},
      {"brownout",
       {"fault.link=leaf0-spine1,rate=0.25@50ms,rate=1@250ms"}},
  };

  runner::SweepScenario scenario;
  scenario.base = [&args](const runner::SweepPoint& pt) {
    auto cfg = bench::basicSetup(pt.scheme, /*bufferPackets=*/256,
                                 /*seed=*/args.seed);
    // 4 equal-cost paths instead of the paper's 15: with 4-5 long flows
    // per run, every uplink then carries long traffic at the fault time,
    // so "affected" and time-to-reroute measure something on every seed.
    cfg.topo.numSpines = 4;
    return cfg;
  };
  scenario.workload = [&args](harness::ExperimentConfig& cfg,
                              const runner::SweepPoint&) {
    bench::addBasicMix(cfg, /*numShort=*/args.full ? 100 : 60,
                       /*numLong=*/args.full ? 5 : 4);
  };

  runner::RunnerOptions opt;
  opt.jobs = args.jobs;
  std::printf("  running %zu simulations on %d workers...\n", spec.size(),
              runner::resolveJobs(args.jobs));
  const runner::SweepReport report = runner::runSweep(spec, scenario, opt);
  std::printf("  ...%.2fs\n", report.wallSeconds);

  // --- recovery metrics under the hard link-down ------------------------
  stats::Table recovery({"scheme", "reroute ms", "max ms", "rerouted",
                         "affected", "goodput dip", "fault drops"});
  for (const auto scheme : schemes) {
    const auto* agg = report.find(scheme, "linkdown");
    if (agg == nullptr) continue;
    recovery.addRow(harness::schemeName(scheme),
                    {agg->mean("fault.time_to_reroute_ms"),
                     agg->mean("fault.time_to_reroute_max_ms"),
                     agg->mean("fault.rerouted_long_flows"),
                     agg->mean("fault.affected_long_flows"),
                     agg->mean("fault.goodput_dip_ratio"),
                     agg->mean("fault.drops")},
                    2);
  }
  recovery.print("Recovery from a hard uplink failure (down 50-250 ms)");

  // --- end-to-end impact per fault variant ------------------------------
  stats::Table afct({"scheme", "baseline", "linkdown", "gray", "brownout"});
  stats::Table tput({"scheme", "baseline", "linkdown", "gray", "brownout"});
  for (const auto scheme : schemes) {
    std::vector<double> afctRow, tputRow;
    for (const char* variant : {"baseline", "linkdown", "gray", "brownout"}) {
      const auto* agg = report.find(scheme, variant);
      afctRow.push_back(agg != nullptr ? agg->mean("short_afct_ms") : 0.0);
      tputRow.push_back(agg != nullptr ? agg->mean("long_goodput_gbps")
                                       : 0.0);
    }
    afct.addRow(harness::schemeName(scheme), afctRow, 2);
    tput.addRow(harness::schemeName(scheme), tputRow, 3);
  }
  afct.print("Short-flow AFCT (ms) per fault variant");
  tput.print("Long-flow goodput (Gbps) per fault variant");

  // --- condensed JSON (byte-identical for any worker count) -------------
  obs::RunSummary summary;
  summary.setMeta("figure", "failure_recovery");
  summary.setMeta("setup", "basic mix on 2x4 leaf-spine, 1 Gbps");
  summary.setMeta("fault_target", "leaf0-spine1");
  summary.set("runs", static_cast<double>(spec.size()));
  summary.set("seeds", static_cast<double>(spec.seeds.size()));
  for (const auto scheme : schemes) {
    const std::string name = harness::schemeName(scheme);
    for (const char* variant : {"baseline", "linkdown", "gray", "brownout"}) {
      const auto* agg = report.find(scheme, variant);
      if (agg == nullptr) continue;
      const std::string prefix = name + "." + variant + ".";
      summary.set(prefix + "short_afct_ms", agg->mean("short_afct_ms"));
      summary.set(prefix + "long_goodput_gbps",
                  agg->mean("long_goodput_gbps"));
      if (std::string(variant) == "baseline") continue;
      summary.set(prefix + "fault_drops", agg->mean("fault.drops"));
      summary.set(prefix + "affected",
                  agg->mean("fault.affected_long_flows"));
      summary.set(prefix + "rerouted",
                  agg->mean("fault.rerouted_long_flows"));
      summary.set(prefix + "reroute_ms",
                  agg->mean("fault.time_to_reroute_ms"));
      summary.set(prefix + "goodput_dip",
                  agg->mean("fault.goodput_dip_ratio"));
      summary.set(prefix + "short_fct_inflation",
                  agg->mean("fault.short_fct_inflation"));
    }
  }

  const std::string jsonPath =
      args.jsonPath.empty() ? "BENCH_failure_recovery.json" : args.jsonPath;
  if (!summary.writeJsonFile(jsonPath)) {
    std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
    return 1;
  }
  std::printf("written to %s\n", jsonPath.c_str());
  return 0;
}
