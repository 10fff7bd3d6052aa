// The paper's grid figures (Figs. 10-14, 16, 17) and the ablations of
// TLB's design knobs (DESIGN.md Section 5), as one table of specs.
//
// A spec names a base setup and workload, the swept axis (offered load,
// config-variant overrides, or a knob that changes the config or the
// traffic mix), the schemes, the seed-axis length and the tables to
// print. One generic path expands it into a runner::SweepSpec, runs it on
// the parallel sweep engine, prints the tables from the seed-axis means
// and writes BENCH_<name>.json.
//
//   figures fig13 fig16    run the named figures, in order
//   figures all            run every figure
//   figures --list         name the figures
//
// Every shared bench flag applies to every figure; --json and --flows-json
// name one file each, so they take exactly one figure.
//
// Figure tables put the x axis (the loads when several are swept, else
// the variants) in rows and one column per series (the schemes, or the
// variants when TLB runs alone). Ablation tables are the transpose: one
// row per variant and one column per metric, or one table per variant
// with a row per scheme when several schemes run. Shape checks encode
// the claims EXPERIMENTS.md makes in words; each verdict is printed, and
// a failed check makes the driver exit 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "runner/runner.hpp"

using namespace tlbsim;

namespace {

using harness::Scheme;

/// A printed quantity: the seed-axis mean of a RunSummary key times
/// `scale`. A null key is the mean long-flow fast-retransmit count per
/// run, which only the per-flow ledger records.
struct Metric {
  const char* column;  ///< header in ablation tables
  const char* key;
  double scale = 1.0;
};

constexpr Metric kAfct{"short AFCT (ms)", "short_afct_ms"};
constexpr Metric kP99{"short p99 (ms)", "short_p99_ms"};
constexpr Metric kMiss{"miss (%)", "deadline_miss_ratio", 100.0};
constexpr Metric kGbps{"long goodput (Gbps)", "long_goodput_gbps"};
constexpr Metric kMbps{"long goodput (Mbps)", "long_goodput_gbps", 1e3};
constexpr Metric kLongFastRtx{"long fast-rtx", nullptr};

/// A printed table. With one metric it is a figure table: a row per x-axis
/// point and a column per series; with `tlbHeader` set, the baselines print
/// relative to TLB (the last scheme) and TLB prints raw under that header.
/// With several metrics it is an ablation table: a row per variant and a
/// column per metric, or, when several schemes run, one table per variant
/// (titled by its name) with a row per scheme.
struct Plot {
  std::string title;
  std::vector<Metric> metrics;
  int precision = 2;
  const char* tlbHeader = nullptr;
};

/// One value of the variant axis: its overrides, plus the config and
/// traffic-mix values the override vocabulary has no key for.
struct Step {
  std::string name;         ///< row label (a table title when per-variant)
  runner::Variant variant;  ///< report label and key=value overrides
  double shortFlows = 100, longFlows = 4;        ///< testbed mix
  double delayFactor = 1, bandwidthDivisor = 1;  ///< of two fabric cables
  double deadlinePercentile = 0;  ///< > 0: deadline-agnostic TLB
};

/// A printed figure table's cells, [x][series]; in a normalised table the
/// baselines are relative to TLB and TLB, the last column, is raw.
using Cells = std::vector<std::vector<double>>;

/// A claim about a figure's shape, evaluated on every run of it against
/// its printed tables. Figs. 16/17 print normalised AFCT, then normalised
/// throughput, each with ECMP first and TLB last.
struct Check {
  const char* claim;
  bool (*holds)(const std::vector<Cells>& tables);
};

const std::vector<Check> kAsymmetryChecks = {
    {"ECMP's normalised AFCT is above 1 and rises with the asymmetry",
     [](const std::vector<Cells>& t) {
       double below = 1.0;
       return std::all_of(t[0].begin(), t[0].end(), [&](const auto& row) {
         return std::exchange(below, row[0]) < row[0];
       });
     }},
    // A single TLB run's long-flow throughput can jump by 10-15%, either
    // way, under any change to the fabric, so one such run moves the
    // five-seed mean by ~3%; 10% takes three runs jumping the same way.
    {"TLB's long-flow throughput stays within 10% across the axis",
     [](const std::vector<Cells>& t) {
       return std::all_of(t[1].begin(), t[1].end(), [&](const auto& row) {
         return std::abs(row.back() / t[1][0].back() - 1.0) <= 0.10;
       });
     }},
    {"no baseline beats TLB's throughput at the largest asymmetry",
     [](const std::vector<Cells>& t) {
       const std::vector<double>& last = t[1].back();
       return std::all_of(last.begin(), last.end() - 1,
                          [](double r) { return r <= 1.0; });
     }},
};

struct FigureSpec {
  const char* name;
  const char* heading;  ///< first line of the figure's output
  const char* axis;     ///< header of the row-label column
  int seeds;
  std::vector<Plot> plots;
  std::vector<Check> checks{};
  std::vector<Step> steps{};
  /// Large-scale fabric with Poisson arrivals of this size mix; unset,
  /// the testbed setup and its mix.
  std::optional<workload::FlowSizeDistribution> poisson{};
  int flows = 0;
  std::vector<Scheme> schemes = {Scheme::kEcmp, Scheme::kRps, Scheme::kPresto,
                                 Scheme::kLetFlow, Scheme::kTlb};
  std::vector<double> loads{};
  /// Every scheme and axis point runs on the seed-axis value itself, so
  /// they all draw the same traffic and compare paired (only the seed tag
  /// of --flows-json records still names the derived seed); unset, each
  /// point runs on its runner-derived seed.
  bool paired = true;
};

/// Figs. 10-12: the five schemes over the offered load, panels (a)-(d).
FigureSpec loadSweep(const char* name, const char* heading,
                     workload::FlowSizeDistribution dist, int flows,
                     const std::string& workload, bool full) {
  const std::string f = std::string("Fig ") + (name + 3);
  FigureSpec s{name, heading, "load", 1,
               {{f + "(a): short-flow AFCT (ms)" + workload, {kAfct}},
                {f + "(b): short-flow 99th-percentile FCT (ms)" + workload,
                 {kP99}},
                {f + "(c): short-flow deadline miss ratio (%)" + workload,
                 {kMiss}},
                {f + "(d): long-flow throughput (Gbps)" + workload, {kGbps},
                 3}},
               {}, {}, std::move(dist), flows};
  s.loads = full ? std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
                 : std::vector<double>{0.2, 0.4, 0.6, 0.8};
  return s;
}

/// Figs. 13-17: the five schemes on the testbed, five seeds, normalised
/// to TLB, over `values` of one Step field.
FigureSpec testbed(const char* name, const char* heading, double Step::*knob,
                   const char* axis, const std::vector<double>& values,
                   std::vector<Check> checks = {}) {
  const std::string f = std::string("Fig ") + (name + 3);
  FigureSpec s{
      name, heading, axis, 5,
      {{f + "(a): short-flow AFCT normalized to TLB (>1 is worse)", {kAfct},
        2, "TLB(ms)"},
       {f + "(b): long-flow throughput normalized to TLB (<1 is worse)",
        {kMbps}, 2, "TLB(Mbps)"}},
      std::move(checks)};
  for (const double v : values) {
    s.steps.push_back(
        {stats::fmt(v, 0), {axis + (" " + stats::fmt(v, 0)), {}}});
    s.steps.back().*knob = v;
  }
  return s;
}

/// The ablations: TLB's variants on web search at load 0.6, three seeds.
FigureSpec ablation(const char* name, const char* heading, const char* axis,
                    Plot table, bool full) {
  return {name, heading, axis, 3, {std::move(table)}, {}, {},
          workload::FlowSizeDistribution::webSearch(30 * kMB),
          full ? 1000 : 200, {Scheme::kTlb}, {0.6}, false};
}

std::vector<FigureSpec> figureSpecs(bool full) {
  using workload::FlowSizeDistribution;
  const auto pick = [full](const std::vector<double>& reduced,
                           const std::vector<double>& paper) {
    return full ? paper : reduced;
  };
  const auto webSearch = FlowSizeDistribution::webSearch(full ? 0_B : 30 * kMB);

  FigureSpec fig12 =
      loadSweep("fig12", "Figure 12: deadline-agnostic TLB (web search)",
                webSearch, full ? 2000 : 240, "", full);
  fig12.schemes = {Scheme::kTlb};
  for (const double p : {5.0, 25.0, 50.0, 75.0}) {
    const std::string label = "TLB-" + stats::fmt(p, 0) + "th";
    fig12.steps.push_back({label, {label, {}}});
    fig12.steps.back().deadlinePercentile = p;
  }

  // Expected: flat around the paper's 500 us default; very coarse
  // intervals react late to load swings (worse tails), very fine ones
  // purge idle state too aggressively.
  FigureSpec interval = ablation(
      "ablation_update_interval", "Ablation: TLB granularity update interval t",
      "t (us)",
      {"TLB vs control interval (web search, load 0.6)",
       {kAfct, kP99, kMiss, kMbps, {"long switches", "tlb_long_switches"}}},
      full);
  for (const double t :
       pick({250, 500, 1000, 2000}, {125, 250, 500, 1000, 2000, 4000})) {
    interval.steps.push_back(
        {stats::fmt(t, 0),
         {"t=" + stats::fmt(t, 0) + "us",
          {"tlb.update-interval-us=" + stats::fmt(t, 0),
           "tlb.idle-timeout-us=" + stats::fmt(3 * t, 0)}}});
  }

  FigureSpec threshold = ablation(
      "ablation_classification",
      "Ablation: short/long classification threshold", "threshold (KB)",
      {"TLB vs classification threshold (web search, load 0.6)",
       {kAfct, kP99, kMiss, kMbps}},
      full);
  // Reporting classes stay at the paper's 100 KB for comparability; the
  // override only moves TLB's internal reclassification point.
  for (const double kb : pick({50, 100, 400}, {25, 50, 100, 200, 400, 1000})) {
    threshold.steps.push_back(
        {stats::fmt(kb, 0),
         {stats::fmt(kb, 0) + "KB",
          {"tlb.short-threshold-bytes=" +
           std::to_string(static_cast<long long>(kb * 1e3))}}});
  }

  // Stickiness trades reordering (the dup-ACK column) against
  // responsiveness to queue imbalance.
  FigureSpec spray = ablation(
      "ablation_spray_policy", "Ablation: short-flow spraying policy",
      "policy",
      {"short-flow spray policy (web search, load 0.6)",
       {kAfct, kP99, kMiss, kMbps, {"short dup-ACK", "short_dupack_ratio"}},
       3},
      full);
  // The per-packet baselines ride the TLB axis point as `scheme=`
  // overrides, for reference.
  for (const auto& [label, kv] :
       {std::pair{"TLB shortest-q (paper)", "tlb.spray-stickiness-bytes=0"},
        {"TLB sticky 1 pkt", "tlb.spray-stickiness-bytes=1500"},
        {"TLB sticky 3 pkt", "tlb.spray-stickiness-bytes=4500"},
        {"TLB sticky 10 pkt", "tlb.spray-stickiness-bytes=15000"},
        {"RPS (random ref)", "scheme=rps"},
        {"DRILL (po2 ref)", "scheme=drill"}}) {
    spray.steps.push_back({label, {label, {kv}}});
  }

  // With the storm guard off (NS2-era TCP), fine-grained schemes pay much
  // more for reordering (long fast-rtx explodes, goodput drops), moving the
  // ranking toward the paper's; with it on, spraying is cheap and
  // per-packet schemes gain ground.
  FigureSpec guard =
      ablation("ablation_tcp_guard",
               "Ablation: TCP reordering tolerance vs scheme ranking",
               "scheme", {"", {kAfct, kP99, kMbps, kLongFastRtx}}, full);
  guard.schemes = {Scheme::kRps, Scheme::kPresto, Scheme::kLetFlow,
                   Scheme::kTlb};
  guard.steps = {
      {"modern TCP (storm guard ON)", {"guard-on", {"tcp.hole-guard=true"}}},
      {"classic TCP (storm guard OFF, NS2-like)",
       {"guard-off", {"tcp.hole-guard=false"}}}};

  FigureSpec fig10 =
      loadSweep("fig10", "Figure 10: web-search workload, load sweep",
                webSearch, full ? 2000 : 240, ", web search", full);
  fig10.paired = false;

  return {
      fig10,
      loadSweep("fig11", "Figure 11: data-mining workload, load sweep",
                FlowSizeDistribution::dataMining(full ? 100 * kMB : 35 * kMB),
                full ? 1000 : 200, ", data mining", full),
      fig12,
      testbed("fig13", "Figure 13: testbed scale, varying short-flow count",
              &Step::shortFlows, "#short",
              pick({40, 100, 160}, {40, 80, 120, 160, 200})),
      testbed("fig14", "Figure 14: testbed scale, varying long-flow count",
              &Step::longFlows, "#long", pick({2, 6, 10}, {2, 4, 6, 8, 10})),
      testbed("fig16", "Figure 16: delay asymmetry on 2 leaf-spine links",
              &Step::delayFactor, "delay x", pick({1, 4, 10}, {1, 2, 4, 6, 10}),
              kAsymmetryChecks),
      testbed("fig17", "Figure 17: bandwidth asymmetry on 2 leaf-spine links",
              &Step::bandwidthDivisor, "bw /",
              pick({1, 4, 10}, {1, 2, 4, 6, 10}), kAsymmetryChecks),
      interval,
      threshold,
      spray,
      guard,
  };
}

/// Prints the figure's tables from the sweep's seed-axis means and
/// returns the cells of its figure tables.
std::vector<Cells> printTables(const FigureSpec& spec,
                               const runner::SweepReport& report) {
  const std::vector<Scheme>& schemes = spec.schemes;
  const std::vector<double>& loads = spec.loads;
  // A point's aggregate is found by its scheme, load and variant label.
  const auto mean = [&](std::size_t scheme, std::size_t load,
                        std::size_t step, const Metric& m) {
    const auto agg = std::find_if(
        report.aggregates.begin(), report.aggregates.end(), [&](const auto& a) {
          return a.point.scheme == schemes[scheme] &&
                 (loads.empty() || a.point.load == loads[load]) &&
                 (spec.steps.empty() ||
                  a.point.variant.label == spec.steps[step].variant.label);
        });
    if (m.key != nullptr) return agg->mean(m.key) * m.scale;
    double sum = 0.0;
    const std::string group = agg->point.groupKey();
    for (const runner::RunOutcome& run : report.runs) {
      if (run.point.groupKey() != group) continue;
      for (const auto& f : run.result.ledger.flows()) {
        if (!stats::FlowLedger::isShort(f)) sum += f.fastRetransmits;
      }
    }
    return sum / static_cast<double>(agg->runs) * m.scale;
  };
  const bool bySchemes = schemes.size() > 1;
  const bool byLoad = loads.size() > 1;
  const std::size_t series = bySchemes ? schemes.size() : spec.steps.size();
  const auto seriesName = [&](std::size_t j) {
    return bySchemes ? harness::schemeName(schemes[j]) : spec.steps[j].name;
  };
  std::vector<Cells> figureTables;
  for (const Plot& p : spec.plots) {
    std::vector<std::string> header = {spec.axis};
    if (p.metrics.size() > 1) {
      for (const Metric& m : p.metrics) header.emplace_back(m.column);
      for (std::size_t t = 0; t < (bySchemes ? spec.steps.size() : 1); ++t) {
        stats::Table table(header);
        for (std::size_t r = 0; r < series; ++r) {
          std::vector<double> row;
          for (const Metric& m : p.metrics) {
            row.push_back(mean(bySchemes ? r : 0, 0, bySchemes ? t : r, m));
          }
          table.addRow(seriesName(r), row, p.precision);
        }
        table.print(bySchemes ? spec.steps[t].name : p.title);
      }
      continue;
    }
    for (std::size_t j = 0; j < series; ++j) header.push_back(seriesName(j));
    if (p.tlbHeader != nullptr) header.back() = p.tlbHeader;
    stats::Table table(header);
    Cells& cells = figureTables.emplace_back();
    for (std::size_t x = 0; x < (byLoad ? loads.size() : spec.steps.size());
         ++x) {
      std::vector<double>& row = cells.emplace_back();
      for (std::size_t j = 0; j < series; ++j) {
        row.push_back(mean(bySchemes ? j : 0, byLoad ? x : 0,
                           !bySchemes ? j : byLoad ? 0 : x, p.metrics[0]));
      }
      if (p.tlbHeader != nullptr) {
        for (std::size_t j = 0; j + 1 < series; ++j) row[j] /= row.back();
      }
      table.addRow(byLoad ? stats::fmt(loads[x], 1) : spec.steps[x].name, row,
                   p.precision);
    }
    table.print(p.title);
  }
  return figureTables;
}

/// Runs one figure and prints it. False when a shape check fails.
bool runFigure(const FigureSpec& spec, const bench::BenchArgs& args) {
  std::printf("%s\n", spec.heading);
  runner::SweepSpec sweep{spec.schemes, spec.loads,
                          bench::seedAxis(args.seed, spec.seeds), {},
                          args.seed};
  for (const Step& s : spec.steps) sweep.variants.push_back(s.variant);

  runner::SweepScenario scenario;
  scenario.base = [&](const runner::SweepPoint& pt) {
    return spec.poisson ? bench::largeScaleSetup(pt.scheme, args.full)
                        : bench::testbedSetup(pt.scheme);
  };
  scenario.workload = [&](harness::ExperimentConfig& cfg,
                          const runner::SweepPoint& pt) {
    const auto it = std::find_if(
        spec.steps.begin(), spec.steps.end(),
        [&](const Step& s) { return s.variant.label == pt.variant.label; });
    const Step step = it == spec.steps.end() ? Step{} : *it;
    if (spec.paired) cfg.seed = pt.baseSeed;
    if (step.delayFactor != 1 || step.bandwidthDivisor != 1) {
      // Two "randomly selected" (fixed for reproducibility) leaf-spine
      // cables, degraded at both leaves.
      for (const auto& [leaf, spine] :
           {std::pair{0, 2}, {0, 7}, {1, 2}, {1, 7}}) {
        cfg.topo.overrides.push_back(
            {leaf, spine, 1 / step.bandwidthDivisor, step.delayFactor});
      }
    }
    // Deadline-agnostic TLB estimates D as a percentile of the deadlines
    // it snoops off SYNs (paper §5), rather than being told.
    if (step.deadlinePercentile > 0) {
      cfg.scheme.tlb.autoDeadline = true;
      cfg.scheme.tlb.deadlinePercentile = step.deadlinePercentile;
    }
    if (spec.poisson) {
      bench::addPoissonWorkload(cfg, pt.load, *spec.poisson, spec.flows);
    } else {
      bench::addTestbedMix(cfg, static_cast<int>(step.shortFlows),
                           static_cast<int>(step.longFlows));
    }
  };

  runner::RunnerOptions ropt;
  ropt.jobs = args.jobs;
  ropt.flowsNdjsonPath = args.flowsJsonPath;
  ropt.onRunDone = [](const runner::SweepPoint& pt,
                      const harness::ExperimentResult&) {
    std::fprintf(stderr, "  %s done\n", pt.label().c_str());
  };
  const runner::SweepReport report = runner::runSweep(sweep, scenario, ropt);

  const std::vector<Cells> tables = printTables(spec, report);
  bool ok = true;
  for (const Check& c : spec.checks) {
    const bool holds = c.holds(tables);
    std::printf("check %s: %s\n", holds ? "PASS" : "FAIL", c.claim);
    ok = ok && holds;
  }

  const std::string jsonPath = args.jsonPath.empty()
                                   ? "BENCH_" + std::string(spec.name) + ".json"
                                   : args.jsonPath;
  if (!report.writeJsonFile(jsonPath)) bench::fail("cannot write " + jsonPath);
  std::printf("sweep JSON written to %s\n", jsonPath.c_str());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--list") {
    for (const FigureSpec& f : figureSpecs(false)) {
      std::printf("%-26s %s\n", f.name, f.heading);
    }
    return 0;
  }
  std::vector<std::string> names;
  const bench::BenchArgs args =
      bench::parseBenchArgs(argc, argv, bench::kAllFlags, &names);
  const std::vector<FigureSpec> figures = figureSpecs(args.full);
  std::vector<const FigureSpec*> chosen;
  for (const std::string& name : names) {
    const std::size_t before = chosen.size();
    for (const FigureSpec& f : figures) {
      if (name == "all" || name == f.name) chosen.push_back(&f);
    }
    if (chosen.size() == before) bench::fail("unknown figure '" + name + "'");
  }
  if (chosen.empty()) bench::fail("name a figure, or all (--list names them)");
  if (chosen.size() > 1 && !(args.jsonPath + args.flowsJsonPath).empty()) {
    bench::fail("--json and --flows-json take exactly one figure");
  }
  bool ok = true;
  try {
    for (const FigureSpec* f : chosen) ok = runFigure(*f, args) && ok;
  } catch (const std::exception& e) {
    bench::fail(e.what());
  }
  return ok ? 0 : 1;
}
