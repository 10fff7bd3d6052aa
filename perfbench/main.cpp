// tlbsim benchmark driver: runs one workload through harness::Experiment
// in this single-threaded process and prints its metrics.
//
//   perfbench --workload websearch_tlb --seed 1 --seconds 10 --trace 0
//
// --trace 0 times end-to-end metrics (every obs sink off, Audit::kOff);
// --trace 1 times each layer alone and attributes run time to layers.
// Both check the simulated outputs: an audited run must record zero
// invariant violations, every run's summary digest must match, and every
// flow and query must finish. The last stdout line is the result JSON;
// the line before it holds the run envelope and raw measurements. Build
// and run through perfbench/run.py; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "drivers.hpp"
#include "harness/experiment.hpp"
#include "harness/scheme.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "runner/runner.hpp"
#include "workloads.hpp"

using namespace tlbsim;
using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  Scale scale = Scale::kFull;
  std::string revision = "none";
  std::string sourceDigest = "none";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale full|tiny] [--revision R] "
               "[--source-digest D]\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 120.0) {
        usage("--seconds must be in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1" ? 1 : 0;
    } else if (flag == "--scale") {
      if (v != "full" && v != "tiny") usage("--scale must be full or tiny");
      a.scale = v == "tiny" ? Scale::kTiny : Scale::kFull;
    } else if (flag == "--revision") {
      a.revision = v;
    } else if (flag == "--source-digest") {
      a.sourceDigest = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool everythingFinished(const harness::ExperimentConfig& cfg,
                        const harness::ExperimentResult& res) {
  const std::size_t done =
      res.ledger.completedCount([](const auto&) { return true; });
  if (done != res.ledger.size()) return false;
  if (cfg.app.enabled()) {
    return res.appQueriesLaunched == cfg.app.queries &&
           res.appQueriesCompleted == cfg.app.queries;
  }
  return true;
}

std::uint64_t digestOf(const harness::Experiment& exp,
                       const harness::ExperimentResult& res) {
  return fnv64(exp.summarize(res).toJson());
}

/// The layer counters Experiment::ownMetrics() collects, summed over
/// switches, leaves and flows.
struct Counters {
  std::uint64_t forwarded = 0, leafForwards = 0, spineForwards = 0;
  std::uint64_t periodicTicks = 0;
  std::uint64_t purged = 0, evicted = 0;
  double tracked = 0.0;
  std::uint64_t tlbReroutes = 0, tlbSprays = 0, tlbReclassified = 0,
                tlbTicks = 0;
  std::uint64_t retransmits = 0, fastRetransmits = 0, timeouts = 0,
                ecnCuts = 0;
};

bool endsWith(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

Counters readCounters(const obs::MetricsRegistry& m, int numLeaves) {
  Counters c;
  for (const auto& [name, v] : m.counterValues()) {
    if (endsWith(name, ".forwarded")) {
      c.forwarded += v;
      if (name.rfind("switch.leaf", 0) == 0) c.leafForwards += v;
      if (name.rfind("switch.spine", 0) == 0) c.spineForwards += v;
    } else if (name == "sim.periodic_ticks") {
      c.periodicTicks = v;
    } else if (name.rfind("lb.", 0) == 0 && endsWith(name, ".purged_flows")) {
      c.purged += v;
    } else if (name.rfind("lb.", 0) == 0 && endsWith(name, ".evicted_flows")) {
      c.evicted += v;
    } else if (name.rfind("tlb.", 0) == 0) {
      if (endsWith(name, ".long.reroute")) c.tlbReroutes += v;
      if (endsWith(name, ".short.spray")) c.tlbSprays += v;
      if (endsWith(name, ".reclassified_long")) c.tlbReclassified += v;
      if (endsWith(name, ".control_ticks")) c.tlbTicks += v;
    } else if (name == "tcp.retransmitted_segments") {
      c.retransmits = v;
    } else if (name == "tcp.fast_retransmits") {
      c.fastRetransmits = v;
    } else if (name == "tcp.timeouts") {
      c.timeouts = v;
    } else if (name == "tcp.ecn_cwnd_cuts") {
      c.ecnCuts = v;
    }
  }
  for (int l = 0; l < numLeaves; ++l) {
    const auto* g =
        m.findGauge("lb.leaf" + std::to_string(l) + ".tracked_flows");
    if (g != nullptr) c.tracked += g->value();
  }
  return c;
}

/// The scalars of a run the traced output reports; the full result is not
/// kept, so it does not inflate the next run's peak memory.
struct Outcome {
  std::uint64_t drops = 0, ecnMarks = 0, faultEvents = 0, faultDrops = 0;
  std::uint64_t rpcFlows = 0, retries = 0;
  int queries = 0;
  double shortAfctMs = 0.0, shortP99Ms = 0.0, longGoodputGbps = 0.0,
         qctP99Ms = 0.0;
};

/// One timed Experiment::run(): host seconds, heap allocations, and the
/// outcome checks. With `spans`, the run and the summary are traced.
struct RunSample {
  double seconds = 0.0;
  double cpu = 0.0;
  double summarySeconds = 0.0;  ///< summarize() + JSON, for the digest
  std::uint64_t allocs = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  bool finished = false;
  Outcome outcome;
};

RunSample timedRun(const harness::Experiment& exp, Spans* spans) {
  RunSample s;
  harness::ExperimentResult res;
  {
    std::optional<Spans::Scope> span;
    if (spans != nullptr) span.emplace(*spans, "harness.run");
    AllocCounter::arm();
    const double c0 = cpuSeconds();
    const double t0 = nowSeconds();
    res = exp.run();
    s.seconds = nowSeconds() - t0;
    s.cpu = cpuSeconds() - c0;
    s.allocs = AllocCounter::disarm();
  }
  {
    std::optional<Spans::Scope> span;
    if (spans != nullptr) span.emplace(*spans, "obs.summarize");
    const double t0 = nowSeconds();
    const obs::RunSummary summary = exp.summarize(res);
    std::string json;
    {
      std::optional<Spans::Scope> child;
      if (spans != nullptr) child.emplace(*spans, "obs.json");
      json = summary.toJson();
    }
    s.digest = fnv64(json);
    s.summarySeconds = nowSeconds() - t0;
  }
  s.events = res.executedEvents;
  s.finished = everythingFinished(exp.config(), res);
  s.outcome = {res.totalDrops,
               res.totalEcnMarks,
               res.faultEventsApplied,
               res.faultDrops,
               res.appRpcFlows,
               res.appRetries,
               res.appQueriesLaunched,
               res.shortAfctSec() * 1e3,
               res.shortP99Sec() * 1e3,
               res.longGoodputGbps(),
               res.appQctP99Sec() * 1e3};
  return s;
}

/// Flat JSON object text, members in insertion order.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, obs::jsonNumber(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + obs::jsonEscape(v) + "\"");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + obs::jsonEscape(key) + "\": " + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Metrics of the result line, in print order, with their units.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.emplace_back(name, std::make_pair(value, std::string(unit)));
  }
  std::string toJson() const {
    JsonObject o;
    for (const auto& [name, vu] : items_) {
      o.raw(name, JsonObject().num("value", vu.first).str("unit", vu.second)
                      .text());
    }
    return o.text();
  }
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  const bool traced = args.trace == 1;
  const bool tiny = args.scale == Scale::kTiny;
  {
    bool known = false;
    for (const auto& n : workloadNames()) known = known || n == args.workload;
    if (!known) usage(("unknown workload " + args.workload).c_str());
  }
  Spans spans;
  const double benchStart = nowSeconds();

  // ---- set-up: flow generation, config, Experiment construction --------
  // Repeated in short batches spread over the whole measurement, and
  // reported as a median; the last Experiment built is the one run.
  std::vector<double> setupSamples, genSamples;
  std::optional<harness::Experiment> exp;
  std::vector<std::pair<std::string, std::string>> params;
  const auto setupBatch = [&](double budget) {
    const double start = nowSeconds();
    for (int i = 0; i < 200 && (i < 5 || nowSeconds() - start < budget);
         ++i) {
      exp.reset();
      std::optional<Spans::Scope> span;
      if (traced) span.emplace(spans, "setup");
      const double t0 = nowSeconds();
      std::optional<WorkloadSetup> ws;
      {
        std::optional<Spans::Scope> c;
        if (traced) c.emplace(spans, "workload.generate");
        ws = makeWorkload(args.workload, args.seed, args.scale);
      }
      {
        std::optional<Spans::Scope> c;
        if (traced) c.emplace(spans, "harness.experiment_construct");
        exp.emplace(std::move(ws->cfg));
      }
      setupSamples.push_back(nowSeconds() - t0);
      genSamples.push_back(ws->genSeconds);
      params = std::move(ws->params);
    }
  };
  const double setupBudget = tiny ? 0.002 : 0.02;
  setupBatch(setupBudget);
  const harness::ExperimentConfig cfg = exp->config();

  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t referenceDigest = 0;
  bool haveReference = false;
  std::map<std::string, std::uint64_t> failures;  // check -> failed runs
  // Every run of the seed must produce the same summary digest; `problem`
  // names any other failed check of the run (nullptr when none).
  const auto check = [&](const char* what, std::uint64_t digest,
                         const char* problem) {
    ++attempted;
    if (!haveReference) {
      referenceDigest = digest;
      haveReference = true;
    }
    if (problem == nullptr && digest != referenceDigest) {
      problem = "summary digest differs";
    }
    if (problem != nullptr) {
      ++failed;
      ++failures[std::string(what) + ": " + problem];
    }
  };
  constexpr const char* kUnfinished = "unfinished flows or queries";

  // ---- audited and sinks-on runs -----------------------------------------
  // The audited run checks the invariants; the run with every obs sink on
  // yields the program's own layer counters. Both must reproduce the
  // timed runs' digest.
  std::vector<double> auditSamples, sinksSamples;
  std::uint64_t violations = 0;
  Counters ctr;
  const auto auditedRun = [&] {
    std::optional<Spans::Scope> span;
    if (traced) span.emplace(spans, "check.audited_run");
    harness::ExperimentConfig acfg = cfg;
    acfg.audit = harness::ExperimentConfig::Audit::kOn;
    const harness::Experiment audited(std::move(acfg));
    const double t0 = nowSeconds();
    const auto res = audited.run();
    auditSamples.push_back(nowSeconds() - t0);
    violations += res.auditViolations;
    check("audited run", digestOf(audited, res),
          res.auditViolations > 0         ? "invariant violations"
          : res.auditChecks == 0          ? "audit did not run"
          : !everythingFinished(cfg, res) ? kUnfinished
                                          : nullptr);
  };
  const auto sinksOnRun = [&] {
    std::optional<Spans::Scope> span;
    if (traced) span.emplace(spans, "obs.sinks_on_run");
    harness::Experiment withSinks(cfg);
    const obs::MetricsRegistry& m = withSinks.ownMetrics();
    withSinks.ownTrace();
    withSinks.ownFlows();
    if (cfg.app.enabled()) withSinks.ownQueries();
    const double t0 = nowSeconds();
    const auto res = withSinks.run();
    sinksSamples.push_back(nowSeconds() - t0);
    check("sinks-on run", digestOf(withSinks, res),
          everythingFinished(cfg, res) ? nullptr : kUnfinished);
    ctr = readCounters(m, cfg.topo.numLeaves);
  };

  // ---- timed runs: sinks off, Audit::kOff ---------------------------------
  // A traced run cycles through untraced, traced, audited and sinks-on
  // repetitions, so that drift on the host hits each of them alike and
  // the overheads compare medians.
  std::vector<double> runSamples, cpuSamples, tracedSamples, summarySamples;
  std::vector<double> allocSamples;
  std::uint64_t events = 0;
  bool allocsRepeat = true;
  Outcome last;
  const std::size_t kinds = traced ? 4 : 1;
  const std::size_t minEach = 3;
  const double runStart = nowSeconds();
  for (std::size_t rep = 0;; ++rep) {
    const std::size_t kind = rep % kinds;
    if (kind == 2) {
      auditedRun();
    } else if (kind == 3) {
      sinksOnRun();
    } else {
      const bool spanThis = kind == 1;
      const RunSample s = timedRun(*exp, spanThis ? &spans : nullptr);
      summarySamples.push_back(s.summarySeconds);
      if (spanThis) {
        tracedSamples.push_back(s.seconds);
      } else {
        runSamples.push_back(s.seconds);
        cpuSamples.push_back(s.cpu);
      }
      check("timed run", s.digest, s.finished ? nullptr : kUnfinished);
      if (!allocSamples.empty() &&
          static_cast<double>(s.allocs) != allocSamples.front()) {
        allocsRepeat = false;
      }
      allocSamples.push_back(static_cast<double>(s.allocs));
      events = s.events;
      last = s.outcome;
    }
    setupBatch(setupBudget);
    const bool enough = rep + 1 >= minEach * kinds && kind == kinds - 1;
    if (enough && (nowSeconds() - runStart >= args.seconds || rep >= 400)) {
      break;
    }
  }
  const double runS = median(runSamples);
  const double peakRss = peakRssMiB();
  if (!traced) {
    auditedRun();
    sinksOnRun();
  }
  const double auditSeconds = median(auditSamples);
  const double sinksSeconds = median(sinksSamples);

  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double fwd = d(ctr.forwarded);
  const double allocsPerRun = median(allocSamples);

  Metrics out;
  std::map<std::string, double> raw;  // extra measurements for the detail line
  if (!traced) {
    out.add("setup_s", median(setupSamples), "s");
    out.add("run_s", runS, "s");
    out.add("ns_per_pkt", ratio(runS * 1e9, fwd), "ns");
    out.add("allocs_per_pkt", ratio(allocsPerRun, fwd), "count");
    out.add("peak_rss_mb", peakRss, "MiB");
  } else {
    // ---- isolated layer drivers ------------------------------------------
    const std::size_t streamLen = tiny ? 20'000 : 400'000;
    const std::vector<net::Packet> stream =
        packetStream(cfg, streamLen, args.seed);
    const double hostSends =
        static_cast<double>(ctr.leafForwards - ctr.spineForwards);
    const double rearm = ratio(hostSends / 2.0, static_cast<double>(events));
    // Pending-event population of the replay: a transmission and a wire
    // delivery per link of the fabric.
    const int links = 2 * cfg.topo.numHosts() +
                      2 * cfg.topo.numLeaves * cfg.topo.numSpines;
    SimCost simCost, simSmall;
    {
      Spans::Scope s(spans, "sim.scheduler_driver");
      simCost = simDriver(rearm, static_cast<std::size_t>(2 * links),
                          tiny ? 50'000 : 2'000'000, args.seed);
      // The few-pending-events regime of the link and transport drivers,
      // whose own scheduler work is subtracted at this cost.
      simSmall = simDriver(0.0, 2, tiny ? 50'000 : 1'000'000, args.seed);
    }
    LinkCost linkCost;
    {
      Spans::Scope s(spans, "net.link_driver");
      linkCost = linkDriver(tiny ? 10'000 : 400'000);
    }
    SwitchCost switchCost;
    {
      Spans::Scope s(spans, "net.switch_driver");
      switchCost = switchDriver(cfg, stream);
    }
    double topoBuild = 0.0;
    {
      Spans::Scope s(spans, "net.topology_driver");
      topoBuild = topologyBuildDriver(cfg);
    }
    std::map<harness::Scheme, LbCost> lb;
    for (const harness::Scheme sch :
         {harness::Scheme::kEcmp, harness::Scheme::kDrill,
          harness::Scheme::kTlb}) {
      Spans::Scope s(spans, sch == harness::Scheme::kEcmp    ? "lb.ecmp_driver"
                            : sch == harness::Scheme::kDrill ? "lb.drill_driver"
                                                             : "lb.tlb_driver");
      lb[sch] = lbDriver(cfg, sch, stream);
    }
    TransportCost tcp;
    {
      Spans::Scope s(spans, "transport.driver");
      tcp = transportDriver(cfg, tiny ? 1 : 8, tiny ? 500 : 20'000);
    }

    // ---- runner: a one-worker sweep of this workload ----------------------
    double runnerOverhead = 0.0;
    {
      runner::SweepSpec spec;
      spec.schemes = {cfg.scheme.scheme};
      spec.seeds = {args.seed};
      runner::SweepScenario scenario;
      scenario.base = [&](const runner::SweepPoint&) {
        return makeWorkload(args.workload, args.seed, args.scale)->cfg;
      };
      scenario.workload = [&](harness::ExperimentConfig& c,
                              const runner::SweepPoint&) {
        auto ws = makeWorkload(args.workload, c.seed, args.scale);
        c.flows = std::move(ws->cfg.flows);
        c.fault = std::move(ws->cfg.fault);
      };
      runner::RunnerOptions ropt;
      ropt.jobs = 1;
      runner::SweepReport report;
      {
        Spans::Scope s(spans, "runner.run_sweep");
        report = runner::runSweep(spec, scenario, ropt);
      }
      // The runner times each Experiment::run() it makes; everything else
      // in the sweep's wall time is the runner's own work.
      const runner::RunOutcome& run = report.runs.front();
      runnerOverhead = report.wallSeconds - run.wallSeconds;
      ++attempted;
      if (!everythingFinished(cfg, run.result)) {
        ++failed;
        ++failures[std::string("runner point: ") + kUnfinished];
      }
    }

    // ---- attribution: isolated self cost per unit x the workload's units --
    const double simNs = simCost.nsPerEvent;
    const double linkSelf =
        linkCost.nsPerPkt - linkCost.eventsPerPkt * simSmall.nsPerEvent;
    const LbCost& ecmp = lb[harness::Scheme::kEcmp];
    const LbCost* own = lb.count(cfg.scheme.scheme) != 0
                            ? &lb[cfg.scheme.scheme]
                            : nullptr;
    const double switchSelf = switchCost.nsPerForward -
                              linkCost.sendNsPerPkt - ecmp.nsPerDecision;
    const double tcpSelf = tcp.nsPerSegment -
                           tcp.eventsPerSegment * simSmall.nsPerEvent -
                           tcp.linkPktsPerSegment * linkSelf;
    const double leafFwd = static_cast<double>(ctr.leafForwards);
    const double decisions = static_cast<double>(ctr.spineForwards);
    const double flows = static_cast<double>(cfg.flows.size()) +
                         static_cast<double>(last.rpcFlows);
    const double runNs = runS * 1e9;
    const double simPart = static_cast<double>(events) * simNs;
    const double netPart = 2.0 * leafFwd * linkSelf + fwd * switchSelf +
                           topoBuild * 1e9;
    const double lbPart = own != nullptr ? decisions * own->nsPerDecision : 0.0;
    const double corePart = static_cast<double>(ctr.tlbTicks) *
                            lb[harness::Scheme::kTlb].tickNs;
    const double tcpPart = hostSends * tcpSelf + flows * tcp.flowSetupNs;
    const double attributed = simPart + netPart + lbPart + corePart + tcpPart;
    const double tracedRunS = median(tracedSamples);

    out.add("sim.events", d(events), "count");
    out.add("sim.events_per_pkt", ratio(d(events), fwd), "count");
    out.add("sim.ns_per_event", simNs, "ns");
    out.add("sim.allocs_per_event", simCost.allocsPerEvent, "count");
    out.add("sim.periodic_ticks", d(ctr.periodicTicks), "count");
    out.add("sim.self_frac", ratio(simPart, runNs), "ratio");
    out.add("net.forwarded", fwd, "count");
    out.add("net.leaf_forwards", leafFwd, "count");
    out.add("net.drops", d(last.drops), "count");
    out.add("net.ecn_marks", d(last.ecnMarks), "count");
    out.add("net.link.ns_per_pkt", linkCost.nsPerPkt, "ns");
    out.add("net.switch.ns_per_forward", switchCost.nsPerForward, "ns");
    out.add("net.switch.allocs_per_forward", switchCost.allocsPerForward,
            "count");
    out.add("net.topo_build_s", topoBuild, "s");
    out.add("net.self_frac", ratio(netPart, runNs), "ratio");
    for (const auto& [sch, c] : lb) {
      const std::string p = std::string("lb.") + harness::schemeCliName(sch);
      out.add(p + ".ns_per_decision", c.nsPerDecision, "ns");
      out.add(p + ".allocs_per_decision", c.allocsPerDecision, "count");
    }
    out.add("lb.tracked_flows", ctr.tracked, "count");
    out.add("lb.purged_flows", d(ctr.purged), "count");
    out.add("lb.evicted_flows", d(ctr.evicted), "count");
    out.add("lb.self_frac", ratio(lbPart, runNs), "ratio");
    out.add("core.tlb.control_tick_ns", lb[harness::Scheme::kTlb].tickNs, "ns");
    out.add("core.tlb.long_reroutes", d(ctr.tlbReroutes), "count");
    out.add("core.tlb.short_sprays", d(ctr.tlbSprays), "count");
    out.add("core.tlb.reclassified_long", d(ctr.tlbReclassified), "count");
    out.add("core.tlb.control_ticks", d(ctr.tlbTicks), "count");
    out.add("core.self_frac", ratio(corePart, runNs), "ratio");
    out.add("transport.ns_per_segment", tcp.nsPerSegment, "ns");
    out.add("transport.flow_setup_ns", tcp.flowSetupNs, "ns");
    out.add("transport.allocs_per_flow", tcp.allocsPerFlow, "count");
    out.add("transport.retransmits", d(ctr.retransmits), "count");
    out.add("transport.fast_retransmits", d(ctr.fastRetransmits), "count");
    out.add("transport.timeouts", d(ctr.timeouts), "count");
    out.add("transport.ecn_cwnd_cuts", d(ctr.ecnCuts), "count");
    out.add("transport.self_frac", ratio(tcpPart, runNs), "ratio");
    out.add("workload.gen_s", median(genSamples), "s");
    out.add("app.queries", last.queries, "count");
    out.add("app.rpc_flows", d(last.rpcFlows), "count");
    out.add("app.retries", d(last.retries), "count");
    out.add("app.host_ns_per_query",
            ratio(runNs, last.queries), "ns");
    out.add("fault.events_applied", d(last.faultEvents),
            "count");
    out.add("fault.drops", d(last.faultDrops), "count");
    out.add("obs.overhead_frac", ratio(sinksSeconds - runS, runS), "ratio");
    out.add("obs.summary_s", median(summarySamples), "s");
    out.add("check.violations", d(violations), "count");
    out.add("check.audit_overhead_frac", ratio(auditSeconds - runS, runS),
            "ratio");
    out.add("check.error_rate", ratio(d(failed), d(attempted)), "ratio");
    out.add("runner.overhead_s", runnerOverhead, "s");
    out.add("harness.run_s", runS, "s");
    out.add("harness.run_samples", d(runSamples.size()), "count");
    out.add("harness.trace_overhead_frac", ratio(tracedRunS - runS, runS),
            "ratio");
    out.add("harness.unattributed_frac", 1.0 - ratio(attributed, runNs),
            "ratio");
    out.add("result.short_afct_ms", last.shortAfctMs, "ms");
    out.add("result.short_p99_ms", last.shortP99Ms, "ms");
    out.add("result.long_goodput_gbps", last.longGoodputGbps, "Gbps");
    out.add("result.qct_p99_ms", last.qctP99Ms, "ms");
    // 52 bits of the digest: exactly representable as a JSON number.
    out.add("result.digest", d(referenceDigest >> 12), "hash");

    raw["lb.ecmp.checksum_lo32"] = d(ecmp.checksum & 0xffffffffu);
    raw["lb.drill.checksum_lo32"] =
        d(lb[harness::Scheme::kDrill].checksum & 0xffffffffu);
    raw["lb.tlb.checksum_lo32"] =
        d(lb[harness::Scheme::kTlb].checksum & 0xffffffffu);
    raw["net.link.send_ns_per_pkt"] = linkCost.sendNsPerPkt;
    raw["net.link.events_per_pkt"] = linkCost.eventsPerPkt;
    raw["transport.events_per_segment"] = tcp.eventsPerSegment;
    raw["transport.self_ns_per_segment"] = tcpSelf;
    raw["sim.replay_rearm_per_event"] = rearm;
    raw["sim.replay_population"] = 2.0 * links;
    raw["sim.ns_per_event_2_pending"] = simSmall.nsPerEvent;
    raw["net.link.self_ns_per_pkt"] = linkSelf;
    raw["net.switch.self_ns_per_forward"] = switchSelf;
    raw["lb.stream_packets"] = d(stream.size());
  }
  raw["run_s_samples"] = d(runSamples.size());
  raw["run_cpu_s"] = median(cpuSamples);
  raw["allocs_per_run"] = allocsPerRun;
  raw["allocs_repeat_exactly"] = allocsRepeat ? 1.0 : 0.0;
  raw["audit_seconds"] = auditSeconds;
  raw["sinks_on_seconds"] = sinksSeconds;
  raw["bench_wall_s"] = nowSeconds() - benchStart;

  // ---- trace file, envelope, result ---------------------------------------
  std::string tracePath;
  if (traced) {
    tracePath = ".bench_build/perfbench-trace-" + args.workload + "-seed" +
                std::to_string(args.seed) + ".json";
    if (!spans.writeChromeTrace(tracePath)) tracePath = "(not written)";
  }
  {
    JsonObject env;
    env.str("workload", args.workload)
        .num("seed", static_cast<double>(args.seed))
        .num("seconds", args.seconds)
        .num("trace", args.trace)
        .num("nproc", std::thread::hardware_concurrency())
        .str("cpu", cpuModel())
        .str("compiler", __VERSION__)
        .str("build_type", PERFBENCH_BUILD_TYPE)
#ifdef NDEBUG
        .str("ndebug", "yes")
#else
        .str("ndebug", "no")
#endif
        .str("audit_in_timed_runs", "off")
        .str("git_revision", args.revision)
        .str("source_digest", args.sourceDigest);
    JsonObject par;
    for (const auto& [k, v] : params) par.str(k, v);
    JsonObject rawObj;
    for (const auto& [k, v] : raw) rawObj.num(k, v);
    std::string samples;
    for (const double v : runSamples) {
      samples += (samples.empty() ? "" : ", ") + obs::jsonNumber(v);
    }
    JsonObject failList;
    for (const auto& [what, runs] : failures) failList.num(what, d(runs));
    char digestHex[17];
    std::snprintf(digestHex, sizeof(digestHex), "%016llx",
                  static_cast<unsigned long long>(referenceDigest));
    JsonObject detail;
    detail.raw("envelope", env.text())
        .raw("params", par.text())
        .str("result_digest", digestHex)
        .raw("raw", rawObj.text())
        .raw("run_samples_s", "[" + samples + "]")
        .raw("failures", failList.text());
    if (traced) {
      JsonObject self;
      for (const auto& [name, sec] : spans.selfSeconds()) self.num(name, sec);
      detail.str("trace_file", tracePath).raw("span_self_s", self.text());
    }
    std::printf("%s\n", detail.text().c_str());
  }

  std::fprintf(stderr, "perfbench %s seed=%llu trace=%d build=%s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.trace,
               PERFBENCH_BUILD_TYPE);
  for (const auto& [name, vu] : out.items()) {
    std::fprintf(stderr, "  %-32s %16.6g %s\n", name.c_str(), vu.first,
                 vu.second.c_str());
  }
  for (const auto& [what, runs] : failures) {
    std::fprintf(stderr, "  FAILED %s (%llu runs)\n", what.c_str(),
                 static_cast<unsigned long long>(runs));
  }

  const bool correct = failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), out.toJson().c_str());
  return correct ? 0 : 1;
}
