// tlbsim command-line runner: configure a leaf-spine experiment entirely
// from flags and get a summary table (and optionally per-flow CSV).
//
//   $ tlbsim_cli --scheme tlb --load 0.6 --flows 300 --workload websearch
//   $ tlbsim_cli --scheme letflow --leaves 4 --spines 8 --hosts-per-leaf 16
//         --rate-gbps 1 --buffer 256 --ecn-k 65 --seed 7 --csv flows.csv
//   $ tlbsim_cli sweep --schemes rps,letflow,tlb --loads 0.4,0.6,0.8
//         --seeds 1,2,3 --jobs 4 --json sweep.json
//   $ tlbsim_cli --list-schemes
//
// Exit code 0 on success, 1 on bad flags.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/query_probe.hpp"
#include "fault/plan.hpp"
#include "harness/experiment.hpp"
#include "harness/overrides.hpp"
#include "obs/flow_probe.hpp"
#include "obs/metrics.hpp"
#include "obs/run_summary.hpp"
#include "obs/trace.hpp"
#include "runner/runner.hpp"
#include "stats/csv.hpp"
#include "stats/report.hpp"
#include "util/config.hpp"
#include "util/logging.hpp"
#include "workload/traffic_gen.hpp"

using namespace tlbsim;

namespace {

struct Options {
  harness::Scheme scheme = harness::Scheme::kTlb;
  std::string workload = "websearch";
  double load = 0.5;
  int flows = 300;
  int leaves = 4;
  int spines = 4;
  int hostsPerLeaf = 8;
  double rateGbps = 1.0;
  double rttUs = 100.0;
  int buffer = 256;
  int ecnK = 65;
  std::uint64_t seed = 1;
  std::string csvPath;
  std::string metricsJsonPath;
  std::string traceJsonPath;
  std::string flowsJsonPath;
  std::string logLevel = "none";
  bool classicTcp = false;
  bool audit = false;
  std::vector<std::string> faults;  // raw --fault specs, parsed later
  bool faultDrain = false;
  std::vector<std::string> appSpecs;  // raw --app specs, parsed later
  std::string queriesJsonPath;
};

/// Applies one --app SPEC (comma-joined app.* override items, sans the
/// "app." prefix) onto the config, e.g. "queries=200,fan-out=16,slo-ms=10".
bool applyAppSpec(harness::ExperimentConfig& cfg, const std::string& spec,
                  std::string* err) {
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string item = spec.substr(start, end - start);
    if (!item.empty()) {
      const std::size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0) {
        if (err != nullptr) *err = "'" + item + "' is not key=value";
        return false;
      }
      if (!harness::applyOverride(cfg, "app." + item.substr(0, eq),
                                  item.substr(eq + 1), err)) {
        return false;
      }
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return true;
}

/// Rejects out-of-range option values with a message; the vocabulary here
/// is shared by flags and config-file keys.
bool validate(const Options& opt) {
  bool ok = true;
  const auto reject = [&ok](const char* what) {
    std::fprintf(stderr, "invalid value: %s\n", what);
    ok = false;
  };
  if (!(opt.load > 0.0) || opt.load > 10.0) reject("--load must be in (0, 10]");
  if (opt.flows < 1) reject("--flows must be >= 1");
  if (opt.leaves < 2) {
    reject("--leaves must be >= 2 (a one-leaf fabric has no cross-leaf path)");
  }
  if (opt.spines < 1) reject("--spines must be >= 1");
  if (opt.hostsPerLeaf < 1) reject("--hosts-per-leaf must be >= 1");
  if (!(opt.rateGbps > 0.0)) reject("--rate-gbps must be > 0");
  if (!(opt.rttUs > 0.0)) reject("--rtt-us must be > 0");
  if (opt.buffer < 1) reject("--buffer must be >= 1");
  if (opt.ecnK < 0) reject("--ecn-k must be >= 0");
  if (opt.ecnK > opt.buffer) reject("--ecn-k cannot exceed --buffer");
  return ok;
}

/// Maps a --log-level name onto the Logger enum; nullopt for unknown names.
std::optional<LogLevel> parseLogLevel(const std::string& name) {
  if (name == "none") return LogLevel::kNone;
  if (name == "error") return LogLevel::kError;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "info") return LogLevel::kInfo;
  if (name == "debug") return LogLevel::kDebug;
  return std::nullopt;
}

/// Generate cfg.flows from the workload name, drawing randomness from
/// cfg.seed against the (possibly overridden) topology. Shared by the
/// single-run path and every sweep worker.
bool buildFlows(harness::ExperimentConfig& cfg, const std::string& workload,
                double load, int flows) {
  Rng rng(cfg.seed);
  if (workload == "none") {
    // App-only runs: no static flow list, traffic comes from --app.
    cfg.flows.clear();
    return true;
  }
  if (workload == "basicmix") {
    workload::BasicMixConfig mix;
    mix.numHosts = cfg.topo.numHosts();
    mix.hostsPerLeaf = cfg.topo.hostsPerLeaf;
    cfg.flows = workload::basicMixWorkload(mix, rng);
    return true;
  }
  if (workload != "websearch" && workload != "datamining") return false;
  const auto dist =
      workload == "datamining"
          ? workload::FlowSizeDistribution::dataMining(35 * kMB)
          : workload::FlowSizeDistribution::webSearch(30 * kMB);
  workload::PoissonConfig pcfg;
  pcfg.load = load;
  pcfg.flowCount = flows;
  pcfg.numHosts = cfg.topo.numHosts();
  pcfg.hostsPerLeaf = cfg.topo.hostsPerLeaf;
  pcfg.hostRate = cfg.topo.hostLinkRate;
  pcfg.offeredCapacityBps = static_cast<double>(cfg.topo.numLeaves) *
                            static_cast<double>(cfg.topo.numSpines) *
                            cfg.topo.fabricLinkRate.bytesPerSecond();
  cfg.flows = workload::poissonWorkload(pcfg, dist, rng);
  return true;
}

/// Apply one config-file key (same vocabulary as the flags, sans "--").
bool applyKey(Options* opt, const std::string& key,
              const std::string& value) {
  if (key == "scheme") {
    const auto s = harness::parseScheme(value);
    if (!s.has_value()) return false;
    opt->scheme = *s;
    return true;
  }
  const KeyValueConfig one = KeyValueConfig::fromString(key + "=" + value);
  const auto intVal = [&] { return one.getIntStrict(key); };
  const auto dblVal = [&] { return one.getDoubleStrict(key); };
  const auto setInt = [&](int* field) {
    const auto v = intVal();
    if (!v.has_value()) return false;
    *field = static_cast<int>(*v);
    return true;
  };
  const auto setDouble = [&](double* field) {
    const auto v = dblVal();
    if (!v.has_value()) return false;
    *field = *v;
    return true;
  };
  if (key == "workload") opt->workload = value;
  else if (key == "load") { if (!setDouble(&opt->load)) return false; }
  else if (key == "flows") { if (!setInt(&opt->flows)) return false; }
  else if (key == "leaves") { if (!setInt(&opt->leaves)) return false; }
  else if (key == "spines") { if (!setInt(&opt->spines)) return false; }
  else if (key == "hosts-per-leaf") { if (!setInt(&opt->hostsPerLeaf)) return false; }
  else if (key == "rate-gbps") { if (!setDouble(&opt->rateGbps)) return false; }
  else if (key == "rtt-us") { if (!setDouble(&opt->rttUs)) return false; }
  else if (key == "buffer") { if (!setInt(&opt->buffer)) return false; }
  else if (key == "ecn-k") { if (!setInt(&opt->ecnK)) return false; }
  else if (key == "seed") {
    const auto v = intVal();
    if (!v.has_value()) return false;
    opt->seed = static_cast<std::uint64_t>(*v);
  }
  else if (key == "csv") opt->csvPath = value;
  else if (key == "metrics-json") opt->metricsJsonPath = value;
  else if (key == "trace-json") opt->traceJsonPath = value;
  else if (key == "flows-json") opt->flowsJsonPath = value;
  else if (key == "queries-json") opt->queriesJsonPath = value;
  else if (key == "log-level") {
    if (!parseLogLevel(value).has_value()) return false;
    opt->logLevel = value;
  }
  else if (key == "classic-tcp") {
    const auto v = one.getBoolStrict(key);
    if (!v.has_value()) return false;
    opt->classicTcp = *v;
  }
  else if (key == "audit") {
    const auto v = one.getBoolStrict(key);
    if (!v.has_value()) return false;
    opt->audit = *v;
  }
  else return false;
  return true;
}

bool loadConfigFile(Options* opt, const std::string& path) {
  const auto cfg = KeyValueConfig::fromFile(path);
  if (!cfg.has_value()) {
    std::fprintf(stderr, "cannot read config file '%s'\n", path.c_str());
    return false;
  }
  for (const auto& err : cfg->errors()) {
    std::fprintf(stderr, "config %s: bad line %s\n", path.c_str(),
                 err.c_str());
  }
  bool ok = true;
  for (const auto& key : cfg->keys()) {
    if (!applyKey(opt, key, cfg->get(key))) {
      std::fprintf(stderr, "config %s: unknown key or value '%s = %s'\n",
                   path.c_str(), key.c_str(), cfg->get(key).c_str());
      ok = false;
    }
  }
  return ok;
}

void usage() {
  std::printf(
      "usage: tlbsim_cli [options]\n"
      "       tlbsim_cli sweep [sweep options]   (tlbsim_cli sweep --help)\n"
      "  --config PATH        key=value file with the options below\n"
      "                       (sans --; later flags override it)\n"
      "  --scheme NAME        load balancer (--list-schemes)\n"
      "  --workload NAME      websearch | datamining | basicmix | none\n"
      "  --load X             offered load vs bisection (default 0.5)\n"
      "  --flows N            flows to generate (default 300)\n"
      "  --leaves N --spines N --hosts-per-leaf N   topology\n"
      "  --rate-gbps X        link rate (default 1)\n"
      "  --rtt-us X           base RTT (default 100)\n"
      "  --buffer N           buffer per port, packets (default 256)\n"
      "  --ecn-k N            DCTCP marking threshold, packets (0=off)\n"
      "  --seed N             RNG seed (default 1)\n"
      "  --csv PATH           write per-flow results as CSV\n"
      "  --metrics-json PATH  write counters/gauges/histograms/series as JSON\n"
      "  --trace-json PATH    write a Chrome trace-event JSON (open in\n"
      "                       Perfetto / chrome://tracing)\n"
      "  --flows-json PATH    write per-flow telemetry (FlowProbe records\n"
      "                       and the path-utilization matrix) as NDJSON;\n"
      "                       analyze with tlbsim_flows\n"
      "  --log-level LEVEL    stderr logging: error|warn|info|debug\n"
      "                       (default: none)\n"
      "  --fault SPEC         link-fault schedule, repeatable; SPEC is\n"
      "                       leafL-spineS,down@T,up@T,rate=F@T,delay=F@T,\n"
      "                       drop=P@T with time suffix s/ms/us/ns, e.g.\n"
      "                       --fault leaf0-spine1,down@0.1s,up@0.3s\n"
      "                       (';' joins several links in one SPEC)\n"
      "  --fault-drain        drain in-flight packets on link-down instead\n"
      "                       of dropping them\n"
      "  --app SPEC           run a partition-aggregate RPC service; SPEC\n"
      "                       is comma-joined app.* override items sans the\n"
      "                       prefix, e.g. --app queries=200,fan-out=16,\n"
      "                       slo-ms=10 (repeatable; --workload none for an\n"
      "                       app-only run; keys via sweep --list-overrides)\n"
      "  --queries-json PATH  write per-query telemetry (QueryProbe\n"
      "                       records: QCT, SLO hit/miss, retries, slowest\n"
      "                       worker) as NDJSON\n"
      "  --classic-tcp        disable reordering-tolerant retransmit guard\n"
      "  --audit              run the tlbsim::check invariant audit each\n"
      "                       control tick (on by default in Debug builds);\n"
      "                       violations abort the run\n"
      "  --list-schemes       print scheme names and exit\n");
}

bool parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else if (arg == "--list-schemes") {
      for (const harness::Scheme s : harness::allSchemes()) {
        std::printf("%s\n", harness::schemeCliName(s));
      }
      std::exit(0);
    } else if (arg == "--config") {
      const char* v = next("--config");
      if (v == nullptr || !loadConfigFile(opt, v)) return false;
    } else if (arg == "--classic-tcp") {
      opt->classicTcp = true;
    } else if (arg == "--audit") {
      opt->audit = true;
    } else if (arg == "--fault") {
      const char* v = next("--fault");
      if (v == nullptr) return false;
      opt->faults.push_back(v);
    } else if (arg == "--fault-drain") {
      opt->faultDrain = true;
    } else if (arg == "--app") {
      const char* v = next("--app");
      if (v == nullptr) return false;
      opt->appSpecs.push_back(v);
    } else {
      // Every remaining value-taking flag shares its name (sans "--") and
      // its strict parsing with the config-file vocabulary.
      static const char* const kValueFlags[] = {
          "--scheme",  "--workload",       "--load",      "--flows",
          "--leaves",  "--spines",         "--hosts-per-leaf",
          "--rate-gbps", "--rtt-us",       "--buffer",    "--ecn-k",
          "--seed",    "--csv",            "--metrics-json",
          "--trace-json", "--flows-json",  "--queries-json", "--log-level"};
      bool known = false;
      for (const char* flag : kValueFlags) {
        if (arg == flag) {
          known = true;
          break;
        }
      }
      if (!known) {
        std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
        usage();
        return false;
      }
      const char* v = next(arg.c_str());
      if (v == nullptr) return false;
      if (!applyKey(opt, arg.substr(2), v)) {
        std::fprintf(stderr, "bad value '%s' for %s\n", v, arg.c_str());
        return false;
      }
    }
  }
  return true;
}

// --- sweep subcommand -----------------------------------------------------

struct SweepOptions {
  runner::SweepSpec spec;
  std::string workload = "websearch";
  int flows = 300;
  int jobs = 0;  // 0 = all cores
  std::string jsonPath;
  std::vector<std::string> sets;  // base-config overrides
  bool audit = false;
  bool collectMetrics = false;
  bool collectFlows = false;
  std::string flowsJsonPath;
  bool collectQueries = false;
  std::string queriesJsonPath;
};

void sweepUsage() {
  std::printf(
      "usage: tlbsim_cli sweep [options]\n"
      "  --schemes A,B,C      scheme axis (default tlb; --list-schemes)\n"
      "  --loads X,Y,Z        offered-load axis (default 0.5)\n"
      "  --seeds N,M,...      seed axis, one repetition each (default 1)\n"
      "  --jobs N             worker threads (default: all cores)\n"
      "  --json PATH          write the aggregated sweep report as JSON\n"
      "  --set KEY=VALUE      base-config override, repeatable\n"
      "                       (--list-overrides for the vocabulary)\n"
      "  --workload NAME      websearch | datamining | basicmix\n"
      "  --flows N            flows per run (default 300)\n"
      "  --sweep-seed N       re-randomizes every derived run seed\n"
      "  --metrics            collect per-run obs counters into the report\n"
      "  --flow-stats         fold per-run flow-telemetry summaries\n"
      "                       (reorder rate, path churn, ...) into the\n"
      "                       report\n"
      "  --flows-json PATH    implies --flow-stats; additionally write\n"
      "                       run's per-flow records to one NDJSON file\n"
      "                       (point index order; analyze with\n"
      "                       tlbsim_flows)\n"
      "  --app SPEC           run a partition-aggregate RPC service in\n"
      "                       every run; SPEC is comma-joined app.*\n"
      "                       override items sans the prefix (repeatable,\n"
      "                       shorthand for --set app.KEY=VALUE per item)\n"
      "  --query-stats        fold per-run query-telemetry summaries into\n"
      "                       the report\n"
      "  --queries-json PATH  implies --query-stats; additionally write\n"
      "                       every run's per-query records to one NDJSON\n"
      "                       file (point index order)\n"
      "  --workload none      app-only runs (no static flow list)\n"
      "  --audit              run the invariant audit in every run\n"
      "  --list-overrides     print --set keys and exit\n");
}

bool parseSweepArgs(int argc, char** argv, SweepOptions* opt) {
  const auto splitCsv = [](const std::string& s) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
      const std::size_t comma = s.find(',', start);
      const std::size_t end = comma == std::string::npos ? s.size() : comma;
      out.push_back(s.substr(start, end - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    return out;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      sweepUsage();
      std::exit(0);
    } else if (arg == "--list-overrides") {
      for (const std::string& line : harness::overrideHelp()) {
        std::printf("%s\n", line.c_str());
      }
      std::exit(0);
    } else if (arg == "--metrics") {
      opt->collectMetrics = true;
    } else if (arg == "--flow-stats") {
      opt->collectFlows = true;
    } else if (arg == "--flows-json") {
      const char* v = next("--flows-json");
      if (v == nullptr) return false;
      opt->flowsJsonPath = v;
    } else if (arg == "--query-stats") {
      opt->collectQueries = true;
    } else if (arg == "--queries-json") {
      const char* v = next("--queries-json");
      if (v == nullptr) return false;
      opt->queriesJsonPath = v;
    } else if (arg == "--app") {
      const char* v = next("--app");
      if (v == nullptr) return false;
      // Shorthand: each comma-joined item becomes one app.* override,
      // validated with the rest of --set by the scratch pass below.
      for (const std::string& item : splitCsv(v)) {
        if (!item.empty()) opt->sets.push_back("app." + item);
      }
    } else if (arg == "--audit") {
      opt->audit = true;
    } else if (arg == "--schemes") {
      const char* v = next("--schemes");
      if (v == nullptr) return false;
      opt->spec.schemes.clear();
      for (const std::string& name : splitCsv(v)) {
        const auto s = harness::parseScheme(name);
        if (!s.has_value()) {
          std::fprintf(stderr, "unknown scheme '%s' (--list-schemes)\n",
                       name.c_str());
          return false;
        }
        opt->spec.schemes.push_back(*s);
      }
    } else if (arg == "--loads" || arg == "--seeds" || arg == "--jobs" ||
               arg == "--flows" || arg == "--sweep-seed") {
      const char* v = next(arg.c_str());
      if (v == nullptr) return false;
      const KeyValueConfig one =
          KeyValueConfig::fromString("v=" + std::string(v));
      bool ok = true;
      if (arg == "--loads") {
        opt->spec.loads.clear();
        for (const std::string& item : splitCsv(v)) {
          const auto d = KeyValueConfig::fromString("v=" + item)
                             .getDoubleStrict("v");
          ok = ok && d.has_value() && *d > 0.0;
          if (ok) opt->spec.loads.push_back(*d);
        }
      } else if (arg == "--seeds") {
        opt->spec.seeds.clear();
        for (const std::string& item : splitCsv(v)) {
          const auto n =
              KeyValueConfig::fromString("v=" + item).getIntStrict("v");
          ok = ok && n.has_value() && *n >= 0;
          if (ok) opt->spec.seeds.push_back(static_cast<std::uint64_t>(*n));
        }
      } else if (arg == "--jobs") {
        const auto n = one.getIntStrict("v");
        ok = n.has_value() && *n >= 0;
        if (ok) opt->jobs = static_cast<int>(*n);
      } else if (arg == "--flows") {
        const auto n = one.getIntStrict("v");
        ok = n.has_value() && *n >= 1;
        if (ok) opt->flows = static_cast<int>(*n);
      } else {  // --sweep-seed
        const auto n = one.getIntStrict("v");
        ok = n.has_value() && *n >= 0;
        if (ok) opt->spec.sweepSeed = static_cast<std::uint64_t>(*n);
      }
      if (!ok) {
        std::fprintf(stderr, "bad value '%s' for %s\n", v, arg.c_str());
        return false;
      }
    } else if (arg == "--json") {
      const char* v = next("--json");
      if (v == nullptr) return false;
      opt->jsonPath = v;
    } else if (arg == "--workload") {
      const char* v = next("--workload");
      if (v == nullptr) return false;
      opt->workload = v;
    } else if (arg == "--set") {
      const char* v = next("--set");
      if (v == nullptr) return false;
      opt->sets.push_back(v);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      sweepUsage();
      return false;
    }
  }
  if (opt->spec.schemes.empty()) {
    std::fprintf(stderr, "--schemes must name at least one scheme\n");
    return false;
  }
  if (opt->spec.seeds.empty()) {
    std::fprintf(stderr, "--seeds must name at least one seed\n");
    return false;
  }
  if (opt->spec.loads.empty()) opt->spec.loads = {0.5};
  return true;
}

int sweepMain(int argc, char** argv) {
  SweepOptions opt;
  if (!parseSweepArgs(argc, argv, &opt)) return 1;

  // Validate the base overrides once up front (on a scratch config) so a
  // typo fails before any simulation starts rather than inside a worker.
  {
    harness::ExperimentConfig scratch;
    std::string err;
    if (!harness::applyOverrides(scratch, opt.sets, &err)) {
      std::fprintf(stderr, "--set: %s (--list-overrides)\n", err.c_str());
      return 1;
    }
  }
  if (opt.workload != "websearch" && opt.workload != "datamining" &&
      opt.workload != "basicmix" && opt.workload != "none") {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 1;
  }

  runner::SweepScenario scenario;
  scenario.base = [&opt](const runner::SweepPoint&) {
    harness::ExperimentConfig cfg;
    cfg.maxDuration = seconds(120);
    if (opt.audit) cfg.audit = harness::ExperimentConfig::Audit::kOn;
    std::string err;
    if (!harness::applyOverrides(cfg, opt.sets, &err)) {
      throw std::runtime_error(err);
    }
    return cfg;
  };
  scenario.workload = [&opt](harness::ExperimentConfig& cfg,
                             const runner::SweepPoint& pt) {
    buildFlows(cfg, opt.workload, pt.load, opt.flows);
  };

  runner::RunnerOptions ropt;
  ropt.jobs = opt.jobs;
  ropt.collectMetrics = opt.collectMetrics;
  ropt.collectFlows = opt.collectFlows;
  ropt.flowsNdjsonPath = opt.flowsJsonPath;
  ropt.collectQueries = opt.collectQueries;
  ropt.queriesNdjsonPath = opt.queriesJsonPath;
  ropt.onRunDone = [](const runner::SweepPoint& pt,
                      const harness::ExperimentResult& res) {
    std::printf("  done %-40s afct=%.3fms p99=%.3fms\n", pt.label().c_str(),
                res.shortAfctSec() * 1e3, res.shortP99Sec() * 1e3);
  };

  std::printf("sweep: %zu runs on %d worker(s), workload=%s\n",
              opt.spec.size(), runner::resolveJobs(opt.jobs),
              opt.workload.c_str());
  runner::SweepReport report;
  try {
    report = runner::runSweep(opt.spec, scenario, ropt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  stats::Table t({"scheme", "load", "runs", "afct ms", "p99 ms", "miss %",
                  "goodput Mbps"});
  for (const auto& agg : report.aggregates) {
    t.addRow(std::string(harness::schemeCliName(agg.point.scheme)) +
                 (agg.point.variant.label.empty()
                      ? ""
                      : " [" + agg.point.variant.label + "]"),
             {agg.point.load, static_cast<double>(agg.runs),
              agg.mean("short_afct_ms"), agg.mean("short_p99_ms"),
              agg.mean("deadline_miss_ratio") * 100.0,
              agg.mean("long_goodput_gbps") * 1e3},
             3);
  }
  t.print("sweep aggregates (mean over seeds)");
  std::printf("sweep wall time: %.2fs\n", report.wallSeconds);

  if (!opt.jsonPath.empty()) {
    if (!report.writeJsonFile(opt.jsonPath)) {
      std::fprintf(stderr, "cannot write sweep JSON '%s'\n",
                   opt.jsonPath.c_str());
      return 1;
    }
    std::printf("sweep JSON written to %s\n", opt.jsonPath.c_str());
  }
  if (!opt.flowsJsonPath.empty()) {
    std::printf("flows NDJSON written to %s\n", opt.flowsJsonPath.c_str());
  }
  if (!opt.queriesJsonPath.empty()) {
    std::printf("queries NDJSON written to %s\n",
                opt.queriesJsonPath.c_str());
  }

  bool auditFailed = false;
  for (const auto& run : report.runs) {
    if (run.result.auditViolations > 0) {
      std::fprintf(stderr, "invariant audit: %llu violation(s) in '%s'\n",
                   static_cast<unsigned long long>(run.result.auditViolations),
                   run.point.label().c_str());
      auditFailed = true;
    }
  }
  return auditFailed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "sweep") == 0) {
    return sweepMain(argc - 1, argv + 1);
  }
  Options opt;
  if (!parse(argc, argv, &opt)) return 1;
  if (!validate(opt)) return 1;
  Logger::setLevel(*parseLogLevel(opt.logLevel));

  // Observability is pay-for-what-you-ask: the registry, trace, and flow
  // probe only exist (and the hot paths only record) when an output path
  // was given.
  obs::MetricsRegistry metrics;
  obs::EventTrace trace;
  obs::FlowProbe flows;
  app::QueryProbe queries;

  harness::ExperimentConfig cfg;
  if (!opt.metricsJsonPath.empty()) cfg.sinks.metrics = &metrics;
  if (!opt.traceJsonPath.empty()) cfg.sinks.trace = &trace;
  if (!opt.flowsJsonPath.empty()) cfg.sinks.flows = &flows;
  if (!opt.queriesJsonPath.empty()) cfg.queryProbe = &queries;
  cfg.topo.numLeaves = opt.leaves;
  cfg.topo.numSpines = opt.spines;
  cfg.topo.hostsPerLeaf = opt.hostsPerLeaf;
  cfg.topo.hostLinkRate = gbps(opt.rateGbps);
  cfg.topo.fabricLinkRate = gbps(opt.rateGbps);
  cfg.topo.linkDelay = microseconds(opt.rttUs / 8.0);
  cfg.topo.bufferPackets = opt.buffer;
  cfg.topo.ecnThresholdPackets = opt.ecnK;
  cfg.scheme.scheme = opt.scheme;
  cfg.tcp.enableEcn = opt.ecnK > 0;
  cfg.tcp.holeRetransmitGuard = !opt.classicTcp;
  cfg.seed = opt.seed;
  cfg.maxDuration = seconds(120);
  if (opt.audit) cfg.audit = harness::ExperimentConfig::Audit::kOn;

  cfg.fault.drainOnDown = opt.faultDrain;
  for (const std::string& spec : opt.faults) {
    std::string err;
    if (!fault::parseLinkFaults(spec, &cfg.fault, &err)) {
      std::fprintf(stderr, "--fault %s: %s\n", spec.c_str(), err.c_str());
      return 1;
    }
  }
  {
    std::string err;
    if (!harness::checkFaultPlan(cfg, &err)) {
      std::fprintf(stderr, "--fault: %s\n", err.c_str());
      return 1;
    }
  }

  for (const std::string& spec : opt.appSpecs) {
    std::string err;
    if (!applyAppSpec(cfg, spec, &err)) {
      std::fprintf(stderr, "--app %s: %s\n", spec.c_str(), err.c_str());
      return 1;
    }
  }

  if (!buildFlows(cfg, opt.workload, opt.load, opt.flows)) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 1;
  }

  const auto res = harness::runExperiment(cfg);

  stats::Table t({"metric", "value"});
  t.addRow("completed flows",
           {static_cast<double>(
               res.ledger.completedCount([](const auto&) { return true; }))},
           0);
  t.addRow("total flows", {static_cast<double>(res.ledger.size())}, 0);
  t.addRow("simulated ms", {toMilliseconds(res.endTime)}, 1);
  t.addRow("short AFCT ms", {res.shortAfctSec() * 1e3}, 3);
  t.addRow("short p99 ms", {res.shortP99Sec() * 1e3}, 3);
  t.addRow("deadline miss %", {res.shortMissRatio() * 100.0}, 2);
  t.addRow("long goodput Mbps", {res.longGoodputGbps() * 1e3}, 1);
  t.addRow("short dup-ACK ratio", {res.shortDupAckRatioTotal()}, 4);
  t.addRow("long ooo ratio", {res.longOooRatioTotal()}, 4);
  t.addRow("fabric drops", {static_cast<double>(res.totalDrops)}, 0);
  t.addRow("ECN marks", {static_cast<double>(res.totalEcnMarks)}, 0);
  if (!cfg.fault.empty()) {
    t.addRow("fault events", {static_cast<double>(res.faultEventsApplied)},
             0);
    t.addRow("fault drops", {static_cast<double>(res.faultDrops)}, 0);
    t.addRow("fault affected long",
             {static_cast<double>(res.faultAffectedLongFlows)}, 0);
    t.addRow("fault rerouted long",
             {static_cast<double>(res.faultReroutedLongFlows)}, 0);
    t.addRow("time to reroute ms", {res.faultMeanRerouteSec * 1e3}, 3);
    t.addRow("goodput dip ratio", {res.faultGoodputDipRatio}, 3);
  }
  if (cfg.app.enabled()) {
    t.addRow("app queries", {static_cast<double>(res.appQueriesLaunched)}, 0);
    t.addRow("app completed",
             {static_cast<double>(res.appQueriesCompleted)}, 0);
    t.addRow("app QCT mean ms", {res.appQctMeanSec() * 1e3}, 3);
    t.addRow("app QCT p99 ms", {res.appQctP99Sec() * 1e3}, 3);
    t.addRow("app SLO miss %", {res.appSloMissRatio() * 100.0}, 2);
    t.addRow("app retries", {static_cast<double>(res.appRetries)}, 0);
    t.addRow("app rpc flows", {static_cast<double>(res.appRpcFlows)}, 0);
  }
  if (res.auditChecks > 0) {
    t.addRow("audit checks", {static_cast<double>(res.auditChecks)}, 0);
    t.addRow("audit violations", {static_cast<double>(res.auditViolations)},
             0);
  }
  std::printf("scheme=%s workload=%s load=%.2f seed=%llu\n",
              harness::schemeName(opt.scheme), opt.workload.c_str(), opt.load,
              static_cast<unsigned long long>(opt.seed));
  t.print("tlbsim_cli results");

  if (!opt.csvPath.empty()) {
    if (!stats::writeFlowsCsv(opt.csvPath, res.ledger)) {
      std::fprintf(stderr, "cannot write per-flow CSV '%s'\n",
                   opt.csvPath.c_str());
      return 1;
    }
    std::printf("per-flow CSV written to %s\n", opt.csvPath.c_str());
  }
  if (!opt.metricsJsonPath.empty()) {
    if (!metrics.writeJsonFile(opt.metricsJsonPath)) {
      std::fprintf(stderr, "cannot write metrics JSON '%s'\n",
                   opt.metricsJsonPath.c_str());
      return 1;
    }
    std::printf("metrics JSON written to %s\n", opt.metricsJsonPath.c_str());
  }
  if (!opt.traceJsonPath.empty()) {
    if (!trace.writeJsonFile(opt.traceJsonPath)) {
      std::fprintf(stderr, "cannot write trace JSON '%s'\n",
                   opt.traceJsonPath.c_str());
      return 1;
    }
    std::printf("trace JSON written to %s (%zu events)\n",
                opt.traceJsonPath.c_str(), trace.size());
    if (trace.eventsNotStored() > 0) {
      std::printf("  note: %zu further trace events hit the cap\n",
                  trace.eventsNotStored());
    }
  }
  if (!opt.flowsJsonPath.empty()) {
    if (!flows.writeNdjsonFile(
            opt.flowsJsonPath,
            {{"scheme", harness::schemeCliName(opt.scheme)},
             {"workload", opt.workload},
             {"seed", std::to_string(opt.seed)}})) {
      std::fprintf(stderr, "cannot write flows NDJSON '%s'\n",
                   opt.flowsJsonPath.c_str());
      return 1;
    }
    std::printf("flows NDJSON written to %s (%zu flows)\n",
                opt.flowsJsonPath.c_str(), flows.flowCount());
    if (flows.flowsNotTracked() > 0) {
      std::printf("  note: %zu further flows hit the probe cap\n",
                  flows.flowsNotTracked());
    }
  }
  if (!opt.queriesJsonPath.empty()) {
    if (!queries.writeNdjsonFile(
            opt.queriesJsonPath,
            {{"scheme", harness::schemeCliName(opt.scheme)},
             {"workload", opt.workload},
             {"seed", std::to_string(opt.seed)}})) {
      std::fprintf(stderr, "cannot write queries NDJSON '%s'\n",
                   opt.queriesJsonPath.c_str());
      return 1;
    }
    std::printf("queries NDJSON written to %s (%zu queries)\n",
                opt.queriesJsonPath.c_str(), queries.queryCount());
    if (queries.queriesNotTracked() > 0) {
      std::printf("  note: %llu further queries hit the probe cap\n",
                  static_cast<unsigned long long>(
                      queries.queriesNotTracked()));
    }
  }
  if (res.auditViolations > 0) {
    std::fprintf(stderr, "invariant audit recorded %llu violation(s)\n",
                 static_cast<unsigned long long>(res.auditViolations));
    return 1;
  }
  return 0;
}
