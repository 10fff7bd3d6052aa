// Shared scenario builders for the figure-reproduction benches.
//
// Each bench prints the rows/series the paper's figures plot (`figures`
// holds the grid figures and ablations as specs; the others are one
// binary per figure). Default scales are reduced to finish on a single
// core; pass --full for the paper's scale (documented per bench).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "stats/report.hpp"
#include "workload/traffic_gen.hpp"

namespace tlbsim::bench {

/// The flag vocabulary every bench binary shares. Each bench names the
/// flags it honours; parseBenchArgs rejects the others, so a flag is never
/// parsed and then silently ignored.
struct BenchArgs {
  bool full = false;        ///< paper scale instead of the reduced default
  int jobs = 0;             ///< sweep worker threads; 0 = all cores
  std::uint64_t seed = 1;   ///< base seed (seed axes count up from it)
  std::string jsonPath;     ///< overrides the bench's default BENCH_*.json
  /// When non-empty, sweep benches arm the per-run FlowProbe and write
  /// every run's flow records here as NDJSON (analyze with tlbsim_flows).
  std::string flowsJsonPath;
};

/// One shared flag, as a bit of the set a bench honours.
enum BenchFlag : unsigned {
  kFull = 1u << 0,
  kJobs = 1u << 1,
  kSeed = 1u << 2,
  kJson = 1u << 3,
  kFlowsJson = 1u << 4,
  kAllFlags = kFull | kJobs | kSeed | kJson | kFlowsJson,
};

/// Prints `message` to stderr and exits 1.
[[noreturn]] inline void fail(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(1);
}

/// Parse the shared bench flags. Unknown flags, flags outside `honoured`
/// and malformed values are fatal (exit 1); --help names the flags this
/// bench honours and exits 0. Arguments that are not flags are collected
/// into `operands` when the bench takes any, and are fatal otherwise.
inline BenchArgs parseBenchArgs(int argc, char** argv, unsigned honoured,
                                std::vector<std::string>* operands = nullptr) {
  static constexpr std::pair<const char*, unsigned> kFlags[] = {
      {"--full", kFull},
      {"--jobs", kJobs},
      {"--seed", kSeed},
      {"--json", kJson},
      {"--flows-json", kFlowsJson},
  };
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s%s", argv[0],
                  operands != nullptr ? " NAME..." : "");
      for (const auto& [name, bit] : kFlags) {
        if ((honoured & bit) != 0) std::printf(" [%s]", name);
      }
      std::printf("\n");
      std::exit(0);
    }
    if (operands != nullptr && arg.rfind('-', 0) != 0) {
      operands->push_back(arg);
      continue;
    }
    unsigned bit = 0;
    for (const auto& [name, b] : kFlags) {
      if (arg == name) bit = b;
    }
    if (bit == 0) fail("unknown flag '" + arg + "' (--help lists them)");
    if ((honoured & bit) == 0) {
      fail(std::string(argv[0]) + " does not honour " + arg);
    }
    if (bit == kFull) {
      args.full = true;
      continue;
    }
    if (i + 1 >= argc) fail("missing value for " + arg);
    const char* value = argv[++i];
    char* end = nullptr;
    const unsigned long long n = std::strtoull(value, &end, 10);
    if ((bit == kJobs || bit == kSeed) && (end == value || *end != '\0')) {
      fail("bad value '" + std::string(value) + "' for " + arg);
    }
    if (bit == kJobs) args.jobs = static_cast<int>(n);
    if (bit == kSeed) args.seed = n;
    if (bit == kJson) args.jsonPath = value;
    if (bit == kFlowsJson) args.flowsJsonPath = value;
  }
  return args;
}

/// The host a result was measured on, as a JSON object: core count, CPU
/// model, compiler and the CMake build type the bench was compiled with.
inline std::string hostJson() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      cpu = line.substr(colon + 2);
      break;
    }
  }
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\"}",
                std::thread::hardware_concurrency(), cpu.c_str(), __VERSION__,
                TLBSIM_BUILD_TYPE);
  return buf;
}

/// HEAD of the git checkout the bench runs in, suffixed "-dirty" when
/// tracked files differ from it; "none" outside a checkout.
inline std::string gitRevision() {
  std::FILE* p = popen(
      "git describe --always --dirty --abbrev=40 --exclude='*' 2>/dev/null",
      "r");
  if (p == nullptr) return "none";
  char buf[96] = {};
  const bool got = std::fgets(buf, sizeof buf, p) != nullptr;
  const int status = pclose(p);
  std::string rev = got && status == 0 ? buf : "none";
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  return rev;
}

/// `count` consecutive seeds starting at `base` (the repetition axis of a
/// sweep; --seed shifts the whole axis).
inline std::vector<std::uint64_t> seedAxis(std::uint64_t base, int count) {
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(count));
  std::iota(seeds.begin(), seeds.end(), base);
  return seeds;
}

/// The paper's basic NS2 setup (Sections 2.2, 4.2, 6.1): 2 leaves joined by
/// 15 spines (15 equal-cost paths), 1 Gbps links, 100 us base RTT.
inline harness::ExperimentConfig basicSetup(harness::Scheme scheme,
                                            int bufferPackets = 256,
                                            std::uint64_t seed = 1) {
  harness::ExperimentConfig cfg;
  cfg.topo.numLeaves = 2;
  cfg.topo.numSpines = 15;
  cfg.topo.hostsPerLeaf = 16;
  cfg.topo.linkDelay = microseconds(100.0 / 8.0);
  cfg.topo.bufferPackets = bufferPackets;
  cfg.topo.ecnThresholdPackets = 65;
  cfg.scheme.scheme = scheme;
  cfg.seed = seed;
  cfg.maxDuration = seconds(10);
  return cfg;
}

/// The three fixed switching granularities of the §2.2 motivation study
/// (Figs. 3 and 4), each with the label the paper's figures print.
struct Granularity {
  harness::Scheme scheme;
  const char* label;
};
inline constexpr Granularity kGranularities[] = {
    {harness::Scheme::kFlowLevel, "Flow-level"},
    {harness::Scheme::kLetFlow, "Flowlet-level"},
    {harness::Scheme::kRps, "Packet-level"},
};

/// The paper's basic traffic mix: 100 short (<100 KB) + 5 long (10 MB).
inline void addBasicMix(harness::ExperimentConfig& cfg, int numShort = 100,
                        int numLong = 5) {
  workload::BasicMixConfig mix;
  mix.numShort = numShort;
  mix.numLong = numLong;
  mix.numHosts = cfg.topo.numHosts();
  mix.hostsPerLeaf = cfg.topo.hostsPerLeaf;
  Rng rng(cfg.seed * 77 + 5);
  cfg.flows = workload::basicMixWorkload(mix, rng);
}

/// The Mininet testbed setup (Section 7): 10 equal-cost paths, 20 Mbps
/// links, 1 ms per-link delay, 256-packet buffers. At these rates the
/// default scale IS the paper's scale.
inline harness::ExperimentConfig testbedSetup(harness::Scheme scheme) {
  harness::ExperimentConfig cfg;
  cfg.topo.numLeaves = 2;
  cfg.topo.numSpines = 10;
  cfg.topo.hostsPerLeaf = 16;
  cfg.topo.hostLinkRate = mbps(20);
  cfg.topo.fabricLinkRate = mbps(20);
  cfg.topo.linkDelay = milliseconds(1);
  cfg.topo.bufferPackets = 256;
  // The Mininet/BMv2 testbed runs plain drop-tail queues (no RED/ECN
  // configuration in the paper's Section 7), so reordering and drops are
  // punished the way the testbed punishes them.
  cfg.topo.ecnThresholdPackets = 0;
  cfg.scheme.scheme = scheme;
  // Testbed control-loop constants (Section 7): 15 ms update interval and
  // flowlet timeout.
  cfg.scheme.flowletTimeout = milliseconds(15);
  cfg.scheme.tlb.updateInterval = milliseconds(15);
  cfg.scheme.tlb.idleTimeout = milliseconds(45);
  cfg.scheme.tlb.deadline = seconds(3);  // 25th pct of [2 s, 6 s]
  cfg.tcp.minRto = milliseconds(200);
  cfg.tcp.maxRto = seconds(2);
  // The 2019-era testbed kernel stack has no RACK-style reordering
  // tolerance; spurious fast retransmits cascade exactly as they did
  // there (`figures ablation_tcp_guard` is the controlled comparison).
  cfg.tcp.holeRetransmitGuard = false;
  cfg.maxDuration = seconds(200);
  return cfg;
}

/// Testbed traffic mix (Section 7): short flows < 100 KB, long flows 5 MB,
/// deadlines in [2 s, 6 s].
inline void addTestbedMix(harness::ExperimentConfig& cfg, int numShort = 100,
                          int numLong = 4) {
  workload::BasicMixConfig mix;
  mix.numShort = numShort;
  mix.numLong = numLong;
  mix.numHosts = cfg.topo.numHosts();
  mix.hostsPerLeaf = cfg.topo.hostsPerLeaf;
  mix.longSize = 5 * kMB;
  mix.deadlineMin = seconds(2);
  mix.deadlineMax = seconds(6);
  // Spread short arrivals so the aggregate short load matches the paper's
  // web-search-like burstiness at 20 Mbps.
  mix.shortInterArrival = milliseconds(50);
  Rng rng(cfg.seed * 131 + 3);
  cfg.flows = workload::basicMixWorkload(mix, rng);
}

/// Large-scale setup (Section 6.2): oversubscribed leaf-spine, 1 Gbps
/// links. The paper uses 8 ToR x 8 core with 256 hosts (4:1 oversubscribed
/// at the leaf — that contention is what differentiates the schemes);
/// the default here is a 4x4 fabric with 2:1 oversubscription so the sweep
/// finishes quickly, and --full restores the paper's 8x8x256 at 4:1.
inline harness::ExperimentConfig largeScaleSetup(harness::Scheme scheme,
                                                 bool full) {
  harness::ExperimentConfig cfg;
  cfg.topo.numLeaves = full ? 8 : 4;
  cfg.topo.numSpines = full ? 8 : 4;
  cfg.topo.hostsPerLeaf = full ? 32 : 8;
  cfg.topo.linkDelay = microseconds(100.0 / 8.0);
  cfg.topo.bufferPackets = 256;
  cfg.topo.ecnThresholdPackets = 65;
  cfg.scheme.scheme = scheme;
  cfg.maxDuration = seconds(30);
  return cfg;
}

/// Poisson workload at `load` for the large-scale tests. Load is defined
/// against the fabric bisection (leaf uplink aggregate), the binding
/// resource in an oversubscribed fabric.
inline void addPoissonWorkload(harness::ExperimentConfig& cfg, double load,
                               const workload::FlowSizeDistribution& dist,
                               int flowCount) {
  workload::PoissonConfig pcfg;
  pcfg.load = load;
  pcfg.flowCount = flowCount;
  pcfg.numHosts = cfg.topo.numHosts();
  pcfg.hostsPerLeaf = cfg.topo.hostsPerLeaf;
  pcfg.hostRate = cfg.topo.hostLinkRate;
  pcfg.offeredCapacityBps = static_cast<double>(cfg.topo.numLeaves) *
                            static_cast<double>(cfg.topo.numSpines) *
                            cfg.topo.fabricLinkRate.bytesPerSecond();
  Rng rng(cfg.seed * 9176 + 11);
  cfg.flows = poissonWorkload(pcfg, dist, rng);
}

}  // namespace tlbsim::bench
