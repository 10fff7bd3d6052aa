#include "workloads.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "fault/plan.hpp"
#include "harness/scheme.hpp"
#include "probes.hpp"
#include "util/rng.hpp"
#include "workload/traffic_gen.hpp"

namespace perfbench {

using namespace tlbsim;

namespace {

// Each Poisson workload offers a fixed number of bytes, not a fixed number
// of flows: the flow-size CDFs are heavy-tailed, so a fixed flow count
// would make the amount of simulated work (and every host-time metric)
// swing by 2x from seed to seed. The last flow is trimmed to land on the
// budget exactly.
constexpr std::int64_t kWebSearchBudgetBytes = 360'000'000;
constexpr std::int64_t kDataMiningBudgetBytes = 360'000'000;
constexpr std::int64_t kTinyBudgetBytes = 3'000'000;
constexpr int kAppQueries = 600;
constexpr int kTinyAppQueries = 12;

/// The CLI-default fabric: 4 leaves x 4 spines x 8 hosts/leaf, 1 Gbps,
/// 100 us base RTT, 256-packet buffers, DCTCP marking at 65 packets.
harness::ExperimentConfig fabric(harness::Scheme scheme, std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.topo.numLeaves = 4;
  cfg.topo.numSpines = 4;
  cfg.topo.hostsPerLeaf = 8;
  cfg.topo.hostLinkRate = gbps(1);
  cfg.topo.fabricLinkRate = gbps(1);
  cfg.topo.linkDelay = microseconds(100.0 / 8.0);
  cfg.topo.bufferPackets = 256;
  cfg.topo.ecnThresholdPackets = 65;
  cfg.tcp.enableEcn = true;
  cfg.scheme.scheme = scheme;
  cfg.seed = seed;
  cfg.maxDuration = seconds(30);
  cfg.audit = harness::ExperimentConfig::Audit::kOff;
  return cfg;
}

double offeredCapacityBps(const harness::ExperimentConfig& cfg) {
  return static_cast<double>(cfg.topo.numLeaves) *
         static_cast<double>(cfg.topo.numSpines) *
         cfg.topo.fabricLinkRate.bytesPerSecond();
}

/// Poisson arrivals at `load` of the fabric's capacity, drawing sizes from
/// `dist` until `budgetBytes` are offered.
std::vector<transport::FlowSpec> poissonFlows(
    const harness::ExperimentConfig& cfg,
    const workload::FlowSizeDistribution& dist, double load,
    std::int64_t budgetBytes) {
  workload::PoissonConfig pcfg;
  pcfg.load = load;
  // Enough draws that the budget is reached with overwhelming probability;
  // the surplus is discarded below.
  pcfg.flowCount = static_cast<int>(
      4.0 * static_cast<double>(budgetBytes) / dist.meanBytes() + 64);
  pcfg.numHosts = cfg.topo.numHosts();
  pcfg.hostsPerLeaf = cfg.topo.hostsPerLeaf;
  pcfg.hostRate = cfg.topo.hostLinkRate;
  pcfg.offeredCapacityBps = offeredCapacityBps(cfg);
  Rng rng(cfg.seed);
  std::vector<transport::FlowSpec> flows =
      workload::poissonWorkload(pcfg, dist, rng);
  std::int64_t offered = 0;
  std::size_t keep = 0;
  for (; keep < flows.size() && offered < budgetBytes; ++keep) {
    const std::int64_t left = budgetBytes - offered;
    if (flows[keep].size.bytes() > left) {
      flows[keep].size = ByteCount::fromBytes(left);
    }
    offered += flows[keep].size.bytes();
  }
  flows.resize(keep);
  return flows;
}

/// Flap, brownout and gray loss on three different leaf->spine cables,
/// placed at fixed fractions of the arrival span so that every scale sees
/// every fault applied and cleared.
fault::FaultPlan faultDrill(SimTime span) {
  const auto at = [span](double frac) {
    return std::to_string(
               static_cast<long long>(toSeconds(span) * frac * 1e6)) +
           "us";
  };
  fault::FaultPlan plan;
  const std::string spec = "leaf0-spine1,down@" + at(0.15) + ",up@" +
                           at(0.45) + ";leaf1-spine2,rate=0.25@" + at(0.25) +
                           ",rate=1@" + at(0.7) + ";leaf2-spine3,drop=0.01@" +
                           at(0.1) + ",drop=0@" + at(0.6);
  std::string err;
  if (!fault::parseLinkFaults(spec, &plan, &err)) {
    throw std::logic_error("fault drill spec: " + err);
  }
  return plan;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> kNames = {
      "websearch_tlb", "incast_app_ecmp", "datamining_faults_drill"};
  return kNames;
}

std::optional<WorkloadSetup> makeWorkload(const std::string& workload,
                                          std::uint64_t seed, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  WorkloadSetup out;
  if (workload == "websearch_tlb") {
    out.cfg = fabric(harness::Scheme::kTlb, seed);
    const double t0 = nowSeconds();
    out.cfg.flows = poissonFlows(
        out.cfg, workload::FlowSizeDistribution::webSearch(30 * kMB), 0.8,
        tiny ? kTinyBudgetBytes : kWebSearchBudgetBytes);
    out.genSeconds = nowSeconds() - t0;
    out.params = {{"flow_sizes", "websearch_cdf_cap_30MB"},
                  {"load", "0.8"}};
  } else if (workload == "incast_app_ecmp") {
    out.cfg = fabric(harness::Scheme::kEcmp, seed);
    app::AppConfig& a = out.cfg.app;
    a.queries = tiny ? kTinyAppQueries : kAppQueries;
    a.fanOut = 16;
    a.arrival = app::Arrival::kClosedLoop;
    a.concurrency = 4;
    a.responseDist = app::ResponseDist::kFixed;
    a.responseBytes = 32 * kKB;
    a.slo = milliseconds(10);
    a.timeout = milliseconds(40);
    a.maxRetries = 2;
    out.params = {{"app", "closed_loop_partition_aggregate"},
                  {"queries", std::to_string(a.queries)},
                  {"fan_out", std::to_string(a.fanOut)},
                  {"concurrency", std::to_string(a.concurrency)},
                  {"response_bytes", std::to_string(a.responseBytes.bytes())},
                  {"slo_ms", "10"},
                  {"retry_timeout_ms", "40"}};
  } else if (workload == "datamining_faults_drill") {
    out.cfg = fabric(harness::Scheme::kDrill, seed);
    const std::int64_t budget =
        tiny ? kTinyBudgetBytes : kDataMiningBudgetBytes;
    const double load = 0.6;
    const double t0 = nowSeconds();
    out.cfg.flows = poissonFlows(
        out.cfg, workload::FlowSizeDistribution::dataMining(35 * kMB), load,
        budget);
    out.genSeconds = nowSeconds() - t0;
    out.cfg.fault = faultDrill(seconds(static_cast<double>(budget) /
                                       (load * offeredCapacityBps(out.cfg))));
    out.params = {{"flow_sizes", "datamining_cdf_cap_35MB"},
                  {"load", "0.6"},
                  {"fault_plan", out.cfg.fault.toString()}};
  } else {
    return std::nullopt;
  }
  std::int64_t offered = 0;
  for (const auto& f : out.cfg.flows) offered += f.size.bytes();
  const auto& t = out.cfg.topo;
  out.params.insert(
      out.params.begin(),
      {{"workload", workload},
       {"scale", tiny ? "tiny" : "full"},
       {"scheme", harness::schemeCliName(out.cfg.scheme.scheme)},
       {"fabric", std::to_string(t.numLeaves) + "x" +
                      std::to_string(t.numSpines) + "x" +
                      std::to_string(t.hostsPerLeaf)},
       {"link_gbps", "1"},
       {"rtt_us", "100"},
       {"buffer_pkts", std::to_string(t.bufferPackets)},
       {"ecn_k_pkts", std::to_string(t.ecnThresholdPackets)},
       {"static_flows", std::to_string(out.cfg.flows.size())},
       {"offered_bytes", std::to_string(offered)}});
  return out;
}

std::vector<net::Packet> packetStream(const harness::ExperimentConfig& cfg,
                                      std::size_t maxPackets,
                                      std::uint64_t seed) {
  struct Pending {
    FlowId id;
    net::HostId src;
    net::HostId dst;
    std::int64_t left;
  };
  const int hostsPerLeaf = cfg.topo.hostsPerLeaf;
  const int numHosts = cfg.topo.numHosts();
  std::deque<Pending> queue;
  for (const auto& f : cfg.flows) {
    queue.push_back({f.id, f.src, f.dst, f.size.bytes()});
  }
  if (cfg.flows.empty() && cfg.app.enabled()) {
    Rng rng(seed);
    FlowId id = 1;
    for (int q = 0; q < cfg.app.queries; ++q) {
      const net::HostId agg = q % numHosts;
      for (int k = 0; k < cfg.app.fanOut; ++k) {
        net::HostId worker = agg;
        while (worker == agg) {
          worker = static_cast<net::HostId>(
              rng.uniformInt(static_cast<std::uint64_t>(numHosts)));
        }
        queue.push_back({id++, worker, agg, cfg.app.responseBytes.bytes()});
      }
    }
  }
  // Only fabric-crossing packets reach an uplink selector.
  std::erase_if(queue, [hostsPerLeaf](const Pending& p) {
    return p.src / hostsPerLeaf == p.dst / hostsPerLeaf;
  });

  // Round-robin over a window of concurrent flows; every data segment is
  // followed by the receiver's ACK, which crosses the fabric too.
  constexpr std::size_t kWindow = 16;
  const std::int64_t mss = cfg.tcp.mss.bytes();
  const ByteCount header = cfg.tcp.headerBytes;
  std::vector<Pending> active;
  std::vector<net::Packet> out;
  out.reserve(maxPackets);
  std::size_t turn = 0;
  while (out.size() + 1 < maxPackets && (!active.empty() || !queue.empty())) {
    while (active.size() < kWindow && !queue.empty()) {
      active.push_back(queue.front());
      queue.pop_front();
    }
    Pending& f = active[turn % active.size()];
    net::Packet data;
    data.flow = f.id;
    data.type = net::PacketType::kData;
    data.src = f.src;
    data.dst = f.dst;
    data.payload = ByteCount::fromBytes(std::min(mss, f.left));
    data.size = data.payload + header;
    data.ecnCapable = cfg.tcp.enableEcn;
    f.left -= data.payload.bytes();
    net::Packet ack;
    ack.flow = f.id;
    ack.type = net::PacketType::kAck;
    ack.src = f.dst;
    ack.dst = f.src;
    ack.size = header;
    out.push_back(data);
    out.push_back(ack);
    if (f.left <= 0) {
      f = active.back();
      active.pop_back();
    } else {
      ++turn;
    }
  }
  return out;
}

}  // namespace perfbench
