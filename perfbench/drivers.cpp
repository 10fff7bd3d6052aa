#include "drivers.hpp"

#include <memory>
#include <string>

#include "core/tlb.hpp"
#include "net/host.hpp"
#include "net/leaf_spine.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"
#include "probes.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp_receiver.hpp"
#include "transport/tcp_sender.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace tlbsim;

namespace {

class SinkNode final : public net::Node {
 public:
  void receive(net::Packet, int) override { ++received; }
  std::string name() const override { return "sink"; }
  std::uint64_t received = 0;
};

net::QueueConfig queueConfig(const harness::ExperimentConfig& cfg) {
  net::QueueConfig q;
  q.capacityPackets = cfg.topo.bufferPackets;
  q.ecnThresholdPackets = cfg.topo.ecnThresholdPackets;
  return q;
}

/// The scheme config a leaf selector gets inside Experiment::run, with
/// TLB's physical inputs derived from the topology the same way.
harness::SchemeConfig leafSchemeConfig(const harness::ExperimentConfig& cfg,
                                       harness::Scheme scheme) {
  harness::SchemeConfig s = cfg.scheme;
  s.scheme = scheme;
  s.numPaths = cfg.topo.numSpines;
  s.tlb.rtt = cfg.topo.baseRtt();
  s.tlb.linkCapacity = cfg.topo.fabricLinkRate;
  s.tlb.bufferPackets = cfg.topo.bufferPackets;
  s.tlb.mss = cfg.tcp.mss;
  s.tlb.packetWireSize = cfg.tcp.maxSegmentWireSize();
  s.tlb.longFlowWindow = cfg.tcp.receiverWindow;
  s.tlb.qthCapPackets = cfg.topo.ecnThresholdPackets;
  return s;
}

/// A leaf switch whose uplinks (one per spine) end in a sink.
struct Leaf {
  Leaf(sim::Simulator& simr, const harness::ExperimentConfig& cfg)
      : sw(simr, "leaf0") {
    std::vector<int> group;
    for (int s = 0; s < cfg.topo.numSpines; ++s) {
      auto link = std::make_unique<net::Link>(simr, cfg.topo.fabricLinkRate,
                                              cfg.topo.linkDelay,
                                              queueConfig(cfg));
      link->connect(&sink, 0);
      group.push_back(sw.addPort(std::move(link)));
    }
    sw.setUplinkGroup(group);
    for (int h = 0; h < cfg.topo.numHosts(); ++h) sw.routeViaUplinks(h);
  }
  SinkNode sink;
  net::Switch sw;
};

}  // namespace

// --- sim ------------------------------------------------------------------

namespace {

class SimReplay {
 public:
  SimReplay(double rearmPerEvent, std::uint64_t seed) : timers_(64) {
    Rng rng(seed);
    for (std::size_t i = 0; i < kTable; ++i) {
      // Packet-like delays: a serialization time up to a propagation delay.
      delays_[i] = SimTime::fromNs(
          static_cast<std::int64_t>(rng.uniformInt(std::uint64_t{25'000})) +
          1);
      rearm_[i] = rng.uniform() < rearmPerEvent;
    }
  }

  void prefill(std::size_t population) {
    for (std::size_t i = 0; i < population; ++i) {
      sched_.post(delays_[i % kTable], [this] { fire(); });
    }
    sched_.every(microseconds(500), [] {}, microseconds(500), "replay.tick");
  }

  void steps(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) sched_.step();
  }

  std::uint64_t executed() const { return sched_.executedEvents(); }

 private:
  static constexpr std::size_t kTable = 4096;

  void fire() {
    const std::size_t i = next_++ % kTable;
    sched_.post(delays_[i], [this] { fire(); });
    if (rearm_[i]) {
      // Move-assigning a handle cancels the pending timer it replaces.
      timers_[i % timers_.size()] =
          sched_.schedule(milliseconds(10), [] {});
    }
  }

  sim::Scheduler sched_;
  SimTime delays_[kTable];
  bool rearm_[kTable] = {};
  std::vector<sim::EventHandle> timers_;
  std::size_t next_ = 0;
};

}  // namespace

SimCost simDriver(double rearmPerEvent, std::size_t population, std::uint64_t events,
                  std::uint64_t seed) {
  SimReplay replay(rearmPerEvent, seed);
  replay.prefill(population);
  replay.steps(events / 10 + 1000);  // grow slot pool and heap first
  const std::uint64_t before = replay.executed();
  AllocCounter::arm();
  const double t0 = nowSeconds();
  replay.steps(events);
  const double dt = nowSeconds() - t0;
  const std::uint64_t allocs = AllocCounter::disarm();
  const double n = static_cast<double>(replay.executed() - before);
  return {dt * 1e9 / n, static_cast<double>(allocs) / n};
}

// --- net ------------------------------------------------------------------

LinkCost linkDriver(std::uint64_t packets) {
  sim::Simulator simr;
  SinkNode sink;
  net::QueueConfig q;
  q.capacityPackets = 256;
  q.ecnThresholdPackets = 65;
  net::Link link(simr, gbps(1), microseconds(12.5), q);
  link.connect(&sink, 0);
  net::Packet pkt;
  pkt.type = net::PacketType::kData;
  pkt.src = 0;
  pkt.dst = 1;
  pkt.payload = 1460_B;
  pkt.size = 1500_B;
  pkt.ecnCapable = true;

  constexpr std::uint64_t kBurst = 24;
  double sendSeconds = 0.0;
  const std::uint64_t ev0 = simr.scheduler().executedEvents();
  const double t0 = nowSeconds();
  for (std::uint64_t sent = 0; sent < packets; sent += kBurst) {
    const double s0 = nowSeconds();
    for (std::uint64_t i = 0; i < kBurst; ++i) {
      pkt.flow = static_cast<FlowId>(sent + i);
      link.send(pkt);
    }
    sendSeconds += nowSeconds() - s0;
    simr.run();
  }
  const double dt = nowSeconds() - t0;
  const double n = static_cast<double>(sink.received);
  return {dt * 1e9 / n, sendSeconds * 1e9 / n,
          static_cast<double>(simr.scheduler().executedEvents() - ev0) / n};
}

SwitchCost switchDriver(const harness::ExperimentConfig& cfg,
                        const std::vector<net::Packet>& stream) {
  sim::Simulator simr;
  Leaf leaf(simr, cfg);
  leaf.sw.setSelector(
      harness::makeSelector(leafSchemeConfig(cfg, harness::Scheme::kEcmp), 1));
  constexpr std::size_t kBurst = 32;
  double seconds = 0.0;
  std::uint64_t allocs = 0;
  for (std::size_t i = 0; i < stream.size(); i += kBurst) {
    const std::size_t end = std::min(stream.size(), i + kBurst);
    AllocCounter::arm();
    const double t0 = nowSeconds();
    for (std::size_t k = i; k < end; ++k) leaf.sw.receive(stream[k], 0);
    seconds += nowSeconds() - t0;
    allocs += AllocCounter::disarm();
    simr.run();
  }
  const double n = static_cast<double>(leaf.sw.forwardedPackets());
  return {seconds * 1e9 / n, static_cast<double>(allocs) / n};
}

double topologyBuildDriver(const harness::ExperimentConfig& cfg) {
  const harness::SchemeConfig scheme =
      leafSchemeConfig(cfg, cfg.scheme.scheme);
  std::vector<double> samples;
  for (int rep = 0; rep < 9; ++rep) {
    sim::Simulator simr;
    const double t0 = nowSeconds();
    net::LeafSpineTopology topo(
        simr, cfg.topo, [&scheme, &cfg](net::Switch&, int leafIdx) {
          return harness::makeSelector(
              scheme, cfg.seed * 1315423911ULL +
                          static_cast<std::uint64_t>(leafIdx));
        });
    samples.push_back(nowSeconds() - t0);
  }
  return median(samples);
}

// --- lb / core --------------------------------------------------------------

LbCost lbDriver(const harness::ExperimentConfig& cfg, harness::Scheme scheme,
                const std::vector<net::Packet>& stream) {
  sim::Simulator simr;
  Leaf leaf(simr, cfg);
  auto owned = harness::makeSelector(leafSchemeConfig(cfg, scheme),
                                     cfg.seed * 1315423911ULL);
  net::UplinkSelector* sel = owned.get();
  leaf.sw.setSelector(std::move(owned));  // attaches: timers, switch view

  // Synthetic group snapshots: every uplink up, queue depths drawn from
  // the range DCTCP marking keeps a fabric port in.
  constexpr std::size_t kViews = 1024;
  std::vector<std::vector<net::PortView>> views(kViews);
  Rng rng(cfg.seed ^ 0x9e3779b97f4a7c15ULL);
  for (auto& v : views) {
    for (int p : leaf.sw.uplinkGroup()) {
      const int q = static_cast<int>(rng.uniformInt(std::uint64_t{80}));
      v.push_back(net::PortView{p, q, cfg.tcp.maxSegmentWireSize() * q,
                                cfg.topo.fabricLinkRate.bitsPerSecond(),
                                toSeconds(cfg.topo.linkDelay)});
    }
  }

  // One decision per leaf-uplink packet slot: at full fabric load a leaf
  // makes one every (wire time / group width).
  const SimTime gap = cfg.tcp.maxSegmentWireSize() /
                      cfg.topo.fabricLinkRate.scaled(cfg.topo.numSpines);
  constexpr std::size_t kBatch = 64;
  LbCost out;
  double seconds = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < stream.size(); i += kBatch) {
    // Advance simulated time (firing the scheme's own timers) untimed.
    simr.run(gap * static_cast<std::int64_t>(i));
    const std::size_t end = std::min(stream.size(), i + kBatch);
    AllocCounter::arm();
    const double t0 = nowSeconds();
    for (std::size_t k = i; k < end; ++k) {
      const int port = sel->selectUplink(stream[k], views[k % kViews]);
      h = (h ^ static_cast<std::uint64_t>(port)) * 0x100000001b3ULL;
    }
    seconds += nowSeconds() - t0;
    allocs += AllocCounter::disarm();
  }
  const double n = static_cast<double>(stream.size());
  out.nsPerDecision = seconds * 1e9 / n;
  out.allocsPerDecision = static_cast<double>(allocs) / n;
  out.checksum = h;

  if (auto* tlb = dynamic_cast<core::Tlb*>(sel)) {
    // q_th update on the flow table the stream left behind.
    constexpr int kTicks = 4000;
    const double t0 = nowSeconds();
    for (int i = 0; i < kTicks; ++i) tlb->controlTick();
    out.tickNs = (nowSeconds() - t0) * 1e9 / kTicks;
  }
  return out;
}

// --- transport ---------------------------------------------------------------

TransportCost transportDriver(const harness::ExperimentConfig& cfg, int flows,
                              int setupFlows) {
  sim::Simulator simr;
  net::Host a(0, "a");
  net::Host b(1, "b");
  // Direct cable with the fabric's whole base RTT.
  const SimTime oneWay = cfg.topo.baseRtt() / 2;
  a.attachUplink(std::make_unique<net::Link>(simr, cfg.topo.hostLinkRate,
                                             oneWay, queueConfig(cfg)));
  b.attachUplink(std::make_unique<net::Link>(simr, cfg.topo.hostLinkRate,
                                             oneWay, queueConfig(cfg)));
  a.uplink().connect(&b, 0);
  b.uplink().connect(&a, 0);

  TransportCost out;
  FlowId nextId = 1;
  double seconds = 0.0, segments = 0.0;
  const std::uint64_t ev0 = simr.scheduler().executedEvents();
  const std::uint64_t pk0 = a.uplink().txPackets() + b.uplink().txPackets();
  for (int i = 0; i < flows; ++i) {
    transport::FlowSpec f;
    f.id = nextId++;
    f.src = 0;
    f.dst = 1;
    f.size = 1 * kMB;
    f.start = simr.now();
    const double t0 = nowSeconds();
    transport::TcpReceiver rcv(simr, b, f, cfg.tcp);
    transport::TcpSender snd(simr, a, f, cfg.tcp);
    snd.start();
    simr.run();
    seconds += nowSeconds() - t0;
    segments += static_cast<double>(snd.dataPacketsSent() + rcv.acksSent());
  }
  out.nsPerSegment = seconds * 1e9 / segments;
  out.eventsPerSegment =
      static_cast<double>(simr.scheduler().executedEvents() - ev0) / segments;
  out.linkPktsPerSegment =
      static_cast<double>(a.uplink().txPackets() + b.uplink().txPackets() -
                          pk0) /
      segments;

  // Flow setup: the per-flow endpoint work Experiment::run and
  // app::Service do for every static or RPC flow.
  std::vector<std::unique_ptr<transport::TcpReceiver>> rcvs;
  std::vector<std::unique_ptr<transport::TcpSender>> snds;
  rcvs.reserve(static_cast<std::size_t>(setupFlows));
  snds.reserve(static_cast<std::size_t>(setupFlows));
  AllocCounter::arm();
  const double t0 = nowSeconds();
  for (int i = 0; i < setupFlows; ++i) {
    transport::FlowSpec f;
    f.id = nextId++;
    f.src = 0;
    f.dst = 1;
    f.size = 32 * kKB;
    f.start = simr.now();
    rcvs.push_back(std::make_unique<transport::TcpReceiver>(simr, b, f,
                                                            cfg.tcp));
    snds.push_back(
        std::make_unique<transport::TcpSender>(simr, a, f, cfg.tcp));
  }
  snds.clear();
  rcvs.clear();
  const double dt = nowSeconds() - t0;
  const std::uint64_t allocs = AllocCounter::disarm();
  out.flowSetupNs = dt * 1e9 / setupFlows;
  out.allocsPerFlow = static_cast<double>(allocs) / setupFlows;
  return out;
}

}  // namespace perfbench
