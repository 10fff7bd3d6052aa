#include "harness/fat_tree_experiment.hpp"

#include <memory>

#include "core/tlb.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp_receiver.hpp"
#include "transport/tcp_sender.hpp"

namespace tlbsim::harness {

ExperimentResult runFatTreeExperiment(const FatTreeExperimentConfig& cfgIn) {
  FatTreeExperimentConfig cfg = cfgIn;
  ExperimentResult res;

  sim::Simulator simr;

  // TLB's physical model inputs come from the topology: the group width
  // is k/2 at both tiers and the RTT uses the 6-hop pod-to-pod path.
  cfg.scheme.numPaths = cfg.topo.k / 2;
  cfg.scheme.tlb.rtt = 12 * cfg.topo.linkDelay;  // 6 links each way
  cfg.scheme.tlb.linkCapacity = cfg.topo.linkRate;
  cfg.scheme.tlb.bufferPackets = cfg.topo.bufferPackets;
  cfg.scheme.tlb.mss = cfg.tcp.mss;
  cfg.scheme.tlb.packetWireSize = cfg.tcp.maxSegmentWireSize();
  cfg.scheme.tlb.longFlowWindow = cfg.tcp.receiverWindow;
  cfg.scheme.tlb.qthCapPackets = cfg.topo.ecnThresholdPackets;

  std::vector<core::Tlb*> tlbs;
  net::FatTreeTopology topo(
      simr, cfg.topo, [&](net::Switch& sw, int idx) {
        (void)sw;
        auto sel = makeSelector(cfg.scheme,
                                cfg.seed * 1315423911ULL +
                                    static_cast<std::uint64_t>(idx));
        if (auto* tlb = dynamic_cast<core::Tlb*>(sel.get())) {
          tlbs.push_back(tlb);
        }
        return sel;
      });

  std::vector<std::unique_ptr<transport::TcpReceiver>> receivers;
  std::vector<std::unique_ptr<transport::TcpSender>> senders;
  receivers.reserve(cfg.flows.size());
  senders.reserve(cfg.flows.size());
  std::size_t completed = 0;
  for (const auto& f : cfg.flows) {
    receivers.push_back(std::make_unique<transport::TcpReceiver>(
        simr, topo.host(f.dst), f, cfg.tcp));
    senders.push_back(std::make_unique<transport::TcpSender>(
        simr, topo.host(f.src), f, cfg.tcp,
        [&completed](transport::TcpSender&) { ++completed; }));
    senders.back()->start();
  }

  auto& sched = simr.scheduler();
  while (completed < cfg.flows.size() && !sched.empty()) {
    if (!sched.step(cfg.maxDuration)) break;
  }
  res.endTime = simr.now();

  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    stats::FlowResult r;
    r.spec = senders[i]->flow();
    r.completed = senders[i]->completed();
    r.fct = r.completed ? senders[i]->fct() : 0_ns;
    r.dupAcks = senders[i]->dupAcksReceived();
    r.acks = senders[i]->acksReceived();
    r.fastRetransmits = senders[i]->fastRetransmits();
    r.timeouts = senders[i]->timeouts();
    r.outOfOrderPackets = receivers[i]->outOfOrderPackets();
    r.dataPackets = receivers[i]->dataPacketsReceived();
    res.ledger.add(std::move(r));
  }

  for (const auto* tlb : tlbs) res.tlbLongSwitches += tlb->longFlowSwitches();
  topo.forEachFabricLink([&](net::Link& link) {
    res.totalDrops += link.drops();
    res.totalEcnMarks += link.queue().ecnMarks();
  });
  return res;
}

}  // namespace tlbsim::harness
