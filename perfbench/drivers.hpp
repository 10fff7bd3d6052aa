// Isolated layer drivers: each times one layer alone, from outside,
// through its public functions, on inputs derived from the workload.
// A driver reports its total cost per unit of work plus the counts of
// lower-layer work it caused (events, link transmissions), so that a
// layer's self cost can be separated from the layers beneath it.
#pragma once

#include <cstdint>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/scheme.hpp"
#include "net/packet.hpp"

namespace perfbench {

/// Replays a schedule/post/cancel/step mix on a bare sim::Scheduler:
/// a constant population of pending packet-like events, plus RTO-like
/// timers re-armed (cancel + schedule) on `rearmPerEvent` of the events.
struct SimCost {
  double nsPerEvent = 0.0;
  double allocsPerEvent = 0.0;
};
SimCost simDriver(double rearmPerEvent, std::size_t population, std::uint64_t events,
                  std::uint64_t seed);

/// net::Link + DropTailQueue: bursts of packets sent into one link and
/// drained to a sink node.
struct LinkCost {
  double nsPerPkt = 0.0;      ///< send + serialization + delivery events
  double sendNsPerPkt = 0.0;  ///< Link::send alone
  double eventsPerPkt = 0.0;
};
LinkCost linkDriver(std::uint64_t packets);

/// net::Switch::receive on a leaf with an ECMP selector, forwarding the
/// workload's packet stream onto its uplinks (queues drained untimed).
struct SwitchCost {
  double nsPerForward = 0.0;
  double allocsPerForward = 0.0;
};
SwitchCost switchDriver(const tlbsim::harness::ExperimentConfig& cfg,
                        const std::vector<tlbsim::net::Packet>& stream);

/// selectUplink of one scheme over the workload's packet stream and a
/// group as wide as the workload's, with synthetic queue depths.
struct LbCost {
  double nsPerDecision = 0.0;
  double allocsPerDecision = 0.0;
  std::uint64_t checksum = 0;  ///< FNV-64 of the chosen ports
  double tickNs = 0.0;         ///< TLB only: one controlTick() (q_th update)
};
LbCost lbDriver(const tlbsim::harness::ExperimentConfig& cfg,
                tlbsim::harness::Scheme scheme,
                const std::vector<tlbsim::net::Packet>& stream);

/// One TcpSender/TcpReceiver pair over two directly connected hosts.
struct TransportCost {
  double nsPerSegment = 0.0;  ///< data segments and ACKs, both directions
  double eventsPerSegment = 0.0;
  double linkPktsPerSegment = 0.0;
  double flowSetupNs = 0.0;  ///< construct + destroy a sender/receiver pair
  double allocsPerFlow = 0.0;
};
TransportCost transportDriver(const tlbsim::harness::ExperimentConfig& cfg,
                              int flows, int setupFlows);

/// Host seconds to construct the workload's LeafSpineTopology.
double topologyBuildDriver(const tlbsim::harness::ExperimentConfig& cfg);

}  // namespace perfbench
