// FaultMonitor: per-run recovery metrics for fault-injection experiments.
//
// Three questions, answered scheme-agnostically from dequeue hooks on the
// uplinks of every decision switch (the load-balancing decision point):
//
//   * time-to-reroute — for every long flow whose current uplink is hit
//     by a disruptive fault, the delay until its first data packet leaves
//     a DIFFERENT uplink of the same switch. A scheme that masks dead ports
//     reroutes within one selection; a scheme blind to the fault kind
//     (e.g. gray failure vs queue-length signals) may never reroute.
//   * goodput dip — periodic samples of a caller-provided
//     acked-long-flow-bytes probe; the dip ratio compares the minimum
//     per-interval rate just after the first disruptive fault against the
//     mean rate just before it (1.0 = no dip, 0.0 = full stall).
//   * affected vs rerouted counts — how much of the long-flow population
//     the fault touched and how much of it escaped.
//
// Everything is recorded in event order (vectors, no unordered iteration
// feeding order-dependent sums), so the derived metrics are byte-stable
// across sweep worker counts.
#pragma once

#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "net/fabric.hpp"
#include "sim/simulator.hpp"
#include "util/flow_key.hpp"
#include "util/units.hpp"

namespace tlbsim::obs {
class FlowProbe;
}

namespace tlbsim::fault {

class FaultMonitor {
 public:
  struct Config {
    /// Goodput sampling cadence (matches the obs sampler by default).
    SimTime sampleInterval = microseconds(500);
    /// Pre/post window width for the dip ratio, in sample intervals.
    int dipWindow = 10;
  };

  /// Attaches dequeue hooks to every decision switch's uplinks and starts
  /// the goodput sampler. `isLong` classifies flow ids (only long flows
  /// are tracked for rerouting — short flows finish too fast for a stable
  /// reroute time). The fabric and simulator must outlive the monitor.
  /// (No default for `cfg`: a default argument here would need Config's
  /// member initializers before the enclosing class is complete — callers
  /// pass Config{} explicitly.)
  FaultMonitor(net::Fabric& fabric, sim::Simulator& simr,
               std::function<bool(FlowId)> isLong, Config cfg);

  /// Acked-bytes probe for the goodput samples (typically the sum of
  /// bytesAcked over all long-flow senders). Optional; without it the dip
  /// ratio stays 1.0.
  void setGoodputProbe(std::function<ByteCount()> ackedBytes) {
    probe_ = std::move(ackedBytes);
  }

  /// Wire the per-flow decision probe: the moment an affected flow's
  /// first data packet leaves a different uplink, a fault-reroute
  /// decision event is recorded with the escaped uplink's slot in its
  /// group and the reroute delay. Nullable hot-path contract.
  void setFlowProbe(obs::FlowProbe* probe) { flowProbe_ = probe; }

  /// Called by the injector just before each plan event is applied to
  /// the cable whose load-balanced direction is `uplink`.
  void onFault(const FaultEvent& ev, const net::Link& uplink);

  // --- results ----------------------------------------------------------
  SimTime firstDisruptiveAt() const { return firstDisruptiveAt_; }
  /// Long flows whose current uplink was hit by a disruptive fault.
  int affectedLongFlows() const { return affected_; }
  /// Of those, how many later sent data on a different uplink.
  int reroutedLongFlows() const {
    return static_cast<int>(rerouteTimes_.size());
  }
  double meanRerouteSec() const;
  double maxRerouteSec() const;
  /// Per-flow reroute delays (seconds) in reroute order.
  const std::vector<double>& rerouteTimesSec() const {
    return rerouteTimes_;
  }
  /// min(post-fault interval rate) / mean(pre-fault interval rate);
  /// 1.0 when no disruptive fault fired or no probe was installed.
  double goodputDipRatio() const;

 private:
  struct Pending {
    SimTime faultAt;
    const net::Link* uplink = nullptr;
  };

  void onDequeue(const net::Link* uplink, int slot, const net::Packet& pkt);

  sim::Simulator& sim_;
  std::function<bool(FlowId)> isLong_;
  Config cfg_;
  std::function<ByteCount()> probe_;

  /// Last uplink each tracked long flow sent data on.
  std::unordered_map<FlowId, const net::Link*> currentUplink_;
  /// Flows awaiting their first post-fault dequeue on another uplink.
  std::unordered_map<FlowId, Pending> pending_;
  std::vector<double> rerouteTimes_;  ///< seconds, in reroute order
  int affected_ = 0;
  SimTime firstDisruptiveAt_ = -1_ns;
  obs::FlowProbe* flowProbe_ = nullptr;  ///< null = disabled

  /// (time, probe()) samples in time order.
  std::vector<std::pair<SimTime, ByteCount>> samples_;
};

}  // namespace tlbsim::fault
