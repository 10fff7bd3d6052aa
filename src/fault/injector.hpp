// FaultInjector: turns a FaultPlan into scheduled simulator events that
// mutate the network at runtime. It is the single component allowed to
// call the Link fault mutators (enforced by the tlbsim-lint
// `fault-mutation` rule), so every disruption in a run is traceable to a
// plan event.
//
// Each plan event applies to BOTH directions of the named leaf<->spine
// cable (leaf->spine uplink and spine->leaf downlink), matching the
// static-asymmetry convention of LeafSpineConfig::LinkOverride. Cables
// are resolved by switch name ("leafL", "spineS") against the built
// fabric, by the same function that validates a plan before a run. Gray
// failures draw their per-packet losses from a link-local RNG seeded from
// (run seed, leaf, spine, direction), so runs are reproducible for any
// worker count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "net/fabric.hpp"
#include "sim/simulator.hpp"

namespace tlbsim::obs {
class MetricsRegistry;
class Counter;
class EventTrace;
}  // namespace tlbsim::obs

namespace tlbsim::fault {

class FaultMonitor;

/// Both directions of one leaf<->spine cable of a built fabric.
struct Cable {
  net::Link* uplink = nullptr;    ///< leaf -> spine
  net::Link* downlink = nullptr;  ///< spine -> leaf
};

/// Resolves every event's cable against `fabric`, in plan order, into
/// *out. Returns false, explaining into *error when non-null, at the
/// first cable the fabric does not have.
bool resolveCables(const FaultPlan& plan, net::Fabric& fabric,
                   std::vector<Cable>* out, std::string* error = nullptr);

class FaultInjector {
 public:
  /// The fabric and simulator must outlive the injector; the plan is
  /// copied. Every event's cable is resolved against the fabric on
  /// install().
  FaultInjector(FaultPlan plan, net::Fabric& fabric, sim::Simulator& simr,
                std::uint64_t seed);

  /// Recovery-metric observer, notified of each event just before it is
  /// applied (so the monitor snapshots pre-fault state). Optional; must
  /// outlive the injector.
  void setMonitor(FaultMonitor* monitor) { monitor_ = monitor; }

  /// Wire the injector into the metrics registry ("fault.events_applied")
  /// and, when `trace` is non-null, emit one instant event per applied
  /// fault on a dedicated "fault" track.
  void installObs(obs::MetricsRegistry* metrics, obs::EventTrace* trace);

  /// Resolve the plan against the fabric and schedule every event.
  /// Call at most once, before the run starts.
  void install();

  std::uint64_t eventsApplied() const { return applied_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  void apply(std::size_t i);

  FaultPlan plan_;
  net::Fabric& fabric_;
  std::vector<Cable> cables_;  ///< per plan event, filled by install()
  sim::Simulator& sim_;
  std::uint64_t seed_;
  FaultMonitor* monitor_ = nullptr;
  std::uint64_t applied_ = 0;
  bool installed_ = false;

  obs::Counter* obsApplied_ = nullptr;
  obs::EventTrace* trace_ = nullptr;
  int traceTid_ = 0;
};

}  // namespace tlbsim::fault
