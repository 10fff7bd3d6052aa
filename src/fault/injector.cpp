#include "fault/injector.hpp"

#include "fault/monitor.hpp"
#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace tlbsim::fault {

namespace {

/// Deterministic per-(link, direction) RNG seed for gray failures:
/// a splitmix64 chain over the run seed and the link identity.
std::uint64_t graySeed(std::uint64_t seed, int leaf, int spine,
                       int direction) {
  std::uint64_t x = splitmix64(seed ^ 0xfa117ULL);
  x = splitmix64(x ^ static_cast<std::uint64_t>(leaf));
  x = splitmix64(x ^ static_cast<std::uint64_t>(spine));
  return splitmix64(x ^ static_cast<std::uint64_t>(direction));
}

}  // namespace

bool resolveCables(const FaultPlan& plan, net::Fabric& fabric,
                   std::vector<Cable>* out, std::string* error) {
  out->clear();
  for (const FaultEvent& ev : plan.events) {
    const std::string leaf = "leaf" + std::to_string(ev.leaf);
    const std::string spine = "spine" + std::to_string(ev.spine);
    const Cable c{fabric.link(leaf, spine), fabric.link(spine, leaf)};
    if (c.uplink == nullptr || c.downlink == nullptr) {
      if (error != nullptr) {
        *error = "fault cable " + leaf + "-" + spine + " is not in the fabric";
      }
      return false;
    }
    out->push_back(c);
  }
  return true;
}

FaultInjector::FaultInjector(FaultPlan plan, net::Fabric& fabric,
                             sim::Simulator& simr, std::uint64_t seed)
    : plan_(std::move(plan)), fabric_(fabric), sim_(simr), seed_(seed) {}

void FaultInjector::installObs(obs::MetricsRegistry* metrics,
                               obs::EventTrace* trace) {
  if (metrics != nullptr) {
    obsApplied_ = &metrics->counter("fault.events_applied");
  }
  trace_ = trace;
  if (trace_ != nullptr) traceTid_ = trace_->newTrack("fault");
}

void FaultInjector::install() {
  TLBSIM_ASSERT(!installed_, "FaultInjector::install() called twice");
  installed_ = true;
  std::string err;
  const bool resolved = resolveCables(plan_, fabric_, &cables_, &err);
  TLBSIM_ASSERT(resolved, "%s", err.c_str());
  // Scheduled in declaration order, so same-time events keep it (the
  // scheduler breaks timestamp ties by scheduling order).
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    sim_.postAt(plan_.events[i].at, [this, i] { apply(i); });
  }
}

void FaultInjector::apply(std::size_t i) {
  const FaultEvent& ev = plan_.events[i];
  net::Link& uplink = *cables_[i].uplink;
  net::Link& downlink = *cables_[i].downlink;
  // The monitor snapshots which flows sit on the link BEFORE the mutation
  // disturbs it.
  if (monitor_ != nullptr) monitor_->onFault(ev, uplink);

  switch (ev.kind) {
    case FaultEvent::Kind::kDown:
      uplink.faultDown(plan_.drainOnDown);
      downlink.faultDown(plan_.drainOnDown);
      break;
    case FaultEvent::Kind::kUp:
      uplink.faultUp();
      downlink.faultUp();
      break;
    case FaultEvent::Kind::kRateFactor:
      uplink.faultSetRateFactor(ev.value);
      downlink.faultSetRateFactor(ev.value);
      break;
    case FaultEvent::Kind::kDelayFactor:
      uplink.faultSetDelayFactor(ev.value);
      downlink.faultSetDelayFactor(ev.value);
      break;
    case FaultEvent::Kind::kDropProb:
      uplink.faultSetDropProb(ev.value,
                              graySeed(seed_, ev.leaf, ev.spine, 0));
      downlink.faultSetDropProb(ev.value,
                                graySeed(seed_, ev.leaf, ev.spine, 1));
      break;
  }
  ++applied_;
  if (obsApplied_ != nullptr) obsApplied_->inc();
  if (trace_ != nullptr) {
    trace_->instant("fault", toString(ev.kind), sim_.now(),
                    {{"leaf", static_cast<double>(ev.leaf)},
                     {"spine", static_cast<double>(ev.spine)},
                     {"value", ev.value}},
                    traceTid_);
  }
  TLBSIM_LOG_INFO("fault: %s leaf%d-spine%d value=%.3f t=%.3fms",
                  toString(ev.kind), ev.leaf, ev.spine, ev.value,
                  toMilliseconds(sim_.now()));
}

}  // namespace tlbsim::fault
