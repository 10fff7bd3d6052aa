// Simulator facade: owns the scheduler and the run loop, and wires the
// observability sinks into the scheduler's periodic-tick hook (the timer
// machinery itself — including the 500 µs control loops — lives in
// Scheduler::every).
#pragma once

#include <utility>

#include "sim/scheduler.hpp"
#include "util/units.hpp"

namespace tlbsim::obs {
class Counter;
class EventTrace;
class MetricsRegistry;
}  // namespace tlbsim::obs

namespace tlbsim::sim {

class Simulator {
 public:
  Scheduler& scheduler() { return scheduler_; }
  const Scheduler& scheduler() const { return scheduler_; }

  SimTime now() const { return scheduler_.now(); }

  [[nodiscard]] EventHandle schedule(SimTime delay, EventFn&& fn) {
    return scheduler_.schedule(delay, std::move(fn));
  }
  [[nodiscard]] EventHandle scheduleAt(SimTime when, EventFn&& fn) {
    return scheduler_.scheduleAt(when, std::move(fn));
  }

  /// Fire-and-forget: no handle, for events never cancelled.
  void post(SimTime delay, EventFn&& fn) {
    scheduler_.post(delay, std::move(fn));
  }
  void postAt(SimTime when, EventFn&& fn) {
    scheduler_.postAt(when, std::move(fn));
  }

  /// Register `fn` to fire every `period` starting at `start`; see
  /// Scheduler::every for the bounded-run parking semantics and the
  /// lifetime requirement on `name`.
  void every(SimTime period, EventFn fn, SimTime start = {},
             const char* name = nullptr) {
    scheduler_.every(period, std::move(fn), start, name);
  }

  /// Run until `limit` (absolute time) or event exhaustion.
  std::uint64_t run(SimTime limit = Scheduler::kMaxTime) {
    return scheduler_.run(limit);
  }

  /// Attach metrics/tracing sinks (either may be null). Named periodic
  /// timers then emit "sim" instant events per tick, and the
  /// "sim.periodic_ticks" counter counts all timer fires. Without this
  /// call the simulator's hot path pays one null-pointer branch per tick.
  void installObs(obs::MetricsRegistry* metrics, obs::EventTrace* trace);

 private:
  Scheduler scheduler_;
  obs::Counter* obsTicks_ = nullptr;
  obs::EventTrace* trace_ = nullptr;
};

}  // namespace tlbsim::sim
