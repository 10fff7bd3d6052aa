// Event-core speed: the indexed 4-ary heap + InlineFunction scheduler
// against the seed design it replaced (binary priority_queue of
// std::function entries with a live-id hash set and tombstone
// cancellation — embedded below verbatim, so the comparison is
// self-contained and reruns on any machine).
//
// Three measurements land in BENCH_core_speed.json:
//
//   micro       both cores drive the identical churn workload — bursts of
//               fire-once events plus RTO-style timers that are re-armed
//               (cancelled + rescheduled) far more often than they fire.
//               Only about 20 events are pending at a time.
//   population  both cores replay the perfbench scheduler mix at a real
//               simulation's pending-event population: 192 self-re-posting
//               packet-like events (1 ns .. 25 us delays), a 10 ms timer
//               re-armed on 6.2% of events (websearch_tlb's measured rate)
//               and a 500 us periodic tick.
//   macro       a fig10-style web-search sweep through runner::runSweep
//               with the real simulator (new core only): the end-to-end
//               wall-clock a scheduler change actually buys.
//
// Micro and population report events/sec for each core; the speedup on
// each is gated at >= 1.5x, here and by the CI core-speed-smoke job.
// Default: 2M events per case and a 1-scheme macro point (seconds);
// --full raises the event counts to 10M and runs the fig10 default grid.
#include <array>
#include <chrono>
#include <cstdio>
#include <functional>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "runner/runner.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace tlbsim::bench {
namespace {

// --- the seed event core, frozen for comparison -------------------------
// Copied from the pre-rewrite src/sim/scheduler.{hpp,cpp}: lazy
// cancellation leaves tombstones in the heap, the live-id set costs a
// hash insert+erase per event, and std::function heap-allocates captures
// above its (implementation-defined) inline budget.
namespace legacy {

using EventId = std::uint64_t;

class Scheduler {
 public:
  using Callback = std::function<void()>;

  SimTime now() const { return now_; }

  EventId schedule(SimTime delay, Callback fn) {
    return scheduleAt(now_ + delay, std::move(fn));
  }

  EventId scheduleAt(SimTime when, Callback fn) {
    if (when < now_) when = now_;
    const EventId id = nextId_++;
    heap_.push(Entry{when, id, std::move(fn)});
    live_.insert(id);
    return id;
  }

  bool cancel(EventId id) { return live_.erase(id) > 0; }

  std::uint64_t run(SimTime limit = kMaxTime) {
    std::uint64_t n = 0;
    while (step(limit)) ++n;
    return n;
  }

  bool step(SimTime limit = kMaxTime) {
    while (!heap_.empty()) {
      if (heap_.top().time > limit) {
        if (limit != kMaxTime && limit > now_) now_ = limit;
        return false;
      }
      Entry e = std::move(const_cast<Entry&>(heap_.top()));
      heap_.pop();
      if (live_.erase(e.id) == 0) continue;  // cancelled; skip tombstone
      now_ = e.time;
      ++executed_;
      e.fn();
      return true;
    }
    if (limit != kMaxTime && limit > now_) now_ = limit;
    return false;
  }

  std::uint64_t executedEvents() const { return executed_; }

  static constexpr SimTime kMaxTime = SimTime::max();

 private:
  struct Entry {
    SimTime time;
    EventId id;
    Callback fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_set<EventId> live_;
  SimTime now_;
  EventId nextId_ = 1;
  std::uint64_t executed_ = 0;
};

}  // namespace legacy

// Uniform driver surface over both cores, so the churn loop below is the
// same code (and the same Rng draw sequence) for each.
struct NewCore {
  static constexpr const char* kName = "indexed_heap";
  sim::Scheduler s;
  std::array<sim::EventHandle, 64> timers;
  template <typename F>
  void post(SimTime d, F&& f) {
    s.post(d, std::forward<F>(f));
  }
  template <typename F>
  void armTimer(std::size_t i, SimTime d, F&& f) {
    timers[i] = s.schedule(d, std::forward<F>(f));  // re-assign cancels
  }
  void runTo(SimTime t) { s.run(t); }
  void step() { s.step(); }
  SimTime now() const { return s.now(); }
  std::uint64_t executed() const { return s.executedEvents(); }
};

struct LegacyCore {
  static constexpr const char* kName = "seed_priority_queue";
  legacy::Scheduler s;
  std::array<legacy::EventId, 64> timers{};
  template <typename F>
  void post(SimTime d, F&& f) {
    s.schedule(d, std::forward<F>(f));
  }
  template <typename F>
  void armTimer(std::size_t i, SimTime d, F&& f) {
    s.cancel(timers[i]);
    timers[i] = s.schedule(d, std::forward<F>(f));
  }
  void runTo(SimTime t) { s.run(t); }
  void step() { s.step(); }
  SimTime now() const { return s.now(); }
  std::uint64_t executed() const { return s.executedEvents(); }
};

struct MicroResult {
  std::uint64_t events = 0;
  double wallSec = 0.0;
  double eventsPerSec() const { return static_cast<double>(events) / wallSec; }
};

/// The churn loop: per round, a burst of fire-once "packet" events, four
/// RTO-style timer re-arms (each cancelling the previous arm), then run
/// to a point where the burst has fired but the timers mostly have not —
/// so cancellation stays on the hot path, as it is in the simulator.
template <typename Core>
MicroResult runChurn(std::uint64_t targetEvents, std::uint64_t seed) {
  Core core;
  Rng rng(seed);
  std::uint64_t fired = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (core.executed() < targetEvents) {
    for (int i = 0; i < 16; ++i) {
      core.post(SimTime::fromNs(rng.uniformInt(1, 200)),
                [&fired] { ++fired; });
    }
    for (std::size_t i = 0; i < 4; ++i) {
      core.armTimer(i, SimTime::fromNs(rng.uniformInt(2000, 4000)),
                    [&fired] { ++fired; });
    }
    core.runTo(core.now() + SimTime::fromNs(250));
  }
  const auto t1 = std::chrono::steady_clock::now();
  MicroResult r;
  r.events = core.executed();
  r.wallSec = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

/// The perfbench scheduler replay, over either core: every fired packet
/// event re-posts itself with the next delay from a fixed table, so the
/// pending population stays at its prefill size.
template <typename Core>
class PopulationReplay {
 public:
  static constexpr std::size_t kPopulation = 192;
  static constexpr double kRearmPerEvent = 0.0624;

  explicit PopulationReplay(std::uint64_t seed) {
    Rng rng(seed);
    for (std::size_t i = 0; i < kTable; ++i) {
      delays_[i] = SimTime::fromNs(rng.uniformInt(1, 25'000));
      rearm_[i] = rng.uniform() < kRearmPerEvent;
    }
    for (std::size_t i = 0; i < kPopulation; ++i) {
      core_.post(delays_[i], [this] { fire(); });
    }
    tick();
  }
  // Pending closures hold `this`.
  PopulationReplay(const PopulationReplay&) = delete;
  PopulationReplay& operator=(const PopulationReplay&) = delete;

  MicroResult run(std::uint64_t targetEvents) {
    const std::uint64_t before = core_.executed();
    const auto t0 = std::chrono::steady_clock::now();
    while (core_.executed() - before < targetEvents) core_.step();
    const auto t1 = std::chrono::steady_clock::now();
    MicroResult r;
    r.events = core_.executed() - before;
    r.wallSec = std::chrono::duration<double>(t1 - t0).count();
    return r;
  }

 private:
  static constexpr std::size_t kTable = 4096;

  void fire() {
    const std::size_t i = next_++ % kTable;
    core_.post(delays_[i], [this] { fire(); });
    if (rearm_[i]) {
      core_.armTimer(i % core_.timers.size(), milliseconds(10), [] {});
    }
  }
  void tick() {
    core_.post(microseconds(500), [this] { tick(); });
  }

  Core core_;
  std::array<SimTime, kTable> delays_;
  std::array<bool, kTable> rearm_{};
  std::size_t next_ = 0;
};

/// Warm a replay up (slot pool and heap at their high-water mark), then
/// time `targetEvents` more.
template <typename Core>
MicroResult runPopulation(std::uint64_t targetEvents, std::uint64_t seed) {
  PopulationReplay<Core> replay(seed);
  (void)replay.run(targetEvents / 10 + 1000);
  return replay.run(targetEvents);
}

double runMacro(const BenchArgs& args, int* runsOut) {
  const auto dist = workload::FlowSizeDistribution::webSearch(
      args.full ? 0_B : 30 * kMB);
  const int flowCount = args.full ? 2000 : 240;

  runner::SweepSpec spec;
  spec.schemes =
      args.full ? std::vector<harness::Scheme>{harness::Scheme::kEcmp,
                                               harness::Scheme::kRps,
                                               harness::Scheme::kPresto,
                                               harness::Scheme::kLetFlow,
                                               harness::Scheme::kTlb}
                : std::vector<harness::Scheme>{harness::Scheme::kTlb};
  spec.loads = args.full ? std::vector<double>{0.2, 0.4, 0.6, 0.8}
                         : std::vector<double>{0.8};
  spec.seeds = {args.seed};
  spec.sweepSeed = args.seed;

  runner::SweepScenario scenario;
  scenario.base = [&args](const runner::SweepPoint& pt) {
    return largeScaleSetup(pt.scheme, args.full);
  };
  scenario.workload = [&](harness::ExperimentConfig& cfg,
                          const runner::SweepPoint& pt) {
    addPoissonWorkload(cfg, pt.load, dist, flowCount);
  };

  runner::RunnerOptions ropt;
  ropt.jobs = args.jobs != 0 ? args.jobs : 1;  // wall-clock needs 1 worker
  *runsOut = static_cast<int>(spec.schemes.size() * spec.loads.size() *
                              spec.seeds.size());
  const auto t0 = std::chrono::steady_clock::now();
  (void)runner::runSweep(spec, scenario, ropt);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace
}  // namespace tlbsim::bench

using namespace tlbsim;

namespace {

constexpr double kTargetSpeedup = 1.5;

struct Comparison {
  explicit Comparison(const char* key) : name(key) {}
  const char* name;  ///< JSON key
  bench::MicroResult legacy;
  bench::MicroResult indexed;
  double speedup() const {
    return indexed.eventsPerSec() / legacy.eventsPerSec();
  }
};

void printComparison(const char* label, const Comparison& c) {
  std::printf("  %s:\n", label);
  std::printf("    %-22s %12.0f events/s (%llu events, %.2f s)\n",
              bench::LegacyCore::kName, c.legacy.eventsPerSec(),
              static_cast<unsigned long long>(c.legacy.events),
              c.legacy.wallSec);
  std::printf("    %-22s %12.0f events/s (%llu events, %.2f s)\n",
              bench::NewCore::kName, c.indexed.eventsPerSec(),
              static_cast<unsigned long long>(c.indexed.events),
              c.indexed.wallSec);
  std::printf("    speedup: %.2fx (target >= %.1fx)\n", c.speedup(),
              kTargetSpeedup);
}

void writeComparison(std::FILE* f, const Comparison& c) {
  std::fprintf(f,
               "  \"%s\": {\n"
               "    \"seed_priority_queue\": {\"events\": %llu, "
               "\"wall_s\": %.4f, \"events_per_sec\": %.0f},\n"
               "    \"indexed_heap\": {\"events\": %llu, "
               "\"wall_s\": %.4f, \"events_per_sec\": %.0f},\n"
               "    \"speedup\": %.3f,\n"
               "    \"target_speedup\": %.1f\n"
               "  },\n",
               c.name, static_cast<unsigned long long>(c.legacy.events),
               c.legacy.wallSec, c.legacy.eventsPerSec(),
               static_cast<unsigned long long>(c.indexed.events),
               c.indexed.wallSec, c.indexed.eventsPerSec(), c.speedup(),
               kTargetSpeedup);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
  const std::uint64_t events = args.full ? 10'000'000 : 2'000'000;
  std::printf("Event-core speed: indexed 4-ary heap vs seed scheduler\n");

  // Interleave warm-up/measure per core so neither benefits from running
  // second on a warmed allocator.
  Comparison micro("micro");
  (void)bench::runChurn<bench::LegacyCore>(events / 10, args.seed);
  micro.legacy = bench::runChurn<bench::LegacyCore>(events, args.seed);
  (void)bench::runChurn<bench::NewCore>(events / 10, args.seed);
  micro.indexed = bench::runChurn<bench::NewCore>(events, args.seed);
  printComparison("micro (churn, ~20 pending)", micro);

  Comparison population("population");
  population.legacy =
      bench::runPopulation<bench::LegacyCore>(events, args.seed);
  population.indexed = bench::runPopulation<bench::NewCore>(events, args.seed);
  printComparison("population (perfbench replay, 192 pending)", population);

  int macroRuns = 0;
  const double macroWall = bench::runMacro(args, &macroRuns);
  std::printf("  macro: fig10-style sweep, %d run(s) in %.2f s wall\n",
              macroRuns, macroWall);

  const std::string jsonPath =
      args.jsonPath.empty() ? "BENCH_core_speed.json" : args.jsonPath;
  std::FILE* f = std::fopen(jsonPath.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"core_speed\",\n"
               "  \"host\": %s,\n"
               "  \"git_rev\": \"%s\",\n"
               "  \"config\": {\"events\": %llu, \"seed\": %llu, "
               "\"full\": %s, \"population\": %zu},\n",
               bench::hostJson().c_str(), bench::gitRevision().c_str(),
               static_cast<unsigned long long>(events),
               static_cast<unsigned long long>(args.seed),
               args.full ? "true" : "false",
               bench::PopulationReplay<bench::NewCore>::kPopulation);
  writeComparison(f, micro);
  writeComparison(f, population);
  std::fprintf(f,
               "  \"macro\": {\"scenario\": \"fig10_websearch %s\", "
               "\"runs\": %d, \"jobs\": %d, \"wall_s\": %.3f}\n"
               "}\n",
               args.full ? "default grid" : "tlb @ load 0.8", macroRuns,
               args.jobs != 0 ? args.jobs : 1, macroWall);
  std::fclose(f);
  std::printf("results JSON written to %s\n", jsonPath.c_str());

  bool ok = true;
  for (const Comparison* c : {&micro, &population}) {
    if (c->speedup() < kTargetSpeedup) {
      std::fprintf(stderr, "FAIL: %s speedup %.2fx below the %.1fx target\n",
                   c->name, c->speedup(), kTargetSpeedup);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
