// Queue-delay observation at the load-balanced fabric queues.
//
// Hooks into links' dequeue path and records the queueing delay of each
// short-flow data packet; long-flow packets are not sampled. Feeds Fig.
// 3(a) (queue length experienced by short-flow packets) and Fig. 8(b)
// (short-flow queueing delay over time).
#pragma once

#include <functional>

#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "util/flow_key.hpp"
#include "util/summary_stats.hpp"
#include "util/units.hpp"

namespace tlbsim::stats {

class QueueDelayMonitor {
 public:
  /// `isShort` classifies flows by id (the harness knows the spec sizes).
  using Classifier = std::function<bool(FlowId)>;

  explicit QueueDelayMonitor(Classifier isShort)
      : isShort_(std::move(isShort)) {}

  /// Install the dequeue hook on `link`. The monitor must outlive the link's
  /// use. Queue length experienced is reconstructed from the queueing delay
  /// and the link's drain rate.
  void installOn(net::Link& link) {
    const double bytesPerSec = link.rate().bytesPerSecond();
    link.addDequeueHook([this, bytesPerSec](const net::Packet& pkt,
                                            SimTime delay) {
      record(pkt, delay, bytesPerSec);
    });
  }

  void record(const net::Packet& pkt, SimTime delay, double drainBps) {
    if (!pkt.isData() || !isShort_(pkt.flow)) return;
    const double delayUs = toMicroseconds(delay);
    shortDelayUs_.add(delayUs);
    shortQueueLenPkts_.add(toSeconds(delay) * drainBps / 1500.0);
    intervalShortDelaySum_ += delayUs;
    ++intervalShortCount_;
  }

  /// Close the current sampling interval; emits the interval's mean
  /// short-flow queueing delay into the time series.
  void rollInterval(SimTime now) {
    const double mean =
        intervalShortCount_ > 0
            ? intervalShortDelaySum_ / static_cast<double>(intervalShortCount_)
            : 0.0;
    shortDelaySeries_.add(now, mean);
    intervalShortDelaySum_ = 0.0;
    intervalShortCount_ = 0;
  }

  const SampleSet& shortDelayUs() const { return shortDelayUs_; }
  const SampleSet& shortQueueLenPkts() const { return shortQueueLenPkts_; }
  const obs::Series& shortDelaySeries() const { return shortDelaySeries_; }

 private:
  Classifier isShort_;
  SampleSet shortDelayUs_;
  SampleSet shortQueueLenPkts_;
  obs::Series shortDelaySeries_;
  double intervalShortDelaySum_ = 0.0;
  std::uint64_t intervalShortCount_ = 0;
};

}  // namespace tlbsim::stats
