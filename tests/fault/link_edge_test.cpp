// Link edges where a fault or a send() lands while a packet is being
// serialized, or on the exact nanosecond its transmission ends. Each test
// pins the timing a packet sees: when it arrives, and when a fault loss is
// counted and traced. Every case uses 1500 B at 1 Gbps (12 us on the
// transmitter) and 10 us of propagation.
#include <gtest/gtest.h>

#include <vector>

#include "net/link.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tlbsim::net {
namespace {

constexpr SimTime kTx = microseconds(12);
constexpr SimTime kProp = microseconds(10);

class SinkNode : public Node {
 public:
  explicit SinkNode(sim::Simulator& simr) : sim_(simr) {}
  void receive(Packet pkt, int) override {
    flows.push_back(pkt.flow);
    times.push_back(sim_.now());
  }
  std::string name() const override { return "sink"; }

  std::vector<FlowId> flows;
  std::vector<SimTime> times;

 private:
  sim::Simulator& sim_;
};

struct EdgeRig {
  sim::Simulator simr;
  SinkNode sink{simr};
  obs::MetricsRegistry metrics;
  obs::EventTrace trace;
  Link link{simr, gbps(1), kProp, QueueConfig{16, 0}};

  EdgeRig() {
    link.connect(&sink, 0);
    link.installObs(metrics, &trace, "edge");
  }

  void send(FlowId flow) {
    Packet p;
    p.flow = flow;
    p.size = 1500_B;
    p.payload = 1500_B;
    link.send(p);
  }

  /// Times of the traced fault_drop instants, in trace order.
  std::vector<SimTime> faultDropTimes() const {
    std::vector<SimTime> out;
    const auto doc = obs::JsonValue::parse(trace.toJson());
    EXPECT_TRUE(doc.has_value());
    if (!doc) return out;
    for (const auto& e : doc->find("traceEvents")->items) {
      const obs::JsonValue* name = e.find("name");
      if (name == nullptr || name->str != "fault_drop") continue;
      out.push_back(nanoseconds(
          static_cast<std::int64_t>(e.find("ts")->number * 1000.0 + 0.5)));
    }
    return out;
  }

  /// Wire drops as seen by an event posted at `t` (scheduled now, so it
  /// orders after every event already pending at `t`).
  void probeWireDrops(SimTime t, std::vector<std::uint64_t>& out) {
    simr.post(t, [this, &out] { out.push_back(link.faultWireDrops()); });
  }
};

/// The gray-loss verdicts of `n` consecutive draws from a link RNG seeded
/// with `seed` (true = dropped).
std::vector<bool> grayDraws(std::uint64_t seed, double prob, int n) {
  Rng rng(seed);
  std::vector<bool> out;
  for (int i = 0; i < n; ++i) out.push_back(rng.uniform() < prob);
  return out;
}

TEST(LinkEdge, DropProbSetMidSerializationTakesFirstDrawOfReseededRng) {
  EdgeRig rig;
  rig.link.faultSetDropProb(0.5, 6);
  for (FlowId f = 1; f <= 6; ++f) rig.send(f);
  // Packet 3 serializes over [24, 36) us; reseed halfway through it.
  rig.simr.post(microseconds(30), [&] { rig.link.faultSetDropProb(0.5, 3); });
  rig.simr.run();

  // Packets 1-2 took draws 1-2 of seed 6; packet 3 onwards take draws 1-4
  // of seed 3, so packet 3's verdict is the reseeded RNG's first draw.
  const std::vector<bool> before = grayDraws(6, 0.5, 3);
  const std::vector<bool> after = grayDraws(3, 0.5, 4);
  ASSERT_NE(before[2], after[0]) << "seeds must tell the two draws apart";
  std::vector<bool> dropped = {before[0], before[1]};
  dropped.insert(dropped.end(), after.begin(), after.end());

  std::vector<FlowId> delivered;
  std::vector<SimTime> dropTimes;
  for (FlowId f = 1; f <= 6; ++f) {
    const SimTime txEnd = kTx * static_cast<std::int64_t>(f);
    if (dropped[f - 1]) {
      dropTimes.push_back(txEnd);  // counted at transmit end
    } else {
      delivered.push_back(f);
    }
  }
  EXPECT_EQ(rig.sink.flows, delivered);
  EXPECT_EQ(rig.faultDropTimes(), dropTimes);
  EXPECT_EQ(rig.link.faultWireDrops(), dropTimes.size());
  EXPECT_EQ(rig.link.txPackets(), 6u);
}

TEST(LinkEdge, DropProbRaisedMidSerializationDecidesTheSerializingPacket) {
  EdgeRig rig;
  for (FlowId f = 1; f <= 4; ++f) rig.send(f);
  // No loss when packet 1 starts; gray loss begins halfway through it.
  rig.simr.post(microseconds(6), [&] { rig.link.faultSetDropProb(0.5, 3); });
  rig.simr.run();
  const std::vector<bool> dropped = grayDraws(3, 0.5, 4);
  ASSERT_TRUE(dropped[0]) << "packet 1 must be the first draw's victim";
  std::vector<FlowId> delivered;
  std::vector<SimTime> dropTimes;
  for (FlowId f = 1; f <= 4; ++f) {
    if (dropped[f - 1]) {
      dropTimes.push_back(kTx * static_cast<std::int64_t>(f));
    } else {
      delivered.push_back(f);
    }
  }
  EXPECT_EQ(rig.sink.flows, delivered);
  EXPECT_EQ(rig.faultDropTimes(), dropTimes);
}

TEST(LinkEdge, DropProbClearedMidSerializationSparesTheSerializingPacket) {
  EdgeRig rig;
  rig.link.faultSetDropProb(1.0, 1);  // every packet that starts is doomed
  rig.send(1);
  rig.simr.post(microseconds(6), [&] { rig.link.faultSetDropProb(0.0, 1); });
  rig.simr.run();
  EXPECT_EQ(rig.sink.flows, std::vector<FlowId>{1});
  EXPECT_EQ(rig.sink.times, std::vector<SimTime>{kTx + kProp});
  EXPECT_EQ(rig.link.faultWireDrops(), 0u);
}

TEST(LinkEdge, DelayFactorSetMidSerializationAppliesFromTransmitEnd) {
  EdgeRig rig;
  rig.send(1);  // [0, 12) on the transmitter, on the wire until 22
  rig.send(2);  // [12, 24) on the transmitter
  // Packet 1 is on the wire and keeps its delay; packet 2 is serializing
  // and leaves the transmitter into the inflated delay.
  rig.simr.post(microseconds(15), [&] { rig.link.faultSetDelayFactor(3.0); });
  // Restore it while nothing serializes; packet 3 then overtakes packet 2.
  rig.simr.post(microseconds(30), [&] {
    rig.link.faultSetDelayFactor(1.0);
    rig.send(3);  // [30, 42) then 10 us
  });
  rig.simr.run();
  EXPECT_EQ(rig.sink.flows, (std::vector<FlowId>{1, 3, 2}));
  EXPECT_EQ(rig.sink.times,
            (std::vector<SimTime>{kTx + kProp, microseconds(52),
                                  2 * kTx + 3 * kProp}));
}

TEST(LinkEdge, DelayFactorCutMidSerializationBringsDeliveryForward) {
  EdgeRig rig;
  rig.link.faultSetDelayFactor(3.0);
  rig.send(1);  // would arrive at 12 + 30 us under the inflated delay
  rig.simr.post(microseconds(6), [&] { rig.link.faultSetDelayFactor(1.0); });
  rig.simr.run();
  EXPECT_EQ(rig.sink.flows, std::vector<FlowId>{1});
  EXPECT_EQ(rig.sink.times, std::vector<SimTime>{kTx + kProp});
}

TEST(LinkEdge, DropModeDownAndUpInsideOneSerializationKeepsThePacket) {
  EdgeRig rig;
  rig.send(1);  // on the wire over [12, 22) us
  rig.send(2);  // serializing over [12, 24) us
  rig.simr.post(microseconds(15), [&] { rig.link.faultDown(false); });
  rig.simr.post(microseconds(18), [&] { rig.link.faultUp(); });
  rig.simr.run();
  // Packet 1 was on the wire at the down and dies where it would have
  // arrived; packet 2 left the transmitter onto a live link.
  EXPECT_EQ(rig.sink.flows, std::vector<FlowId>{2});
  EXPECT_EQ(rig.sink.times, std::vector<SimTime>{2 * kTx + kProp});
  EXPECT_EQ(rig.faultDropTimes(), std::vector<SimTime>{kTx + kProp});
  EXPECT_EQ(rig.link.faultWireDrops(), 1u);
  EXPECT_EQ(rig.link.deliveredPackets(), 1u);
  EXPECT_EQ(rig.link.txPackets(), 2u);
}

TEST(LinkEdge, DropModeDownStillDownAtTransmitEndCountsTheDropThen) {
  EdgeRig rig;
  rig.send(1);  // serializing over [0, 12) us
  rig.send(2);  // queued; flushed by the down
  rig.simr.post(microseconds(5), [&] { rig.link.faultDown(false); });
  std::vector<std::uint64_t> wireDrops;
  rig.probeWireDrops(kTx - 1_ns, wireDrops);
  rig.probeWireDrops(kTx + 1_ns, wireDrops);
  rig.simr.run();
  EXPECT_TRUE(rig.sink.flows.empty());
  EXPECT_EQ(wireDrops, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(rig.faultDropTimes(),
            (std::vector<SimTime>{microseconds(5), kTx}));
  EXPECT_EQ(rig.link.faultFlushedPackets(), 1u);
  EXPECT_EQ(rig.link.faultWireDrops(), 1u);
  EXPECT_EQ(rig.link.txPackets(), 1u);
  EXPECT_EQ(rig.link.deliveredPackets(), 0u);
}

TEST(LinkEdge, DrainModeDownDeliversWhatLeftTheQueue) {
  EdgeRig rig;
  rig.send(1);  // on the wire over [12, 22) us
  rig.send(2);  // serializing over [12, 24) us
  rig.send(3);  // queued; flushed by the down
  rig.simr.post(microseconds(15), [&] { rig.link.faultDown(true); });
  rig.simr.post(microseconds(20), [&] { rig.send(4); });  // rejected
  rig.simr.post(microseconds(40), [&] {
    rig.link.faultUp();
    rig.send(5);
  });
  rig.simr.run();
  EXPECT_EQ(rig.sink.flows, (std::vector<FlowId>{1, 2, 5}));
  EXPECT_EQ(rig.sink.times,
            (std::vector<SimTime>{kTx + kProp, 2 * kTx + kProp,
                                  microseconds(40) + kTx + kProp}));
  EXPECT_EQ(rig.faultDropTimes(),
            (std::vector<SimTime>{microseconds(15), microseconds(20)}));
  EXPECT_EQ(rig.link.faultWireDrops(), 0u);
  EXPECT_EQ(rig.link.faultFlushedPackets(), 1u);
  EXPECT_EQ(rig.link.faultRejectedPackets(), 1u);
}

// A fault posted before the send() orders ahead of the transmit end on the
// same nanosecond; one posted after it orders behind.
TEST(LinkEdge, DownOnTheTransmitEndNanosecondInBothOrders) {
  for (const bool faultFirst : {true, false}) {
    SCOPED_TRACE(faultFirst ? "fault first" : "transmit end first");
    EdgeRig rig;
    const auto down = [&] { rig.link.faultDown(false); };
    if (faultFirst) rig.simr.post(kTx, down);
    rig.send(1);
    if (!faultFirst) rig.simr.post(kTx, down);
    std::vector<std::uint64_t> wireDrops;
    rig.probeWireDrops(kTx + 1_ns, wireDrops);
    rig.simr.run();
    EXPECT_TRUE(rig.sink.flows.empty());
    // Ahead of the transmit end the packet dies on the transmitter; behind
    // it, on the wire where it would have arrived.
    const SimTime diedAt = faultFirst ? kTx : kTx + kProp;
    EXPECT_EQ(rig.faultDropTimes(), std::vector<SimTime>{diedAt});
    EXPECT_EQ(wireDrops, std::vector<std::uint64_t>{faultFirst ? 1u : 0u});
    EXPECT_EQ(rig.link.faultWireDrops(), 1u);
  }
}

TEST(LinkEdge, DelayOnTheTransmitEndNanosecondInBothOrders) {
  for (const bool faultFirst : {true, false}) {
    SCOPED_TRACE(faultFirst ? "fault first" : "transmit end first");
    EdgeRig rig;
    const auto slow = [&] { rig.link.faultSetDelayFactor(3.0); };
    if (faultFirst) rig.simr.post(kTx, slow);
    rig.send(1);
    if (!faultFirst) rig.simr.post(kTx, slow);
    rig.simr.run();
    EXPECT_EQ(rig.sink.times,
              std::vector<SimTime>{kTx + (faultFirst ? 3 : 1) * kProp});
  }
}

TEST(LinkEdge, DropProbOnTheTransmitEndNanosecondInBothOrders) {
  for (const bool faultFirst : {true, false}) {
    SCOPED_TRACE(faultFirst ? "fault first" : "transmit end first");
    EdgeRig rig;
    const auto lossy = [&] { rig.link.faultSetDropProb(1.0, 5); };
    if (faultFirst) rig.simr.post(kTx, lossy);
    rig.send(1);
    rig.send(2);
    if (!faultFirst) rig.simr.post(kTx, lossy);
    rig.simr.run();
    // Packet 2 serializes under the loss either way; packet 1 only when
    // the loss lands ahead of its transmit end.
    if (faultFirst) {
      EXPECT_TRUE(rig.sink.flows.empty());
      EXPECT_EQ(rig.faultDropTimes(), (std::vector<SimTime>{kTx, 2 * kTx}));
    } else {
      EXPECT_EQ(rig.sink.flows, std::vector<FlowId>{1});
      EXPECT_EQ(rig.faultDropTimes(), std::vector<SimTime>{2 * kTx});
    }
  }
}

TEST(LinkEdge, SendOnTheTransmitEndNanosecondInBothOrders) {
  for (const bool sendFirst : {true, false}) {
    SCOPED_TRACE(sendFirst ? "send first" : "transmit end first");
    EdgeRig rig;
    std::vector<SimTime> dequeuedAt;
    rig.link.addDequeueHook(
        [&](const Packet&, SimTime) { dequeuedAt.push_back(rig.simr.now()); });
    bool busyBefore = false;
    int queuedAfter = -1;
    std::size_t dequeuesAfter = 0;
    const auto second = [&] {
      busyBefore = rig.link.transmitting();
      rig.send(2);
      queuedAfter = rig.link.queuePackets();
      dequeuesAfter = dequeuedAt.size();
    };
    if (sendFirst) rig.simr.post(kTx, second);
    rig.send(1);
    if (!sendFirst) rig.simr.post(kTx, second);
    rig.simr.run();
    // Ahead of the transmit end the transmitter is still busy, so packet 2
    // waits in the queue for it; behind it, packet 2 starts at once.
    EXPECT_EQ(busyBefore, sendFirst);
    EXPECT_EQ(queuedAfter, sendFirst ? 1 : 0);
    EXPECT_EQ(dequeuesAfter, sendFirst ? 1u : 2u);
    // Either way packet 2 starts on the transmit-end nanosecond.
    EXPECT_EQ(dequeuedAt, (std::vector<SimTime>{0_ns, kTx}));
    EXPECT_EQ(rig.sink.times,
              (std::vector<SimTime>{kTx + kProp, 2 * kTx + kProp}));
    EXPECT_FALSE(rig.link.transmitting());
    EXPECT_EQ(rig.link.busyTime(), 2 * kTx);
  }
}

}  // namespace
}  // namespace tlbsim::net
