#include "net/queue.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>

#include "util/rng.hpp"

namespace tlbsim::net {
namespace {

Packet makeData(FlowId flow, ByteCount size, bool ecnCapable = false) {
  Packet p;
  p.flow = flow;
  p.type = PacketType::kData;
  p.size = size;
  p.payload = size - 40_B;
  p.ecnCapable = ecnCapable;
  return p;
}

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q({4, 0});
  for (FlowId f = 1; f <= 4; ++f) {
    EXPECT_TRUE(q.enqueue(makeData(f, 100_B), 0_ns));
  }
  for (FlowId f = 1; f <= 4; ++f) {
    EXPECT_EQ(q.dequeue(0_ns).flow, f);
  }
  EXPECT_TRUE(q.empty());
}

TEST(DropTailQueue, DropsWhenFull) {
  DropTailQueue q({2, 0});
  EXPECT_TRUE(q.enqueue(makeData(1, 100_B), 0_ns));
  EXPECT_TRUE(q.enqueue(makeData(2, 100_B), 0_ns));
  EXPECT_FALSE(q.enqueue(makeData(3, 100_B), 0_ns));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.droppedBytes(), 100_B);
  EXPECT_EQ(q.packets(), 2);
}

TEST(DropTailQueue, ByteAccounting) {
  DropTailQueue q({10, 0});
  q.enqueue(makeData(1, 100_B), 0_ns);
  q.enqueue(makeData(2, 250_B), 0_ns);
  EXPECT_EQ(q.bytes(), 350_B);
  q.dequeue(0_ns);
  EXPECT_EQ(q.bytes(), 250_B);
  q.dequeue(0_ns);
  EXPECT_EQ(q.bytes(), 0_B);
}

TEST(DropTailQueue, QueueDelayMeasured) {
  DropTailQueue q({10, 0});
  q.enqueue(makeData(1, 100_B), /*now=*/1000_ns);
  SimTime delay = -1_ns;
  q.dequeue(/*now=*/2500_ns, &delay);
  EXPECT_EQ(delay, 1500_ns);
}

TEST(DropTailQueue, EcnMarksAboveThreshold) {
  DropTailQueue q({10, /*ecnThreshold=*/2});
  // Occupancy at enqueue time: 0, 1 -> unmarked; 2, 3 -> marked.
  q.enqueue(makeData(1, 100_B, true), 0_ns);
  q.enqueue(makeData(2, 100_B, true), 0_ns);
  q.enqueue(makeData(3, 100_B, true), 0_ns);
  q.enqueue(makeData(4, 100_B, true), 0_ns);
  EXPECT_FALSE(q.dequeue(0_ns).ce);
  EXPECT_FALSE(q.dequeue(0_ns).ce);
  EXPECT_TRUE(q.dequeue(0_ns).ce);
  EXPECT_TRUE(q.dequeue(0_ns).ce);
  EXPECT_EQ(q.ecnMarks(), 2u);
}

TEST(DropTailQueue, EcnIgnoresNonCapablePackets) {
  DropTailQueue q({10, 1});
  q.enqueue(makeData(1, 100_B, false), 0_ns);
  q.enqueue(makeData(2, 100_B, false), 0_ns);
  EXPECT_FALSE(q.dequeue(0_ns).ce);
  EXPECT_FALSE(q.dequeue(0_ns).ce);
  EXPECT_EQ(q.ecnMarks(), 0u);
}

TEST(DropTailQueue, EcnDisabledByZeroThreshold) {
  DropTailQueue q({10, 0});
  for (int i = 0; i < 10; ++i) q.enqueue(makeData(1, 100_B, true), 0_ns);
  EXPECT_EQ(q.ecnMarks(), 0u);
}

/// The drop-tail + ECN/RED semantics over a std::deque: the behaviour the
/// ring-buffer DropTailQueue must reproduce packet for packet.
class ReferenceQueue {
 public:
  explicit ReferenceQueue(QueueConfig cfg) : cfg_(cfg), rng_(cfg.redSeed) {}

  bool enqueue(Packet pkt, SimTime now) {
    const bool red = cfg_.marking == QueueConfig::Marking::kRed;
    if (red) {
      if (items_.empty() && cfg_.redIdleSlot > SimTime{} &&
          now > emptySince_) {
        avg_ *= std::pow(1.0 - cfg_.redWeight,
                         static_cast<double>((now - emptySince_).ns()) /
                             static_cast<double>(cfg_.redIdleSlot.ns()));
      }
      avg_ = (1.0 - cfg_.redWeight) * avg_ +
             cfg_.redWeight * static_cast<double>(items_.size());
    }
    if (static_cast<int>(items_.size()) >= cfg_.capacityPackets) {
      ++drops;
      return false;
    }
    const int k = cfg_.ecnThresholdPackets;
    if (k > 0 && pkt.ecnCapable) {
      if (!red) {
        pkt.ce = static_cast<int>(items_.size()) >= k;
      } else if (avg_ >= 3.0 * k) {
        pkt.ce = true;
      } else if (avg_ >= k) {
        pkt.ce = rng_.uniform() < cfg_.redMaxProb * (avg_ - k) / (2.0 * k);
      }
    }
    items_.push_back({pkt, now});
    return true;
  }

  Packet dequeue(SimTime now, SimTime* delay) {
    const auto [pkt, at] = items_.front();
    items_.pop_front();
    if (items_.empty()) emptySince_ = now;
    *delay = now - at;
    return pkt;
  }

  ByteCount bytes() const {
    ByteCount total;
    for (const auto& item : items_) total += item.first.size;
    return total;
  }
  int packets() const { return static_cast<int>(items_.size()); }

  std::uint64_t drops = 0;

 private:
  QueueConfig cfg_;
  Rng rng_;
  std::deque<std::pair<Packet, SimTime>> items_;
  double avg_ = 0.0;
  SimTime emptySince_;
};

/// Drives a DropTailQueue and the deque reference with the same seeded
/// stream of arrivals and departures: fill phases run the queue into its
/// buffer limit (growing the ring from its first allocation to full
/// size), drain phases empty it, and mixed phases hold a middle depth so
/// the head wraps around the ring many times.
void expectMatchesReference(QueueConfig cfg, std::uint64_t seed) {
  DropTailQueue q(cfg);
  ReferenceQueue ref(cfg);
  Rng rng(seed);
  EXPECT_EQ(q.slotCapacity(), 0u) << "an unused queue holds no storage";
  const auto limit =
      std::bit_ceil(static_cast<std::size_t>(cfg.capacityPackets));
  std::size_t slots = 0;
  SimTime now;
  FlowId nextFlow = 1;
  for (int phase = 0; phase < 60; ++phase) {
    // Arrival probability: fill, drain, or hover.
    const double pIn = phase % 3 == 0 ? 0.9 : phase % 3 == 1 ? 0.1 : 0.5;
    for (int step = 0; step < 400; ++step) {
      now += SimTime::fromNs(static_cast<std::int64_t>(rng.uniformInt(2000)));
      if (rng.uniform() < pIn) {
        const Packet p = makeData(
            nextFlow++, ByteCount::fromBytes(64 + rng.uniformInt(1437)),
            rng.uniform() < 0.8);
        ASSERT_EQ(q.enqueue(p, now), ref.enqueue(p, now));
      } else if (!q.empty()) {
        SimTime got, want;
        const Packet a = q.dequeue(now, &got);
        const Packet b = ref.dequeue(now, &want);
        ASSERT_EQ(a.flow, b.flow);
        ASSERT_EQ(a.ce, b.ce) << "mark sequence diverged at flow " << a.flow;
        ASSERT_EQ(got, want);
      }
      ASSERT_EQ(q.packets(), ref.packets());
      ASSERT_EQ(q.bytes(), ref.bytes());
      ASSERT_EQ(q.recomputeBytes(), ref.bytes());
      ASSERT_EQ(q.drops(), ref.drops);
      // The ring only ever doubles, and never past the buffer limit.
      ASSERT_TRUE(q.slotCapacity() == slots || q.slotCapacity() == 2 * slots ||
                  (slots == 0 && q.slotCapacity() > 0));
      ASSERT_LE(q.slotCapacity(), limit);
      slots = q.slotCapacity();
    }
  }
  EXPECT_EQ(slots, limit);
  EXPECT_GT(q.drops(), 0u);
  EXPECT_GT(q.ecnMarks(), 0u);
}

TEST(DropTailQueue, RingMatchesDequeReferenceWithInstantaneousEcn) {
  expectMatchesReference(QueueConfig{256, 65}, 1);
  expectMatchesReference(QueueConfig{100, 20}, 2);  // non-power-of-two
  expectMatchesReference(QueueConfig{3, 1}, 3);     // below the first ring
}

TEST(DropTailQueue, RingMatchesDequeReferenceWithRed) {
  QueueConfig cfg;
  cfg.capacityPackets = 200;
  cfg.ecnThresholdPackets = 20;
  cfg.marking = QueueConfig::Marking::kRed;
  cfg.redWeight = 0.05;
  cfg.redMaxProb = 0.3;
  cfg.redIdleSlot = 1200_ns;
  expectMatchesReference(cfg, 4);
}

TEST(DropTailQueue, RingStartsSmallAndGrowsOnDemand) {
  DropTailQueue q({256, 0});
  q.enqueue(makeData(1, 100_B), 0_ns);
  EXPECT_EQ(q.slotCapacity(), 8u);
  for (FlowId f = 2; f <= 9; ++f) q.enqueue(makeData(f, 100_B), 0_ns);
  EXPECT_EQ(q.slotCapacity(), 16u);
  while (!q.empty()) q.dequeue(0_ns);
  EXPECT_EQ(q.slotCapacity(), 16u) << "the ring never shrinks";
}

}  // namespace
}  // namespace tlbsim::net
