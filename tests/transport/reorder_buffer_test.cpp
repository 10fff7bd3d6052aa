// The receiver's out-of-order buffer (a sorted flat vector) against the
// std::map range merge it replaced, on seeded segment streams full of
// reordering, duplicates, overlaps and hole-filling retransmits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "net/host.hpp"
#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp_receiver.hpp"
#include "util/rng.hpp"

namespace tlbsim::transport {
namespace {

using Ranges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// The map-based buffer, merge and drain as the receiver used to do them.
struct MapReference {
  std::uint64_t cumAck = 0;
  std::map<std::uint64_t, std::uint64_t> segments;

  void accept(std::uint64_t start, std::uint64_t end) {
    if (start > cumAck) {
      auto [it, inserted] = segments.try_emplace(start, end);
      if (!inserted) {
        it->second = std::max(it->second, end);
      } else {
        if (it != segments.begin()) {
          auto prev = std::prev(it);
          if (prev->second >= it->first) {
            prev->second = std::max(prev->second, it->second);
            segments.erase(it);
            it = prev;
          }
        }
        auto next = std::next(it);
        while (next != segments.end() && next->first <= it->second) {
          it->second = std::max(it->second, next->second);
          next = segments.erase(next);
        }
      }
    } else if (end > cumAck) {
      cumAck = end;
      auto it = segments.begin();
      while (it != segments.end() && it->first <= cumAck) {
        cumAck = std::max(cumAck, it->second);
        it = segments.erase(it);
      }
    }
  }

  /// The buffered bytes as sorted, disjoint, non-adjacent ranges. The map
  /// can hold overlapping entries after a same-start extension; the flat
  /// buffer coalesces those, and both describe the same bytes.
  Ranges coalesced() const {
    Ranges out;
    for (const auto& [s, e] : segments) {
      if (!out.empty() && s <= out.back().second) {
        out.back().second = std::max(out.back().second, e);
      } else {
        out.emplace_back(s, e);
      }
    }
    return out;
  }
};

class DropSink : public net::Node {
 public:
  void receive(net::Packet, int) override {}
  std::string name() const override { return "sink"; }
};

struct ReceiverRig {
  sim::Simulator simr;
  DropSink sink;
  net::Host host{1, "rx"};
  TcpReceiver rcv;

  explicit ReceiverRig(const TcpParams& params)
      : rcv(simr, host, FlowSpec{1, 0, 1, 0_B, SimTime{}, SimTime{}},
            params) {
    auto link = std::make_unique<net::Link>(simr, gbps(100), 1_ns,
                                            net::QueueConfig{1 << 16, 0});
    link->connect(&sink, 0);
    host.attachUplink(std::move(link));
  }

  void deliver(std::uint64_t seq, std::uint64_t len) {
    net::Packet p;
    p.flow = 1;
    p.type = net::PacketType::kData;
    p.src = 0;
    p.dst = 1;
    p.seq = seq;
    p.payload = ByteCount::fromBytes(static_cast<std::int64_t>(len));
    p.size = p.payload + 40_B;
    host.receive(p, 0);
    simr.run();
  }
};

void expectMatchesReference(std::uint64_t seed, int delayedAckEvery) {
  TcpParams params;
  params.delayedAckEvery = delayedAckEvery;
  ReceiverRig rig(params);
  MapReference ref;
  Rng rng(seed);
  constexpr std::uint64_t kFlowBytes = 2'000'000;
  std::uint64_t reordered = 0;
  int steps = 0;
  while (ref.cumAck < kFlowBytes) {
    ASSERT_LT(++steps, 200'000) << "stream stopped making progress";
    // Mostly segments ahead of the cumulative ACK (reordering), some
    // retransmits at or behind it (hole fills and duplicates). Offsets
    // and lengths are whole 146-byte units of varying count, so new
    // ranges often end exactly where a buffered one starts (or start
    // where it ends) as well as overlapping it partially.
    constexpr std::uint64_t kUnit = 146;
    const double pick = rng.uniform();
    std::uint64_t seq = ref.cumAck;
    if (pick < 0.6) {
      seq += kUnit * rng.uniformInt(270);
    } else if (pick < 0.7) {
      seq -= std::min<std::uint64_t>(seq, kUnit * rng.uniformInt(30));
    }
    const std::uint64_t len = kUnit * (1 + rng.uniformInt(30));
    if (seq > ref.cumAck) ++reordered;
    ref.accept(seq, seq + len);
    rig.deliver(seq, len);

    ASSERT_EQ(rig.rcv.cumulativeAck(), ref.cumAck) << "step " << steps;
    const auto got = rig.rcv.bufferedRanges();
    ASSERT_EQ(Ranges(got.begin(), got.end()), ref.coalesced())
        << "step " << steps;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_GT(got[i].first, ref.cumAck);
      if (i > 0) {
        ASSERT_GT(got[i].first, got[i - 1].second);
      }
    }
  }
  EXPECT_EQ(rig.rcv.outOfOrderPackets(), reordered);
  EXPECT_GT(reordered, 500u);
}

TEST(ReorderBuffer, FlatBufferMatchesMapReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expectMatchesReference(seed, /*delayedAckEvery=*/1);
  }
}

TEST(ReorderBuffer, FlatBufferMatchesMapReferenceWithDelayedAcks) {
  expectMatchesReference(9, /*delayedAckEvery=*/2);
}

TEST(ReorderBuffer, SameStartExtensionCoalescesSuccessors) {
  // The map kept [100,200) and [250,400) apart after [100,300) extended
  // the first; the flat buffer merges them into one range.
  ReceiverRig rig(TcpParams{});
  rig.deliver(100, 100);
  rig.deliver(250, 150);
  rig.deliver(100, 200);
  const auto got = rig.rcv.bufferedRanges();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], std::make_pair(std::uint64_t{100}, std::uint64_t{400}));
  rig.deliver(0, 100);
  EXPECT_EQ(rig.rcv.cumulativeAck(), 400u);
  EXPECT_TRUE(rig.rcv.bufferedRanges().empty());
}

}  // namespace
}  // namespace tlbsim::transport
