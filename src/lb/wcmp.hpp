// WCMP: weighted ECMP. Flow hashing like ECMP, but hash space is divided
// in proportion to each uplink's capacity — the standard mitigation for
// *known, static* bandwidth asymmetry (it cannot react to congestion or
// delay asymmetry).
#pragma once

#include <vector>

#include "net/uplink_selector.hpp"
#include "util/flow_key.hpp"

namespace tlbsim::lb {

class Wcmp final : public net::UplinkSelector {
 public:
  explicit Wcmp(std::uint64_t salt = 0) : salt_(salt) {}

  int selectUplink(const net::Packet& pkt, net::UplinkView uplinks) override {
    double total = 0.0;
    for (const auto& u : uplinks) {
      total += weightOf(u);
    }
    // Map the flow hash onto [0, total) and walk the weight prefix sums.
    const double x =
        static_cast<double>(flowHash(pkt.flow, salt_) >> 11) * 0x1.0p-53 *
        total;
    double acc = 0.0;
    for (const auto& u : uplinks) {
      acc += weightOf(u);
      if (x < acc) return u.port;
    }
    return uplinks.back().port;
  }

  const char* name() const override { return "WCMP"; }

 private:
  static double weightOf(const net::PortView& u) {
    return u.rateBps > 0.0 ? u.rateBps : 1.0;
  }

  std::uint64_t salt_;
};

}  // namespace tlbsim::lb
