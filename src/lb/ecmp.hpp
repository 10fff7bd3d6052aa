// ECMP: static flow hashing (RFC 2992). The de-facto baseline; a flow never
// changes path, so collisions persist for the flow's lifetime.
#pragma once

#include "net/uplink_selector.hpp"
#include "util/flow_key.hpp"

namespace tlbsim::lb {

class Ecmp final : public net::UplinkSelector {
 public:
  /// `salt` models the per-switch hash seed real switches use.
  explicit Ecmp(std::uint64_t salt = 0) : salt_(salt) {}

  int selectUplink(const net::Packet& pkt, net::UplinkView uplinks) override {
    const std::uint64_t h = flowHash(pkt.flow, salt_);
    return uplinks[h % uplinks.size()].port;
  }

  const char* name() const override { return "ECMP"; }

 private:
  std::uint64_t salt_;
};

}  // namespace tlbsim::lb
