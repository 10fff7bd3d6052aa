// RPS (Random Packet Spraying): every packet picks a uniformly random
// uplink. Maximum path diversity, maximum reordering exposure.
#pragma once

#include "net/uplink_selector.hpp"
#include "util/rng.hpp"

namespace tlbsim::lb {

class Rps final : public net::UplinkSelector {
 public:
  explicit Rps(std::uint64_t seed) : rng_(seed) {}

  int selectUplink(const net::Packet& pkt, net::UplinkView uplinks) override {
    (void)pkt;
    return uplinks[rng_.uniformInt(uplinks.size())].port;
  }

  const char* name() const override { return "RPS"; }

 private:
  Rng rng_;
};

}  // namespace tlbsim::lb
