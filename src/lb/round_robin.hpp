// Plain per-packet round-robin spraying: the simplest deterministic
// spreader. Perfectly balanced by packet count, fully oblivious to
// congestion, size, and rate differences.
#pragma once

#include "net/uplink_selector.hpp"

namespace tlbsim::lb {

class RoundRobin final : public net::UplinkSelector {
 public:
  RoundRobin() = default;

  int selectUplink(const net::Packet& pkt, net::UplinkView uplinks) override {
    (void)pkt;
    next_ = (next_ + 1) % uplinks.size();
    return uplinks[next_].port;
  }

  const char* name() const override { return "RoundRobin"; }

 private:
  std::size_t next_ = 0;
};

}  // namespace tlbsim::lb
