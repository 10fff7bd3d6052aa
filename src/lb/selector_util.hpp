// Small helpers shared by load-balancing schemes.
#pragma once

#include <cstddef>

#include "net/uplink_selector.hpp"
#include "util/rng.hpp"

namespace tlbsim::lb {

/// Expected time for a newly-arriving 1500 B packet to clear a port: the
/// queue's drain time plus the packet's own serialization. "Shortest
/// queue" decisions compare this rather than raw bytes: under
/// heterogeneous link rates (asymmetric fabrics) an *empty* slow link is
/// still a bad choice, and a short queue on a slow link can outlast a
/// long queue on a fast one. Falls back to byte count when the view
/// carries no rate information (then the +1500 shifts all ports equally).
inline double drainTime(const net::PortView& u) {
  if (u.rateBps > 0.0) {
    return static_cast<double>((u.queueBytes + 1500_B).bytes()) * 8.0 /
               u.rateBps +
           u.linkDelaySec;
  }
  return static_cast<double>(u.queueBytes.bytes());
}

/// Index (into `uplinks`) of the port with the least expected wait;
/// ties are broken uniformly at random so parallel queues don't synchronize.
inline std::size_t shortestQueueIndex(net::UplinkView uplinks, Rng& rng) {
  std::size_t best = 0;
  double bestWait = drainTime(uplinks[0]);
  std::size_t nTied = 1;
  for (std::size_t i = 1; i < uplinks.size(); ++i) {
    const double wait = drainTime(uplinks[i]);
    if (wait < bestWait) {
      best = i;
      bestWait = wait;
      nTied = 1;
    } else if (wait == bestWait) {
      // Reservoir-sample among ties for a uniform choice in one pass.
      ++nTied;
      if (rng.uniformInt(nTied) == 0) best = i;
    }
  }
  return best;
}

/// True if `port` is one of the group's port numbers.
inline bool containsPort(net::UplinkView uplinks, int port) {
  for (const auto& u : uplinks) {
    if (u.port == port) return true;
  }
  return false;
}

/// True if a previously-chosen `port` may still be used for new packets.
/// The switch masks downed uplinks out of the view it hands selectors, so
/// a cached decision (flowlet table entry, flow placement, per-flow hash)
/// pointing at a port that is no longer in the view is stale and must be
/// re-made. Every scheme shares this one staleness policy: if the fault
/// model ever grows softer states (draining, probation), this is the
/// single place to teach selectors about them.
inline bool portUsable(net::UplinkView uplinks, int port) {
  return containsPort(uplinks, port);
}

/// Queue length in bytes of `port` within the group, or -1 if absent.
inline ByteCount queueBytesOfPort(net::UplinkView uplinks, int port) {
  for (const auto& u : uplinks) {
    if (u.port == port) return u.queueBytes;
  }
  return -1_B;
}

/// Expected wait (seconds) behind `port`'s queue, or -1 if absent.
inline double drainTimeOfPort(net::UplinkView uplinks, int port) {
  for (const auto& u : uplinks) {
    if (u.port == port) return drainTime(u);
  }
  return -1.0;
}

}  // namespace tlbsim::lb
