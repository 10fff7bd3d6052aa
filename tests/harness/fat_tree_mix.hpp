// The k=4 fat-tree test mix: two 1 MB flows and twelve short cross-pod
// flows with deadlines, shared by the fat-tree harness tests and the
// fat-tree golden digest.
#pragma once

#include "harness/experiment.hpp"
#include "util/rng.hpp"

namespace tlbsim::harness {

inline ExperimentConfig fatTreeMix(Scheme scheme, std::uint64_t seed = 1) {
  ExperimentConfig cfg;
  cfg.fatTree = net::FatTreeConfig{};  // k=4: 16 hosts in 4 pods
  cfg.scheme.scheme = scheme;
  cfg.seed = seed;
  cfg.maxDuration = seconds(10);

  // Cross-pod flows: a few long, a burst of short.
  Rng rng(seed * 13 + 1);
  FlowId id = 1;
  for (int i = 0; i < 2; ++i) {
    transport::FlowSpec f;
    f.id = id++;
    f.src = static_cast<net::HostId>(i);
    f.dst = static_cast<net::HostId>(12 + i);
    f.size = 1 * kMB;
    cfg.flows.push_back(f);
  }
  for (int i = 0; i < 12; ++i) {
    transport::FlowSpec f;
    f.id = id++;
    f.src = static_cast<net::HostId>(rng.uniformInt(8));      // pods 0-1
    f.dst = static_cast<net::HostId>(8 + rng.uniformInt(8));  // pods 2-3
    f.size = ByteCount::fromBytes(
        rng.uniformInt((10 * kKB).bytes(), (90 * kKB).bytes()));
    f.start = microseconds(rng.uniformInt(0, 2000));
    f.deadline = milliseconds(20);
    cfg.flows.push_back(f);
  }
  return cfg;
}

}  // namespace tlbsim::harness
