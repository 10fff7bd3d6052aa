// One-call experiment runner for the 3-tier fat-tree topology (the
// leaf-spine counterpart lives in experiment.hpp). Selectors are
// instantiated independently at both decision tiers (edge, aggregation).
#pragma once

#include <vector>

#include "harness/experiment.hpp"
#include "net/fat_tree.hpp"

namespace tlbsim::harness {

struct FatTreeExperimentConfig {
  net::FatTreeConfig topo;
  SchemeConfig scheme;
  transport::TcpParams tcp;
  std::vector<transport::FlowSpec> flows;
  SimTime maxDuration = seconds(10);
  std::uint64_t seed = 1;
};

/// Runs the flow list over the fat-tree; time-series fields of the result
/// stay empty (no sampler), everything ledger-based is populated.
ExperimentResult runFatTreeExperiment(const FatTreeExperimentConfig& cfg);

}  // namespace tlbsim::harness
