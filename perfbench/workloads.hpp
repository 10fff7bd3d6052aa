// The benchmark's three workloads. Each turns a seed into a complete
// ExperimentConfig; the program receives only these generated inputs.
// README.md gives the reason for each workload.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "net/packet.hpp"

namespace perfbench {

enum class Scale { kFull, kTiny };

struct WorkloadSetup {
  tlbsim::harness::ExperimentConfig cfg;
  /// Host seconds spent generating the flow list (src/workload).
  double genSeconds = 0.0;
  /// The workload's parameters as (key, value) text, for the run envelope.
  std::vector<std::pair<std::string, std::string>> params;
};

/// All workload names, in BENCHMARK.json order.
const std::vector<std::string>& workloadNames();

/// Builds the full run config of `workload` from `seed`: the 4x4x8
/// leaf-spine fabric, the scheme, and the static flows / app service /
/// fault plan. nullopt for an unknown name.
std::optional<WorkloadSetup> makeWorkload(const std::string& workload,
                                          std::uint64_t seed, Scale scale);

/// Packets of the flows a workload offers its leaf switches, in the order
/// a sender leaf would see them: flows interleave packet by packet over a
/// window of concurrent flows. Static flows come from cfg.flows; an app
/// workload gets the fan-out responses its service would request.
std::vector<tlbsim::net::Packet> packetStream(
    const tlbsim::harness::ExperimentConfig& cfg, std::size_t maxPackets,
    std::uint64_t seed);

}  // namespace perfbench
