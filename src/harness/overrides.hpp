// Declarative `key=value` overrides onto an ExperimentConfig.
//
// This is the string vocabulary behind sweep variants, the CLI's
// `sweep --set`, and config files: a small dotted namespace mirroring the
// config structs (topo.*, tcp.*, tlb.*, scheme.*) with units spelled in
// the key, parsed with KeyValueConfig's strict accessors so a typo is an
// error, never a silently-kept default.
//
//   scheme=letflow            tlb.update-interval-us=250
//   topo.buffer=128           tcp.hole-guard=false
//
// Overrides are applied before the workload is generated, so topology
// changes (host counts) stay consistent with the flow list.
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace tlbsim::harness {

/// Apply one override. Returns false (and explains into *error when
/// non-null) for an unknown key, a value that does not parse in full, or a
/// topo.* key on a config that builds a fat-tree (cfg.fatTree set).
bool applyOverride(ExperimentConfig& cfg, const std::string& key,
                   const std::string& value, std::string* error = nullptr);

/// Apply a list of "key=value" strings in order; stops at the first
/// failure. A string without '=' is a failure.
bool applyOverrides(ExperimentConfig& cfg,
                    const std::vector<std::string>& keyValues,
                    std::string* error = nullptr);

/// The accepted keys, one "key  description" line each (for --help output
/// and the docs test).
std::vector<std::string> overrideHelp();

}  // namespace tlbsim::harness
