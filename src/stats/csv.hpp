// CSV export of experiment results, for downstream plotting.
#pragma once

#include <string>

#include "stats/flow_ledger.hpp"

namespace tlbsim::stats {

/// One row per flow: id, src, dst, size, start, deadline, completed, fct,
/// reordering and retransmission counters. Returns false when the file
/// cannot be opened or fully written.
bool writeFlowsCsv(const std::string& path, const FlowLedger& ledger);

}  // namespace tlbsim::stats
