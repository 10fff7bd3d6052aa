#include "harness/overrides.hpp"

#include <cstdint>
#include <functional>
#include <utility>

#include "fault/plan.hpp"
#include "util/config.hpp"

namespace tlbsim::harness {

namespace {

struct Key {
  const char* name;
  const char* help;
  /// Parses `value` (pre-wrapped in a one-entry KeyValueConfig for the
  /// strict accessors) into cfg; false on parse failure.
  std::function<bool(ExperimentConfig&, const KeyValueConfig&,
                     const std::string&, const std::string&)>
      apply;
};

bool setInt(const KeyValueConfig& kv, const std::string& key, int* out) {
  const auto v = kv.getIntStrict(key);
  if (!v.has_value()) return false;
  *out = static_cast<int>(*v);
  return true;
}

bool setBytes(const KeyValueConfig& kv, const std::string& key, ByteCount* out) {
  const auto v = kv.getIntStrict(key);
  if (!v.has_value()) return false;
  *out = ByteCount::fromBytes(*v);
  return true;
}

bool setU64(const KeyValueConfig& kv, const std::string& key,
            std::uint64_t* out) {
  const auto v = kv.getIntStrict(key);
  if (!v.has_value()) return false;
  *out = static_cast<std::uint64_t>(*v);
  return true;
}

bool setMicros(const KeyValueConfig& kv, const std::string& key,
               SimTime* out) {
  const auto v = kv.getDoubleStrict(key);
  if (!v.has_value()) return false;
  *out = microseconds(*v);
  return true;
}

bool setBool(const KeyValueConfig& kv, const std::string& key, bool* out) {
  const auto v = kv.getBoolStrict(key);
  if (!v.has_value()) return false;
  *out = *v;
  return true;
}

const std::vector<Key>& keyTable() {
  static const std::vector<Key> table = {
      {"scheme", "load-balancing scheme (parseScheme names)",
       [](ExperimentConfig& c, const KeyValueConfig&, const std::string&,
          const std::string& value) {
         const auto s = parseScheme(value);
         if (!s.has_value()) return false;
         c.scheme.scheme = *s;
         return true;
       }},
      {"topo.leaves",
       "number of leaf switches (>= 2: cross-leaf workloads need two)",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         int leaves = 0;
         if (!setInt(kv, k, &leaves) || leaves < 2) return false;
         c.topo.numLeaves = leaves;
         return true;
       }},
      {"topo.spines", "number of spine switches (equal-cost paths)",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setInt(kv, k, &c.topo.numSpines);
       }},
      {"topo.hosts-per-leaf", "hosts under each leaf",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setInt(kv, k, &c.topo.hostsPerLeaf);
       }},
      {"topo.buffer", "per-port buffer depth, packets",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setInt(kv, k, &c.topo.bufferPackets);
       }},
      {"topo.ecn-k", "DCTCP marking threshold, packets (0 = off)",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         if (!setInt(kv, k, &c.topo.ecnThresholdPackets)) return false;
         c.tcp.enableEcn = c.topo.ecnThresholdPackets > 0;
         return true;
       }},
      {"topo.rate-gbps", "host and fabric link rate, Gbps",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         const auto v = kv.getDoubleStrict(k);
         if (!v.has_value() || !(*v > 0.0)) return false;
         c.topo.hostLinkRate = gbps(*v);
         c.topo.fabricLinkRate = gbps(*v);
         return true;
       }},
      {"topo.rtt-us", "base RTT, microseconds (sets per-link delay)",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         const auto v = kv.getDoubleStrict(k);
         if (!v.has_value() || !(*v > 0.0)) return false;
         c.topo.linkDelay = microseconds(*v / 8.0);
         return true;
       }},
      {"tcp.hole-guard",
       "reordering-tolerant retransmit guard (false = classic NS2-era TCP)",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setBool(kv, k, &c.tcp.holeRetransmitGuard);
       }},
      {"tcp.min-rto-us", "minimum retransmission timeout, microseconds",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setMicros(kv, k, &c.tcp.minRto);
       }},
      {"tlb.update-interval-us", "TLB control-loop interval t",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setMicros(kv, k, &c.scheme.tlb.updateInterval);
       }},
      {"tlb.idle-timeout-us", "TLB flow-entry idle purge timeout",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setMicros(kv, k, &c.scheme.tlb.idleTimeout);
       }},
      {"tlb.short-threshold-bytes",
       "bytes before TLB reclassifies a flow as long",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setBytes(kv, k, &c.scheme.tlb.shortFlowThreshold);
       }},
      {"tlb.spray-stickiness-bytes",
       "minimum queue-length gain before a short flow switches uplinks",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setBytes(kv, k, &c.scheme.tlb.sprayStickiness);
       }},
      {"tlb.deadline-ms", "short-flow deadline D, milliseconds",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         const auto v = kv.getDoubleStrict(k);
         if (!v.has_value() || !(*v > 0.0)) return false;
         c.scheme.tlb.deadline = milliseconds(*v);
         return true;
       }},
      {"scheme.flowlet-timeout-us", "LetFlow/CONGA flowlet gap",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setMicros(kv, k, &c.scheme.flowletTimeout);
       }},
      {"scheme.presto-cell-bytes", "Presto flowcell size",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setBytes(kv, k, &c.scheme.prestoCellBytes);
       }},
      {"scheme.fixed-k", "FixedGranularity switching period, packets",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setU64(kv, k, &c.scheme.fixedK);
       }},
      {"max-duration-ms", "hard stop, simulated milliseconds",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         const auto v = kv.getDoubleStrict(k);
         if (!v.has_value() || !(*v > 0.0)) return false;
         c.maxDuration = milliseconds(*v);
         return true;
       }},
      {"sample-interval-us", "time-series sampling period (0 = off)",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setMicros(kv, k, &c.sampleInterval);
       }},
      {"app.queries", "partition-aggregate queries to run (0 = app off)",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setInt(kv, k, &c.app.queries);
       }},
      {"app.fan-out", "worker request flows per query",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         int fanOut = 0;
         if (!setInt(kv, k, &fanOut) || fanOut <= 0) return false;
         c.app.fanOut = fanOut;
         return true;
       }},
      {"app.arrival", "query arrival process: poisson | closed",
       [](ExperimentConfig& c, const KeyValueConfig&, const std::string&,
          const std::string& value) {
         if (value == "poisson") {
           c.app.arrival = app::Arrival::kPoisson;
         } else if (value == "closed") {
           c.app.arrival = app::Arrival::kClosedLoop;
         } else {
           return false;
         }
         return true;
       }},
      {"app.qps", "Poisson query arrival rate, queries/second",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         const auto v = kv.getDoubleStrict(k);
         if (!v.has_value() || !(*v > 0.0)) return false;
         c.app.qps = *v;
         return true;
       }},
      {"app.concurrency", "closed-loop outstanding queries",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setInt(kv, k, &c.app.concurrency);
       }},
      {"app.think-time-us", "closed-loop mean think time after completion",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setMicros(kv, k, &c.app.thinkTime);
       }},
      {"app.request-bytes", "request flow size, aggregator to worker",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setBytes(kv, k, &c.app.requestBytes);
       }},
      {"app.response-dist",
       "response-size draw: fixed | websearch | datamining",
       [](ExperimentConfig& c, const KeyValueConfig&, const std::string&,
          const std::string& value) {
         if (value == "fixed") {
           c.app.responseDist = app::ResponseDist::kFixed;
         } else if (value == "websearch") {
           c.app.responseDist = app::ResponseDist::kWebSearch;
         } else if (value == "datamining") {
           c.app.responseDist = app::ResponseDist::kDataMining;
         } else {
           return false;
         }
         return true;
       }},
      {"app.response-bytes",
       "response size (fixed) or cap (websearch/datamining)",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setBytes(kv, k, &c.app.responseBytes);
       }},
      {"app.service-time-us", "mean worker service time (0 = instant)",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setMicros(kv, k, &c.app.serviceTime);
       }},
      {"app.slo-ms", "query completion SLO, milliseconds (0 = none)",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         const auto v = kv.getDoubleStrict(k);
         if (!v.has_value() || *v < 0.0) return false;
         c.app.slo = milliseconds(*v);
         return true;
       }},
      {"app.timeout-ms", "per-query retry timeout, milliseconds (0 = off)",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         const auto v = kv.getDoubleStrict(k);
         if (!v.has_value() || *v < 0.0) return false;
         c.app.timeout = milliseconds(*v);
         return true;
       }},
      {"app.max-retries", "retry budget per query",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setInt(kv, k, &c.app.maxRetries);
       }},
      {"app.duplicate-threshold-bytes",
       "duplicate requests whose response is below this (0 = off)",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setBytes(kv, k, &c.app.duplicateThreshold);
       }},
      {"app.placement", "worker placement: random | spread",
       [](ExperimentConfig& c, const KeyValueConfig&, const std::string&,
          const std::string& value) {
         if (value == "random") {
           c.app.placement = app::Placement::kRandom;
         } else if (value == "spread") {
           c.app.placement = app::Placement::kSpread;
         } else {
           return false;
         }
         return true;
       }},
      {"app.aggregator", "pin the aggregator host (-1 = rotate per query)",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setInt(kv, k, &c.app.aggregator);
       }},
      {"fault.link",
       "append link-fault events: leafL-spineS,down@T,up@T,rate=F@T,"
       "delay=F@T,drop=P@T with time suffix s/ms/us/ns (';' joins links)",
       [](ExperimentConfig& c, const KeyValueConfig&, const std::string&,
          const std::string& value) {
         return fault::parseLinkFaults(value, &c.fault);
       }},
      {"fault.drain",
       "drain in-flight packets on link-down instead of dropping them",
       [](ExperimentConfig& c, const KeyValueConfig& kv,
          const std::string& k, const std::string&) {
         return setBool(kv, k, &c.fault.drainOnDown);
       }},
  };
  return table;
}

}  // namespace

bool applyOverride(ExperimentConfig& cfg, const std::string& key,
                   const std::string& value, std::string* error) {
  // The topo.* keys shape the leaf-spine; a fat-tree run would build from
  // cfg.fatTree and silently ignore them.
  if (cfg.fatTree.has_value() && key.rfind("topo.", 0) == 0) {
    if (error != nullptr) {
      *error = "override '" + key +
               "' sets a leaf-spine parameter, but the config builds a "
               "fat-tree";
    }
    return false;
  }
  for (const auto& entry : keyTable()) {
    if (key != entry.name) continue;
    const KeyValueConfig kv = KeyValueConfig::fromString(key + "=" + value);
    if (entry.apply(cfg, kv, key, value)) return true;
    if (error != nullptr) {
      *error = "bad value '" + value + "' for override '" + key + "'";
    }
    return false;
  }
  if (error != nullptr) *error = "unknown override key '" + key + "'";
  return false;
}

bool applyOverrides(ExperimentConfig& cfg,
                    const std::vector<std::string>& keyValues,
                    std::string* error) {
  for (const auto& kvStr : keyValues) {
    const auto eq = kvStr.find('=');
    if (eq == std::string::npos || eq == 0) {
      if (error != nullptr) {
        *error = "override '" + kvStr + "' is not of the form key=value";
      }
      return false;
    }
    if (!applyOverride(cfg, kvStr.substr(0, eq), kvStr.substr(eq + 1),
                       error)) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> overrideHelp() {
  std::vector<std::string> out;
  out.reserve(keyTable().size());
  for (const auto& entry : keyTable()) {
    out.push_back(std::string(entry.name) + "  " + entry.help);
  }
  return out;
}

}  // namespace tlbsim::harness
