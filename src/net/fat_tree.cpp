#include "net/fat_tree.hpp"

#include <string>

#include "util/check.hpp"

namespace tlbsim::net {

FatTreeTopology::FatTreeTopology(sim::Simulator& simr,
                                 const FatTreeConfig& cfg,
                                 const SelectorFactory& makeSelector)
    : Fabric({12 * cfg.linkDelay,  // 6 links each way between pods
              cfg.linkRate, cfg.bufferPackets, cfg.ecnThresholdPackets}),
      cfg_(cfg) {
  TLBSIM_ASSERT(cfg.k >= 2 && cfg.k % 2 == 0,
                "fat-tree k must be even and >= 2 (got %d)", cfg.k);
  const int half = cfg.k / 2;
  const QueueConfig qcfg{cfg.bufferPackets, cfg.ecnThresholdPackets};

  auto makeLink = [&]() {
    return std::make_unique<Link>(simr, cfg.linkRate, cfg.linkDelay, qcfg);
  };

  // Instantiate switches, one tier at a time.
  for (const char* tier : {"edge", "agg"}) {
    for (int p = 0; p < cfg.k; ++p) {
      for (int i = 0; i < half; ++i) {
        switches_.push_back(std::make_unique<Switch>(
            simr, tier + std::to_string(p) + "." + std::to_string(i)));
      }
    }
  }
  for (int c = 0; c < cfg.numCores(); ++c) {
    switches_.push_back(
        std::make_unique<Switch>(simr, "core" + std::to_string(c)));
  }

  // Hosts + host<->edge links.
  for (int p = 0; p < cfg.k; ++p) {
    for (int e = 0; e < half; ++e) {
      Switch& esw = edge(p, e);
      for (int h = 0; h < half; ++h) {
        const HostId id =
            static_cast<HostId>(p * half * half + e * half + h);
        auto host = std::make_unique<Host>(id, "h" + std::to_string(id));
        auto up = makeLink();
        up->connect(&esw, -1);
        host->attachUplink(std::move(up));
        auto down = makeLink();
        down->connect(host.get(), 0);
        const int port = esw.addPort(std::move(down));
        esw.setRoute(id, port);
        hosts_.push_back(std::move(host));
      }
    }
  }

  // Edge <-> aggregation links (intra-pod full mesh).
  for (int p = 0; p < cfg.k; ++p) {
    for (int e = 0; e < half; ++e) {
      Switch& esw = edge(p, e);
      std::vector<int> group;
      for (int a = 0; a < half; ++a) {
        Switch& asw = agg(p, a);
        auto up = makeLink();
        up->connect(&asw, -1);
        const int upPort = esw.addPort(std::move(up));
        group.push_back(upPort);

        auto down = makeLink();
        down->connect(&esw, -1);
        const int downPort = asw.addPort(std::move(down));
        // Aggregation: hosts under edge(p, e) exit via this downlink.
        for (int h = 0; h < half; ++h) {
          asw.setRoute(
              static_cast<HostId>(p * half * half + e * half + h), downPort);
        }
      }
      esw.setUplinkGroup(std::move(group));
      // Everything not directly attached goes via the uplinks.
      for (int id = 0; id < cfg.numHosts(); ++id) {
        const bool local =
            id / (half * half) == p && (id % (half * half)) / half == e;
        if (!local) esw.routeViaUplinks(static_cast<HostId>(id));
      }
    }
  }

  // Aggregation <-> core links: agg j of every pod connects to core group j.
  for (int p = 0; p < cfg.k; ++p) {
    for (int a = 0; a < half; ++a) {
      Switch& asw = agg(p, a);
      std::vector<int> group;
      for (int j = 0; j < half; ++j) {
        Switch& csw = core(a * half + j);
        auto up = makeLink();
        up->connect(&csw, -1);
        const int upPort = asw.addPort(std::move(up));
        group.push_back(upPort);

        auto down = makeLink();
        down->connect(&asw, -1);
        const int downPort = csw.addPort(std::move(down));
        // Core: every host of pod p exits via this downlink.
        for (int id = p * half * half; id < (p + 1) * half * half; ++id) {
          csw.setRoute(static_cast<HostId>(id), downPort);
        }
      }
      asw.setUplinkGroup(std::move(group));
      // Hosts outside this pod go via the core uplinks.
      for (int id = 0; id < cfg.numHosts(); ++id) {
        if (id / (half * half) != p) asw.routeViaUplinks(static_cast<HostId>(id));
      }
    }
  }

  // Install selectors on both decision tiers, in construction order.
  if (makeSelector) {
    for (int idx = 0; idx < 2 * cfg.k * half; ++idx) {
      switchAt(idx).setSelector(makeSelector(switchAt(idx), idx));
    }
  }
}

}  // namespace tlbsim::net
