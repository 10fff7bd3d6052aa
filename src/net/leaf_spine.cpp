#include "net/leaf_spine.hpp"

#include <string>

#include "util/check.hpp"

namespace tlbsim::net {

namespace {

/// Applies any matching override to (rate, delay) for the leaf-spine cable.
void applyOverride(const LeafSpineConfig& cfg, int leafIdx, int spineIdx,
                   LinkRate* rate, SimTime* delay) {
  for (const auto& ov : cfg.overrides) {
    if (ov.leaf == leafIdx && ov.spine == spineIdx) {
      *rate = rate->scaled(ov.rateFactor);
      *delay = *delay * ov.delayFactor;
    }
  }
}

}  // namespace

LeafSpineTopology::LeafSpineTopology(sim::Simulator& simr,
                                     const LeafSpineConfig& cfg,
                                     const SelectorFactory& makeSelector)
    : Fabric({cfg.baseRtt(), cfg.fabricLinkRate, cfg.bufferPackets,
              cfg.ecnThresholdPackets}),
      cfg_(cfg) {
  TLBSIM_ASSERT(cfg.numLeaves >= 1 && cfg.numSpines >= 1 &&
                    cfg.hostsPerLeaf >= 1,
                "leaf-spine needs at least 1 leaf, 1 spine, 1 host/leaf "
                "(got %d/%d/%d)",
                cfg.numLeaves, cfg.numSpines, cfg.hostsPerLeaf);
  const QueueConfig qcfg{cfg.bufferPackets, cfg.ecnThresholdPackets};

  for (int l = 0; l < cfg.numLeaves; ++l) {
    switches_.push_back(
        std::make_unique<Switch>(simr, "leaf" + std::to_string(l)));
  }
  for (int s = 0; s < cfg.numSpines; ++s) {
    switches_.push_back(
        std::make_unique<Switch>(simr, "spine" + std::to_string(s)));
  }

  // Hosts + access links: each leaf's host ports come first.
  for (int h = 0; h < cfg.numHosts(); ++h) {
    Switch& lf = leaf(h / cfg.hostsPerLeaf);
    auto host = std::make_unique<Host>(static_cast<HostId>(h),
                                       "h" + std::to_string(h));
    // Host -> leaf.
    auto up = std::make_unique<Link>(simr, cfg.hostLinkRate, cfg.linkDelay,
                                     qcfg);
    up->connect(&lf, /*peerPort=*/-1);
    host->attachUplink(std::move(up));
    // Leaf -> host.
    auto down = std::make_unique<Link>(simr, cfg.hostLinkRate, cfg.linkDelay,
                                       qcfg);
    down->connect(host.get(), /*peerPort=*/0);
    lf.setRoute(static_cast<HostId>(h), lf.addPort(std::move(down)));
    hosts_.push_back(std::move(host));
  }

  // Fabric links + uplink groups; spine s's port l leads to leaf l.
  for (int l = 0; l < cfg.numLeaves; ++l) {
    Switch& lf = leaf(l);
    std::vector<int> group;
    for (int s = 0; s < cfg.numSpines; ++s) {
      Switch& sp = spine(s);

      LinkRate rate = cfg.fabricLinkRate;
      SimTime delay = cfg.linkDelay;
      applyOverride(cfg, l, s, &rate, &delay);

      // Leaf -> spine.
      auto up = std::make_unique<Link>(simr, rate, delay, qcfg);
      up->connect(&sp, /*peerPort=*/-1);
      group.push_back(lf.addPort(std::move(up)));

      // Spine -> leaf.
      auto down = std::make_unique<Link>(simr, rate, delay, qcfg);
      down->connect(&lf, /*peerPort=*/-1);
      sp.addPort(std::move(down));
    }
    lf.setUplinkGroup(std::move(group));
    // Any host not under this leaf is reached via the uplinks.
    for (int h = 0; h < cfg.numHosts(); ++h) {
      if (h / cfg.hostsPerLeaf != l) lf.routeViaUplinks(static_cast<HostId>(h));
    }
    if (makeSelector) lf.setSelector(makeSelector(lf, l));
  }

  // Spine routing: every host via its leaf's downlink.
  for (int s = 0; s < cfg.numSpines; ++s) {
    for (int h = 0; h < cfg.numHosts(); ++h) {
      spine(s).setRoute(static_cast<HostId>(h), h / cfg.hostsPerLeaf);
    }
  }
}

}  // namespace tlbsim::net
