// What every built topology shares: its hosts, its switches in
// construction order, and the physical inputs TLB's auto-fill reads.
//
// Everything else is derived by walking ports, so the builders keep no
// side tables:
//   * a decision switch is one whose uplink group is non-empty; decision
//     switches in construction order are the selector-factory order;
//   * a fabric link is a switch port whose peer is a switch;
//   * a link's label is "<from>-><peer>", e.g. "leaf0->spine1".
//
// Consumers (the experiment harness, the invariant auditor, fault
// injection, the app layer) take a Fabric& and never ask which topology
// they run on. The class is a non-virtual base: builders derive from it
// and own it; nothing deletes through it.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/host.hpp"
#include "net/switch.hpp"
#include "util/units.hpp"

namespace tlbsim::net {

/// Builds one UplinkSelector per decision switch; `index` is the switch's
/// position in selector-factory order, so schemes can derive per-switch
/// salts and seeds from it.
// Called once per switch at topology construction (cold path).
// tlbsim-lint: allow(std-function-hot-path)
using SelectorFactory =
    // tlbsim-lint: allow(std-function-hot-path)
    std::function<std::unique_ptr<UplinkSelector>(Switch& sw, int index)>;

class Fabric {
 public:
  /// The physical inputs TLB's auto-fill reads.
  struct Physical {
    /// Unloaded host-to-host round trip over the longest equal-cost path.
    SimTime baseRtt;
    LinkRate fabricLinkRate;
    int bufferPackets = 0;
    int ecnThresholdPackets = 0;
  };

  int numHosts() const { return static_cast<int>(hosts_.size()); }
  Host& host(int i) { return *hosts_[static_cast<std::size_t>(i)]; }

  /// Switches in construction order.
  int numSwitches() const { return static_cast<int>(switches_.size()); }
  Switch& switchAt(int i) { return *switches_[static_cast<std::size_t>(i)]; }
  /// The port of switch `from` that leads to the node named `to`, or null.
  Link* link(std::string_view from, std::string_view to);

  /// Switches with a non-empty uplink group, in selector-factory order.
  std::vector<Switch*> decisionSwitches();

  /// "<from>-><peer>" for a link leaving `from`.
  static std::string linkLabel(const Switch& from, const Link& link);

  /// Visit every fabric link (both directions) at setup or harvest time.
  template <typename Fn>
  void forEachFabricLink(Fn&& fn) {
    for (const auto& sw : switches_) {
      for (int p = 0; p < sw->numPorts(); ++p) {
        if (dynamic_cast<Switch*>(sw->port(p).peer()) != nullptr) {
          fn(sw->port(p));
        }
      }
    }
  }

  const Physical& physical() const { return physical_; }

 protected:
  explicit Fabric(const Physical& physical) : physical_(physical) {}
  ~Fabric() = default;

  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Switch>> switches_;

 private:
  Physical physical_;
};

}  // namespace tlbsim::net
