#include "net/fabric.hpp"

namespace tlbsim::net {

Link* Fabric::link(std::string_view from, std::string_view to) {
  for (const auto& sw : switches_) {
    if (sw->name() != from) continue;
    for (int p = 0; p < sw->numPorts(); ++p) {
      if (sw->port(p).peer()->name() == to) return &sw->port(p);
    }
  }
  return nullptr;
}

std::vector<Switch*> Fabric::decisionSwitches() {
  std::vector<Switch*> out;
  for (const auto& sw : switches_) {
    if (!sw->uplinkGroup().empty()) out.push_back(sw.get());
  }
  return out;
}

std::string Fabric::linkLabel(const Switch& from, const Link& link) {
  return from.name() + "->" + link.peer()->name();
}

}  // namespace tlbsim::net
