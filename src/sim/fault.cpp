#include "dproc/sim/fault.hpp"

namespace dproc::sim {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNodeCrash: return "node_crash";
    case FaultKind::kNodeRestart: return "node_restart";
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kLinkLossStart: return "link_loss_start";
    case FaultKind::kLinkLossStop: return "link_loss_stop";
    case FaultKind::kRegistryDown: return "registry_down";
    case FaultKind::kRegistryUp: return "registry_up";
    case FaultKind::kRegistryLeaderKill: return "registry_leader_kill";
  }
  return "unknown";
}

FaultPlan& FaultPlan::crash_node(SimTime at, std::uint32_t node) {
  events_.push_back({at, FaultKind::kNodeCrash, node, 0.0, 0});
  return *this;
}

FaultPlan& FaultPlan::restart_node(SimTime at, std::uint32_t node) {
  events_.push_back({at, FaultKind::kNodeRestart, node, 0.0, 0});
  return *this;
}

FaultPlan& FaultPlan::node_outage(SimTime at, SimTime until,
                                  std::uint32_t node) {
  return crash_node(at, node).restart_node(until, node);
}

FaultPlan& FaultPlan::partition_link(SimTime at, std::uint32_t link) {
  events_.push_back({at, FaultKind::kLinkDown, link, 0.0, 0});
  return *this;
}

FaultPlan& FaultPlan::heal_link(SimTime at, std::uint32_t link) {
  events_.push_back({at, FaultKind::kLinkUp, link, 0.0, 0});
  return *this;
}

FaultPlan& FaultPlan::flap_link(SimTime from, SimTime until,
                                SimDuration half_period, std::uint32_t link) {
  bool down = true;
  for (SimTime t = from; t < until; t = t + half_period) {
    if (down) {
      partition_link(t, link);
    } else {
      heal_link(t, link);
    }
    down = !down;
  }
  return heal_link(until, link);
}

FaultPlan& FaultPlan::loss_burst(SimTime from, SimTime until,
                                 std::uint32_t link, double p,
                                 std::uint64_t seed) {
  events_.push_back({from, FaultKind::kLinkLossStart, link, p, seed});
  events_.push_back({until, FaultKind::kLinkLossStop, link, 0.0, 0});
  return *this;
}

FaultPlan& FaultPlan::registry_outage(SimTime from, SimTime until) {
  events_.push_back({from, FaultKind::kRegistryDown, 0, 0.0, 0});
  events_.push_back({until, FaultKind::kRegistryUp, 0, 0.0, 0});
  return *this;
}

FaultPlan& FaultPlan::kill_registry_leader(SimTime at) {
  events_.push_back({at, FaultKind::kRegistryLeaderKill, 0, 0.0, 0});
  return *this;
}

void FaultInjector::schedule(const FaultPlan& plan) {
  for (const FaultEvent& event : plan.events()) {
    ++scheduled_;
    engine_.schedule_at(event.at, [this, event] { apply(event); });
  }
}

void FaultInjector::apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kNodeCrash:
      if (hooks_.node_down) hooks_.node_down(event.target, true);
      break;
    case FaultKind::kNodeRestart:
      if (hooks_.node_down) hooks_.node_down(event.target, false);
      break;
    case FaultKind::kLinkDown:
      if (hooks_.link_down) hooks_.link_down(event.target, true);
      break;
    case FaultKind::kLinkUp:
      if (hooks_.link_down) hooks_.link_down(event.target, false);
      break;
    case FaultKind::kLinkLossStart:
      if (hooks_.link_loss) hooks_.link_loss(event.target, event.param, event.seed);
      break;
    case FaultKind::kLinkLossStop:
      if (hooks_.link_loss) hooks_.link_loss(event.target, 0.0, 0);
      break;
    case FaultKind::kRegistryDown:
      if (hooks_.registry_down) hooks_.registry_down(true);
      break;
    case FaultKind::kRegistryUp:
      if (hooks_.registry_down) hooks_.registry_down(false);
      break;
    case FaultKind::kRegistryLeaderKill:
      if (hooks_.registry_leader_kill) hooks_.registry_leader_kill();
      break;
  }
  if (hooks_.record) hooks_.record(event);
  applied_.push_back(event);
}

}  // namespace dproc::sim
