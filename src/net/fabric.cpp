#include "dproc/net/fabric.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "dproc/util/logging.hpp"

namespace dproc::net {

const char* to_string(DropCause cause) {
  switch (cause) {
    case DropCause::kNone: return "none";
    case DropCause::kNodeDown: return "node_down";
    case DropCause::kLinkDown: return "link_down";
    case DropCause::kBufferFull: return "buffer_full";
    case DropCause::kLoss: return "loss";
  }
  return "?";
}

DropCause Link::transmit(const Packet& packet, SimTime& exit_time) {
  const std::uint64_t wire = packet.wire_bytes();
  // Evaluation order matters for determinism: the loss RNG must only be
  // consulted for packets that would otherwise be accepted, exactly as
  // before the per-cause verdicts were introduced.
  DropCause cause = DropCause::kNone;
  if (down_) {
    cause = DropCause::kLinkDown;
  } else if (backlog_bytes() + wire > config_.buffer_bytes) {
    cause = DropCause::kBufferFull;
  } else if (loss_probability_ > 0.0 &&
             loss_rng_.uniform() < loss_probability_) {
    cause = DropCause::kLoss;
  }
  if (cause != DropCause::kNone) {
    ++stats_.packets_dropped;
    stats_.bytes_dropped += wire;
    return cause;
  }
  const SimTime start = std::max(engine_.now(), busy_until_);
  const SimDuration serialize =
      seconds(static_cast<double>(wire) * 8.0 / config_.bandwidth_bps);
  busy_until_ = start + serialize;
  ++stats_.packets_sent;
  stats_.bytes_sent += wire;
  exit_time = busy_until_ + config_.propagation;
  return DropCause::kNone;
}

std::uint64_t Link::backlog_bytes() const {
  if (busy_until_ <= engine_.now()) return 0;
  const double sec = (busy_until_ - engine_.now()).sec();
  return static_cast<std::uint64_t>(sec * config_.bandwidth_bps / 8.0);
}

NodeId Fabric::add_node(std::string name) {
  const auto id = static_cast<NodeId>(node_names_.size());
  node_names_.push_back(std::move(name));
  delivery_.emplace_back();
  delivered_bytes_.push_back(0);
  node_down_.push_back(false);
  return id;
}

void Fabric::set_node_down(NodeId node, bool down) {
  node_down_.at(node) = down;
}

bool Fabric::node_down(NodeId node) const { return node_down_.at(node); }

LinkId Fabric::add_link(LinkConfig config) {
  const auto id = static_cast<LinkId>(links_.size());
  links_.push_back(std::make_unique<Link>(engine_, config));
  in_flight_.emplace_back();
  return id;
}

void Fabric::set_route(NodeId src, NodeId dst, std::vector<LinkId> links) {
  for (LinkId id : links) {
    if (id >= links_.size()) throw std::invalid_argument{"set_route: bad link id"};
  }
  routes_[{src, dst}] = std::move(links);
}

std::vector<std::pair<LinkId, LinkId>> Fabric::build_star(
    const std::vector<NodeId>& nodes, const LinkConfig& config) {
  std::vector<std::pair<LinkId, LinkId>> ports;
  ports.reserve(nodes.size());
  for (NodeId node : nodes) {
    (void)node;
    ports.emplace_back(add_link(config), add_link(config));
  }
  // Routes stay implicit (derived per packet in forward_star): the port
  // table is O(N) where the explicit (src, dst) map would be O(N²) —
  // gigabytes at 4096 nodes. star_ports_ is indexed by NodeId, so pad for
  // any nodes added before this call that are not part of the star.
  if (star_ports_.size() < node_names_.size()) {
    star_ports_.resize(node_names_.size(),
                       {std::numeric_limits<LinkId>::max(),
                        std::numeric_limits<LinkId>::max()});
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    star_ports_.at(nodes[i]) = ports[i];
  }
  return ports;
}

void Fabric::set_delivery_handler(NodeId node, DeliveryHandler handler) {
  delivery_.at(node) = std::move(handler);
}

std::uint64_t Fabric::bytes_delivered_to(NodeId node) const {
  return delivered_bytes_.at(node);
}

void Fabric::count_drop(DropCause cause) {
  switch (cause) {
    case DropCause::kNodeDown: ++stats_.drops_node_down; break;
    case DropCause::kLinkDown: ++stats_.drops_link_down; break;
    case DropCause::kBufferFull: ++stats_.drops_buffer_full; break;
    case DropCause::kLoss: ++stats_.drops_loss; break;
    case DropCause::kNone: break;
  }
}

void Fabric::send(Packet packet) {
  ++stats_.packets_sent;
  if (trace_) trace_(TraceEvent::kSend, DropCause::kNone, packet, engine_.now());
  if (node_down_.at(packet.src)) {
    count_drop(DropCause::kNodeDown);
    if (trace_) {
      trace_(TraceEvent::kDrop, DropCause::kNodeDown, packet, engine_.now());
    }
    return;
  }
  if (packet.src == packet.dst) {
    // Loopback: no link traversal, a small in-kernel delay, never dropped.
    loopback_.push_back(std::move(packet));
    engine_.schedule_after(microseconds(1.0),
                           [this] { deliver(loopback_.pop_front()); });
    return;
  }
  auto it = routes_.find({packet.src, packet.dst});
  if (it != routes_.end()) {
    forward(std::move(packet), &it->second, 0);
    return;
  }
  if (packet.src < star_ports_.size() && packet.dst < star_ports_.size() &&
      star_ports_[packet.src].first != std::numeric_limits<LinkId>::max() &&
      star_ports_[packet.dst].second != std::numeric_limits<LinkId>::max()) {
    forward(std::move(packet), nullptr, 0);
    return;
  }
  throw std::logic_error{"Fabric::send: no route " + node_name(packet.src) +
                         " -> " + node_name(packet.dst)};
}

void Fabric::deliver(const Packet& packet) {
  if (trace_) {
    trace_(TraceEvent::kDeliver, DropCause::kNone, packet, engine_.now());
  }
  ++stats_.packets_delivered;
  delivered_bytes_.at(packet.dst) += packet.wire_bytes();
  auto& handler = delivery_.at(packet.dst);
  if (handler) {
    handler(packet);
  } else {
    DPROC_DEBUG() << "fabric: packet to " << node_name(packet.dst)
                  << " with no NIC attached; discarded";
  }
}

void Fabric::forward(Packet packet, const std::vector<LinkId>* route,
                     std::uint32_t hop) {
  const std::size_t hops = route != nullptr ? route->size() : 2;
  if (hop == hops) {
    if (node_down_.at(packet.dst)) {
      count_drop(DropCause::kNodeDown);
      if (trace_) {
        trace_(TraceEvent::kDrop, DropCause::kNodeDown, packet, engine_.now());
      }
      return;  // vanished at the dead NIC
    }
    deliver(packet);
    return;
  }
  LinkId id;
  if (route != nullptr) {
    id = (*route)[hop];
  } else {
    id = hop == 0 ? star_ports_[packet.src].first
                  : star_ports_[packet.dst].second;
  }
  SimTime exit_time;
  const DropCause verdict = links_.at(id)->transmit(packet, exit_time);
  if (verdict != DropCause::kNone) {
    count_drop(verdict);
    if (trace_) trace_(TraceEvent::kDrop, verdict, packet, engine_.now());
    return;
  }
  in_flight_[id].push_back(InFlight{std::move(packet), route, hop});
  engine_.schedule_at(exit_time, [this, id] { link_exit(id); });
}

void Fabric::link_exit(LinkId id) {
  InFlight next = in_flight_[id].pop_front();
  forward(std::move(next.packet), next.route, next.hop + 1);
}

}  // namespace dproc::net
