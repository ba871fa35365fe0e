#include "dproc/kecho/node.hpp"

#include <algorithm>

#include "dproc/net/wire.hpp"
#include "dproc/util/logging.hpp"

namespace dproc::kecho {

namespace {

/// Bytes of the fixed event-frame header preceding the payload header:
/// channel (4) + source (4) + submit time (8) + payload header length (4).
constexpr std::size_t kFrameHeaderBytes = 20;

/// Event frame carried over the peer transport: fixed header + the
/// application payload's encoded header + (only when tracing) one
/// TraceContext trailer; bulk rides as declared body bytes. The frame
/// buffer is built exactly-sized in one allocation and then shared (never
/// copied) by every transport send and receiving channel. `trace` null
/// keeps the encoding byte-identical to the untraced stack.
net::MessagePtr encode_event(ChannelId channel, net::NodeId source,
                             SimTime submitted_at,
                             const net::MessagePtr& payload,
                             const net::TraceContext* trace = nullptr) {
  net::ByteWriter w;
  w.reserve(kFrameHeaderBytes + payload->header.size() +
            (trace != nullptr ? net::TraceContext::kWireBytes : 0));
  w.u32(channel);
  w.u32(source);
  w.i64(submitted_at.ns());
  w.u32(static_cast<std::uint32_t>(payload->header.size()));
  w.bytes(payload->header);
  if (trace != nullptr) trace->encode(w);
  return net::make_message(w.take(), payload->body_bytes);
}

/// What a selector returns for a member it skips.
const net::MessagePtr kNoPayload;

}  // namespace

// Zero-copy decode: validates the frame and records where the payload
// starts; the event aliases the frame instead of materializing a payload.
// Bytes past the payload header must be exactly one trace-context trailer
// (identified by length *and* marker byte) or absent.
bool decode_event_frame(const net::MessagePtr& frame, Event& event) {
  net::ByteReader r{frame->header};
  event.channel = r.u32();
  event.source = r.u32();
  event.submitted_at = SimTime{r.i64()};
  const std::uint32_t payload_header_bytes = r.u32();
  if (!r.ok() || r.remaining() < payload_header_bytes) return false;
  r.skip(payload_header_bytes);
  const std::size_t extra = r.remaining();
  if (extra == net::TraceContext::kWireBytes) {
    if (!net::TraceContext::decode(r, event.trace)) return false;
  } else if (extra != 0) {
    return false;
  }
  event.frame = frame;
  event.payload_offset = kFrameHeaderBytes;
  event.payload_bytes = payload_header_bytes;
  return true;
}

const net::TraceContext* Channel::stamp_submit(net::TraceContext& trace) {
  telemetry::Registry& tm = node_.host().telemetry();
  if (!tm.trace_enabled() || !trace.valid()) return nullptr;
  const std::int64_t now_ns = node_.host().engine().now().ns();
  tm.record_hop(telemetry::Hop{
      trace.trace_id, trace.origin, id_, telemetry::HopStage::kSubmit, now_ns,
      now_ns - trace.prev_hop_ns});
  trace.hop = static_cast<std::uint8_t>(telemetry::HopStage::kSubmit);
  trace.prev_hop_ns = now_ns;
  return &trace;
}

template <typename Select>
SimDuration Channel::send_each(const Select& select, net::TraceContext trace) {
  ++submitted_;
  const SimTime now = node_.host().engine().now();
  const net::TraceContext* stamped = nullptr;
  for (const Member& member : members_) {
    auto&& payload = select(member.node);
    if (payload == nullptr) continue;  // member opted out of this event
    // One wire frame per distinct payload, shared by every member that
    // selected it. The common case is one payload per interest group, so
    // the cache is a short linear scan keyed by payload identity.
    auto sent = std::find_if(frames_.begin(), frames_.end(),
                             [&payload](const SentFrame& f) {
                               return f.payload == payload;
                             });
    if (sent == frames_.end()) {
      // The submit hop goes with the first frame encoded: a submission
      // that reaches nobody leaves no hop behind.
      if (frames_.empty()) stamped = stamp_submit(trace);
      frames_.push_back(SentFrame{
          payload, encode_event(id_, node_.nic().node(), now, payload, stamped),
          0});
      sent = frames_.end() - 1;
    }
    ++sent->members;
    if (transport_ == ChannelTransport::kDatagram) {
      node_.nic().send_datagram(member.node, Node::kDatagramEventPort,
                                sent->frame, Node::kDatagramEventPort);
    } else {
      node_.transport_to(member.node).send(sent->frame);
    }
    if (node_.liveness_.enabled) node_.note_submission(member.node, now);
  }
  const KechoCosts& costs = node_.costs();
  double cycles = 0.0;
  for (const SentFrame& f : frames_) {
    cycles += (costs.submit_base_cycles +
               costs.submit_per_byte_cycles *
                   static_cast<double>(f.frame->size())) *
              static_cast<double>(f.members);
  }
  frames_.clear();
  const SimDuration cost =
      seconds(cycles / node_.host().cpu().config().clock_hz);
  if (cost > SimDuration::zero()) node_.host().cpu().consume_kernel(cost);
  node_.tm_submits_.add();
  node_.tm_submit_us_.record(cost);
  // The virtual clock does not advance inside this call, so the span covers
  // [now, now + charged kernel cost] — the interval the CPU model bills.
  node_.host().telemetry().record_span("kecho", "submit", now, now + cost);
  return cost;
}

SimDuration Channel::submit(const net::MessagePtr& payload,
                            net::TraceContext trace) {
  return send_each(
      [&payload](net::NodeId) -> const net::MessagePtr& { return payload; },
      trace);
}

SimDuration Channel::submit_to(net::NodeId member,
                               const net::MessagePtr& payload,
                               net::TraceContext trace) {
  if (std::none_of(members_.begin(), members_.end(),
                   [member](const Member& m) { return m.node == member; })) {
    ++submitted_;  // counted, but the frame would reach nobody
    return SimDuration::zero();
  }
  return send_each(
      [member, &payload](net::NodeId node) -> const net::MessagePtr& {
        return node == member ? payload : kNoPayload;
      },
      trace);
}

SimDuration Channel::submit_to_each(const PayloadSelector& select,
                                    net::TraceContext trace) {
  return send_each(select, trace);
}

std::size_t Channel::remote_member_count() const { return members_.size(); }

std::vector<std::pair<ChannelId, std::string>> Node::channels() const {
  std::vector<std::pair<ChannelId, std::string>> out;
  out.reserve(poll_list_.size());
  for (const Channel* channel : poll_list_) {
    out.emplace_back(channel->id(), channel->name());
  }
  return out;
}

Node::Node(host::Host& host, net::Nic& nic, net::NodeId registry_node,
           net::Port registry_port, KechoCosts costs, LivenessConfig liveness,
           RegistryClientConfig registry_client)
    : host_(host),
      nic_(nic),
      registry_node_(registry_node),
      registry_port_(registry_port),
      costs_(costs),
      liveness_(liveness),
      registry_client_(std::move(registry_client)),
      heartbeat_payload_(net::make_message({})),
      tm_submits_(host.telemetry().counter("kecho", "submits")),
      tm_receives_(host.telemetry().counter("kecho", "receives")),
      tm_heartbeats_(host.telemetry().counter("kecho", "heartbeats")),
      tm_evictions_(host.telemetry().counter("kecho", "evictions")),
      tm_join_retries_(host.telemetry().counter("kecho", "join_retries")),
      tm_removal_retries_(host.telemetry().counter("kecho", "removal_retries")),
      tm_cache_hits_(host.telemetry().counter("registry", "cache_hits")),
      tm_cache_misses_(host.telemetry().counter("registry", "cache_misses")),
      tm_cache_invalidations_(
          host.telemetry().counter("registry", "cache_invalidations")),
      tm_submit_us_(host.telemetry().latency("kecho", "submit_us")) {
  nic_.bind_datagram(kChannelPort,
                     [this](net::NodeId, net::Port, const net::MessagePtr& m) {
                       on_registry_datagram(m);
                     });
  nic_.bind_datagram(kDatagramEventPort,
                     [this](net::NodeId, net::Port, const net::MessagePtr& m) {
                       on_peer_message(m);
                     });
  listener_ = std::make_unique<net::TcpListener>(
      nic_, kChannelPort, net::TcpConfig{},
      [this](net::TcpConnection::Ptr conn) {
        conn->set_message_handler(
            [this](const net::MessagePtr& m) { on_peer_message(m); });
        accepted_.push_back(std::move(conn));
      });
  if (liveness_.enabled) start_heartbeat_timer();
}

Node::~Node() {
  heartbeat_timer_.cancel();
  for (auto& [key, handle] : pending_removals_) handle.cancel();
  for (auto& [name, channel] : channels_by_name_) channel->join_retry_.cancel();
  for (auto& [name, pending] : pending_lookups_) pending.retry.cancel();
}

Channel& Node::join(const std::string& name,
                    std::function<void(Channel&)> on_ready,
                    ChannelTransport transport) {
  auto it = channels_by_name_.find(name);
  if (it == channels_by_name_.end()) {
    auto channel = std::unique_ptr<Channel>{new Channel{*this, name}};
    channel->transport_ = transport;
    it = channels_by_name_.emplace(name, std::move(channel)).first;
    // Keep the drain list in name order regardless of join order: poll()
    // used to walk the name map, and drain order is trace-visible.
    poll_list_.insert(
        std::upper_bound(poll_list_.begin(), poll_list_.end(), it->second.get(),
                         [](const Channel* a, const Channel* b) {
                           return a->name() < b->name();
                         }),
        it->second.get());
    // Cache-first re-join: a fresh cached record makes the channel usable
    // immediately; the registry's response still re-applies authoritatively
    // (and tells the registry about this member either way).
    if (registry_client_.cache) try_cache_adopt(*it->second);
    send_join(*it->second);
  }
  Channel& channel = *it->second;
  if (on_ready) {
    if (channel.ready_) {
      on_ready(channel);
    } else {
      channel.on_ready_.push_back(std::move(on_ready));
    }
  }
  return channel;
}

net::NodeId Node::registry_target(int attempt) const {
  const std::vector<net::NodeId>& replicas = registry_client_.replicas;
  if (replicas.empty()) return registry_node_;
  // Attempt 0 goes to replica 0 (the birth leader); retries rotate so a
  // dead leader cannot absorb the whole storm — a follower forwards or
  // queues the write toward whoever leads next.
  return replicas[static_cast<std::size_t>(attempt) % replicas.size()];
}

void Node::send_join(Channel& channel) {
  const int attempt = channel.join_attempts_;
  nic_.send_datagram(
      registry_target(attempt), registry_port_,
      encode_join_request(channel.name_, Member{nic_.node(), kChannelPort}),
      kChannelPort);
  if (!retries_enabled()) return;
  channel.join_attempts_ = attempt + 1;
  channel.join_retry_.cancel();
  channel.join_retry_ = host_.engine().schedule_after(
      backoff_delay(attempt), [this, &channel] {
        if (!channel.ready_ && !crashed_) {
          tm_join_retries_.add();
          send_join(channel);
        }
      });
}

void Node::send_registry_removal(RegistryOp op, Member member, int attempt) {
  nic_.send_datagram(registry_target(attempt), registry_port_,
                     encode_member_removal(op, member), kChannelPort);
  if (!liveness_.enabled) return;
  const auto key = std::pair{static_cast<std::uint8_t>(op), member.node};
  auto it = pending_removals_.find(key);
  if (it != pending_removals_.end()) it->second.cancel();
  pending_removals_[key] = host_.engine().schedule_after(
      backoff_delay(attempt), [this, op, member, attempt] {
        if (!crashed_) {
          tm_removal_retries_.add();
          send_registry_removal(op, member, attempt + 1);
        }
      });
}

SimDuration Node::backoff_delay(int attempt) const {
  const int shift = std::min(attempt, 20);
  const double factor = static_cast<double>(std::uint32_t{1} << shift);
  SimDuration delay = std::min(liveness_.retry_base * factor,
                               liveness_.retry_cap);
  if (liveness_.retry_jitter > 0.0) {
    // Deterministic per-(node, attempt) jitter: a splitmix64-style hash
    // spreads a simultaneous storm's retries inside the jitter window, and
    // replays identically run-to-run (no RNG state, no platform variance).
    std::uint64_t h = (static_cast<std::uint64_t>(nic_.node()) << 20) ^
                      static_cast<std::uint64_t>(static_cast<unsigned>(attempt));
    h += 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    h ^= h >> 31;
    const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
    delay = delay * (1.0 + liveness_.retry_jitter * unit);
  }
  return delay;
}

void Node::start_heartbeat_timer() {
  heartbeat_timer_.cancel();
  heartbeat_timer_ = host_.engine().schedule_periodic(
      liveness_.heartbeat_period, [this] { liveness_tick(); });
}

void Node::liveness_tick() {
  const SimTime now = host_.engine().now();
  const SimDuration dead_after =
      liveness_.heartbeat_period * static_cast<double>(liveness_.miss_threshold);
  // Collect first: eviction mutates peer_liveness_.
  std::vector<net::NodeId> dead;
  for (const auto& [peer, state] : peer_liveness_) {
    if (now - state.last_heard > dead_after) dead.push_back(peer);
  }
  for (net::NodeId peer : dead) evict_peer(peer);
  for (auto& [peer, state] : peer_liveness_) {
    if (now - state.last_sent >= liveness_.heartbeat_period) {
      send_heartbeat(peer);
      state.last_sent = now;
    }
  }
}

void Node::send_heartbeat(net::NodeId peer) {
  const net::MessagePtr frame = encode_event(
      kHeartbeatChannel, nic_.node(), host_.engine().now(), heartbeat_payload_);
  transport_to(peer).send(frame);
  ++heartbeats_sent_;
  tm_heartbeats_.add();
}

bool Node::member_learned(Member member) {
  // A reappearing peer invalidates any eviction of it still retrying
  // toward the registry: the queued request predates the re-join, and
  // replaying it would knock out a live member (a storm during registry
  // outages, when every survivor's eviction sits in its retry loop).
  const auto key =
      std::pair{static_cast<std::uint8_t>(RegistryOp::kMemberEvict), member.node};
  if (auto it = pending_removals_.find(key); it != pending_removals_.end()) {
    it->second.cancel();
    pending_removals_.erase(it);
  }
  const SimTime now = host_.engine().now();
  // A fresh peer starts with a full grace window before eviction.
  return peer_liveness_.try_emplace(member.node, PeerLiveness{now, now}).second;
}

void Node::reset_transports() {
  for (auto [peer, conn] : transports_) conn->close();
  transports_.clear();
  for (auto& conn : accepted_) conn->close();
  accepted_.clear();
}

void Node::evict_peer(net::NodeId peer) {
  net::Port port = kChannelPort;
  for (const auto& [name, channel] : channels_by_name_) {
    for (const Member& m : channel->members_) {
      if (m.node == peer) port = m.port;
    }
  }
  forget_peer(peer);
  ++evictions_initiated_;
  tm_evictions_.add();
  DPROC_INFO() << "kecho node " << nic_.node() << ": peer " << peer
               << " silent past miss threshold; evicting";
  send_registry_removal(RegistryOp::kMemberEvict, Member{peer, port}, 0);
  notify_membership(MemberEventKind::kEvicted, peer);
}

void Node::forget_peer(net::NodeId peer) {
  for (auto& [name, channel] : channels_by_name_) {
    std::erase_if(channel->members_,
                  [peer](const Member& m) { return m.node == peer; });
  }
  if (net::TcpConnection::Ptr* conn = transports_.find(peer)) {
    (*conn)->close();
    transports_.erase(peer);
  }
  std::erase_if(accepted_, [peer](const net::TcpConnection::Ptr& conn) {
    if (conn->remote_node() != peer) return false;
    conn->close();
    return true;
  });
  peer_liveness_.erase(peer);
}

bool Node::member_of_any_channel(net::NodeId peer) const {
  for (const auto& [name, channel] : channels_by_name_) {
    for (const Member& m : channel->members_) {
      if (m.node == peer) return true;
    }
  }
  return false;
}

void Node::notify_membership(MemberEventKind kind, net::NodeId node) {
  // Flight-record the node-level transition at its single chokepoint, so
  // joins, graceful leaves and evictions all land in the post-mortem ring.
  switch (kind) {
    case MemberEventKind::kJoined:
      host_.flight().record(telemetry::Severity::kInfo,
                            telemetry::FlightSubsystem::kKecho,
                            telemetry::FlightCode::kMemberJoin, node);
      break;
    case MemberEventKind::kLeft:
      host_.flight().record(telemetry::Severity::kInfo,
                            telemetry::FlightSubsystem::kKecho,
                            telemetry::FlightCode::kMemberLeave, node);
      break;
    case MemberEventKind::kEvicted:
      host_.flight().record(
          telemetry::Severity::kWarn, telemetry::FlightSubsystem::kKecho,
          telemetry::FlightCode::kMemberEvict, node,
          static_cast<std::uint64_t>(liveness_.miss_threshold));
      break;
  }
  for (const MembershipListener& listener : membership_listeners_) {
    listener(kind, node);
  }
}

void Node::note_submission(net::NodeId peer, SimTime now) {
  auto it = peer_liveness_.find(peer);
  if (it != peer_liveness_.end()) it->second.last_sent = now;
}

void Node::announce_leave() {
  heartbeat_timer_.cancel();
  send_registry_removal(RegistryOp::kMemberLeave,
                        Member{nic_.node(), kChannelPort}, 0);
}

void Node::crash() {
  crashed_ = true;
  heartbeat_timer_.cancel();
  for (auto& [key, handle] : pending_removals_) handle.cancel();
  pending_removals_.clear();
  for (auto& [name, channel] : channels_by_name_) {
    channel->join_retry_.cancel();
    channel->join_attempts_ = 0;
    channel->ready_ = false;
    channel->members_.clear();
    channel->rx_queue_.clear();
  }
  std::fill(channels_by_id_.begin(), channels_by_id_.end(), nullptr);
  for (auto [peer, conn] : transports_) conn->close();
  transports_.clear();
  for (auto& conn : accepted_) conn->close();
  accepted_.clear();
  peer_liveness_.clear();
  // A kernel reboot loses the cached channel table with everything else.
  channel_cache_.clear();
  for (auto& [name, pending] : pending_lookups_) pending.retry.cancel();
  pending_lookups_.clear();
}

void Node::restart() {
  if (!crashed_) return;
  crashed_ = false;
  for (auto& [name, channel] : channels_by_name_) {
    if (registry_client_.cache) try_cache_adopt(*channel);
    send_join(*channel);
  }
  if (liveness_.enabled) start_heartbeat_timer();
}

void Node::apply_membership(Channel& channel, ChannelId id,
                            const std::vector<Member>& members) {
  channel.join_retry_.cancel();
  channel.join_attempts_ = 0;
  channel.id_ = id;
  // Rebuild (never append): a re-join response replaces the view, so a
  // crash-restart cannot duplicate members.
  channel.members_.clear();
  for (const Member& member : members) {
    if (member.node == nic_.node()) continue;
    channel.members_.push_back(member);
    if (member_learned(member)) {
      notify_membership(MemberEventKind::kJoined, member.node);
    }
  }
  channel.ready_ = true;
  if (channels_by_id_.size() <= id) channels_by_id_.resize(id + 1, nullptr);
  channels_by_id_[id] = &channel;
  auto callbacks = std::move(channel.on_ready_);
  channel.on_ready_.clear();
  for (auto& fn : callbacks) fn(channel);
}

const Node::CachedRecord* Node::fresh_cache_entry(const std::string& name) {
  auto it = channel_cache_.find(name);
  if (it == channel_cache_.end()) return nullptr;
  if (host_.engine().now() - it->second.stamped > registry_client_.cache_lease) {
    channel_cache_.erase(it);
    ++cache_stats_.expiries;
    return nullptr;
  }
  return &it->second;
}

void Node::cache_store(const std::string& name, ChannelId id, bool found,
                       const std::vector<Member>& members) {
  if (!registry_client_.cache) return;
  CachedRecord& record = channel_cache_[name];
  record.id = id;
  record.found = found;
  record.members = members;
  record.stamped = host_.engine().now();
}

bool Node::try_cache_adopt(Channel& channel) {
  const CachedRecord* record = fresh_cache_entry(channel.name_);
  if (record == nullptr || !record->found) return false;
  ++cache_stats_.hits;
  tm_cache_hits_.add();
  const std::int64_t staleness =
      (host_.engine().now() - record->stamped).ns();
  cache_stats_.max_served_staleness_ns =
      std::max(cache_stats_.max_served_staleness_ns, staleness);
  apply_membership(channel, record->id, record->members);
  return true;
}

void Node::lookup_members(const std::string& name, LookupCallback callback) {
  if (registry_client_.cache) {
    if (const CachedRecord* record = fresh_cache_entry(name)) {
      ++cache_stats_.hits;
      tm_cache_hits_.add();
      cache_stats_.max_served_staleness_ns =
          std::max(cache_stats_.max_served_staleness_ns,
                   (host_.engine().now() - record->stamped).ns());
      callback(JoinResponse{name, record->id, record->found, record->members});
      return;
    }
    ++cache_stats_.misses;
    tm_cache_misses_.add();
  }
  PendingLookup& pending = pending_lookups_[name];
  pending.callbacks.push_back(std::move(callback));
  if (pending.callbacks.size() > 1) return;  // request already in flight
  send_lookup(name);
}

void Node::send_lookup(const std::string& name) {
  auto it = pending_lookups_.find(name);
  if (it == pending_lookups_.end()) return;
  PendingLookup& pending = it->second;
  const int attempt = pending.attempts;
  // First attempt spreads reads across the replica set (followers serve
  // lookups); retries rotate so a dead replica is skipped next round.
  const std::vector<net::NodeId>& replicas = registry_client_.replicas;
  const net::NodeId target =
      replicas.empty()
          ? registry_node_
          : replicas[(lookup_rr_++ + static_cast<std::uint64_t>(attempt)) %
                     replicas.size()];
  nic_.send_datagram(target, registry_port_,
                     encode_lookup_request(name, Member{nic_.node(),
                                                        kChannelPort}),
                     kChannelPort);
  if (!retries_enabled()) return;
  pending.attempts = attempt + 1;
  pending.retry.cancel();
  pending.retry =
      host_.engine().schedule_after(backoff_delay(attempt), [this, name] {
        if (!crashed_) send_lookup(name);
      });
}

void Node::on_registry_datagram(const net::MessagePtr& message) {
  net::ByteReader r{message->header};
  const auto op = static_cast<RegistryOp>(r.u8());
  switch (op) {
    case RegistryOp::kJoinResponse: {
      JoinResponse response;
      if (!decode_join_response(r, /*lookup=*/false, response)) {
        DPROC_WARN() << "kecho node " << nic_.node()
                     << ": malformed join response";
        return;
      }
      auto it = channels_by_name_.find(response.name);
      if (it == channels_by_name_.end()) {
        DPROC_WARN() << "kecho node " << nic_.node()
                     << ": join response for unknown channel '"
                     << response.name << "'";
        return;
      }
      cache_store(response.name, response.id, true, response.members);
      apply_membership(*it->second, response.id, response.members);
      return;
    }
    case RegistryOp::kLookupResponse: {
      JoinResponse response;
      if (!decode_join_response(r, /*lookup=*/true, response)) {
        DPROC_WARN() << "kecho node " << nic_.node()
                     << ": malformed lookup response";
        return;
      }
      cache_store(response.name, response.id, response.found,
                  response.members);
      auto it = pending_lookups_.find(response.name);
      if (it == pending_lookups_.end()) return;
      it->second.retry.cancel();
      auto callbacks = std::move(it->second.callbacks);
      pending_lookups_.erase(it);
      for (LookupCallback& fn : callbacks) fn(response);
      return;
    }
    case RegistryOp::kCacheInvalidate: {
      net::CacheInvalidate invalidate;
      if (!net::CacheInvalidate::decode(r, invalidate)) return;
      channel_cache_.erase(invalidate.name);
      ++cache_stats_.invalidations;
      tm_cache_invalidations_.add();
      return;
    }
    case RegistryOp::kMemberNotify: {
      const ChannelId id = r.u32();
      Member member{r.u32(), r.u16()};
      if (!r.ok()) return;
      if (id >= channels_by_id_.size() || channels_by_id_[id] == nullptr) {
        return;
      }
      if (member.node == nic_.node()) return;
      Channel& channel = *channels_by_id_[id];
      auto& members = channel.members_;
      if (std::find(members.begin(), members.end(), member) == members.end()) {
        members.push_back(member);
        if (member_learned(member)) {
          notify_membership(MemberEventKind::kJoined, member.node);
        }
      }
      // The push is authoritative: refresh the cached record in place.
      if (registry_client_.cache) {
        auto cached = channel_cache_.find(channel.name_);
        if (cached != channel_cache_.end()) {
          auto& list = cached->second.members;
          if (std::find(list.begin(), list.end(), member) == list.end()) {
            list.push_back(member);
          }
          cached->second.stamped = host_.engine().now();
        }
      }
      return;
    }
    case RegistryOp::kMemberDrop: {
      const ChannelId id = r.u32();
      Member member{r.u32(), r.u16()};
      const auto reason = static_cast<DropReason>(r.u8());
      if (!r.ok()) return;
      Channel* channel =
          id < channels_by_id_.size() ? channels_by_id_[id] : nullptr;
      if (member.node == nic_.node()) {
        // The registry dropped *us*. After a leave that is expected; after
        // an eviction we are demonstrably alive to hear it, so the eviction
        // was spurious (e.g. a healed partition) — re-join immediately.
        if (channel == nullptr || crashed_) return;
        channel->ready_ = false;
        channel->members_.clear();
        channel_cache_.erase(channel->name_);  // stale by definition
        // Peers that processed the drop tore down their endpoints of our
        // cached transports; submitting into those half-open connections
        // would silently blackhole every future frame. Rebuild node-level
        // connectivity from scratch along with the membership.
        reset_transports();
        if (reason == DropReason::kEvict) send_join(*channel);
        return;
      }
      const bool known = peer_liveness_.contains(member.node);
      if (channel != nullptr) {
        std::erase(channel->members_, member);
        if (registry_client_.cache) {
          auto cached = channel_cache_.find(channel->name_);
          if (cached != channel_cache_.end()) {
            std::erase(cached->second.members, member);
            cached->second.stamped = host_.engine().now();
          }
        }
      }
      if (known && !member_of_any_channel(member.node)) {
        forget_peer(member.node);
        notify_membership(reason == DropReason::kLeave
                              ? MemberEventKind::kLeft
                              : MemberEventKind::kEvicted,
                          member.node);
      }
      return;
    }
    case RegistryOp::kOpAck: {
      const auto acked = static_cast<RegistryOp>(r.u8());
      Member member{r.u32(), r.u16()};
      if (!r.ok()) return;
      auto it = pending_removals_.find(
          std::pair{static_cast<std::uint8_t>(acked), member.node});
      if (it != pending_removals_.end()) {
        it->second.cancel();
        pending_removals_.erase(it);
      }
      return;
    }
    default:
      DPROC_WARN() << "kecho node " << nic_.node()
                   << ": unexpected registry op " << static_cast<int>(op);
      return;
  }
}

net::TcpConnection& Node::transport_to(net::NodeId peer) {
  if (net::TcpConnection::Ptr* open = transports_.find(peer)) return **open;
  auto conn = net::TcpConnection::connect(nic_, peer, kChannelPort);
  conn->set_message_handler(
      [this](const net::MessagePtr& m) { on_peer_message(m); });
  net::TcpConnection& opened = *conn;
  transports_.try_emplace(peer).first = std::move(conn);
  return opened;
}

void Node::on_peer_message(const net::MessagePtr& message) {
  Event event;
  if (!decode_event_frame(message, event)) {
    DPROC_WARN() << "kecho node " << nic_.node() << ": malformed event frame";
    return;
  }
  if (event.trace.valid() && host_.telemetry().trace_enabled()) {
    // Wire latency: time between the sender's submit stamp and this frame
    // reaching our kernel. The event then sits in the channel rx queue
    // until the next poll(), which stamps kDeliver with the queueing delay.
    const std::int64_t now_ns = host_.engine().now().ns();
    host_.telemetry().record_hop(telemetry::Hop{
        event.trace.trace_id, event.trace.origin, event.channel,
        telemetry::HopStage::kArrive, now_ns,
        now_ns - event.trace.prev_hop_ns});
    event.trace.hop = static_cast<std::uint8_t>(telemetry::HopStage::kArrive);
    event.trace.prev_hop_ns = now_ns;
  }
  if (liveness_.enabled) {
    auto it = peer_liveness_.find(event.source);
    if (it != peer_liveness_.end()) {
      it->second.last_heard = host_.engine().now();
    }
  }
  if (event.channel == kHeartbeatChannel) return;  // liveness-only frame
  if (event.channel >= channels_by_id_.size() ||
      channels_by_id_[event.channel] == nullptr) {
    DPROC_DEBUG() << "kecho node " << nic_.node() << ": event for channel "
                  << event.channel << " not joined here";
    return;
  }
  channels_by_id_[event.channel]->rx_queue_.push_back(std::move(event));
}

PollStats Node::poll() {
  PollStats stats;
  const SimTime poll_start = host_.engine().now();
  const bool tracing = host_.telemetry().trace_enabled();
  double cycles = costs_.poll_base_cycles;
  for (Channel* channel : poll_list_) {
    while (!channel->rx_queue_.empty()) {
      Event event = channel->rx_queue_.pop_front();
      cycles += costs_.receive_base_cycles +
                costs_.receive_per_byte_cycles *
                    static_cast<double>(event.payload_size());
      ++channel->received_;
      ++stats.events_delivered;
      if (tracing && event.trace.valid()) {
        // Queueing delay: rx-queue arrival (kArrive) to this poll drain.
        const std::int64_t now_ns = poll_start.ns();
        host_.telemetry().record_hop(telemetry::Hop{
            event.trace.trace_id, event.trace.origin, event.channel,
            telemetry::HopStage::kDeliver, now_ns,
            now_ns - event.trace.prev_hop_ns});
        event.trace.hop =
            static_cast<std::uint8_t>(telemetry::HopStage::kDeliver);
        event.trace.prev_hop_ns = now_ns;
      }
      if (channel->handler_) channel->handler_(event);
    }
  }
  stats.cpu_cost = seconds(cycles / host_.cpu().config().clock_hz);
  host_.cpu().consume_kernel(stats.cpu_cost);
  tm_receives_.add(stats.events_delivered);
  host_.telemetry().record_span("kecho", "poll", poll_start,
                                poll_start + stats.cpu_cost);
  return stats;
}

}  // namespace dproc::kecho
