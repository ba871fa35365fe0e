#include "dproc/smartpointer/server.hpp"

#include <algorithm>
#include <array>

#include "dproc/util/logging.hpp"

namespace dproc::smartpointer {

Server::Server(host::Host& host, net::Nic& nic, core::DMon* dmon,
               ServerConfig config)
    : host_(host),
      nic_(nic),
      dmon_(dmon),
      config_(config),
      source_(config.atom_count) {}

Server::~Server() { stop(); }

void Server::start() {
  listener_ = std::make_unique<net::TcpListener>(
      nic_, config_.port, net::TcpConfig{},
      [this](net::TcpConnection::Ptr conn) { on_accept(std::move(conn)); });
  frame_timer_ = host_.engine().schedule_periodic(
      seconds(1.0 / config_.frame_rate_hz), [this] { tick(); });
}

void Server::stop() {
  frame_timer_.cancel();
  listener_.reset();
}

void Server::on_accept(net::TcpConnection::Ptr conn) {
  net::TcpConnection* raw = conn.get();
  pending_.push_back(conn);
  raw->set_message_handler([this, raw](const net::MessagePtr& message) {
    auto sub = decode_subscribe(message);
    if (!sub) {
      DPROC_WARN() << "smartpointer server: bad subscribe: "
                   << sub.status().to_string();
      return;
    }
    // Promote from pending to an active client.
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [raw](const net::TcpConnection::Ptr& p) {
                             return p.get() == raw;
                           });
    if (it == pending_.end()) return;
    ClientState state;
    state.node = (*it)->remote_node();
    state.subscription = sub.value();
    state.conn = std::move(*it);
    pending_.erase(it);
    state.bandwidth_estimate_bps = config_.link_capacity_bps;
    DPROC_INFO() << "smartpointer server: client node " << state.node
                 << " subscribed, mode "
                 << static_cast<int>(state.subscription.mode);
    clients_[state.node] = std::move(state);
  });
}

const Server::ClientState* Server::client(net::NodeId node) const {
  auto it = clients_.find(node);
  return it == clients_.end() ? nullptr : &it->second;
}

double Server::metric(net::NodeId node, const std::string& key,
                      double fallback) const {
  if (dmon_ == nullptr) return fallback;
  const core::RemoteMetric* m = dmon_->remote_metric(node, key);
  return m == nullptr ? fallback : m->value;
}

bool Server::feed_degraded(net::NodeId node) const {
  if (dmon_ == nullptr) return false;
  auto health = dmon_->peer_health(node);
  if (!health) return false;  // undeclared peer: metric() fallbacks apply
  if (health->state == core::PeerState::kDead) return true;
  // Stale with cached data: the cache is actively misleading. Stale with
  // no data yet is just warmup; the per-metric fallbacks handle it.
  return health->state == core::PeerState::kStale && health->has_data;
}

void Server::update_bandwidth_estimate(ClientState& client) {
  // Congestion signals, all derived from the client's dproc feeds: the
  // client receives measurably less than this server has been sending, or
  // its connections report inflated RTTs.
  const double rtt = metric(client.node, "rtt", 0.0);
  const double in_bps = metric(client.node, "net_in", 0.0);
  const double sending_bps = client.last_send_rate_bps;

  if (rtt > 0 &&
      (client.baseline_rtt_us == 0.0 || rtt < client.baseline_rtt_us)) {
    client.baseline_rtt_us = rtt;
  }
  // RTT inflation alone is not a decrease trigger: the stream's own bursts
  // queue other packets behind them on an otherwise healthy path (observed
  // with monitoring-channel ACKs riding the frame downlink). The reliable
  // signal is the client receiving measurably less than what is sent.
  const bool rtt_inflated =
      client.baseline_rtt_us > 0 && rtt > 2.0 * client.baseline_rtt_us;
  (void)rtt_inflated;

  // The client's receive-rate metric is EWMA-smoothed and refreshes once
  // per monitoring period, so right after the send rate steps up the
  // metric legitimately lags behind. Suppress gap detection inside a short
  // grace window after any material rate increase; real congestion
  // persists past it.
  // The EWMA reaches ~82% of a step after four 1-second samples, so a 4 s
  // grace with a 0.75 threshold cannot false-trigger on a rate increase.
  const SimTime now = host_.engine().now();
  const bool in_grace =
      (now - client.last_rate_increase_at) < seconds(4.0);
  const bool throughput_gap =
      !in_grace && sending_bps > 1e6 && in_bps < 0.75 * sending_bps;

  // The decisive signal: the client's own application-level lag metric
  // (published through dproc when the client has a d-mon). A rate-matching
  // gap cannot see a small persistent overload — the lag can, immediately
  // and without any grace window.
  const double interval = 1.0 / config_.frame_rate_hz;
  const double lag = metric(client.node, "stream_lag", 0.0);
  const bool lag_high = lag > 1.5 * interval;

  if (throughput_gap || lag_high) {
    // Two consecutive signals, then multiplicative decrease toward what
    // the client demonstrably receives.
    if (++client.gap_strikes < 2) return;
    client.gap_strikes = 0;
    client.collapse_rate_bps = std::max(sending_bps, 2e6);
    const double floor_bps = 1e6;
    client.bandwidth_estimate_bps =
        std::max(floor_bps, 0.75 * std::max(in_bps, floor_bps));
  } else if (lag < 0.75 * interval) {
    client.gap_strikes = 0;
    // Recover only while the client is demonstrably keeping up, and slow
    // down near the rate that last failed (ssthresh-style probing) so
    // repeated overshoots stay small.
    const bool cautious = client.collapse_rate_bps > 0 &&
                          client.bandwidth_estimate_bps >
                              0.5 * client.collapse_rate_bps;
    const double factor = cautious ? 1.02 : 1.10;
    client.bandwidth_estimate_bps =
        std::min(config_.link_capacity_bps,
                 client.bandwidth_estimate_bps * factor + (cautious ? 50e3 : 250e3));
  } else {
    client.gap_strikes = 0;
  }
}

namespace {
/// Relative information content of each derivation, used to prefer the
/// richest stream the client's resources can sustain.
double fidelity(Representation rep) {
  switch (rep) {
    case Representation::kFull: return 1.0;
    case Representation::kPositionOnly: return 0.85;
    case Representation::kCompressed: return 0.80;
    case Representation::kPreRendered: return 0.60;
  }
  return 0.0;
}
}  // namespace

std::pair<Representation, double> Server::choose(ClientState& client) {
  update_bandwidth_estimate(client);

  const double loadavg = metric(client.node, "loadavg", 0.0);
  const double disk_sectors = metric(client.node, "diskusage", 0.0);
  const double interval = 1.0 / config_.frame_rate_hz;
  // The client's run-queue length includes its own stream-processing task,
  // whose cost the per-representation CPU term already accounts. Estimate
  // that self-contribution from the last decision and subtract it, so only
  // true competitors (linpack threads, other apps) inflate the CPU term.
  const double own_load = std::min(
      1.0, config_.costs.client_cpu_seconds(
               client.last_rep,
               config_.costs.frame_bytes(client.last_rep, source_.atom_count(),
                                         client.last_fraction)) *
               config_.frame_rate_hz);
  const double competing_load = std::max(0.0, loadavg - own_load);
  const double bw = std::max(client.bandwidth_estimate_bps, 1e5);
  // Sustainability budget: the per-frame work must drain within the frame
  // interval with some headroom or queues grow without bound.
  const double budget = 0.85 * interval;
  const bool use_cpu = config_.policy != PolicyInputs::kNetOnly;
  const bool use_net = config_.policy != PolicyInputs::kCpuOnly;
  const bool use_disk = config_.policy == PolicyInputs::kHybrid &&
                        (client.subscription.storage_client || disk_sectors > 0);

  static constexpr std::array<Representation, 4> kReps{
      Representation::kFull, Representation::kPositionOnly,
      Representation::kCompressed, Representation::kPreRendered};

  auto estimate = [&](Representation rep, double frac) {
    const auto bytes = static_cast<double>(
        config_.costs.frame_bytes(rep, source_.atom_count(), frac));
    double t = 0.0;
    if (use_net) t += bytes * 8.0 / bw;
    if (use_cpu) {
      t += config_.costs.client_cpu_seconds(rep, static_cast<std::uint64_t>(bytes)) *
           (1.0 + competing_load);
    }
    if (use_disk) t += bytes * 8.0 / config_.disk_bandwidth_bps;
    return t;
  };

  Representation best_feasible{};
  double best_feasible_fraction = 0.0;
  double best_feasible_score = -1.0;
  Representation best_any{};
  double best_any_fraction = 1.0;
  double best_any_time = std::numeric_limits<double>::infinity();

  for (Representation rep : kReps) {
    // Largest decimation fraction whose estimated per-frame time fits the
    // budget. Time is linear in bytes (and bytes in fraction) for the data
    // derivations; pre-rendered images have a fixed size.
    double fraction = 1.0;
    const double t_full = estimate(rep, 1.0);
    if (rep != Representation::kPreRendered && t_full > budget && t_full > 0) {
      fraction = std::clamp(budget / t_full, config_.min_fraction, 1.0);
    }
    const double t = estimate(rep, fraction);
    if (t <= budget) {
      const double score = fidelity(rep) * fraction;
      if (score > best_feasible_score) {
        best_feasible_score = score;
        best_feasible = rep;
        best_feasible_fraction = fraction;
      }
    }
    if (t < best_any_time) {
      best_any_time = t;
      best_any = rep;
      best_any_fraction = fraction;
    }
  }

  if (best_feasible_score >= 0.0) return {best_feasible, best_feasible_fraction};
  // Nothing sustainable: least-bad choice, maximally decimated.
  return {best_any, best_any_fraction};
}

void Server::note_decision(const ClientState& client) {
  telemetry::Registry& tm = host_.telemetry();
  if (!tm.trace_enabled() || dmon_ == nullptr) return;
  // The dynamic policy reads several of the client's metrics; attribute the
  // decision to the freshest one that carried a trace id — the sample whose
  // arrival most plausibly steered this frame.
  static constexpr const char* kConsulted[] = {"rtt", "net_in", "loadavg",
                                               "diskusage", "stream_lag"};
  const core::RemoteMetric* freshest = nullptr;
  for (const char* key : kConsulted) {
    const core::RemoteMetric* m = dmon_->remote_metric(client.node, key);
    if (m == nullptr || m->trace_id == 0) continue;
    if (freshest == nullptr || m->received_at > freshest->received_at) {
      freshest = m;
    }
  }
  if (freshest == nullptr) return;
  const std::int64_t now_ns = host_.engine().now().ns();
  // dur: how long the rendered value waited before steering a stream.
  tm.record_hop(telemetry::Hop{
      freshest->trace_id, client.node, dmon_->monitor_channel_id(),
      telemetry::HopStage::kDecision, now_ns,
      now_ns - freshest->received_at.ns()});
}

void Server::note_trust_drop(net::NodeId node, std::uint64_t reason) {
  host_.flight().record(telemetry::Severity::kWarn,
                        telemetry::FlightSubsystem::kSmartPointer,
                        telemetry::FlightCode::kTrustDrop, node, reason);
}

void Server::tick() {
  const workload::MdFrame frame = source_.next_frame(host_.engine().now());
  for (auto& [node, client] : clients_) {
    send_frame(client, frame);
  }
}

void Server::send_frame(ClientState& client, const workload::MdFrame& frame) {
  Representation rep = Representation::kFull;
  double fraction = 1.0;
  switch (client.subscription.mode) {
    case FilterMode::kNone:
      break;
    case FilterMode::kStatic:
      rep = client.subscription.static_rep;
      break;
    case FilterMode::kDynamic: {
      if (feed_degraded(client.node)) {
        // Stale metrics would steer against a cluster state that no longer
        // exists; degrade conservatively until the feed recovers.
        rep = config_.stale_fallback_rep;
        fraction = config_.stale_fallback_fraction;
        ++client.stale_fallbacks;
        note_trust_drop(client.node, 0);
        break;
      }
      if (dmon_ != nullptr && !dmon_->peer_health_ok(client.node)) {
        // The client's own health engine scores its monitoring path below
        // the trust threshold. The score aggregates drops, collect errors
        // and churn, so it typically degrades before any individual sample
        // misses its staleness SLO — distrust the feed early.
        rep = config_.stale_fallback_rep;
        fraction = config_.stale_fallback_fraction;
        ++client.health_distrusts;
        note_trust_drop(client.node, 2);
        break;
      }
      if (dmon_ != nullptr && !dmon_->feed_within_slo(client.node)) {
        // The feed updates but its samples arrive past their staleness
        // budget: the values describe a cluster state that is budget-old
        // by the time they steer, so distrust them the same way.
        rep = config_.stale_fallback_rep;
        fraction = config_.stale_fallback_fraction;
        ++client.slo_distrusts;
        note_trust_drop(client.node, 1);
        break;
      }
      auto [chosen_rep, chosen_fraction] = choose(client);
      rep = chosen_rep;
      fraction = chosen_fraction;
      note_decision(client);
      break;
    }
  }

  FramePayload payload;
  payload.frame_number = frame.frame_number;
  payload.generated_at = frame.generated_at;
  payload.rep = rep;
  payload.fraction = fraction;
  payload.data_bytes =
      config_.costs.frame_bytes(rep, frame.atom_count, fraction);

  client.last_rep = rep;
  client.last_fraction = fraction;
  const double new_rate =
      static_cast<double>(payload.data_bytes) * 8.0 * config_.frame_rate_hz;
  if (new_rate > 1.25 * client.last_send_rate_bps ||
      client.last_send_rate_bps < 1e6) {
    client.last_rate_increase_at = host_.engine().now();
  }
  client.last_send_rate_bps = new_rate;
  ++client.frames_sent;
  client.conn->send(encode_frame(payload));
}

}  // namespace dproc::smartpointer
