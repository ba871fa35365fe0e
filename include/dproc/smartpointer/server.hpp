// SmartPointer server: the scientific-visualization stream source.
//
// Publishes molecular-dynamics frames to subscribed clients at a constant
// rate. Per client, a tunable data filter picks the frame derivation:
//
//  * FilterMode::kNone    — the original application, full feed;
//  * FilterMode::kStatic  — the client's a-priori choice, never revisited;
//  * FilterMode::kDynamic — chosen per frame from the client's dproc feeds
//    (loadavg, NIC throughput, RTT, retransmissions, disk activity) read
//    from this node's /proc/cluster view via d-mon.
//
// The dynamic policy keeps a per-client available-bandwidth estimate with
// congestion-control dynamics: multiplicative decrease on RTT inflation or
// new retransmissions, additive recovery otherwise. Depending on
// PolicyInputs it considers CPU only, network only, or everything —
// reproducing the Figure 11 comparison.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "dproc/core/dmon.hpp"
#include "dproc/net/tcp.hpp"
#include "dproc/smartpointer/stream.hpp"
#include "dproc/workload/md_source.hpp"

namespace dproc::smartpointer {

struct ServerConfig {
  net::Port port = 9000;
  double frame_rate_hz = 5.0;
  std::uint32_t atom_count = 50'000;
  StreamCostModel costs{};
  PolicyInputs policy = PolicyInputs::kHybrid;
  /// Floor for decimation so a stream never disappears entirely.
  double min_fraction = 0.05;
  /// Assumed path capacity for the bandwidth estimator.
  double link_capacity_bps = 100e6;
  /// Disk streaming bandwidth assumed for storage clients.
  double disk_bandwidth_bps = 160e6;  // 20 MB/s
  /// Degraded-feed fallback for the dynamic policy: when a client's dproc
  /// feed is stale (d-mon flags it after going silent) or dead (evicted),
  /// steering on the cached metrics would chase ghosts, so the stream
  /// drops to this conservative representation until the feed recovers.
  Representation stale_fallback_rep = Representation::kCompressed;
  double stale_fallback_fraction = 0.5;
};

class Server {
 public:
  Server(host::Host& host, net::Nic& nic, core::DMon* dmon,
         ServerConfig config = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void start();
  void stop();

  struct ClientState {
    net::NodeId node = 0;
    Subscribe subscription;
    net::TcpConnection::Ptr conn;
    // Dynamic-policy state.
    double bandwidth_estimate_bps = 0.0;
    double baseline_rtt_us = 0.0;
    double last_send_rate_bps = 0.0;
    int gap_strikes = 0;            // consecutive congestion signals
    SimTime last_rate_increase_at;  // grace window anchor (EWMA lag)
    // Send rate at the last congestion collapse: recovery is fast below
    // half of it and cautious above (the ssthresh idea).
    double collapse_rate_bps = 0.0;  // 0 = never collapsed
    // Last decision, for observability.
    Representation last_rep = Representation::kFull;
    double last_fraction = 1.0;
    std::uint64_t frames_sent = 0;
    /// Frames steered by the conservative fallback because the client's
    /// monitoring feed was stale or dead.
    std::uint64_t stale_fallbacks = 0;
    /// Frames steered by the fallback because the feed, while updating,
    /// breached its staleness SLO budget (d-mon's watchdog flagged it).
    std::uint64_t slo_distrusts = 0;
    /// Frames steered by the fallback because the client's self-published
    /// health score (dproc_health_score) fell below the trust threshold —
    /// the node itself says its monitoring path is degraded, often before
    /// individual samples start missing their staleness SLO.
    std::uint64_t health_distrusts = 0;
  };

  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }
  [[nodiscard]] const ClientState* client(net::NodeId node) const;

 private:
  void on_accept(net::TcpConnection::Ptr conn);
  void tick();
  void send_frame(ClientState& client, const workload::MdFrame& frame);

  /// Reads a client's dproc metric; `fallback` when no data has arrived.
  [[nodiscard]] double metric(net::NodeId node, const std::string& key,
                              double fallback) const;

  /// True when the client's monitoring feed can no longer be trusted:
  /// d-mon marked the peer dead, or stale with old data cached (a peer
  /// that never produced data yet is merely warming up, not degraded).
  [[nodiscard]] bool feed_degraded(net::NodeId node) const;

  void update_bandwidth_estimate(ClientState& client);
  /// Chooses (representation, fraction) for this client per the policy.
  [[nodiscard]] std::pair<Representation, double> choose(ClientState& client);

  /// Stamps the decision hop for the freshest traced metric the dynamic
  /// policy consulted, closing the publish → decision causal chain. No-op
  /// unless tracing is enabled and a consulted value carried a trace id.
  void note_decision(const ClientState& client);

  /// Flight-records a fallback decision (reason: 0 = stale/dead feed,
  /// 1 = staleness-SLO breach, 2 = health-score distrust). Branch-only
  /// when the recorder is off.
  void note_trust_drop(net::NodeId node, std::uint64_t reason);

  host::Host& host_;
  net::Nic& nic_;
  core::DMon* dmon_;
  ServerConfig config_;
  workload::MdFrameSource source_;

  std::unique_ptr<net::TcpListener> listener_;
  std::vector<net::TcpConnection::Ptr> pending_;  // connected, not subscribed
  std::map<net::NodeId, ClientState> clients_;
  sim::EventHandle frame_timer_;
};

}  // namespace dproc::smartpointer
