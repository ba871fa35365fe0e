// The zone-overlay publish route of a d-mon (hierarchy.hpp holds the layout
// and roll-up state machines it drives). DMon::start() creates one only
// with HierarchyConfig::enabled and a node inside the shared layout. Each
// poll it publishes the node's batch into its leaf zone's acting aggregator
// (a local fold when that is this node), then republishes every roll-up
// this node acts for, until the root's summary reaches the summary channel.
// It calls back into the d-mon only through its publish and intake helpers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "dproc/core/dmon.hpp"
#include "dproc/core/hierarchy.hpp"

namespace dproc::core {

class ZoneOverlay {
 public:
  /// Joins the summary, control and zone channels this node's duties need
  /// and registers the overlay's procfs files. nullptr when `dmon`'s node
  /// lies outside the layout (or there is no layout): it then runs flat.
  static std::unique_ptr<ZoneOverlay> start(DMon& dmon);

  ZoneOverlay(DMon& dmon, const HierarchyLayout& layout);
  ZoneOverlay(const ZoneOverlay&) = delete;
  ZoneOverlay& operator=(const ZoneOverlay&) = delete;

  /// The route's poll step: leaf publication, then roll-up duty. Returns
  /// the deliveries the collateral charge bills — one per submitted event,
  /// each reaching one aggregator or a zone channel's few candidates.
  std::size_t publish(std::vector<MetricSample>& sorted, PollRecord& record);

  /// Census predicate: a zone mate's raw feed reaches only the acting
  /// aggregator of the leaf zone, so only there can it go stale.
  [[nodiscard]] bool routed(net::NodeId peer) const;

  /// The acting aggregator this node derives for a zone: the first
  /// election candidate not believed dead by the local membership view.
  [[nodiscard]] std::optional<std::size_t> acting(std::uint32_t zone_id) const;

  [[nodiscard]] const net::AggregateBatch* summary() const {
    return summary_valid_ ? &summary_ : nullptr;
  }
  [[nodiscard]] SimTime summary_at() const { return summary_at_; }

  /// A rebooted monitor has no roll-up or membership memory: the
  /// keyframed zone feeds reconverge it.
  void reset();

 private:
  /// Aggregator duty for one zone this node is an election candidate for.
  /// Every node has at least its leaf duty (the first); standby candidates
  /// keep the state warm so failover needs no handoff protocol.
  struct Duty {
    const HierarchyZone* zone = nullptr;
    ZoneRollup rollup;
    kecho::Channel* channel = nullptr;         // channel(zone)
    kecho::Channel* parent_channel = nullptr;  // channel(parent)/summary
    /// Latest aggregate this node built for the zone (procfs rendering).
    net::AggregateBatch last_built;
    SimTime last_built_at;
    bool last_built_valid = false;
  };
  struct TierTelemetry {
    telemetry::Counter* tx_events = nullptr;
    telemetry::Counter* tx_bytes = nullptr;
    telemetry::Counter* rx_events = nullptr;
    telemetry::Counter* rx_bytes = nullptr;
  };

  /// Joins the summary and control channels (per `subscriber` and root
  /// candidacy) and every duty zone's own and parent channel.
  void join(bool subscriber);
  kecho::Channel* join_zone_channel(std::uint32_t zone_id);
  void register_files();
  [[nodiscard]] Duty* duty_of(std::uint32_t zone_id);
  [[nodiscard]] bool alive(std::size_t node) const;
  void on_membership(kecho::MemberEventKind kind, net::NodeId node);
  /// Summary-channel intake: the root summary; raw frames from flat
  /// publishers go to the d-mon's own intake.
  void on_summary_event(const kecho::Event& event);
  void on_zone_event(std::uint32_t zone_id, const kecho::Event& event);
  /// Leaf publication into the zone aggregator — a single-member submit,
  /// or a local fold (no wire frame) when this node is itself acting.
  void submit_leaf(std::vector<MetricSample>& sorted, PollRecord& record);
  /// Builds and republishes every acting zone's roll-up to the parent tier
  /// (the root's goes to the summary channel).
  void publish_rollups(PollRecord& record);
  /// Counts one overlay frame sent (`rx` false) or received at `tier`.
  void count_tier(std::size_t tier, bool rx, std::uint64_t bytes);

  DMon& dmon_;
  const HierarchyLayout& layout_;
  const std::size_t self_;
  const HierarchyZone& leaf_;
  std::vector<Duty> duties_;  // leaf duty first
  std::map<std::uint32_t, kecho::Channel*> zone_channels_;
  /// Nodes this d-mon believes dead (membership evictions/leaves) — the
  /// local view the deterministic election runs against.
  std::set<std::size_t> dead_;
  net::AggregateBatch summary_;  // latest root summary
  SimTime summary_at_;
  bool summary_valid_ = false;

  net::MonitorBatch batch_;           // this period's leaf batch
  net::AggregateBatch agg_scratch_;   // outgoing roll-up
  net::AggregateBatch agg_rx_;        // incoming roll-up

  std::vector<TierTelemetry> tm_tier_;  // indexed by publishing zone tier
  telemetry::Counter* tm_rollups_ = nullptr;
};

}  // namespace dproc::core
