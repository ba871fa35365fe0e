#include "zone_overlay.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "dproc/net/fabric.hpp"
#include "dproc/util/logging.hpp"

namespace dproc::core {

namespace {

net::MessagePtr encode_aggregate(const net::AggregateBatch& batch) {
  net::ByteWriter w;
  w.reserve(1 + batch.encoded_bytes());
  w.u8(DMon::kOpAggregate);
  batch.encode(w);
  return net::make_message(w.take());
}

/// Renders one metric's roll-up from an AggregateBatch for procfs (the
/// zone-summary and cluster-rollup files).
std::string render_aggregate_entry(const net::AggregateBatch& batch,
                                   MetricId id, SimTime now, SimTime built_at,
                                   const net::Fabric& fabric) {
  const net::AggregateBatch::Entry* entry = nullptr;
  for (const net::AggregateBatch::Entry& e : batch.entries) {
    if (e.id == id) {
      entry = &e;
      break;
    }
  }
  if (entry == nullptr) return "no data\n";
  std::ostringstream out;
  out << std::setprecision(12);
  out << "count " << entry->count << "\n";
  if (batch.has(net::AggregateBatch::kFlagMean) && entry->count > 0) {
    out << "mean " << (entry->sum / static_cast<double>(entry->count)) << "\n";
  }
  if (batch.has(net::AggregateBatch::kFlagMin)) {
    out << "min " << entry->min << "\n";
  }
  if (batch.has(net::AggregateBatch::kFlagMax)) {
    out << "max " << entry->max << "\n";
  }
  out << "latest_age_s " << (now - SimTime{entry->latest_ns}).sec() << "\n"
      << "built_age_s " << (now - built_at).sec() << "\n";
  for (const net::AggregateBatch::Top& top : entry->top) {
    out << "top ";
    if (top.node < fabric.node_count()) {
      out << fabric.node_name(top.node);
    } else {
      out << top.node;
    }
    out << " " << top.value << "\n";
  }
  return out.str();
}

}  // namespace

std::unique_ptr<ZoneOverlay> ZoneOverlay::start(DMon& dmon) {
  const HierarchyLayout* layout = dmon.config_.hierarchy_layout.get();
  if (layout == nullptr) return nullptr;
  const std::size_t self = dmon.nic_.node();
  if (self >= layout->node_count()) {
    // Outside the layout (a late-added node): fall back to the flat stack
    // rather than publishing into zones nobody aggregates.
    DPROC_WARN() << "dmon " << self
                 << ": node outside the hierarchy layout; running flat";
    return nullptr;
  }
  auto overlay = std::make_unique<ZoneOverlay>(dmon, *layout);
  const auto& subscribers = dmon.config_.hierarchy.subscribers;
  overlay->join(!subscribers ||
                std::find(subscribers->begin(), subscribers->end(), self) !=
                    subscribers->end());
  overlay->register_files();
  return overlay;
}

ZoneOverlay::ZoneOverlay(DMon& dmon, const HierarchyLayout& layout)
    : dmon_(dmon),
      layout_(layout),
      self_(dmon.nic_.node()),
      leaf_(layout.leaf_of(self_)) {
  dmon_.kecho_.add_membership_listener(
      [this](kecho::MemberEventKind kind, net::NodeId node) {
        on_membership(kind, node);
      });
}

void ZoneOverlay::join(bool subscriber) {
  const std::vector<std::uint32_t> duty_ids = layout_.duty_zones(self_);
  const bool root_candidate =
      std::find(duty_ids.begin(), duty_ids.end(), layout_.root().id) !=
      duty_ids.end();
  // Summary membership: subscribers (to read) and root candidates (to
  // publish). The control channel stays subscriber-scoped — zone traffic
  // never rides it.
  dmon_.join_flat_channels(subscriber || root_candidate, subscriber);
  kecho::Channel* summary = dmon_.monitor_channel_;
  if (summary != nullptr) {
    summary->set_handler(
        [this](const kecho::Event& event) { on_summary_event(event); });
  }
  for (const std::uint32_t zid : duty_ids) {
    Duty duty;
    duty.zone = &layout_.zone(zid);
    duty.channel = join_zone_channel(zid);
    duty.parent_channel = duty.zone->parent
                              ? join_zone_channel(*duty.zone->parent)
                              : summary;
    duties_.push_back(std::move(duty));
  }

  telemetry::Registry& tm = dmon_.host_.telemetry();
  tm_tier_.resize(layout_.tiers());
  for (std::uint32_t tier = 0; tier < layout_.tiers(); ++tier) {
    const std::string prefix = "t" + std::to_string(tier) + "_";
    tm_tier_[tier].tx_events = &tm.counter("hier", prefix + "tx_events");
    tm_tier_[tier].tx_bytes = &tm.counter("hier", prefix + "tx_bytes");
    tm_tier_[tier].rx_events = &tm.counter("hier", prefix + "rx_events");
    tm_tier_[tier].rx_bytes = &tm.counter("hier", prefix + "rx_bytes");
  }
  tm_rollups_ = &tm.counter("hier", "rollup_publishes");
}

kecho::Channel* ZoneOverlay::join_zone_channel(std::uint32_t zone_id) {
  auto it = zone_channels_.find(zone_id);
  if (it != zone_channels_.end()) return it->second;
  kecho::Channel& channel = dmon_.kecho_.join(
      dmon_.config_.monitor_channel + "." + layout_.zone(zone_id).name);
  channel.set_handler([this, zone_id](const kecho::Event& event) {
    on_zone_event(zone_id, event);
  });
  zone_channels_[zone_id] = &channel;
  return &channel;
}

void ZoneOverlay::register_files() {
  dmon_.register_file("/proc/dproc/hierarchy", [this] {
    const HierarchyConfig& config = dmon_.config_.hierarchy;
    std::ostringstream out;
    out << "zones " << layout_.zones().size() << " tiers " << layout_.tiers()
        << " zone_size " << config.zone_size << " fanout " << config.fanout
        << "\n"
        << "leaf " << leaf_.name << "\n";
    for (const Duty& duty : duties_) {
      const auto act = acting(duty.zone->id);
      out << "duty " << duty.zone->name << " acting ";
      if (act) {
        out << *act;
        if (*act == self_) out << " (self)";
      } else {
        out << "-";
      }
      out << " origins " << duty.rollup.origin_count() << " children "
          << duty.rollup.child_count() << "\n";
    }
    out << "summary " << (summary_valid_ ? "valid" : "none");
    if (summary_valid_) {
      out << " entries " << summary_.entries.size() << " age_s "
          << (dmon_.host_now() - summary_at_).sec();
    }
    out << "\n";
    return out.str();
  });
  // Cluster-wide roll-up files at summary members. /proc/cluster/summary
  // belongs to the application-level ClusterAggregator; the overlay renders
  // under /proc/cluster/rollup.
  if (dmon_.monitor_channel_ != nullptr) {
    for (const MetricDesc& desc : dmon_.metric_table()) {
      const MetricId id = desc.id;
      dmon_.register_file("/proc/cluster/rollup/" + desc.path, [this, id] {
        if (!summary_valid_) return std::string{"no data\n"};
        return render_aggregate_entry(summary_, id, dmon_.host_now(),
                                      summary_at_, dmon_.nic_.fabric());
      });
    }
  }
  // Zone summaries at every candidate (whichever candidate is acting, the
  // standbys' copies go stale rather than vanish).
  for (const Duty& duty : duties_) {
    const std::string base = "/proc/cluster/zones/" + duty.zone->name + "/";
    for (const MetricDesc& desc : dmon_.metric_table()) {
      const MetricId id = desc.id;
      dmon_.register_file(base + desc.path, [this, &duty, id] {
        if (!duty.last_built_valid) return std::string{"no data\n"};
        return render_aggregate_entry(duty.last_built, id, dmon_.host_now(),
                                      duty.last_built_at, dmon_.nic_.fabric());
      });
    }
  }
}

bool ZoneOverlay::alive(std::size_t node) const {
  return node == self_ || dead_.find(node) == dead_.end();
}

std::optional<std::size_t> ZoneOverlay::acting(std::uint32_t zone_id) const {
  if (zone_id >= layout_.zones().size()) return std::nullopt;
  return layout_.acting(layout_.zone(zone_id),
                        [this](std::size_t node) { return alive(node); });
}

bool ZoneOverlay::routed(net::NodeId peer) const {
  return leaf_.contains(peer) && acting(leaf_.id) == self_;
}

ZoneOverlay::Duty* ZoneOverlay::duty_of(std::uint32_t zone_id) {
  for (Duty& duty : duties_) {
    if (duty.zone->id == zone_id) return &duty;
  }
  return nullptr;
}

void ZoneOverlay::reset() {
  for (Duty& duty : duties_) {
    duty.rollup.clear();
    duty.last_built_valid = false;
  }
  dead_.clear();
  summary_valid_ = false;
}

void ZoneOverlay::on_membership(kecho::MemberEventKind kind,
                                net::NodeId node) {
  // The election's shared membership view: every candidate derives the
  // acting aggregator from the same events, so leaves, standbys and
  // parents converge on the same answer without a protocol.
  if (kind == kecho::MemberEventKind::kJoined) {
    dead_.erase(node);
    return;
  }
  dead_.insert(node);
  if (kind == kecho::MemberEventKind::kLeft) {
    // A confirmed departure's samples must not linger in the roll-up.
    for (Duty& duty : duties_) duty.rollup.forget_origin(node);
  }
}

void ZoneOverlay::count_tier(std::size_t tier, bool rx, std::uint64_t bytes) {
  if (tier >= tm_tier_.size()) return;
  const TierTelemetry& t = tm_tier_[tier];
  (rx ? t.rx_events : t.tx_events)->add();
  (rx ? t.rx_bytes : t.tx_bytes)->add(bytes);
}

void ZoneOverlay::on_summary_event(const kecho::Event& event) {
  net::ByteReader r{event.payload_header()};
  if (r.u8() != DMon::kOpAggregate) {
    dmon_.on_monitor_event(event);
    return;
  }
  // The root summary arriving at a subscriber (or standby root candidate,
  // keeping its failover state warm).
  if (!net::AggregateBatch::decode(r, agg_rx_)) {
    DPROC_WARN() << "dmon " << self_ << ": malformed aggregate event from "
                 << event.source;
    return;
  }
  summary_ = agg_rx_;
  summary_at_ = dmon_.host_now();
  summary_valid_ = true;
  count_tier(agg_rx_.tier, /*rx=*/true, event.payload_size());
  dmon_.note_render(event, dmon_.config_.monitor_channel, nullptr);
  dmon_.charge_intake();
}

void ZoneOverlay::on_zone_event(std::uint32_t zone_id,
                                const kecho::Event& event) {
  net::ByteReader r{event.payload_header()};
  const std::uint8_t op = r.u8();
  Duty* duty = duty_of(zone_id);
  if (duty == nullptr) return;
  const SimTime now = dmon_.host_now();
  if (op == DMon::kOpMonitorBatch) {
    // A zone member's raw feed into its leaf aggregator; the aggregator's
    // own procfs view of its zone mates stays live too.
    if (duty->zone->tier != 0) return;
    const net::MonitorBatch* batch = dmon_.take_raw_batch(event, r);
    if (batch == nullptr) return;
    duty->rollup.update_origin(event.source, *batch, now);
    count_tier(0, /*rx=*/true, event.payload_size());
    return;
  }
  if (op != DMon::kOpAggregate) return;
  // A child zone's roll-up on this (parent) zone's channel. Sibling
  // candidates overhear it too — only a candidate of the parent folds, and
  // only frames whose zone really is a child (the zone id doubles as the
  // overwrite key, so a re-elected child aggregator republishing the same
  // zone never double-counts).
  if (!net::AggregateBatch::decode(r, agg_rx_)) {
    DPROC_WARN() << "dmon " << self_ << ": malformed aggregate from "
                 << event.source;
    return;
  }
  const auto& zones = layout_.zones();
  if (agg_rx_.zone >= zones.size() || zones[agg_rx_.zone].parent != zone_id) {
    return;
  }
  duty->rollup.update_child(agg_rx_, now);
  count_tier(agg_rx_.tier, /*rx=*/true, event.payload_size());
  dmon_.charge_intake();
}

std::size_t ZoneOverlay::publish(std::vector<MetricSample>& sorted,
                                 PollRecord& record) {
  submit_leaf(sorted, record);
  publish_rollups(record);
  return record.events_submitted;
}

void ZoneOverlay::submit_leaf(std::vector<MetricSample>& sorted,
                              PollRecord& record) {
  const auto act = acting(leaf_.id);
  if (!act) return;
  Duty& leaf = duties_.front();
  if (*act == self_) {
    // This node is its own aggregator: fold locally, no loopback frame.
    if (!dmon_.build_publish_batch(sorted, record, batch_)) return;
    leaf.rollup.update_origin(static_cast<std::uint32_t>(self_), batch_,
                              dmon_.host_now());
    return;
  }
  kecho::Channel* channel = leaf.channel;
  if (!channel->ready()) return;
  if (!dmon_.build_publish_batch(sorted, record, batch_)) return;
  const net::MessagePtr frame = DMon::encode_batch(batch_);
  record.submit_cost += channel->submit_to(
      static_cast<net::NodeId>(*act), frame, dmon_.begin_trace(channel->id()));
  dmon_.count_batch_submit(record, batch_);
  count_tier(0, /*rx=*/false, frame->size());
}

void ZoneOverlay::publish_rollups(PollRecord& record) {
  const DmonConfig& config = dmon_.config_;
  const SimTime now = dmon_.host_now();
  const SimDuration horizon =
      config.poll_period * static_cast<double>(config.stale_after_periods);
  for (Duty& duty : duties_) {
    const auto act = acting(duty.zone->id);
    if (!act || *act != self_) continue;
    if (!duty.rollup.build(agg_scratch_, config.hierarchy.rollup, now,
                           horizon)) {
      continue;
    }
    agg_scratch_.tier = static_cast<std::uint8_t>(duty.zone->tier);
    agg_scratch_.zone = duty.zone->id;
    duty.last_built = agg_scratch_;
    duty.last_built_at = now;
    duty.last_built_valid = true;
    tm_rollups_->add();
    if (duty.zone->parent) {
      // Fold into our own parent duty directly (a submit never loops back
      // to the sender); the wire copy keeps the other parent candidates'
      // standby state warm for failover.
      if (Duty* parent = duty_of(*duty.zone->parent)) {
        parent->rollup.update_child(agg_scratch_, now);
      }
    } else {
      summary_ = agg_scratch_;
      summary_at_ = now;
      summary_valid_ = true;
    }
    kecho::Channel* up = duty.parent_channel;
    if (up == nullptr || !up->ready() || up->remote_member_count() == 0) {
      continue;
    }
    const net::MessagePtr frame = encode_aggregate(agg_scratch_);
    record.submit_cost += up->submit(frame, dmon_.begin_trace(up->id()));
    ++record.events_submitted;
    count_tier(duty.zone->tier, /*rx=*/false, frame->size());
  }
}

}  // namespace dproc::core
