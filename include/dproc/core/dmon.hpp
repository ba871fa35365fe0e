// d-mon: the distributed monitor coordinator (one per kernel).
//
// Responsibilities, mirroring §2 of the paper:
//  * joins the cluster's monitoring and control KECho channels;
//  * maintains a registry of monitoring modules and polls them each period
//    through their callbacks;
//  * applies the publisher tuning (parameters, differential filter, E-code
//    filters) and submits the surviving samples, grouped per module into
//    50–100 byte events;
//  * drains incoming events at each poll: monitoring events update the
//    /proc/cluster/<node>/... pseudo-files, control events retune this
//    publisher (including dynamic filter compilation);
//  * exposes everything through procfs, including a `control` file per
//    remote node used to deploy parameters and filters there.
//
// start() picks one publish route, which poll() then runs each period:
// per-module frames, batch frames, or the zone overlay
// (src/core/zone_overlay.cpp), which owns the overlay's channels, state
// and files.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dproc/core/adapt.hpp"
#include "dproc/core/health.hpp"
#include "dproc/core/hierarchy.hpp"
#include "dproc/core/monitors.hpp"
#include "dproc/core/tuning.hpp"
#include "dproc/kecho/node.hpp"
#include "dproc/procfs/procfs.hpp"
#include "dproc/util/flat_map.hpp"
#include "dproc/util/stats.hpp"

namespace dproc::core {

/// Calibration knobs for kernel-path costs that are not already covered by
/// the KECho cost model. Values are cycles on the reference 200 MHz CPU;
/// EXPERIMENTS.md discusses the calibration against the paper's figures.
struct OverheadModel {
  double collect_cycles_per_module = 2500;
  double procfs_update_cycles_per_event = 2500;
  double control_apply_cycles = 20000;
  double filter_compile_cycles_per_byte = 400;  // dynamic code generation
  double filter_exec_cycles_per_insn = 8;
  /// Indirect perturbation per event (cache pollution, softirq work,
  /// deferred bookkeeping). Charged to the kernel class but *outside* the
  /// rdtsc-measured submit/receive windows, like the real costs it models.
  double collateral_cycles_per_event = 40000;
};

/// Causal tracing and the staleness SLO watchdog. Disabled by default:
/// no trace context is appended to frames (byte-identical wire format),
/// no hops are recorded, and the watchdog never fires — the golden trace
/// and the benchmarks are untouched.
struct TraceConfig {
  bool enabled = false;
  /// Per-channel-name end-to-end staleness budgets (publish stamp → render
  /// at the consumer), e.g. {"dproc.monitor", 250 ms}. A channel without
  /// an entry, or with a zero budget, has no watchdog.
  std::vector<std::pair<std::string, SimDuration>> channel_slo;

  [[nodiscard]] SimDuration slo_for(const std::string& channel) const {
    for (const auto& [name, budget] : channel_slo) {
      if (name == channel) return budget;
    }
    return SimDuration::zero();
  }
};

/// Per-period batch publishing, delta suppression and interest-scoped
/// fan-out. Everything defaults off: the wire format, the golden trace and
/// the baseline benchmarks are byte-identical to per-module publishing.
struct BatchConfig {
  /// Coalesce every module's post-filter samples into one MonitorBatch
  /// frame per poll period — one KECho submit (base cost, frame header,
  /// trace trailer) instead of one per module.
  bool enabled = false;
  /// Delta suppression: a batch entry whose value moved by no more than
  /// epsilon since this publisher last sent it is skipped. Negative
  /// disables. Only applies when `enabled`.
  double delta_epsilon = -1.0;
  /// Every Nth batch is a keyframe carrying all post-filter samples
  /// regardless of delta suppression, so restarted peers (whose caches are
  /// empty) converge within N periods. Values <= 1 make every batch a
  /// keyframe. Only meaningful with delta suppression on.
  int keyframe_every = 10;
  /// Honour peers' declared per-module interest sets (declare_interest):
  /// each channel member receives only the modules it registered for, via
  /// KECho's per-member payload selection — a node that only reads
  /// /proc/cluster/<n>/cpu never receives DISK/NET bytes. Peers that never
  /// declared anything receive the full batch. Only applies when `enabled`.
  bool interest = false;
};

/// Sketch-backed top-k support (off by default: filters using the sketch
/// builtins are rejected at compile time, no sketch state exists, and the
/// golden trace is byte-identical). When enabled, d-mon accepts the sketch
/// builtins in deployed filters and binds the first registered
/// TopKMonitor's sketch as their host; later TopKMonitors become auxiliary
/// sketches addressable via skmerge(i).
struct SketchConfig {
  bool enabled = false;
  /// Ranks a TopKMonitor publishes and refreshes for topk()/topkid().
  std::size_t k = 8;
  /// Sizing of sketches built by the cluster builder's standard modules.
  SketchParams params{};
};

struct DmonConfig {
  SimDuration poll_period = seconds(1.0);
  std::string monitor_channel = "dproc.monitor";
  std::string control_channel = "dproc.control";
  OverheadModel overheads{};
  /// A peer's feed is flagged stale after this many poll periods without a
  /// monitoring update (graceful degradation under churn and partitions).
  int stale_after_periods = 3;
  /// Causal tracing + staleness SLO watchdog (off by default).
  TraceConfig trace{};
  /// Batched publishing, delta suppression, interest fan-out (off by
  /// default).
  BatchConfig batch{};
  /// Self-adapting periods under an overhead budget (off by default; see
  /// adapt.hpp). Regions are built from the modules registered before
  /// start(); later registrations keep their static periods.
  AdaptConfig adapt{};
  /// Hierarchical aggregation overlay (off by default; see hierarchy.hpp).
  HierarchyConfig hierarchy{};
  /// Health engine: history rings, health score, incident bundles (off by
  /// default; see health.hpp). Requires host telemetry to be meaningful —
  /// the cluster builder normalizes health.enabled => self_monitor.
  HealthConfig health{};
  /// The cluster-wide zone layout, built once (build_hierarchy) and shared
  /// by every d-mon so they all derive identical election answers. Required
  /// when hierarchy.enabled; ignored otherwise.
  std::shared_ptr<const HierarchyLayout> hierarchy_layout;
  /// Sketch-backed top-k filter support (off by default; see SketchConfig).
  SketchConfig sketch{};
};

/// Degradation state of one peer's monitoring feed, derived from update
/// recency and KECho membership events:
///  * kLive  — updating within the staleness horizon;
///  * kStale — silent past stale_after_periods poll periods, but not (yet)
///             evicted: consumers should distrust the cached values;
///  * kDead  — evicted from the monitoring channel (or never known).
enum class PeerState : std::uint8_t { kLive, kStale, kDead };
[[nodiscard]] const char* to_string(PeerState state);

struct PeerHealth {
  PeerState state = PeerState::kDead;
  SimTime last_update;    // last monitoring event from the peer
  bool has_data = false;  // any update since this d-mon (re)started
  /// False while the feed has a staleness-SLO violation inside the
  /// staleness horizon; consumers should distrust the cached values.
  bool slo_ok = true;
};

/// Per-poll measurements (what the paper's rdtsc instrumentation reports).
struct PollRecord {
  SimDuration submit_cost{0};
  SimDuration receive_cost{0};
  std::size_t events_submitted = 0;
  std::size_t events_received = 0;
  std::uint64_t filter_instructions = 0;
  /// Samples actually published this period (post-filter, post-delta).
  std::size_t samples_published = 0;
  /// Batch entries skipped by delta suppression this period.
  std::size_t delta_suppressed = 0;
  /// The batch published this period carried the keyframe flag.
  bool keyframe = false;
};

class ZoneOverlay;

/// Contiguous metric-id range owned by one monitoring module.
struct MetricRange {
  MetricId first = 0;
  std::size_t count = 0;
};

/// Partitions `sorted` (ascending metric id) into one group per range
/// (`groups` is reset to ranges.size() entries). A sample whose id falls
/// outside every range — a stale or never-registered id emitted by a
/// filter — is grouped nowhere: it must not ride along in a neighbouring
/// module's frame under the wrong module. Returns the stray count.
/// `ranges` must be ascending and disjoint (d-mon's are contiguous from 0).
std::size_t group_by_range(const std::vector<MetricSample>& sorted,
                           const std::vector<MetricRange>& ranges,
                           std::vector<std::vector<MetricSample>>& groups);

class DMon {
 public:
  /// Frame ops: the first payload byte of every d-mon event.
  /// kOpAggregate (a zone roll-up, tier-up) rides only the zone overlay.
  enum Op : std::uint8_t {
    kOpMonitor = 1, kOpControl = 2, kOpMonitorBatch = 3, kOpInterest = 4,
    kOpAggregate = 5,
  };

  DMon(host::Host& host, net::Nic& nic, kecho::Node& kecho,
       procfs::ProcFs& procfs, DmonConfig config = {});
  ~DMon();
  DMon(const DMon&) = delete;
  DMon& operator=(const DMon&) = delete;

  /// Registers a monitoring module (before or after start()); assigns
  /// cluster-convention metric ids and creates the local pseudo-files.
  void register_module(std::unique_ptr<MonitoringModule> module);

  /// The shared procfs subtree (metric files, `status`, `control`) every
  /// declared peer's /proc/cluster/<name> directory is bound to, with the
  /// peer's node id as the binding's context.
  static constexpr std::string_view kPeerTree = "peer";

  /// Declares a peer node: binds /proc/cluster/<name> to the shared peer
  /// subtree, including the control file through which applications
  /// retune that node. Re-declaring a peer under a new name moves the
  /// binding; its departure removes it. A name that is one of the
  /// cluster's own /proc/cluster entries (health, summary, rollup, zones)
  /// is refused: the peer's feed is still tracked, but it gets no files,
  /// counts one procfs conflict, and its departure removes nothing. A
  /// re-declaration of a known peer under such a name keeps its old name
  /// and files.
  void add_peer(net::NodeId node, const std::string& name);

  /// Joins the channels and starts the periodic polling loop.
  void start();
  void stop();

  /// Restart after a crash: clears every peer's cached data and health
  /// (a rebooted monitor has no memory of the old values) and starts the
  /// polling loop again. The kecho node must have been restart()ed first.
  void restart();

  /// One polling iteration (normally driven by the internal timer; exposed
  /// for tests and microbenchmarks). Publishes nothing before start().
  PollRecord poll();

  // --- observation ------------------------------------------------------

  [[nodiscard]] const PollRecord& last_poll() const { return last_poll_; }
  [[nodiscard]] const StreamingStats& submit_cost_us() const {
    return submit_cost_us_;
  }
  [[nodiscard]] const StreamingStats& receive_cost_us() const {
    return receive_cost_us_;
  }
  [[nodiscard]] PublisherTuning& tuning() { return *tuning_; }
  [[nodiscard]] const std::vector<MetricDesc>& metric_table() const {
    return metric_table_;
  }
  [[nodiscard]] std::optional<MetricId> metric_id(const std::string& key) const;

  /// The node's current simulated time (for staleness checks).
  [[nodiscard]] SimTime host_now() const { return host_.engine().now(); }

  /// This node's latest locally collected value for a metric.
  [[nodiscard]] const MetricSample* local_metric(MetricId id) const {
    if (id >= last_collected_.size()) return nullptr;
    return &last_collected_[id];
  }

  /// Visits every declared peer: fn(node, name).
  template <typename Fn>
  void for_each_peer(Fn&& fn) const {
    for (const auto [node, peer] : peers_) fn(node, peer.name);
  }

  /// Observer invoked after each poll's collection phase with the full
  /// local sample vector (tests, benchmarks, ...).
  using SampleObserver =
      std::function<void(const std::vector<MetricSample>&, SimTime)>;
  void add_sample_observer(SampleObserver observer) {
    sample_observers_.push_back(std::move(observer));
  }

  /// Health of a declared peer's feed; nullopt for undeclared peers.
  [[nodiscard]] std::optional<PeerHealth> peer_health(net::NodeId node) const;
  /// Convenience: kDead for undeclared peers.
  [[nodiscard]] PeerState peer_state(net::NodeId node) const;

  /// SLO watchdog verdict on a peer's monitoring feed: false while the
  /// peer has an end-to-end staleness violation within the staleness
  /// horizon (sticky so one late burst keeps the feed distrusted until
  /// fresh in-budget updates age it out). Undeclared peers report true —
  /// distrust for *missing* data is peer_state()'s job.
  [[nodiscard]] bool feed_within_slo(net::NodeId node) const;
  /// End-to-end violations the watchdog has flagged on this consumer.
  [[nodiscard]] std::uint64_t slo_violations() const {
    return tm_slo_violations_.value();
  }

  /// KECho channel id of the monitoring channel (0 before start()); trace
  /// consumers use it to stamp decision hops on the right channel.
  [[nodiscard]] kecho::ChannelId monitor_channel_id() const {
    return monitor_channel_ != nullptr ? monitor_channel_->id() : 0;
  }

  /// Latest value received from a peer, if any.
  [[nodiscard]] const RemoteMetric* remote_metric(net::NodeId node,
                                                  MetricId id) const;
  /// Convenience: remote metric by key.
  [[nodiscard]] const RemoteMetric* remote_metric(net::NodeId node,
                                                  const std::string& key) const;

  /// Applies a tuning request locally, as if it had arrived on the control
  /// channel (used by tests and by the node's own applications).
  Status apply_tuning(const TuningConfig& config);

  /// Sends a tuning request to a peer over the control channel.
  Status send_tuning(net::NodeId target, const TuningConfig& config);

  [[nodiscard]] const std::string& last_control_error() const {
    return last_control_error_;
  }

  /// The period-adaptation controller; nullptr until start() with
  /// DmonConfig::adapt.enabled.
  [[nodiscard]] PeriodController* adaptation() { return adapter_.get(); }
  [[nodiscard]] const PeriodController* adaptation() const {
    return adapter_.get();
  }

  /// The health engine; nullptr unless DmonConfig::health.enabled.
  [[nodiscard]] HealthEngine* health_engine() { return health_.get(); }
  [[nodiscard]] const HealthEngine* health_engine() const {
    return health_.get();
  }

  /// Health-score trust verdict on a peer: false when the peer's published
  /// dproc_health_score (its own self-assessment, received over the
  /// monitoring channel) sits below the configured trust threshold. True
  /// with the health engine off, for undeclared peers, and before the
  /// first score arrives — missing data is peer_state()'s job.
  [[nodiscard]] bool peer_health_ok(net::NodeId node) const;

  // --- interest-scoped fan-out -------------------------------------------

  /// Broadcasts this node's module interest set on the control channel:
  /// publishers running with BatchConfig::interest then send this node only
  /// the listed modules' samples. An empty list restores the default
  /// (interested in everything). The declaration is remembered and
  /// re-broadcast whenever a new peer joins, so publishers that come up
  /// later converge without application help. Also writable as module names
  /// through /proc/dproc/interest ("all" clears).
  Status declare_interest(std::vector<std::string> modules);

  /// Publisher-side view: the interest set `node` declared to us (sorted
  /// module names), or nullptr when it declared none. Peers that declared
  /// equal sets share one interned set object.
  [[nodiscard]] const std::vector<std::string>* peer_interest(
      net::NodeId node) const;

  // --- hierarchical aggregation overlay ----------------------------------

  /// True when this node runs the zone overlay (enabled config + layout,
  /// after start()).
  [[nodiscard]] bool hierarchy_active() const { return overlay_ != nullptr; }

  /// Latest root summary this node received (or built, at the acting
  /// root); nullptr before the first summary or with the overlay off.
  [[nodiscard]] const net::AggregateBatch* cluster_summary() const;
  [[nodiscard]] SimTime cluster_summary_at() const;

  /// The acting aggregator this node currently derives for a zone: the
  /// first election candidate not believed dead by the local membership
  /// view. nullopt off-hierarchy or when every candidate is down.
  [[nodiscard]] std::optional<std::size_t> zone_acting(
      std::uint32_t zone_id) const;

  // --- error / savings accounting (plain counters; the telemetry twins
  // --- only move when the registry is enabled) ---------------------------

  /// Module collections dropped for returning the wrong sample count.
  [[nodiscard]] std::uint64_t collect_errors() const { return collect_errors_; }
  /// Publish-ready samples whose id fit no registered module range.
  [[nodiscard]] std::uint64_t stray_samples() const { return stray_samples_; }
  /// Wire bytes avoided by interest-filtered fan-out versus sending every
  /// member the full batch frame.
  [[nodiscard]] std::uint64_t interest_bytes_saved() const {
    return interest_bytes_saved_;
  }
  /// Batch entries skipped by delta suppression since start.
  [[nodiscard]] std::uint64_t delta_suppressed_total() const {
    return delta_suppressed_total_;
  }
  /// /proc files that could not be created because their path clashes
  /// with an existing file or directory (shown in /proc/dproc/status).
  [[nodiscard]] std::uint64_t procfs_conflicts() const {
    return procfs_conflicts_;
  }
  /// Counts one failed /proc registration; warns on the first.
  void note_procfs_conflict(const std::string& path, const Status& status);

 private:
  friend class ZoneOverlay;

  struct ModuleEntry {
    std::unique_ptr<MonitoringModule> module;
    MetricId first_id = 0;
    std::size_t metric_count = 0;
  };
  struct Peer {
    std::string name;
    std::vector<RemoteMetric> metrics;  // indexed by metric id
    SimTime declared_at;   // staleness basis until the first update
    SimTime last_update;   // last monitoring event received
    bool has_data = false;
    bool dead = false;     // evicted from the monitoring channel
    bool slo_violated = false;     // any SLO violation observed yet
    SimTime last_slo_violation;    // most recent violation (watchdog)
    /// Last state the flight recorder saw; transitions are recorded at
    /// each poll's liveness scan (kPeerLive/kPeerStale/kPeerDead).
    PeerState last_state = PeerState::kLive;
  };

  static net::MessagePtr encode_batch(const net::MonitorBatch& batch);

  /// A publish route: publishes the period's post-filter samples (ascending
  /// ids) and returns the deliveries — submitted events times the members
  /// each reached — that the collateral charge bills.
  using PublishRoute =
      std::function<std::size_t(std::vector<MetricSample>&, PollRecord&)>;

  /// Picks this start()'s publish route and census predicate: the zone
  /// overlay when enabled and this node lies in the layout, else the flat
  /// channels with per-module or batch frames.
  void choose_route();
  /// Registers a /proc file, counting a path clash (note_procfs_conflict).
  void register_file(const std::string& path, procfs::ProcFs::ReadHandler read,
                     procfs::ProcFs::WriteHandler write = {});
  void on_monitor_event(const kecho::Event& event);
  void on_control_event(const kecho::Event& event);
  /// Stores a peer's interest declaration (control-channel kOpInterest).
  void on_interest_event(const kecho::Event& event, net::ByteReader& r);
  /// Points `node` at the interned copy of `modules` (sorted, deduped),
  /// interning it if new; an empty set forgets the peer's declaration.
  void set_peer_interest(net::NodeId node, std::vector<std::string> modules);
  /// This period's frame for members holding interest set `set`: the
  /// batch's entries from the set's modules, or nullptr when none match.
  [[nodiscard]] net::MessagePtr encode_interest_frame(
      const net::MonitorBatch& batch, const std::vector<std::string>& set);
  /// Legacy per-module publication (one frame per module with samples).
  void submit_per_module(std::vector<MetricSample>& sorted,
                         PollRecord& record);
  /// Batched publication: one MonitorBatch frame per period, with delta
  /// suppression, keyframes and (optionally) interest-filtered fan-out.
  void submit_batch(std::vector<MetricSample>& sorted, PollRecord& record);
  /// Builds this period's publish batch (stray removal, keyframe phase,
  /// delta suppression) into `batch`, updating the published-value cache
  /// and the record; false when nothing survives (no frame goes out).
  bool build_publish_batch(std::vector<MetricSample>& sorted,
                           PollRecord& record, net::MonitorBatch& batch);

  /// Joins the flat monitoring and/or control channel and installs their
  /// handlers.
  void join_flat_channels(bool monitor, bool control);
  /// Looks up (or lazily declares, from the fabric name table) the origin
  /// of a raw feed and marks it heard from now; nullptr for an undeclared
  /// origin that has departed and not rejoined, whose feed is dropped.
  Peer* refresh_peer(net::NodeId origin);
  /// Raw-batch intake: decodes a MonitorBatch body from `r` and applies it
  /// to the sender's peer entry (render hop, watchdog, intake charge).
  /// The decoded batch, or nullptr when the body is malformed.
  const net::MonitorBatch* take_raw_batch(const kecho::Event& event,
                                          net::ByteReader& r);
  /// Re-sends the local interest declaration (no-op before the control
  /// channel is ready; errors are ignored — the next join retries).
  void broadcast_interest();
  /// Counts samples outside every registered range; warns on first sight.
  void note_strays(std::size_t count);
  /// Allocates the next publish-side trace context (publish hop stamped);
  /// an invalid context, which submits untraced, when tracing is off.
  [[nodiscard]] net::TraceContext begin_trace(kecho::ChannelId channel);
  /// Stamps the render hop for a delivered traced event and runs the
  /// staleness-SLO watchdog against `slo_channel`'s budget.
  void note_render(const kecho::Event& event, const std::string& slo_channel,
                   Peer* peer);
  void on_membership(kecho::MemberEventKind kind, net::NodeId node);
  [[nodiscard]] PeerState state_of(const Peer& peer) const;
  void register_local_files(const ModuleEntry& entry);
  /// Registers a file of the shared peer subtree, counting a path clash.
  void register_peer_file(const std::string& path,
                          procfs::ProcFs::SharedReadHandler read,
                          procfs::ProcFs::SharedWriteHandler write = {});
  /// Adds the peer subtree's files for metric ids from `first` on.
  void register_peer_metric_files(MetricId first);
  /// Builds the peer subtree at the first binding: the metric files known
  /// so far, then `status` and `control`.
  void build_peer_tree();
  /// `node` gives up /proc/cluster/<name>: the binding passes to another
  /// peer declared under the same name, or is removed.
  void release_name(net::NodeId node, const std::string& name);
  void rebuild_tuning();
  void charge(double cycles);
  /// Bills one delivered event's procfs update, counted into this poll's
  /// receive cost.
  void charge_intake();
  /// Counts one submitted batch into the record and the batch telemetry.
  void count_batch_submit(PollRecord& record, const net::MonitorBatch& batch);
  /// Tail of every poll(): accumulates this poll's kernel cost into the
  /// adaptation window and, at interval boundaries, runs one controller
  /// round and applies the resulting adaptive periods.
  void run_adaptation(SimDuration kernel_before);
  /// Per-poll liveness scan: records peer state transitions into the
  /// flight recorder and, with the health engine on, feeds it the
  /// staleness census for this round.
  void scan_peer_health(SimTime now);

  host::Host& host_;
  net::Nic& nic_;
  kecho::Node& kecho_;
  procfs::ProcFs& procfs_;
  DmonConfig config_;

  std::vector<ModuleEntry> modules_;
  std::vector<MetricDesc> metric_table_;
  std::map<std::string, MetricId> metric_ids_;
  std::vector<MetricSample> last_collected_;  // local values, id order
  std::vector<MetricSample> collected_;  // poll()'s scratch, capacity kept

  std::unique_ptr<PublisherTuning> tuning_;
  /// Declared peers in ascending node order: the order every peer walk
  /// (liveness census, procfs views) visits them in.
  FlatMap<net::NodeId, Peer> peers_;
  /// Whether the shared peer subtree has been built (first add_peer).
  bool peer_tree_built_ = false;
  /// Nodes whose departure was confirmed and that have not rejoined.
  std::vector<net::NodeId> departed_;

  /// Bridge from the first TopKMonitor's sketch to the filter VM
  /// (DmonConfig::sketch; additional TopKMonitors register as auxiliaries).
  std::unique_ptr<FilterSketchBridge> sketch_bridge_;

  // --- health engine (DmonConfig::health; see health.hpp) ----------------
  std::unique_ptr<HealthEngine> health_;
  /// Cached metric id of the peers' published health score (resolved on
  /// first use; nullopt until DPROC_MON registers with health metrics).
  mutable std::optional<MetricId> health_score_id_;

  // --- period adaptation (DmonConfig::adapt; see adapt.hpp) --------------
  std::unique_ptr<PeriodController> adapter_;
  int adapt_poll_count_ = 0;            // polls since the last round
  SimDuration adapt_window_cost_{0};    // kernel cost over those polls

  kecho::Channel* monitor_channel_ = nullptr;
  kecho::Channel* control_channel_ = nullptr;
  /// The route start() chose; a d-mon not yet started publishes nothing.
  PublishRoute publish_ = [](std::vector<MetricSample>&, PollRecord&) {
    return std::size_t{0};
  };
  /// The route's census predicate: whether a peer's raw feed is routed to
  /// this node, so that its silence means staleness.
  std::function<bool(net::NodeId)> routed_ = [](net::NodeId) { return true; };
  /// The zone-overlay route, when start() chose it.
  std::unique_ptr<ZoneOverlay> overlay_;
  sim::EventHandle poll_timer_;
  bool started_ = false;

  // Costs accumulated by event handlers during the current kecho.poll().
  SimDuration handler_cost_{0};

  std::uint32_t trace_seq_ = 0;  // per-node trace-id sequence

  // --- batching state ----------------------------------------------------
  /// Last value this publisher sent per metric id (delta suppression and
  /// the adaptation controller's accuracy baseline; see adapt.hpp).
  std::vector<PublishedState> last_published_;
  /// Next batch must be a keyframe regardless of phase: set on any
  /// effective-period change (control write or adaptation round) so
  /// delta-suppressed subscribers re-anchor instead of decoding against a
  /// stale baseline until the next scheduled keyframe.
  bool force_keyframe_ = false;
  std::uint64_t batch_seq_ = 0;  // batches submitted; phase for keyframes
  /// Module ranges in id order (mirror of modules_, for grouping).
  std::vector<MetricRange> module_ranges_;
  std::vector<std::vector<MetricSample>> groups_scratch_;
  /// Interest sets declared *by* peers (publisher side), interned: each
  /// distinct set (sorted, deduped) is stored once with the number of
  /// peers holding it; a slot nobody holds is reused by the next new set.
  struct InterestSet {
    std::vector<std::string> modules;
    std::size_t holders = 0;
  };
  std::vector<InterestSet> interest_sets_;
  /// Per declaring peer, the index of its set in interest_sets_.
  FlatMap<net::NodeId, std::uint32_t> peer_interests_;
  /// Interest this node declared (subscriber side); re-broadcast on joins.
  std::vector<std::string> local_interest_;
  bool interest_declared_ = false;
  bool warned_strays_ = false;

  // --- receive/encode scratch, reused across periods so the steady state
  // --- allocates nothing (see perf_regression_test) ----------------------
  net::MonitorBatch rx_batch_;        // take_raw_batch
  net::MonitorBatch batch_scratch_;   // this period's outgoing batch
  net::MonitorBatch filtered_scratch_;  // interest-filtered variant
  /// This period's frame per interest set, indexed like interest_sets_
  /// and built on first use (reset each period, capacity kept).
  struct InterestFrame {
    bool built = false;
    net::MessagePtr frame;  // null: nothing in the set's modules
  };
  std::vector<InterestFrame> interest_frames_;

  std::uint64_t collect_errors_ = 0;
  std::uint64_t stray_samples_ = 0;
  std::uint64_t interest_bytes_saved_ = 0;
  std::uint64_t delta_suppressed_total_ = 0;
  std::uint64_t procfs_conflicts_ = 0;

  std::vector<SampleObserver> sample_observers_;
  PollRecord last_poll_;
  StreamingStats submit_cost_us_;
  StreamingStats receive_cost_us_;
  std::string last_control_error_;

  /// Self-monitoring instruments, resolved once from the host registry at
  /// construction; inert (a branch each) until telemetry is enabled.
  telemetry::Counter& tm_polls_;
  telemetry::Counter& tm_events_submitted_;
  telemetry::Counter& tm_events_received_;
  telemetry::Counter& tm_suppressed_;
  telemetry::Counter& tm_filter_compiles_;
  telemetry::Counter& tm_filter_insns_;
  telemetry::Counter& tm_slo_violations_;
  telemetry::Counter& tm_collect_errors_;
  telemetry::Counter& tm_stray_samples_;
  telemetry::Counter& tm_batch_submits_;
  telemetry::Counter& tm_batch_samples_;
  telemetry::Counter& tm_batch_delta_suppressed_;
  telemetry::Counter& tm_batch_keyframes_;
  telemetry::Counter& tm_bytes_saved_;
  telemetry::Counter& tm_adapt_rounds_;
  telemetry::Counter& tm_adapt_changes_;
  telemetry::Gauge& tm_adapt_overhead_;
  telemetry::LatencyRecorder& tm_poll_us_;
  telemetry::LatencyRecorder& tm_submit_us_;
  telemetry::LatencyRecorder& tm_receive_us_;
};

}  // namespace dproc::core
