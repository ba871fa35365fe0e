// Self-monitoring telemetry: the layer dproc uses to measure itself.
//
// The paper's entire evaluation (§4) is a measurement of dproc's *own*
// overhead — submission cost, receive cost, perturbation of co-located
// applications. This registry makes that measurement a permanent, in-system
// capability instead of something only offline bench binaries can do:
//
//  * counters/gauges/latency recorders keyed by "subsystem/name", created
//    once at component construction and bumped from the hot paths;
//  * a bounded trace-span ring (virtual-clock timestamps) exportable as
//    Chrome trace_event JSON for chrome://tracing / Perfetto;
//  * per-node: every simulated host owns one Registry, so the DPROC
//    monitoring module can publish a node's own overhead on the monitoring
//    channel like any other metric (/proc/cluster/<node>/dproc/...).
//
// Disabled (the default) the layer is inert: recorders no-op behind a
// single branch, nothing allocates, no simulated cost is charged, and no
// events are scheduled — so the deterministic golden trace and the
// zero-allocation guarantees of the perf regression suite are untouched.
// Instrument handles are created eagerly at construction time; enabling
// telemetry mid-run only starts accumulation, it never reshapes the sim.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dproc/util/stats.hpp"
#include "dproc/util/time.hpp"

namespace dproc::sim {
class Engine;
}  // namespace dproc::sim

namespace dproc::telemetry {

class Registry;

/// Interned instrument handle: the index of an instrument inside its
/// registry, resolved once at instrumentation-site construction. Enabled-
/// mode record cost through a handle is an array index — no string hashing
/// or map walk ever sits on a hot path.
using InstrumentId = std::uint32_t;

/// Monotonic event counter. Gated on the owning registry's enabled flag;
/// an increment is a load, a branch, and an add — never an allocation.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (*enabled_) value_ += n;
  }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  friend class Registry;
  explicit Counter(const bool* enabled) : enabled_(enabled) {}
  const bool* enabled_;
  std::uint64_t value_ = 0;
};

/// Last-value gauge. Either set explicitly or backed by a pull source
/// (evaluated at read time, so snapshots see the live value — e.g. the sim
/// engine's events-dispatched count — at zero steady-state cost).
class Gauge {
 public:
  void set(double v) {
    if (*enabled_) value_ = v;
  }
  /// Pull source; overrides any set() value while installed.
  void set_source(std::function<double()> source) {
    source_ = std::move(source);
  }
  [[nodiscard]] double value() const {
    return source_ ? source_() : value_;
  }

 private:
  friend class Registry;
  explicit Gauge(const bool* enabled) : enabled_(enabled) {}
  const bool* enabled_;
  double value_ = 0.0;
  std::function<double()> source_;
};

/// Latency distribution in microseconds, SampleSet-backed so snapshot paths
/// get exact interpolated percentiles. record() may grow the sample vector,
/// so it is only called from per-poll paths, never from the allocation-free
/// inner loops; disabled it is a branch and nothing else.
class LatencyRecorder {
 public:
  void record_us(double us) {
    if (*enabled_) samples_us_.add(us);
  }
  void record(SimDuration d) { record_us(d.us()); }

  [[nodiscard]] std::size_t count() const { return samples_us_.count(); }
  [[nodiscard]] double mean_us() const { return samples_us_.mean(); }
  [[nodiscard]] double quantile_us(double q) const {
    return samples_us_.quantile(q);
  }
  [[nodiscard]] const SampleSet& samples() const { return samples_us_; }
  void reset() { samples_us_.clear(); }

 private:
  friend class Registry;
  explicit LatencyRecorder(const bool* enabled) : enabled_(enabled) {}
  const bool* enabled_;
  SampleSet samples_us_;
};

/// One completed trace span on the virtual clock. Category and name must be
/// string literals (or otherwise outlive the registry): spans store the
/// pointers, keeping the ring allocation-free after construction.
struct Span {
  const char* category = "";
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Pipeline stage of one causal-tracing hop. The numeric order is the
/// causal order; reconstruction asserts hop sequences are non-decreasing.
enum class HopStage : std::uint8_t {
  kPublish = 0,   // d-mon collected the sample and decided to publish it
  kSubmit = 1,    // KECho marshalled the frame and handed it to the NIC
  kArrive = 2,    // the frame reached the receiver's kernel (wire latency)
  kDeliver = 3,   // poll() drained it to the handler (queueing delay)
  kRender = 4,    // d-mon updated /proc/cluster (or applied a control event)
  kDecision = 5,  // SmartPointer steered a stream on the rendered value
};
constexpr std::size_t kHopStageCount = 6;
[[nodiscard]] const char* to_string(HopStage stage);

/// One causal-tracing hop in a node's bounded hop log. `dur_ns` is the time
/// spent in the transition that *ended* at this hop (0 for kPublish), so
/// per-stage latency histograms fall out of a single node-local scan.
struct Hop {
  std::uint64_t trace_id = 0;
  std::uint32_t origin = 0;   // publishing node
  std::uint32_t channel = 0;  // KECho channel id
  HopStage stage = HopStage::kPublish;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
};

/// Per-node instrument registry. Owned by host::Host; every kernel service
/// on that host shares it. Not thread-safe by design — the simulator is a
/// single-threaded event loop (see util/logging.hpp for the one exception).
class Registry {
 public:
  /// `clock` supplies virtual-clock timestamps for spans (nullable: spans
  /// then stamp 0 and the Chrome export is still well-formed).
  explicit Registry(const sim::Engine* clock = nullptr,
                    std::size_t span_capacity = 4096,
                    std::size_t hop_capacity = 8192);
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Enabling sizes the span ring on first use, so a registry that is
  /// never enabled never allocates it.
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Causal tracing is gated separately from the instrument flag, so a
  /// cluster can trace event provenance without the full metric overlay
  /// (and vice versa). Disabled it is branch-only, exactly like enabled_.
  /// Enabling sizes the hop ring on first use, like set_enabled.
  void set_trace_enabled(bool enabled);
  [[nodiscard]] bool trace_enabled() const { return trace_enabled_; }

  /// Get-or-create instruments; references stay valid for the registry's
  /// lifetime (instruments live in stable deque slabs), so hot paths hold
  /// them as pointers resolved once at construction.
  Counter& counter(const std::string& subsystem, const std::string& name);
  Gauge& gauge(const std::string& subsystem, const std::string& name);
  LatencyRecorder& latency(const std::string& subsystem,
                           const std::string& name);

  /// Interned-handle variants: resolve the "subsystem/name" string exactly
  /// once (get-or-create), then record through an O(1) index. Sites that
  /// cannot hold references (serialized configs, tools, watchdog rules
  /// resolved from user input) pre-intern ids instead of re-hashing
  /// strings per record.
  [[nodiscard]] InstrumentId counter_id(const std::string& subsystem,
                                        const std::string& name);
  [[nodiscard]] InstrumentId gauge_id(const std::string& subsystem,
                                      const std::string& name);
  [[nodiscard]] InstrumentId latency_id(const std::string& subsystem,
                                        const std::string& name);
  [[nodiscard]] Counter& counter(InstrumentId id) { return counters_[id]; }
  [[nodiscard]] Gauge& gauge(InstrumentId id) { return gauges_[id]; }
  [[nodiscard]] LatencyRecorder& latency(InstrumentId id) {
    return latencies_[id];
  }
  [[nodiscard]] const Counter& counter(InstrumentId id) const {
    return counters_[id];
  }
  [[nodiscard]] const Gauge& gauge(InstrumentId id) const {
    return gauges_[id];
  }
  [[nodiscard]] const LatencyRecorder& latency(InstrumentId id) const {
    return latencies_[id];
  }

  // --- trace-span ring ----------------------------------------------------

  /// Records a completed span; overwrites the oldest entry when the ring is
  /// full (spans_dropped() counts the overwrites). No-op when disabled.
  void record_span(const char* category, const char* name, SimTime start,
                   SimTime end);
  [[nodiscard]] std::size_t span_count() const { return span_size_; }
  [[nodiscard]] std::size_t span_capacity() const { return span_capacity_; }
  [[nodiscard]] std::uint64_t spans_dropped() const { return spans_dropped_; }
  /// Span i counted from the oldest retained (0 == oldest).
  [[nodiscard]] const Span& span(std::size_t i) const;
  void clear_spans();

  // --- causal-tracing hop log ---------------------------------------------

  /// Appends one hop to the bounded hop log; overwrites the oldest entry
  /// when full (hops_dropped() counts the overwrites). No-op when tracing
  /// is disabled; never allocates (the ring is sized when tracing is
  /// enabled).
  void record_hop(const Hop& hop);
  [[nodiscard]] std::size_t hop_count() const { return hop_size_; }
  [[nodiscard]] std::size_t hop_capacity() const { return hop_capacity_; }
  [[nodiscard]] std::uint64_t hops_dropped() const { return hops_dropped_; }
  /// Hop i counted from the oldest retained (0 == oldest).
  [[nodiscard]] const Hop& hop(std::size_t i) const;
  void clear_hops();

  /// Virtual-clock "now" in nanoseconds (0 without a clock).
  [[nodiscard]] std::int64_t now_ns() const;

  // --- snapshots ----------------------------------------------------------

  /// Visits instruments in name order ("subsystem/name").
  void for_each_counter(
      const std::function<void(const std::string&, const Counter&)>& fn) const;
  void for_each_gauge(
      const std::function<void(const std::string&, const Gauge&)>& fn) const;
  void for_each_latency(const std::function<void(const std::string&,
                                                 const LatencyRecorder&)>& fn)
      const;

  /// Text snapshot for procfs / the shell `telemetry` command.
  [[nodiscard]] std::string render() const;

  /// Complete Chrome trace_event JSON document ({"traceEvents": [...]})
  /// for this registry alone; `pid` labels the process lane.
  [[nodiscard]] std::string export_chrome_trace(int pid = 0) const;

  /// Appends this registry's spans as trace_event objects to `out` (comma
  /// handling via `first`). Emits one thread_name metadata event per
  /// distinct span category so each subsystem renders in its own stable
  /// lane, then the spans on their category tids, then the hop log as
  /// Chrome flow events ("s"/"t"/"f" keyed by trace id) that stitch the
  /// cross-node path together in a merged document.
  void append_chrome_trace_events(std::string& out, int pid,
                                  bool& first) const;

 private:
  const sim::Engine* clock_;
  bool enabled_ = false;
  bool trace_enabled_ = false;

  // Instruments live in deque slabs (stable addresses, O(1) indexing);
  // the name maps only resolve "subsystem/name" -> index at intern time
  // and drive name-ordered snapshot iteration.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<LatencyRecorder> latencies_;
  std::map<std::string, InstrumentId> counter_ids_;
  std::map<std::string, InstrumentId> gauge_ids_;
  std::map<std::string, InstrumentId> latency_ids_;

  // Fixed-capacity rings, empty until their gate is first enabled.
  std::size_t span_capacity_;
  std::vector<Span> spans_;
  std::size_t span_head_ = 0;
  std::size_t span_size_ = 0;
  std::uint64_t spans_dropped_ = 0;

  std::size_t hop_capacity_;
  std::vector<Hop> hops_;
  std::size_t hop_head_ = 0;
  std::size_t hop_size_ = 0;
  std::uint64_t hops_dropped_ = 0;
};

/// RAII span: records [construction, destruction] on the registry's virtual
/// clock. With simulated CPU costs the end usually equals the start (the
/// clock does not advance inside a callback), so prefer record_span with an
/// explicit cost-derived end for kernel-path spans; this helper suits
/// engine-driven intervals.
class ScopedSpan {
 public:
  ScopedSpan(Registry& registry, const char* category, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Registry& registry_;
  const char* category_;
  const char* name_;
  std::int64_t start_ns_;
};

/// Merges several registries (pid-labelled, typically one per node) into a
/// single Chrome trace_event JSON document, including per-subsystem lane
/// metadata and cross-node flow events from each registry's hop log.
std::string merge_chrome_trace(
    const std::vector<std::pair<int, const Registry*>>& registries);

// --- hop-log analysis -------------------------------------------------------

/// Per-(channel, stage) latency distribution aggregated from hop logs.
/// `durations_us` holds the transition time ending at `stage` for every
/// retained hop on that channel; kPublish rows count samples (dur 0).
struct HopBreakdownRow {
  std::uint32_t channel = 0;
  HopStage stage = HopStage::kPublish;
  SampleSet durations_us;
};

/// Scans the retained hop logs of `registries` and aggregates per-channel,
/// per-stage transition latencies, rows sorted by (channel, stage).
std::vector<HopBreakdownRow> hop_breakdown(
    const std::vector<const Registry*>& registries);

/// One sample's reconstructed causal chain: every retained hop with this
/// trace id across `registries`, sorted by (stage, timestamp). The second
/// member of each entry is the pid/node index the hop was recorded on.
std::vector<std::pair<Hop, int>> collect_trace(
    const std::vector<std::pair<int, const Registry*>>& registries,
    std::uint64_t trace_id);

/// Renders the per-stage latency-breakdown table (channel names resolved
/// through `channel_name`, which may return "" to use the numeric id).
std::string render_hop_breakdown(
    const std::vector<HopBreakdownRow>& rows,
    const std::function<std::string(std::uint32_t)>& channel_name = {});

}  // namespace dproc::telemetry
