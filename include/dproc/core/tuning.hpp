// Publisher-side stream tuning: parameters and dynamic filters.
//
// The paper distinguishes two customization mechanisms and argues parameters
// are the cheap path and E-code filters the powerful one (§3):
//
//  * parameters — update periods (optionally conditional on another metric:
//    "update CPU info every 2 s IF utilization is above 80%") and thresholds
//    (above/below/range/percent-change bounds);
//  * dynamic filters — E-code programs shipped over the control channel,
//    compiled at the publishing host, and run before every publication.
//
// Tuning is publisher-global, matching the paper's model of filters that
// "manipulate the information being sent out by a dproc node".
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dproc/core/metrics.hpp"
#include "dproc/ecode/ecode.hpp"
#include "dproc/util/status.hpp"
#include "dproc/util/time.hpp"

namespace dproc::core {

enum class ThresholdKind : std::uint8_t { kAbove, kBelow, kRange, kChangePct };

struct Threshold {
  std::string metric;
  ThresholdKind kind{};
  double a = 0.0;
  double b = 0.0;  // kRange upper bound
};

struct MetricPeriod {
  std::string metric;
  SimDuration period{};
  // Optional condition on another metric's current value.
  bool conditional = false;
  std::string cond_metric;
  ThresholdKind cond_kind{};  // kAbove or kBelow
  double cond_value = 0.0;
};

/// A tuning request as parsed from a control-file write / decoded from a
/// control-channel event. Metric references travel as names and are
/// resolved at the publisher.
struct TuningConfig {
  bool clear = false;  // reset to defaults before applying the rest
  std::optional<SimDuration> default_period;
  std::vector<MetricPeriod> metric_periods;
  std::vector<Threshold> thresholds;
  std::optional<double> differential_pct;  // the paper's differential filter
  std::optional<std::string> filter_source;  // E-code; empty string removes
  /// Module-internal sampling periods ("window cpu 5"): the paper's
  /// application-specified CPU_MON run-queue averaging window (§2.1).
  std::vector<std::pair<std::string, SimDuration>> module_periods;
  /// Filter instruction budget ("fuel <n>"): caps the VM fuel available to
  /// the deployed filter per evaluation. Must be positive and no larger
  /// than ecode::VmLimits::kMaxInstructionLimit — the control file is
  /// user-writable, and an unbounded value would let a runaway filter
  /// outlive the out-of-fuel guard.
  std::optional<std::uint64_t> max_filter_instructions;
};

/// Parses the control-file command language:
///   period <seconds>
///   period <metric> <seconds> [if <metric> above|below <value>]
///   threshold <metric> above <v> | below <v> | range <lo> <hi> | change <pct>%
///   differential <pct>%
///   window <module> <seconds>      (module-internal sampling period)
///   fuel <n>                       (per-evaluation filter instruction cap)
///   filter <rest of the write is E-code source>
///   clear
Result<TuningConfig> parse_control_commands(const std::string& text);

/// Wire codec for control-channel tuning events.
std::vector<std::uint8_t> encode_tuning(const TuningConfig& config);
Result<TuningConfig> decode_tuning(std::span<const std::uint8_t> bytes);

/// What a publication decision costs and contains.
struct Decision {
  std::vector<MetricSample> to_send;
  std::uint64_t filter_instructions = 0;
  bool filter_error = false;  // runtime error: data passed through unfiltered
};

/// Runtime tuning state at one publisher.
class PublisherTuning {
 public:
  /// `metric_ids` maps metric key → id; `descs` is the full metric table in
  /// id order. Both must outlive this object’s apply() calls.
  PublisherTuning(SimDuration default_period,
                  std::map<std::string, MetricId> metric_ids);

  /// Applies a config; compiles the filter if one is present. On error the
  /// previous state is kept and the error is returned (the paper's d-mon
  /// reports compile failures instead of installing broken filters).
  Status apply(const TuningConfig& config);

  /// Checks a config without applying anything: every metric reference must
  /// resolve and the filter must compile. Lets the *sender* of a control
  /// request reject bad parameters before they travel (metric ids are a
  /// cluster-wide convention, so local resolution is authoritative).
  /// Module-period targets are not checked — module sets are per-node.
  [[nodiscard]] Status validate(const TuningConfig& config) const;

  /// Decides which samples to publish now. `samples` holds every metric in
  /// id order. Updates last-sent bookkeeping for the chosen metrics. The
  /// decision is this publisher's scratch, reused (capacity kept) by the
  /// next call; the caller may edit it until then.
  Decision& decide(const std::vector<MetricSample>& samples, SimTime now);

  [[nodiscard]] bool has_filter() const { return filter_.has_value(); }
  [[nodiscard]] const std::string& filter_source() const {
    static const std::string kEmpty;
    return filter_ ? filter_->source() : kEmpty;
  }
  [[nodiscard]] std::optional<double> differential_pct() const {
    return differential_pct_;
  }
  [[nodiscard]] SimDuration default_period() const { return default_period_; }

  /// Accept the sketch builtins (topk/...) in filters compiled here. Set by
  /// d-mon from its SketchConfig before any filter arrives; off by default
  /// so a sketch-less publisher rejects such filters at compile time.
  void enable_sketch_builtins(bool on) { sketch_builtins_ = on; }
  [[nodiscard]] bool sketch_builtins() const { return sketch_builtins_; }

  /// Binds the sketch state filter evaluations read (not owned; nullptr
  /// detaches). Typically a FilterSketchBridge over a TopKMonitor's sketch.
  void set_sketch_host(ecode::SketchHost* host) {
    sketch_host_ = host;
    vm_.set_sketch_host(host);
  }

  /// Effective VM limits (reflects any `fuel <n>` override).
  [[nodiscard]] const ecode::VmLimits& vm_limits() const {
    return vm_.limits();
  }

  /// Successful filter compilations performed by apply(). Re-installing an
  /// unchanged source hits the compiled-program cache and does not move
  /// this counter — d-mon uses the delta to charge compile cycles only for
  /// real compilations.
  [[nodiscard]] std::uint64_t filter_compiles() const {
    return filter_compiles_;
  }

  /// Adaptation-owned per-metric periods (core/adapt). They sit between the
  /// operator's rules and the default: an explicit `period <metric> ...`
  /// rule always wins, an adaptive period overrides only the default.
  /// Non-positive clears the metric's adaptive period.
  void set_adaptive_period(MetricId id, SimDuration period);
  void clear_adaptive_periods();
  [[nodiscard]] std::optional<SimDuration> adaptive_period(MetricId id) const;

  /// Renders the active configuration (for the local status pseudo-file).
  [[nodiscard]] std::string describe() const;

 private:
  struct ResolvedPeriod {
    SimDuration period;
    bool conditional = false;
    MetricId cond_metric = 0;
    ThresholdKind cond_kind{};
    double cond_value = 0.0;
  };
  struct ResolvedThreshold {
    ThresholdKind kind{};
    double a = 0.0, b = 0.0;
  };
  struct SentState {
    bool sent = false;
    double last_value = 0.0;
    SimTime last_time;
  };

  Result<MetricId> resolve(const std::string& name) const;
  /// Compile environment for filter compilation: metric constants plus the
  /// sketch-builtin gate.
  [[nodiscard]] ecode::CompileEnv compile_env() const;
  /// Reconstructs vm_ with the current fuel override, preserving the
  /// bound sketch host.
  void rebuild_vm();
  [[nodiscard]] bool passes_parameters(const MetricSample& sample,
                                       const std::vector<MetricSample>& all,
                                       SimTime now) const;

  SimDuration base_period_;     // construction-time default
  SimDuration default_period_;  // possibly overridden by control
  std::map<std::string, MetricId> metric_ids_;

  std::map<MetricId, ResolvedPeriod> periods_;
  /// Controller-set periods, indexed by metric id; zero = unset.
  std::vector<SimDuration> adaptive_;
  std::map<MetricId, std::vector<ResolvedThreshold>> thresholds_;
  std::optional<double> differential_pct_;
  std::optional<ecode::Filter> filter_;
  /// Sketch-builtin gate active when filter_ was compiled (cache key part).
  bool filter_sketch_env_ = false;
  std::optional<std::uint64_t> fuel_override_;

  bool sketch_builtins_ = false;
  ecode::SketchHost* sketch_host_ = nullptr;
  std::uint64_t filter_compiles_ = 0;

  // Reused across decide() calls so the per-poll filter path is
  // allocation-free in steady state.
  ecode::Vm vm_;
  ecode::FilterResult filter_result_;
  std::vector<ecode::Sample> filter_input_;
  Decision decision_;

  std::vector<SentState> sent_;  // indexed by metric id
};

}  // namespace dproc::core
