#include "dproc/core/tuning.hpp"

#include <cmath>
#include <sstream>

#include "dproc/util/logging.hpp"

namespace dproc::core {

PublisherTuning::PublisherTuning(SimDuration default_period,
                                 std::map<std::string, MetricId> metric_ids)
    : base_period_(default_period),
      default_period_(default_period),
      metric_ids_(std::move(metric_ids)) {
  MetricId max_id = 0;
  for (const auto& [key, id] : metric_ids_) max_id = std::max(max_id, id);
  sent_.resize(metric_ids_.empty() ? 0 : max_id + 1);
}

ecode::CompileEnv PublisherTuning::compile_env() const {
  ecode::CompileEnv env;
  for (const auto& [key, id] : metric_ids_) {
    env.constants[to_filter_constant(key)] = static_cast<std::int64_t>(id);
  }
  env.sketch_builtins = sketch_builtins_;
  return env;
}

void PublisherTuning::rebuild_vm() {
  ecode::VmLimits limits;
  if (fuel_override_) limits.max_instructions = *fuel_override_;
  vm_ = ecode::Vm{limits};
  vm_.set_sketch_host(sketch_host_);
}

namespace {

/// Shared by validate() and apply(): the control file is user-writable, so
/// a fuel request outside (0, kMaxInstructionLimit] is rejected with the
/// reason rather than silently clamped.
Status check_fuel(std::uint64_t fuel) {
  if (fuel == 0) {
    return Status::invalid_argument("filter instruction limit must be positive");
  }
  if (fuel > ecode::VmLimits::kMaxInstructionLimit) {
    return Status::invalid_argument(
        "filter instruction limit exceeds hard ceiling (" +
        std::to_string(ecode::VmLimits::kMaxInstructionLimit) + ")");
  }
  return Status::ok();
}

}  // namespace

Result<MetricId> PublisherTuning::resolve(const std::string& name) const {
  auto it = metric_ids_.find(name);
  if (it == metric_ids_.end()) {
    return Status::not_found("unknown metric '" + name + "'");
  }
  return it->second;
}

Status PublisherTuning::validate(const TuningConfig& config) const {
  if (config.default_period && *config.default_period <= SimDuration::zero()) {
    return Status::invalid_argument("update period must be positive");
  }
  for (const MetricPeriod& mp : config.metric_periods) {
    auto id = resolve(mp.metric);
    if (!id) return id.status();
    if (mp.period <= SimDuration::zero()) {
      return Status::invalid_argument("update period must be positive");
    }
    if (mp.conditional) {
      auto cond = resolve(mp.cond_metric);
      if (!cond) return cond.status();
    }
  }
  // Module names stay remote-validated (module sets are per-node), but a
  // zero or negative window is invalid everywhere: it would busy-loop the
  // module's internal sampling.
  for (const auto& [module_name, period] : config.module_periods) {
    if (period <= SimDuration::zero()) {
      return Status::invalid_argument("module window must be positive");
    }
  }
  for (const Threshold& t : config.thresholds) {
    auto id = resolve(t.metric);
    if (!id) return id.status();
  }
  if (config.differential_pct && *config.differential_pct < 0) {
    return Status::invalid_argument("differential percentage must be >= 0");
  }
  if (config.max_filter_instructions) {
    if (Status fuel = check_fuel(*config.max_filter_instructions); !fuel) {
      return fuel;
    }
  }
  if (config.filter_source && !config.filter_source->empty()) {
    auto compiled =
        ecode::Filter::compile(*config.filter_source, compile_env());
    if (!compiled) return compiled.status();
  }
  return Status::ok();
}

Status PublisherTuning::apply(const TuningConfig& config) {
  // Stage everything first so a failure leaves current state untouched.
  std::map<MetricId, ResolvedPeriod> new_periods = config.clear ? decltype(periods_){} : periods_;
  std::map<MetricId, std::vector<ResolvedThreshold>> new_thresholds =
      config.clear ? decltype(thresholds_){} : thresholds_;
  std::optional<double> new_differential =
      config.clear ? std::nullopt : differential_pct_;
  std::optional<ecode::Filter> new_filter =
      config.clear ? std::nullopt : std::move(filter_);
  SimDuration new_default = config.clear ? base_period_ : default_period_;
  std::optional<std::uint64_t> new_fuel =
      config.clear ? std::nullopt : fuel_override_;
  bool new_filter_sketch_env = filter_sketch_env_;

  // Restore filter_ if we bail out early.
  auto restore = [&] { filter_ = std::move(new_filter); };

  if (config.default_period) {
    if (*config.default_period <= SimDuration::zero()) {
      restore();
      return Status::invalid_argument("update period must be positive");
    }
    new_default = *config.default_period;
  }
  for (const MetricPeriod& mp : config.metric_periods) {
    auto id = resolve(mp.metric);
    if (!id) {
      restore();
      return id.status();
    }
    // Control events decoded off the wire bypass parse_control_commands, so
    // the positivity check has to live here too: a zero period would make
    // the metric publish every poll forever, a negative one always "due".
    if (mp.period <= SimDuration::zero()) {
      restore();
      return Status::invalid_argument("update period must be positive");
    }
    ResolvedPeriod rp;
    rp.period = mp.period;
    rp.conditional = mp.conditional;
    if (mp.conditional) {
      auto cond = resolve(mp.cond_metric);
      if (!cond) {
        restore();
        return cond.status();
      }
      rp.cond_metric = cond.value();
      rp.cond_kind = mp.cond_kind;
      rp.cond_value = mp.cond_value;
    }
    new_periods[id.value()] = rp;
  }
  for (const Threshold& t : config.thresholds) {
    auto id = resolve(t.metric);
    if (!id) {
      restore();
      return id.status();
    }
    new_thresholds[id.value()].push_back(ResolvedThreshold{t.kind, t.a, t.b});
  }
  if (config.differential_pct) {
    if (*config.differential_pct < 0) {
      restore();
      return Status::invalid_argument("differential percentage must be >= 0");
    }
    new_differential = *config.differential_pct;
  }
  if (config.max_filter_instructions) {
    if (Status fuel = check_fuel(*config.max_filter_instructions); !fuel) {
      restore();
      return fuel;
    }
    new_fuel = *config.max_filter_instructions;
  }
  if (config.filter_source) {
    if (config.filter_source->empty()) {
      new_filter.reset();
    } else if (new_filter && new_filter->source() == *config.filter_source &&
               filter_sketch_env_ == sketch_builtins_) {
      // Compiled-program cache: identical source under an identical compile
      // environment yields identical bytecode, so re-installs (periodic
      // idempotent control writes are common) skip the compiler entirely.
      // filter_compiles_ does not move, so d-mon charges no compile cycles.
    } else {
      auto compiled =
          ecode::Filter::compile(*config.filter_source, compile_env());
      if (!compiled) {
        restore();
        return compiled.status();
      }
      new_filter = std::move(compiled).value();
      new_filter_sketch_env = sketch_builtins_;
      ++filter_compiles_;
    }
  }

  periods_ = std::move(new_periods);
  thresholds_ = std::move(new_thresholds);
  differential_pct_ = new_differential;
  filter_ = std::move(new_filter);
  filter_sketch_env_ = new_filter_sketch_env;
  default_period_ = new_default;
  if (new_fuel != fuel_override_) {
    fuel_override_ = new_fuel;
    rebuild_vm();
  }
  if (config.clear) {
    for (SentState& s : sent_) s = SentState{};
    adaptive_.clear();  // the controller re-resolves from scratch next round
  }
  return Status::ok();
}

void PublisherTuning::set_adaptive_period(MetricId id, SimDuration period) {
  if (id >= sent_.size()) return;
  if (adaptive_.size() < sent_.size()) adaptive_.resize(sent_.size());
  adaptive_[id] = period > SimDuration::zero() ? period : SimDuration::zero();
}

void PublisherTuning::clear_adaptive_periods() { adaptive_.clear(); }

std::optional<SimDuration> PublisherTuning::adaptive_period(
    MetricId id) const {
  if (id >= adaptive_.size() || adaptive_[id] <= SimDuration::zero()) {
    return std::nullopt;
  }
  return adaptive_[id];
}

bool PublisherTuning::passes_parameters(const MetricSample& sample,
                                        const std::vector<MetricSample>& all,
                                        SimTime now) const {
  const SentState& state = sent_[sample.id];

  // Effective period, possibly gated on another metric's current value.
  // Precedence: operator rule > adaptive (controller-set) > default.
  SimDuration period = default_period_;
  if (sample.id < adaptive_.size() &&
      adaptive_[sample.id] > SimDuration::zero()) {
    period = adaptive_[sample.id];
  }
  auto period_it = periods_.find(sample.id);
  if (period_it != periods_.end()) {
    const ResolvedPeriod& rp = period_it->second;
    if (rp.conditional) {
      // The guard is re-evaluated against the live metric every poll, and it
      // gates only the special period: while unmet the metric reverts to its
      // base cadence rather than going silent, so the effective period
      // tracks the guard metric ("every 2 s IF utilization above 80%",
      // otherwise at the normal rate).
      const double cond_value = all[rp.cond_metric].value;
      const bool met = rp.cond_kind == ThresholdKind::kAbove
                           ? cond_value > rp.cond_value
                           : cond_value < rp.cond_value;
      if (met) period = rp.period;
    } else {
      period = rp.period;
    }
  }
  if (state.sent && now - state.last_time < period) return false;

  auto threshold_it = thresholds_.find(sample.id);
  if (threshold_it != thresholds_.end()) {
    for (const ResolvedThreshold& t : threshold_it->second) {
      switch (t.kind) {
        case ThresholdKind::kAbove:
          if (!(sample.value > t.a)) return false;
          break;
        case ThresholdKind::kBelow:
          if (!(sample.value < t.a)) return false;
          break;
        case ThresholdKind::kRange:
          if (sample.value < t.a || sample.value > t.b) return false;
          break;
        case ThresholdKind::kChangePct:
          if (state.sent &&
              std::abs(sample.value - state.last_value) <=
                  (t.a / 100.0) * std::abs(state.last_value)) {
            return false;
          }
          break;
      }
    }
  }

  if (differential_pct_) {
    if (state.sent && std::abs(sample.value - state.last_value) <=
                          (*differential_pct_ / 100.0) *
                              std::abs(state.last_value)) {
      return false;
    }
  }
  return true;
}

Decision& PublisherTuning::decide(const std::vector<MetricSample>& samples,
                                  SimTime now) {
  Decision& decision = decision_;
  decision.to_send.clear();
  decision.filter_instructions = 0;
  decision.filter_error = false;

  if (filter_) {
    // Dynamic filter path: the E-code program is the whole policy. The
    // input vector, the VM and the result are all publisher-persistent
    // scratch, so the once-per-poll steady state allocates nothing.
    filter_input_.clear();
    filter_input_.reserve(samples.size());
    for (const MetricSample& s : samples) {
      const SentState& state = s.id < sent_.size() ? sent_[s.id] : SentState{};
      filter_input_.push_back(
          ecode::Sample{static_cast<std::int64_t>(s.id), s.value,
                        state.sent ? state.last_value : 0.0,
                        s.sampled_at.ns()});
    }
    Status run = vm_.run(filter_->bytecode(), filter_input_, filter_result_);
    if (run) {
      decision.filter_instructions = filter_result_.instructions_executed;
      for (const auto& [slot, out] : filter_result_.outputs) {
        const auto id = static_cast<MetricId>(out.id);
        if (id >= samples.size()) continue;  // filter emitted a bogus id
        decision.to_send.push_back(
            MetricSample{id, out.value, SimTime{out.timestamp_ns}});
      }
    } else {
      // Runtime failure: fail open. Losing monitoring data would hide the
      // failure; publishing everything keeps the cluster observable.
      DPROC_WARN() << "filter runtime error: " << run.to_string()
                   << "; publishing unfiltered";
      decision.filter_error = true;
      decision.to_send = samples;
    }
  } else {
    for (const MetricSample& s : samples) {
      if (passes_parameters(s, samples, now)) decision.to_send.push_back(s);
    }
  }

  for (const MetricSample& s : decision.to_send) {
    if (s.id < sent_.size()) {
      sent_[s.id] = SentState{true, s.value, now};
    }
  }
  return decision;
}

std::string PublisherTuning::describe() const {
  std::ostringstream out;
  out << "default_period=" << to_string(default_period_) << "\n";
  auto name_of = [&](MetricId id) -> std::string {
    for (const auto& [key, mid] : metric_ids_) {
      if (mid == id) return key;
    }
    return "#" + std::to_string(id);
  };
  for (const auto& [id, rp] : periods_) {
    out << "period " << name_of(id) << " " << to_string(rp.period);
    if (rp.conditional) {
      out << " if " << name_of(rp.cond_metric)
          << (rp.cond_kind == ThresholdKind::kAbove ? " above " : " below ")
          << rp.cond_value;
    }
    out << "\n";
  }
  for (MetricId id = 0; id < adaptive_.size(); ++id) {
    if (adaptive_[id] > SimDuration::zero() &&
        periods_.find(id) == periods_.end()) {
      out << "adaptive " << name_of(id) << " " << to_string(adaptive_[id])
          << "\n";
    }
  }
  for (const auto& [id, list] : thresholds_) {
    for (const ResolvedThreshold& t : list) {
      out << "threshold " << name_of(id) << " ";
      switch (t.kind) {
        case ThresholdKind::kAbove: out << "above " << t.a; break;
        case ThresholdKind::kBelow: out << "below " << t.a; break;
        case ThresholdKind::kRange: out << "range " << t.a << " " << t.b; break;
        case ThresholdKind::kChangePct: out << "change " << t.a << "%"; break;
      }
      out << "\n";
    }
  }
  if (differential_pct_) out << "differential " << *differential_pct_ << "%\n";
  if (fuel_override_) out << "fuel " << *fuel_override_ << "\n";
  if (filter_) out << "filter installed (" << filter_->source().size()
                   << " bytes)\n";
  return out.str();
}

}  // namespace dproc::core
