// PublisherTuning: parameters, thresholds, differential filter, E-code
// filters, and the control command language + wire codec.
#include <gtest/gtest.h>

#include "dproc/core/tuning.hpp"

namespace dproc::core {
namespace {

std::map<std::string, MetricId> metric_ids() {
  return {{"loadavg", 0}, {"freemem", 1}, {"diskusage", 2}, {"cache_miss", 3}};
}

std::vector<MetricSample> samples(double loadavg, double freemem,
                                  double diskusage, double cache_miss,
                                  SimTime t = SimTime{}) {
  return {{0, loadavg, t}, {1, freemem, t}, {2, diskusage, t},
          {3, cache_miss, t}};
}

/// An unconditional per-metric period.
MetricPeriod period_of(const std::string& metric, SimDuration period) {
  MetricPeriod out;
  out.metric = metric;
  out.period = period;
  return out;
}

class TuningTest : public ::testing::Test {
 protected:
  PublisherTuning tuning{seconds(1.0), metric_ids()};
  SimTime t0;

  SimTime at(double sec) { return t0 + seconds(sec); }
};

TEST_F(TuningTest, DefaultSendsEverythingEachPeriod) {
  auto first = tuning.decide(samples(1, 2, 3, 4), at(0));
  EXPECT_EQ(first.to_send.size(), 4u);
  // Within the period: nothing.
  auto second = tuning.decide(samples(1, 2, 3, 4), at(0.5));
  EXPECT_TRUE(second.to_send.empty());
  // After the period: everything again.
  auto third = tuning.decide(samples(1, 2, 3, 4), at(1.0));
  EXPECT_EQ(third.to_send.size(), 4u);
}

TEST_F(TuningTest, DefaultPeriodOverride) {
  TuningConfig config;
  config.default_period = seconds(2.0);
  ASSERT_TRUE(tuning.apply(config).is_ok());
  (void)tuning.decide(samples(1, 2, 3, 4), at(0));
  EXPECT_TRUE(tuning.decide(samples(1, 2, 3, 4), at(1.0)).to_send.empty());
  EXPECT_EQ(tuning.decide(samples(1, 2, 3, 4), at(2.0)).to_send.size(), 4u);
}

TEST_F(TuningTest, PerMetricPeriod) {
  TuningConfig config;
  config.metric_periods.push_back(period_of("loadavg", seconds(3.0)));
  ASSERT_TRUE(tuning.apply(config).is_ok());
  (void)tuning.decide(samples(1, 2, 3, 4), at(0));
  // At 1 s: everything except loadavg.
  auto mid = tuning.decide(samples(1, 2, 3, 4), at(1.0));
  EXPECT_EQ(mid.to_send.size(), 3u);
  for (const auto& s : mid.to_send) EXPECT_NE(s.id, 0u);
  // At 3 s: loadavg is due again.
  auto later = tuning.decide(samples(1, 2, 3, 4), at(3.0));
  EXPECT_EQ(later.to_send.size(), 4u);
}

TEST_F(TuningTest, ConditionalPeriodGates) {
  // The paper's example: update CPU info every 2 s IF utilization > 80%.
  // The guard selects between the special period and the default cadence;
  // it must not silence the metric while unmet.
  TuningConfig config;
  MetricPeriod mp;
  mp.metric = "loadavg";
  mp.period = seconds(3.0);
  mp.conditional = true;
  mp.cond_metric = "freemem";
  mp.cond_kind = ThresholdKind::kBelow;
  mp.cond_value = 100.0;
  config.metric_periods.push_back(mp);
  ASSERT_TRUE(tuning.apply(config).is_ok());

  auto has_loadavg = [](const Decision& d) {
    for (const auto& s : d.to_send) {
      if (s.id == 0) return true;
    }
    return false;
  };

  // Condition false: loadavg follows the default 1 s period, not silence.
  EXPECT_TRUE(has_loadavg(tuning.decide(samples(5, 500, 0, 0), at(0))));
  EXPECT_FALSE(has_loadavg(tuning.decide(samples(5, 500, 0, 0), at(0.5))));
  EXPECT_TRUE(has_loadavg(tuning.decide(samples(5, 500, 0, 0), at(1.0))));
  // Condition becomes true: the 3 s period applies from the last send.
  EXPECT_FALSE(has_loadavg(tuning.decide(samples(5, 50, 0, 0), at(2.0))));
  EXPECT_FALSE(has_loadavg(tuning.decide(samples(5, 50, 0, 0), at(3.0))));
  EXPECT_TRUE(has_loadavg(tuning.decide(samples(5, 50, 0, 0), at(4.0))));
}

TEST_F(TuningTest, ConditionalPeriodTracksGuardEachPoll) {
  // Regression: the guard is evaluated against the live metric every poll.
  // A guard that flips mid-stream must flip the effective period with it —
  // the old behaviour resolved the gate into "drop the metric" and the
  // period never tracked the guard.
  TuningConfig config;
  config.default_period = seconds(4.0);
  MetricPeriod mp;
  mp.metric = "loadavg";
  mp.period = seconds(1.0);
  mp.conditional = true;
  mp.cond_metric = "freemem";
  mp.cond_kind = ThresholdKind::kBelow;
  mp.cond_value = 100.0;
  config.metric_periods.push_back(mp);
  ASSERT_TRUE(tuning.apply(config).is_ok());

  auto has_loadavg = [](const Decision& d) {
    for (const auto& s : d.to_send) {
      if (s.id == 0) return true;
    }
    return false;
  };

  // Guard met (freemem low): tight 1 s period.
  EXPECT_TRUE(has_loadavg(tuning.decide(samples(5, 50, 0, 0), at(0))));
  EXPECT_TRUE(has_loadavg(tuning.decide(samples(5, 50, 0, 0), at(1.0))));
  // Guard flips off at t=2: the slow default period (4 s since the t=1
  // send) takes over immediately.
  EXPECT_FALSE(has_loadavg(tuning.decide(samples(5, 500, 0, 0), at(2.0))));
  EXPECT_FALSE(has_loadavg(tuning.decide(samples(5, 500, 0, 0), at(4.0))));
  EXPECT_TRUE(has_loadavg(tuning.decide(samples(5, 500, 0, 0), at(5.0))));
  // Guard flips back on at t=6: the tight period resumes.
  EXPECT_TRUE(has_loadavg(tuning.decide(samples(5, 50, 0, 0), at(6.0))));
}

TEST_F(TuningTest, AdaptivePeriodOverridesDefaultNotRules) {
  TuningConfig config;
  config.metric_periods.push_back(period_of("freemem", seconds(1.0)));
  ASSERT_TRUE(tuning.apply(config).is_ok());
  // Controller slows loadavg to 3 s and (ineffectively) freemem to 3 s.
  tuning.set_adaptive_period(0, seconds(3.0));
  tuning.set_adaptive_period(1, seconds(3.0));
  EXPECT_EQ(tuning.adaptive_period(0)->sec(), 3.0);

  (void)tuning.decide(samples(1, 2, 3, 4), at(0));
  auto d = tuning.decide(samples(1, 2, 3, 4), at(1.0));
  bool has_loadavg = false, has_freemem = false;
  for (const auto& s : d.to_send) {
    has_loadavg |= s.id == 0;
    has_freemem |= s.id == 1;
  }
  // The operator's explicit freemem rule wins over the adaptive period;
  // loadavg (default-period metric) is slowed by the controller.
  EXPECT_FALSE(has_loadavg);
  EXPECT_TRUE(has_freemem);
  EXPECT_NE(tuning.describe().find("adaptive loadavg"), std::string::npos);

  tuning.clear_adaptive_periods();
  d = tuning.decide(samples(1, 2, 3, 4), at(2.0));
  has_loadavg = false;
  for (const auto& s : d.to_send) has_loadavg |= s.id == 0;
  EXPECT_TRUE(has_loadavg);
}

TEST_F(TuningTest, ThresholdAboveSuppressesOutOfBand) {
  TuningConfig config;
  config.thresholds.push_back(Threshold{"loadavg", ThresholdKind::kAbove, 2.0, 0});
  ASSERT_TRUE(tuning.apply(config).is_ok());
  auto d = tuning.decide(samples(1.5, 0, 0, 0), at(0));
  for (const auto& s : d.to_send) EXPECT_NE(s.id, 0u);
  d = tuning.decide(samples(2.5, 0, 0, 0), at(1.0));
  bool has_loadavg = false;
  for (const auto& s : d.to_send) has_loadavg |= s.id == 0;
  EXPECT_TRUE(has_loadavg);
}

TEST_F(TuningTest, ThresholdRange) {
  TuningConfig config;
  config.thresholds.push_back(Threshold{"freemem", ThresholdKind::kRange, 10, 20});
  ASSERT_TRUE(tuning.apply(config).is_ok());
  auto in_range = tuning.decide(samples(0, 15, 0, 0), at(0));
  bool has = false;
  for (const auto& s : in_range.to_send) has |= s.id == 1;
  EXPECT_TRUE(has);
  auto out_of_range = tuning.decide(samples(0, 25, 0, 0), at(1.0));
  for (const auto& s : out_of_range.to_send) EXPECT_NE(s.id, 1u);
}

TEST_F(TuningTest, ChangePctThreshold) {
  TuningConfig config;
  config.thresholds.push_back(
      Threshold{"freemem", ThresholdKind::kChangePct, 10.0, 0});
  ASSERT_TRUE(tuning.apply(config).is_ok());
  (void)tuning.decide(samples(0, 100, 0, 0), at(0));  // seeds last-sent
  // 5% change: suppressed.
  auto d = tuning.decide(samples(0, 105, 0, 0), at(1.0));
  for (const auto& s : d.to_send) EXPECT_NE(s.id, 1u);
  // 15% change from the value last SENT (100), not last seen.
  d = tuning.decide(samples(0, 115, 0, 0), at(2.0));
  bool has = false;
  for (const auto& s : d.to_send) has |= s.id == 1;
  EXPECT_TRUE(has);
}

TEST_F(TuningTest, DifferentialFilterFirstSampleAlwaysSent) {
  TuningConfig config;
  config.differential_pct = 15.0;
  ASSERT_TRUE(tuning.apply(config).is_ok());
  EXPECT_EQ(tuning.decide(samples(1, 2, 3, 4), at(0)).to_send.size(), 4u);
  // Unchanged values: silence.
  EXPECT_TRUE(tuning.decide(samples(1, 2, 3, 4), at(1.0)).to_send.empty());
  // One metric moves 20%.
  auto d = tuning.decide(samples(1.2, 2, 3, 4), at(2.0));
  ASSERT_EQ(d.to_send.size(), 1u);
  EXPECT_EQ(d.to_send[0].id, 0u);
}

TEST_F(TuningTest, DifferentialExactlyAtBoundarySuppressed) {
  TuningConfig config;
  config.differential_pct = 15.0;
  ASSERT_TRUE(tuning.apply(config).is_ok());
  (void)tuning.decide(samples(100, 0, 0, 0), at(0));
  // |115 - 100| == 15% of 100: not strictly greater, suppressed.
  auto d = tuning.decide(samples(115, 0, 0, 0), at(1.0));
  for (const auto& s : d.to_send) EXPECT_NE(s.id, 0u);
}

TEST_F(TuningTest, UnknownMetricRejectedAtomically) {
  TuningConfig config;
  config.default_period = seconds(9.0);
  config.thresholds.push_back(Threshold{"bogus", ThresholdKind::kAbove, 1, 0});
  EXPECT_FALSE(tuning.apply(config).is_ok());
  // The valid default_period in the same request must not have applied.
  EXPECT_EQ(tuning.default_period().sec(), 1.0);
}

TEST_F(TuningTest, NonPositivePeriodsRejected) {
  // Decoded control events bypass parse_control_commands, so apply() and
  // validate() must reject zero/negative durations themselves: a zero
  // period publishes every poll forever, a negative one is always "due".
  TuningConfig config;
  config.default_period = SimDuration::zero();
  Status status = tuning.apply(config);
  EXPECT_FALSE(status.is_ok());
  EXPECT_NE(status.to_string().find("update period must be positive"),
            std::string::npos);
  EXPECT_EQ(tuning.default_period().sec(), 1.0);

  TuningConfig metric;
  metric.metric_periods.push_back(period_of("loadavg", seconds(-2.0)));
  status = tuning.apply(metric);
  EXPECT_FALSE(status.is_ok());
  EXPECT_NE(status.to_string().find("update period must be positive"),
            std::string::npos);
  status = tuning.validate(metric);
  EXPECT_FALSE(status.is_ok());
  EXPECT_NE(status.to_string().find("update period must be positive"),
            std::string::npos);
  // Everything still publishes at the untouched default.
  EXPECT_EQ(tuning.decide(samples(1, 2, 3, 4), at(0)).to_send.size(), 4u);
}

TEST_F(TuningTest, NonPositiveModuleWindowRejectedByValidate) {
  TuningConfig config;
  config.module_periods.emplace_back("cpu", SimDuration::zero());
  Status status = tuning.validate(config);
  EXPECT_FALSE(status.is_ok());
  EXPECT_NE(status.to_string().find("module window must be positive"),
            std::string::npos);
  config.module_periods.clear();
  config.module_periods.emplace_back("cpu", seconds(-5.0));
  EXPECT_FALSE(tuning.validate(config).is_ok());
  // A positive window for an unknown module still validates here — module
  // sets are per-node, so existence is checked at the receiving d-mon.
  config.module_periods.clear();
  config.module_periods.emplace_back("no_such_module", seconds(5.0));
  EXPECT_TRUE(tuning.validate(config).is_ok());
}

TEST_F(TuningTest, FilterReplacesParameterLogic) {
  TuningConfig config;
  config.filter_source = "if (input[LOADAVG].value > 2) output[0] = input[LOADAVG];";
  ASSERT_TRUE(tuning.apply(config).is_ok());
  EXPECT_TRUE(tuning.has_filter());

  auto quiet = tuning.decide(samples(1, 2, 3, 4), at(0));
  EXPECT_TRUE(quiet.to_send.empty());
  EXPECT_GT(quiet.filter_instructions, 0u);

  auto loaded = tuning.decide(samples(3, 2, 3, 4), at(0.1));
  ASSERT_EQ(loaded.to_send.size(), 1u);
  EXPECT_EQ(loaded.to_send[0].id, 0u);
  EXPECT_DOUBLE_EQ(loaded.to_send[0].value, 3.0);
}

TEST_F(TuningTest, FilterSeesLastValueSent) {
  TuningConfig config;
  config.filter_source =
      "if (input[CACHE_MISS].value > input[CACHE_MISS].last_value_sent) "
      "output[0] = input[CACHE_MISS];";
  ASSERT_TRUE(tuning.apply(config).is_ok());
  EXPECT_EQ(tuning.decide(samples(0, 0, 0, 10), at(0)).to_send.size(), 1u);
  // Not higher than what was sent: silent.
  EXPECT_TRUE(tuning.decide(samples(0, 0, 0, 10), at(1)).to_send.empty());
  EXPECT_EQ(tuning.decide(samples(0, 0, 0, 11), at(2)).to_send.size(), 1u);
}

TEST_F(TuningTest, BadFilterKeepsPreviousState) {
  TuningConfig good;
  good.filter_source = "output[0] = input[LOADAVG];";
  ASSERT_TRUE(tuning.apply(good).is_ok());
  TuningConfig bad;
  bad.filter_source = "this is not e-code";
  EXPECT_FALSE(tuning.apply(bad).is_ok());
  EXPECT_TRUE(tuning.has_filter());
  EXPECT_EQ(tuning.filter_source(), *good.filter_source);
}

TEST_F(TuningTest, FilterRuntimeErrorFailsOpen) {
  TuningConfig config;
  config.filter_source = "int x = 0; output[1/x] = input[0];";
  ASSERT_TRUE(tuning.apply(config).is_ok());
  auto d = tuning.decide(samples(1, 2, 3, 4), at(0));
  EXPECT_TRUE(d.filter_error);
  EXPECT_EQ(d.to_send.size(), 4u);  // unfiltered fallback
}

TEST_F(TuningTest, EmptyFilterSourceRemovesFilter) {
  TuningConfig config;
  config.filter_source = "output[0] = input[0];";
  ASSERT_TRUE(tuning.apply(config).is_ok());
  TuningConfig removal;
  removal.filter_source = "";
  ASSERT_TRUE(tuning.apply(removal).is_ok());
  EXPECT_FALSE(tuning.has_filter());
}

TEST_F(TuningTest, ClearResetsEverything) {
  TuningConfig config;
  config.default_period = seconds(5.0);
  config.differential_pct = 20.0;
  config.filter_source = "output[0] = input[0];";
  ASSERT_TRUE(tuning.apply(config).is_ok());
  TuningConfig clear;
  clear.clear = true;
  ASSERT_TRUE(tuning.apply(clear).is_ok());
  EXPECT_FALSE(tuning.has_filter());
  EXPECT_FALSE(tuning.differential_pct().has_value());
  EXPECT_EQ(tuning.default_period().sec(), 1.0);
}

TEST_F(TuningTest, DescribeMentionsSettings) {
  TuningConfig config;
  config.differential_pct = 15.0;
  config.thresholds.push_back(Threshold{"loadavg", ThresholdKind::kAbove, 2, 0});
  ASSERT_TRUE(tuning.apply(config).is_ok());
  const std::string description = tuning.describe();
  EXPECT_NE(description.find("differential 15"), std::string::npos);
  EXPECT_NE(description.find("threshold loadavg above 2"), std::string::npos);
}

// --- fuel knob and compile cache ---------------------------------------------

TEST_F(TuningTest, FuelOverrideReachesVmLimits) {
  TuningConfig config;
  config.max_filter_instructions = 50'000;
  ASSERT_TRUE(tuning.apply(config).is_ok());
  EXPECT_EQ(tuning.vm_limits().max_instructions, 50'000u);
  EXPECT_NE(tuning.describe().find("fuel 50000"), std::string::npos);
  // `clear` drops back to the default limit.
  TuningConfig clear;
  clear.clear = true;
  ASSERT_TRUE(tuning.apply(clear).is_ok());
  EXPECT_EQ(tuning.vm_limits().max_instructions,
            ecode::VmLimits{}.max_instructions);
}

TEST_F(TuningTest, FuelBoundsRejectedWithDescriptiveErrors) {
  // Zero would disable filtering; past the hard ceiling the fuel check at
  // control-flow edges could never fire. Both must fail loudly — these are
  // user-writable control-file values.
  TuningConfig zero;
  zero.max_filter_instructions = 0;
  const Status zero_status = tuning.apply(zero);
  ASSERT_FALSE(zero_status);
  EXPECT_NE(zero_status.message().find("filter instruction limit must be "
                                       "positive"),
            std::string::npos);

  TuningConfig huge;
  huge.max_filter_instructions = ecode::VmLimits::kMaxInstructionLimit + 1;
  const Status huge_status = tuning.apply(huge);
  ASSERT_FALSE(huge_status);
  EXPECT_NE(huge_status.message().find("exceeds hard ceiling"),
            std::string::npos);
  // Rejection is atomic: the previous (default) limit still stands.
  EXPECT_EQ(tuning.vm_limits().max_instructions,
            ecode::VmLimits{}.max_instructions);

  // validate() flags the same bounds without touching state.
  EXPECT_FALSE(tuning.validate(zero).is_ok());
  EXPECT_FALSE(tuning.validate(huge).is_ok());
}

TEST_F(TuningTest, FuelLimitActuallyBoundsFilterExecution) {
  TuningConfig config;
  config.max_filter_instructions = 64;
  config.filter_source = "for (int i = 0; i < 100000; ++i) { }";
  ASSERT_TRUE(tuning.apply(config).is_ok());
  // The filter runs out of fuel, so publication fails open: all 4 samples
  // pass through unfiltered.
  auto decision = tuning.decide(samples(1, 2, 3, 4), at(0));
  EXPECT_EQ(decision.to_send.size(), 4u);
}

TEST_F(TuningTest, IdenticalFilterReinstallSkipsRecompile) {
  TuningConfig config;
  config.filter_source = "output[0] = input[0];";
  ASSERT_TRUE(tuning.apply(config).is_ok());
  EXPECT_EQ(tuning.filter_compiles(), 1u);
  // Same source again — e.g. a control file rewritten with an unchanged
  // filter block — must hit the program cache.
  ASSERT_TRUE(tuning.apply(config).is_ok());
  ASSERT_TRUE(tuning.apply(config).is_ok());
  EXPECT_EQ(tuning.filter_compiles(), 1u);
  // A different program is a real compile.
  TuningConfig other;
  other.filter_source = "output[1] = input[1];";
  ASSERT_TRUE(tuning.apply(other).is_ok());
  EXPECT_EQ(tuning.filter_compiles(), 2u);
}

TEST_F(TuningTest, SketchEnvChangeInvalidatesProgramCache) {
  TuningConfig config;
  config.filter_source = "output[0] = input[0];";
  ASSERT_TRUE(tuning.apply(config).is_ok());
  EXPECT_EQ(tuning.filter_compiles(), 1u);
  // Flipping the sketch environment changes what the source may mean, so
  // the cache must not serve the stale program.
  tuning.enable_sketch_builtins(true);
  ASSERT_TRUE(tuning.apply(config).is_ok());
  EXPECT_EQ(tuning.filter_compiles(), 2u);
}

TEST_F(TuningTest, SketchBuiltinsRejectedUnlessEnabled) {
  TuningConfig config;
  config.filter_source = "return topk(0);";
  const Status status = tuning.apply(config);
  ASSERT_FALSE(status);
  EXPECT_NE(status.message().find("sketch support"), std::string::npos);
  tuning.enable_sketch_builtins(true);
  EXPECT_TRUE(tuning.apply(config).is_ok());
}

// --- control command parsing ------------------------------------------------

TEST(ControlParse, Period) {
  auto config = parse_control_commands("period 2.5");
  ASSERT_TRUE(config.is_ok());
  EXPECT_EQ(config.value().default_period->sec(), 2.5);
}

TEST(ControlParse, MetricPeriodWithCondition) {
  auto config = parse_control_commands(
      "period loadavg 2 if cpu_util above 0.8");
  ASSERT_TRUE(config.is_ok());
  ASSERT_EQ(config.value().metric_periods.size(), 1u);
  const MetricPeriod& mp = config.value().metric_periods[0];
  EXPECT_EQ(mp.metric, "loadavg");
  EXPECT_EQ(mp.period.sec(), 2.0);
  EXPECT_TRUE(mp.conditional);
  EXPECT_EQ(mp.cond_metric, "cpu_util");
  EXPECT_EQ(mp.cond_kind, ThresholdKind::kAbove);
  EXPECT_DOUBLE_EQ(mp.cond_value, 0.8);
}

TEST(ControlParse, Thresholds) {
  auto config = parse_control_commands(
      "threshold freemem below 50e6\n"
      "threshold loadavg above 2\n"
      "threshold diskusage range 10 100\n"
      "threshold cache_miss change 15%\n");
  ASSERT_TRUE(config.is_ok());
  ASSERT_EQ(config.value().thresholds.size(), 4u);
  EXPECT_DOUBLE_EQ(config.value().thresholds[0].a, 50e6);
  EXPECT_EQ(config.value().thresholds[2].kind, ThresholdKind::kRange);
  EXPECT_EQ(config.value().thresholds[3].kind, ThresholdKind::kChangePct);
  EXPECT_DOUBLE_EQ(config.value().thresholds[3].a, 15.0);
}

TEST(ControlParse, Differential) {
  auto config = parse_control_commands("differential 15%");
  ASSERT_TRUE(config.is_ok());
  EXPECT_DOUBLE_EQ(*config.value().differential_pct, 15.0);
}

TEST(ControlParse, FilterConsumesRemainder) {
  auto config = parse_control_commands(
      "period 2\nfilter {\n int i = 0;\n output[i] = input[0];\n}\n");
  ASSERT_TRUE(config.is_ok());
  EXPECT_EQ(config.value().default_period->sec(), 2.0);
  ASSERT_TRUE(config.value().filter_source.has_value());
  EXPECT_NE(config.value().filter_source->find("output[i]"), std::string::npos);
}

TEST(ControlParse, CommentsAndBlanksIgnored) {
  auto config = parse_control_commands("# a comment\n\nperiod 1\n");
  ASSERT_TRUE(config.is_ok());
  EXPECT_TRUE(config.value().default_period.has_value());
}

TEST(ControlParse, WindowCommand) {
  auto config = parse_control_commands("window cpu 5");
  ASSERT_TRUE(config.is_ok());
  ASSERT_EQ(config.value().module_periods.size(), 1u);
  EXPECT_EQ(config.value().module_periods[0].first, "cpu");
  EXPECT_EQ(config.value().module_periods[0].second.sec(), 5.0);
  EXPECT_FALSE(parse_control_commands("window cpu").is_ok());
  EXPECT_FALSE(parse_control_commands("window cpu -1").is_ok());
}

TEST(ControlParse, FuelCommand) {
  auto config = parse_control_commands("fuel 50000");
  ASSERT_TRUE(config.is_ok());
  EXPECT_EQ(config.value().max_filter_instructions, 50'000u);

  EXPECT_FALSE(parse_control_commands("fuel").is_ok());
  EXPECT_FALSE(parse_control_commands("fuel abc").is_ok());

  auto zero = parse_control_commands("fuel 0");
  ASSERT_FALSE(zero.is_ok());
  EXPECT_NE(zero.status().message().find("must be positive"),
            std::string::npos);
  EXPECT_FALSE(parse_control_commands("fuel -5").is_ok());

  // A user-writable control file cannot push the limit past the hard
  // ceiling, which would make out_of_fuel() unreachable.
  auto huge = parse_control_commands("fuel 1000000001");
  ASSERT_FALSE(huge.is_ok());
  EXPECT_NE(huge.status().message().find("exceeds hard ceiling"),
            std::string::npos);
  EXPECT_TRUE(parse_control_commands("fuel 1000000000").is_ok());
}

TEST(ControlParse, Clear) {
  auto config = parse_control_commands("clear");
  ASSERT_TRUE(config.is_ok());
  EXPECT_TRUE(config.value().clear);
}

TEST(ControlParse, NoFilterCommand) {
  auto config = parse_control_commands("nofilter");
  ASSERT_TRUE(config.is_ok());
  ASSERT_TRUE(config.value().filter_source.has_value());
  EXPECT_TRUE(config.value().filter_source->empty());
}

TEST(ControlParse, ErrorsAreDescriptive) {
  EXPECT_FALSE(parse_control_commands("period").is_ok());
  EXPECT_FALSE(parse_control_commands("period abc").is_ok());
  EXPECT_FALSE(parse_control_commands("threshold loadavg sideways 3").is_ok());
  EXPECT_FALSE(parse_control_commands("threshold loadavg range 10 5").is_ok());
  EXPECT_FALSE(parse_control_commands("frobnicate 3").is_ok());
  EXPECT_FALSE(parse_control_commands("period loadavg 2 if x sideways 1").is_ok());
  EXPECT_FALSE(parse_control_commands("period loadavg -1").is_ok());
}

// --- wire codec ------------------------------------------------------------

TEST(ControlCodec, RoundTrip) {
  TuningConfig config;
  config.clear = true;
  config.default_period = seconds(2.0);
  MetricPeriod mp;
  mp.metric = "loadavg";
  mp.period = milliseconds(500);
  mp.conditional = true;
  mp.cond_metric = "freemem";
  mp.cond_kind = ThresholdKind::kBelow;
  mp.cond_value = 50e6;
  config.metric_periods.push_back(mp);
  config.thresholds.push_back(Threshold{"diskusage", ThresholdKind::kRange, 1, 2});
  config.differential_pct = 15.0;
  config.filter_source = "output[0] = input[0];";

  auto decoded = decode_tuning(encode_tuning(config));
  ASSERT_TRUE(decoded.is_ok());
  const TuningConfig& d = decoded.value();
  EXPECT_TRUE(d.clear);
  EXPECT_EQ(d.default_period->ns(), config.default_period->ns());
  ASSERT_EQ(d.metric_periods.size(), 1u);
  EXPECT_EQ(d.metric_periods[0].metric, "loadavg");
  EXPECT_EQ(d.metric_periods[0].cond_metric, "freemem");
  EXPECT_DOUBLE_EQ(d.metric_periods[0].cond_value, 50e6);
  ASSERT_EQ(d.thresholds.size(), 1u);
  EXPECT_EQ(d.thresholds[0].kind, ThresholdKind::kRange);
  EXPECT_DOUBLE_EQ(*d.differential_pct, 15.0);
  EXPECT_EQ(*d.filter_source, "output[0] = input[0];");
}

TEST(ControlCodec, ModulePeriodsRoundTrip) {
  TuningConfig config;
  config.module_periods.emplace_back("cpu", seconds(5.0));
  config.module_periods.emplace_back("disk", milliseconds(500.0));
  auto decoded = decode_tuning(encode_tuning(config));
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_EQ(decoded.value().module_periods.size(), 2u);
  EXPECT_EQ(decoded.value().module_periods[0].first, "cpu");
  EXPECT_EQ(decoded.value().module_periods[1].second.ns(),
            milliseconds(500.0).ns());
}

TEST(ControlCodec, EmptyConfigRoundTrips) {
  auto decoded = decode_tuning(encode_tuning(TuningConfig{}));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_FALSE(decoded.value().clear);
  EXPECT_FALSE(decoded.value().default_period.has_value());
  EXPECT_FALSE(decoded.value().filter_source.has_value());
}

TEST(ControlCodec, FuelRoundTrips) {
  TuningConfig config;
  config.max_filter_instructions = 123'456;
  auto decoded = decode_tuning(encode_tuning(config));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().max_filter_instructions, 123'456u);
  // Absent stays absent (the presence byte carries the distinction).
  auto empty = decode_tuning(encode_tuning(TuningConfig{}));
  ASSERT_TRUE(empty.is_ok());
  EXPECT_FALSE(empty.value().max_filter_instructions.has_value());
}

TEST(ControlCodec, TruncatedPayloadRejected) {
  auto bytes = encode_tuning(TuningConfig{});
  bytes.pop_back();
  EXPECT_FALSE(decode_tuning(bytes).is_ok());
}

}  // namespace
}  // namespace dproc::core
