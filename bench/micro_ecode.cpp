// E-code microbenchmarks (wall-clock, google-benchmark).
//
// Quantifies the paper's §3 claim that parameters are "cheaper" than
// dynamic filters: compilation is the dominant one-time cost, execution a
// small per-publication cost, and parameter evaluation is cheaper than
// either.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "alloc_counter.hpp"
#include "bench_json.hpp"
#include "dproc/core/tuning.hpp"
#include "dproc/ecode/ecode.hpp"

namespace {

using dproc::ecode::CompileEnv;
using dproc::ecode::Filter;
using dproc::ecode::Sample;

const char* kFigure3Filter = R"({
  int i = 0;
  if (input[LOADAVG].value > 2) {
    output[i] = input[LOADAVG];
    i = i + 1;
  }
  if (input[DISKUSAGE].value > 10000 && input[FREEMEM].value < 50e6) {
    output[i] = input[DISKUSAGE];
    i = i + 1;
    output[i] = input[FREEMEM];
    i = i + 1;
  }
  if (input[CACHE_MISS].value > input[CACHE_MISS].last_value_sent) {
    output[i] = input[CACHE_MISS];
    i = i + 1;
  }
})";

CompileEnv paper_env() {
  CompileEnv env;
  env.constants = {{"LOADAVG", 0}, {"DISKUSAGE", 1}, {"FREEMEM", 2},
                   {"CACHE_MISS", 3}};
  return env;
}

std::vector<Sample> paper_input() {
  return {{0, 2.5, 0.4, 0}, {1, 20'000, 220, 0}, {2, 41e6, 310e6, 0},
          {3, 8'812'004, 8'611'220, 0}};
}

void BM_CompileFigure3Filter(benchmark::State& state) {
  const CompileEnv env = paper_env();
  for (auto _ : state) {
    auto filter = Filter::compile(kFigure3Filter, env);
    benchmark::DoNotOptimize(filter);
  }
}
BENCHMARK(BM_CompileFigure3Filter);

void BM_ExecuteFigure3Filter(benchmark::State& state) {
  auto filter = Filter::compile(kFigure3Filter, paper_env()).value();
  const auto input = paper_input();
  for (auto _ : state) {
    auto result = filter.run(input);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ExecuteFigure3Filter);

void BM_VmInstructionThroughput(benchmark::State& state) {
  // A tight counted loop; reports instructions/second of the interpreter.
  auto filter =
      Filter::compile("int s = 0; for (int i = 0; i < 10000; ++i) s += i;")
          .value();
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    auto result = filter.run({});
    instructions += result.value().instructions_executed;
  }
  state.counters["insns_per_s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VmInstructionThroughput);

void BM_CompileScalesWithSource(benchmark::State& state) {
  // Source size grows linearly with the statement count.
  std::string source = "int acc = 0;\n";
  for (int i = 0; i < state.range(0); ++i) {
    source += "acc = acc + " + std::to_string(i) + ";\n";
  }
  const CompileEnv env;
  for (auto _ : state) {
    auto filter = Filter::compile(source, env);
    benchmark::DoNotOptimize(filter);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * source.size()));
}
BENCHMARK(BM_CompileScalesWithSource)->Arg(8)->Arg(64)->Arg(512);

void BM_ParameterDecision(benchmark::State& state) {
  // The parameter path the paper calls "cheaper": thresholds + periods,
  // no compiled code involved.
  std::map<std::string, dproc::core::MetricId> ids{
      {"loadavg", 0}, {"diskusage", 1}, {"freemem", 2}, {"cache_miss", 3}};
  dproc::core::PublisherTuning tuning{dproc::seconds(1.0), ids};
  dproc::core::TuningConfig config;
  config.thresholds.push_back(
      {"loadavg", dproc::core::ThresholdKind::kAbove, 2.0, 0});
  config.differential_pct = 15.0;
  (void)tuning.apply(config);

  std::vector<dproc::core::MetricSample> samples{
      {0, 2.5, {}}, {1, 20'000, {}}, {2, 41e6, {}}, {3, 8'812'004, {}}};
  dproc::SimTime now;
  for (auto _ : state) {
    now = now + dproc::seconds(1.0);
    auto decision = tuning.decide(samples, now);
    benchmark::DoNotOptimize(decision);
  }
}
BENCHMARK(BM_ParameterDecision);

void BM_FilterDecision(benchmark::State& state) {
  // The same policy expressed as an E-code filter, through PublisherTuning.
  std::map<std::string, dproc::core::MetricId> ids{
      {"loadavg", 0}, {"diskusage", 1}, {"freemem", 2}, {"cache_miss", 3}};
  dproc::core::PublisherTuning tuning{dproc::seconds(1.0), ids};
  dproc::core::TuningConfig config;
  config.filter_source = kFigure3Filter;
  (void)tuning.apply(config);

  std::vector<dproc::core::MetricSample> samples{
      {0, 2.5, {}}, {1, 20'000, {}}, {2, 41e6, {}}, {3, 8'812'004, {}}};
  dproc::SimTime now;
  for (auto _ : state) {
    now = now + dproc::seconds(1.0);
    auto decision = tuning.decide(samples, now);
    benchmark::DoNotOptimize(decision);
  }
}
BENCHMARK(BM_FilterDecision);

// --- BENCH_micro_ecode.json: the perf-trajectory numbers -------------------
// Measured with plain chrono timing (not google-benchmark) so the loop is
// exactly the steady-state d-mon pattern: one persistent Vm, one reused
// FilterResult, one filter evaluation per "poll".

dproc::bench::JsonBenchEntry measure_steady_state(std::uint64_t iters) {
  using Clock = std::chrono::steady_clock;
  auto filter = Filter::compile(kFigure3Filter, paper_env()).value();
  const auto input = paper_input();

  dproc::ecode::Vm vm;
  dproc::ecode::FilterResult result;
  for (int i = 0; i < 1000; ++i) {  // warm the scratch arenas
    (void)vm.run(filter.bytecode(), input, result);
  }

  const std::uint64_t allocs_before = dproc::bench::alloc_count();
  const Clock::time_point start = Clock::now();
  std::uint64_t insns = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    (void)vm.run(filter.bytecode(), input, result);
    insns += result.instructions_executed;
  }
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - start)
                              .count());
  const std::uint64_t allocs = dproc::bench::alloc_count() - allocs_before;
  benchmark::DoNotOptimize(insns);

  dproc::bench::JsonBenchEntry entry;
  entry.name = "filter_eval_steady_state";
  entry.iterations = iters;
  entry.ns_per_event = ns / static_cast<double>(iters);
  entry.ops_per_sec = 1e9 / entry.ns_per_event;
  entry.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(iters);
  return entry;
}

dproc::bench::JsonBenchEntry measure_pooled(std::uint64_t iters) {
  // The pooled path: no caller-owned Vm, but the per-channel VmPool keeps
  // the leased Vm's arenas warm — steady-state latency at fresh-VM call
  // convenience.
  using Clock = std::chrono::steady_clock;
  auto filter = Filter::compile(kFigure3Filter, paper_env()).value();
  const auto input = paper_input();

  dproc::ecode::VmPool pool;
  dproc::ecode::FilterResult result;
  for (int i = 0; i < 1000; ++i) {  // warm the pool's single lease slot
    (void)filter.run(pool, input, result);
  }

  const std::uint64_t allocs_before = dproc::bench::alloc_count();
  const Clock::time_point start = Clock::now();
  std::uint64_t insns = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    (void)filter.run(pool, input, result);
    insns += result.instructions_executed;
  }
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - start)
                              .count());
  const std::uint64_t allocs = dproc::bench::alloc_count() - allocs_before;
  benchmark::DoNotOptimize(insns);

  dproc::bench::JsonBenchEntry entry;
  entry.name = "filter_eval_pooled";
  entry.iterations = iters;
  entry.ns_per_event = ns / static_cast<double>(iters);
  entry.ops_per_sec = 1e9 / entry.ns_per_event;
  entry.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(iters);
  return entry;
}

dproc::bench::JsonBenchEntry measure_per_call(std::uint64_t iters) {
  // The compatibility path (fresh result per call), for comparison.
  using Clock = std::chrono::steady_clock;
  auto filter = Filter::compile(kFigure3Filter, paper_env()).value();
  const auto input = paper_input();

  const std::uint64_t allocs_before = dproc::bench::alloc_count();
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto result = filter.run(input);
    benchmark::DoNotOptimize(result);
  }
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - start)
                              .count());
  const std::uint64_t allocs = dproc::bench::alloc_count() - allocs_before;

  dproc::bench::JsonBenchEntry entry;
  entry.name = "filter_eval_fresh_vm";
  entry.iterations = iters;
  entry.ns_per_event = ns / static_cast<double>(iters);
  entry.ops_per_sec = 1e9 / entry.ns_per_event;
  entry.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(iters);
  return entry;
}

dproc::bench::JsonBenchEntry measure_fresh_pooled(std::uint64_t iters) {
  // The fresh-call shape d-mon uses per channel: every evaluation acquires
  // a lease from the per-channel pool (no caller-owned Vm or result) and
  // releases it. Once the single slot has warmed up this must sit within
  // 1.5x of the persistent-Vm steady state with zero heap traffic — the
  // exit-code bar in main().
  using Clock = std::chrono::steady_clock;
  auto filter = Filter::compile(kFigure3Filter, paper_env()).value();
  const auto input = paper_input();

  dproc::ecode::VmPool pool;
  for (int i = 0; i < 1000; ++i) {  // warm the pool's single lease slot
    auto lease = filter.eval(pool, input);
    benchmark::DoNotOptimize(lease);
  }

  const std::uint64_t allocs_before = dproc::bench::alloc_count();
  const Clock::time_point start = Clock::now();
  std::uint64_t insns = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto lease = filter.eval(pool, input);
    insns += lease.value().result().instructions_executed;
  }
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - start)
                              .count());
  const std::uint64_t allocs = dproc::bench::alloc_count() - allocs_before;
  benchmark::DoNotOptimize(insns);

  dproc::bench::JsonBenchEntry entry;
  entry.name = "filter_eval_fresh_pooled";
  entry.iterations = iters;
  entry.ns_per_event = ns / static_cast<double>(iters);
  entry.ops_per_sec = 1e9 / entry.ns_per_event;
  entry.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(iters);
  return entry;
}

dproc::bench::JsonBenchEntry measure_corpus(std::uint64_t iters) {
  // Interpreter throughput over a heterogeneous filter corpus, evaluated
  // round-robin the way a d-mon hosting many channels (each with its own
  // filter) interleaves them. One corpus pass executes ~12k VM
  // instructions; scale the outer count down accordingly.
  using Clock = std::chrono::steady_clock;
  // Control-flow-dense filters (counters, rate accumulators, hysteresis
  // state machines): the handler work is cheap, so instruction dispatch is
  // what gets measured.
  static const char* const kCorpus[] = {
      // counted integer loop (the classic dispatch stressor)
      "int s = 0; for (int i = 0; i < 1000; ++i) s += i; return s;",
      // xorshift-style bit mixing
      "int h = 12345;\n"
      "for (int i = 0; i < 600; ++i) {\n"
      "  h = h ^ (h << 13); h = h ^ (h >> 7); h = h + i;\n"
      "}\n"
      "return h % 65536;",
      // branchy ternaries and modulo
      "int a = 0; int b = 1;\n"
      "for (int i = 1; i < 500; ++i) {\n"
      "  a = (i % 3 == 0) ? a + b : a - 1;\n"
      "  b = b + (a < 0 ? 1 : 2);\n"
      "}\n"
      "return a + b;",
      // hysteresis state machine over a synthetic level
      "int state = 0; int flips = 0; int level = 0;\n"
      "for (int i = 0; i < 500; ++i) {\n"
      "  level = (level * 13 + 7) % 100;\n"
      "  if (state == 0) { if (level > 80) { state = 1; flips = flips + 1; } }\n"
      "  else { if (level < 20) { state = 0; flips = flips + 1; } }\n"
      "}\n"
      "return flips * 2 + state;",
      // sample traffic: the paper's threshold filter over an input frame
      "int sent = 0;\n"
      "for (int i = 0; i < 8; ++i) {\n"
      "  if (input[i].value > input[i].last_value_sent * 1.05) {\n"
      "    output[i] = input[i]; sent = sent + 1;\n"
      "  }\n"
      "}\n"
      "return sent;",
  };
  std::vector<Filter> corpus;
  for (const char* source : kCorpus) {
    corpus.push_back(Filter::compile(source).value());
  }
  std::vector<Sample> input;
  for (int i = 0; i < 8; ++i) {
    Sample s;
    s.id = i;
    s.value = 100.0 + i;
    s.last_value_sent = (i % 2 == 0) ? 90.0 : 100.0 + i;
    input.push_back(s);
  }
  const std::uint64_t outer = std::max<std::uint64_t>(iters / 200, 8);

  dproc::ecode::Vm vm;
  dproc::ecode::FilterResult result;
  for (const Filter& filter : corpus) {
    (void)vm.run(filter.bytecode(), input, result);
  }

  const Clock::time_point start = Clock::now();
  std::uint64_t insns = 0;
  for (std::uint64_t i = 0; i < outer; ++i) {
    for (const Filter& filter : corpus) {
      (void)vm.run(filter.bytecode(), input, result);
      insns += result.instructions_executed;
    }
  }
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - start)
                              .count());

  dproc::bench::JsonBenchEntry entry;
  entry.name = "filter_eval_corpus";
  entry.iterations = outer;
  entry.ns_per_event = ns / static_cast<double>(outer);
  entry.ops_per_sec = 1e9 / entry.ns_per_event;
  entry.extras.emplace_back("insns_per_s",
                            static_cast<double>(insns) * 1e9 / ns);
  return entry;
}

/// Best-of-N to keep the exit-code ratio bars stable at smoke scale.
template <typename Fn>
dproc::bench::JsonBenchEntry best_of(int n, Fn measure) {
  dproc::bench::JsonBenchEntry best = measure();
  for (int i = 1; i < n; ++i) {
    dproc::bench::JsonBenchEntry candidate = measure();
    if (candidate.ns_per_event < best.ns_per_event) best = candidate;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const std::uint64_t iters = dproc::bench::bench_iterations(2'000'000);
  auto steady = best_of(3, [&] { return measure_steady_state(iters); });
  auto pooled = best_of(3, [&] { return measure_pooled(iters); });
  auto fresh = best_of(3, [&] { return measure_fresh_pooled(iters); });
  auto corpus = best_of(3, [&] { return measure_corpus(iters); });
  const double fresh_ratio = fresh.ns_per_event / steady.ns_per_event;
  fresh.extras.emplace_back("ratio_vs_steady", fresh_ratio);

  const bool ok = dproc::bench::write_bench_json(
      "micro_ecode", {steady, pooled, fresh, measure_per_call(iters),
                      corpus});
  if (!ok) return 1;

  // Exit-code bars: the pooled fresh-call path must stay within 1.5x of
  // steady state and allocation-free once warm.
  if (fresh_ratio > 1.5) {
    std::fprintf(stderr,
                 "PERF BAR FAILED: fresh_pooled %.1f ns vs steady %.1f ns "
                 "(ratio %.2f > 1.5)\n",
                 fresh.ns_per_event, steady.ns_per_event, fresh_ratio);
    return 1;
  }
  if (fresh.allocs_per_event != 0.0) {
    std::fprintf(stderr,
                 "PERF BAR FAILED: fresh_pooled allocates (%.4f/event)\n",
                 fresh.allocs_per_event);
    return 1;
  }
  return 0;
}
