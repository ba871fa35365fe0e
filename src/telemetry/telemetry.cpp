#include "dproc/telemetry/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <set>
#include <sstream>

#include "dproc/sim/engine.hpp"

namespace dproc::telemetry {

namespace {

std::string full_name(const std::string& subsystem, const std::string& name) {
  return subsystem + "/" + name;
}

/// Lane reserved for flow events stitched from the hop log; span categories
/// take tids 1..N in sorted order, so the trace lane sits above them all.
constexpr int kFlowLaneTid = 0;

/// Stable per-subsystem tids for one registry's export: distinct span
/// categories sorted by name, tids assigned 1..N. The same category set
/// always yields the same lane layout, so merged traces from repeated runs
/// line up.
std::vector<std::pair<std::string, int>> category_lanes(
    const Registry& registry) {
  std::set<std::string> categories;
  for (std::size_t i = 0; i < registry.span_count(); ++i) {
    categories.insert(registry.span(i).category);
  }
  std::vector<std::pair<std::string, int>> lanes;
  lanes.reserve(categories.size());
  int tid = 1;
  for (const std::string& category : categories) {
    lanes.emplace_back(category, tid++);
  }
  return lanes;
}

int lane_of(const std::vector<std::pair<std::string, int>>& lanes,
            const char* category) {
  for (const auto& [name, tid] : lanes) {
    if (name == category) return tid;
  }
  return kFlowLaneTid;
}

/// trace_event strings are instrument/category names (ASCII identifiers),
/// but escape defensively so a stray quote cannot corrupt the document.
void append_json_string(std::string& out, const char* s) {
  out += '"';
  for (const char* p = s; *p != '\0'; ++p) {
    switch (*p) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += *p; break;
    }
  }
  out += '"';
}

void append_complete_event(std::string& out, const Span& span, int pid,
                           int tid, bool& first) {
  if (!first) out += ",\n";
  first = false;
  out += R"({"name":)";
  append_json_string(out, span.name);
  out += R"(,"cat":)";
  append_json_string(out, span.category);
  // Chrome trace timestamps are microseconds; keep ns precision as decimals.
  out += R"(,"ph":"X","ts":)";
  out += std::to_string(static_cast<double>(span.start_ns) / 1000.0);
  out += R"(,"dur":)";
  out +=
      std::to_string(static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
  out += R"(,"pid":)";
  out += std::to_string(pid);
  out += R"(,"tid":)";
  out += std::to_string(tid);
  out += '}';
}

void append_thread_name_event(std::string& out, int pid, int tid,
                              const std::string& name, bool& first) {
  if (!first) out += ",\n";
  first = false;
  out += R"({"name":"thread_name","ph":"M","pid":)";
  out += std::to_string(pid);
  out += R"(,"tid":)";
  out += std::to_string(tid);
  out += R"(,"args":{"name":)";
  append_json_string(out, name.c_str());
  out += "}}";
}

/// One hop as a Chrome flow event. A publish hop starts the flow ("s"), a
/// decision hop finishes it ("f", binding to the enclosing slice), every
/// hop in between is a step ("t"); Chrome stitches them across pid lanes by
/// the shared id.
void append_flow_event(std::string& out, const Hop& hop, int pid,
                       bool& first) {
  const char* phase = "t";
  if (hop.stage == HopStage::kPublish) phase = "s";
  if (hop.stage == HopStage::kDecision) phase = "f";
  if (!first) out += ",\n";
  first = false;
  char id_hex[24];
  std::snprintf(id_hex, sizeof id_hex, "0x%llx",
                static_cast<unsigned long long>(hop.trace_id));
  out += R"({"name":"chan)";
  out += std::to_string(hop.channel);
  out += R"(","cat":"trace","ph":")";
  out += phase;
  out += R"(","id":")";
  out += id_hex;
  out += R"(","ts":)";
  out += std::to_string(static_cast<double>(hop.ts_ns) / 1000.0);
  out += R"(,"pid":)";
  out += std::to_string(pid);
  out += R"(,"tid":)";
  out += std::to_string(kFlowLaneTid);
  if (hop.stage == HopStage::kDecision) out += R"(,"bp":"e")";
  out += R"(,"args":{"stage":")";
  out += to_string(hop.stage);
  out += R"(","dur_us":)";
  out += std::to_string(static_cast<double>(hop.dur_ns) / 1000.0);
  out += "}}";
}

}  // namespace

const char* to_string(HopStage stage) {
  switch (stage) {
    case HopStage::kPublish: return "publish";
    case HopStage::kSubmit: return "submit";
    case HopStage::kArrive: return "wire";
    case HopStage::kDeliver: return "deliver";
    case HopStage::kRender: return "render";
    case HopStage::kDecision: return "decision";
  }
  return "?";
}

Registry::Registry(const sim::Engine* clock, std::size_t span_capacity,
                   std::size_t hop_capacity)
    : clock_(clock),
      span_capacity_(span_capacity == 0 ? 1 : span_capacity),
      hop_capacity_(hop_capacity == 0 ? 1 : hop_capacity) {}

void Registry::set_enabled(bool enabled) {
  if (enabled && spans_.empty()) spans_.resize(span_capacity_);
  enabled_ = enabled;
}

void Registry::set_trace_enabled(bool enabled) {
  if (enabled && hops_.empty()) hops_.resize(hop_capacity_);
  trace_enabled_ = enabled;
}

Counter& Registry::counter(const std::string& subsystem,
                           const std::string& name) {
  return counters_[counter_id(subsystem, name)];
}

Gauge& Registry::gauge(const std::string& subsystem, const std::string& name) {
  return gauges_[gauge_id(subsystem, name)];
}

LatencyRecorder& Registry::latency(const std::string& subsystem,
                                   const std::string& name) {
  return latencies_[latency_id(subsystem, name)];
}

InstrumentId Registry::counter_id(const std::string& subsystem,
                                  const std::string& name) {
  const auto [it, inserted] = counter_ids_.emplace(
      full_name(subsystem, name),
      static_cast<InstrumentId>(counters_.size()));
  if (inserted) counters_.push_back(Counter{&enabled_});
  return it->second;
}

InstrumentId Registry::gauge_id(const std::string& subsystem,
                                const std::string& name) {
  const auto [it, inserted] = gauge_ids_.emplace(
      full_name(subsystem, name), static_cast<InstrumentId>(gauges_.size()));
  if (inserted) gauges_.push_back(Gauge{&enabled_});
  return it->second;
}

InstrumentId Registry::latency_id(const std::string& subsystem,
                                  const std::string& name) {
  const auto [it, inserted] = latency_ids_.emplace(
      full_name(subsystem, name),
      static_cast<InstrumentId>(latencies_.size()));
  if (inserted) latencies_.push_back(LatencyRecorder{&enabled_});
  return it->second;
}

void Registry::record_span(const char* category, const char* name,
                           SimTime start, SimTime end) {
  if (!enabled_) return;
  Span& slot = spans_[(span_head_ + span_size_) % spans_.size()];
  slot = Span{category, name, start.ns(), end.ns()};
  if (span_size_ == spans_.size()) {
    span_head_ = (span_head_ + 1) % spans_.size();
    ++spans_dropped_;
  } else {
    ++span_size_;
  }
}

const Span& Registry::span(std::size_t i) const {
  return spans_[(span_head_ + i) % spans_.size()];
}

void Registry::clear_spans() {
  span_head_ = 0;
  span_size_ = 0;
  spans_dropped_ = 0;
}

void Registry::record_hop(const Hop& hop) {
  if (!trace_enabled_) return;
  Hop& slot = hops_[(hop_head_ + hop_size_) % hops_.size()];
  slot = hop;
  if (hop_size_ == hops_.size()) {
    hop_head_ = (hop_head_ + 1) % hops_.size();
    ++hops_dropped_;
  } else {
    ++hop_size_;
  }
}

const Hop& Registry::hop(std::size_t i) const {
  return hops_[(hop_head_ + i) % hops_.size()];
}

void Registry::clear_hops() {
  hop_head_ = 0;
  hop_size_ = 0;
  hops_dropped_ = 0;
}

std::int64_t Registry::now_ns() const {
  return clock_ ? clock_->now().ns() : 0;
}

void Registry::for_each_counter(
    const std::function<void(const std::string&, const Counter&)>& fn) const {
  for (const auto& [name, id] : counter_ids_) fn(name, counters_[id]);
}

void Registry::for_each_gauge(
    const std::function<void(const std::string&, const Gauge&)>& fn) const {
  for (const auto& [name, id] : gauge_ids_) fn(name, gauges_[id]);
}

void Registry::for_each_latency(
    const std::function<void(const std::string&, const LatencyRecorder&)>& fn)
    const {
  for (const auto& [name, id] : latency_ids_) fn(name, latencies_[id]);
}

std::string Registry::render() const {
  std::ostringstream out;
  out << "telemetry " << (enabled_ ? "enabled" : "disabled") << "\n";
  for (const auto& [name, id] : counter_ids_) {
    out << "counter " << name << " " << counters_[id].value() << "\n";
  }
  for (const auto& [name, id] : gauge_ids_) {
    out << "gauge " << name << " " << gauges_[id].value() << "\n";
  }
  for (const auto& [name, id] : latency_ids_) {
    const LatencyRecorder& latency = latencies_[id];
    out << "latency " << name << " count=" << latency.count();
    if (latency.count() > 0) {
      out << " mean_us=" << latency.mean_us()
          << " p50_us=" << latency.quantile_us(0.5)
          << " p95_us=" << latency.quantile_us(0.95)
          << " p99_us=" << latency.quantile_us(0.99)
          << " max_us=" << latency.quantile_us(1.0);
    }
    out << "\n";
  }
  out << "spans " << span_size_ << "/" << span_capacity_ << " dropped "
      << spans_dropped_ << "\n";
  out << "hops " << hop_size_ << "/" << hop_capacity_ << " dropped "
      << hops_dropped_ << " tracing "
      << (trace_enabled_ ? "enabled" : "disabled") << "\n";
  return out.str();
}

void Registry::append_chrome_trace_events(std::string& out, int pid,
                                          bool& first) const {
  const std::vector<std::pair<std::string, int>> lanes = category_lanes(*this);
  for (const auto& [category, tid] : lanes) {
    append_thread_name_event(out, pid, tid, category, first);
  }
  if (hop_size_ > 0) {
    append_thread_name_event(out, pid, kFlowLaneTid, "trace", first);
  }
  for (std::size_t i = 0; i < span_size_; ++i) {
    const Span& s = span(i);
    append_complete_event(out, s, pid, lane_of(lanes, s.category), first);
  }
  for (std::size_t i = 0; i < hop_size_; ++i) {
    append_flow_event(out, hop(i), pid, first);
  }
}

std::string Registry::export_chrome_trace(int pid) const {
  return merge_chrome_trace({{pid, this}});
}

std::string merge_chrome_trace(
    const std::vector<std::pair<int, const Registry*>>& registries) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& [pid, registry] : registries) {
    if (registry != nullptr) {
      registry->append_chrome_trace_events(out, pid, first);
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::vector<HopBreakdownRow> hop_breakdown(
    const std::vector<const Registry*>& registries) {
  // Keyed (channel, stage); a map keeps the output sorted without a second
  // pass. This runs on snapshot/report paths, never in the event loop.
  std::map<std::pair<std::uint32_t, std::uint8_t>, SampleSet> cells;
  for (const Registry* registry : registries) {
    if (registry == nullptr) continue;
    for (std::size_t i = 0; i < registry->hop_count(); ++i) {
      const Hop& hop = registry->hop(i);
      cells[{hop.channel, static_cast<std::uint8_t>(hop.stage)}].add(
          static_cast<double>(hop.dur_ns) / 1000.0);
    }
  }
  std::vector<HopBreakdownRow> rows;
  rows.reserve(cells.size());
  for (auto& [key, samples] : cells) {
    HopBreakdownRow row;
    row.channel = key.first;
    row.stage = static_cast<HopStage>(key.second);
    row.durations_us = std::move(samples);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<std::pair<Hop, int>> collect_trace(
    const std::vector<std::pair<int, const Registry*>>& registries,
    std::uint64_t trace_id) {
  std::vector<std::pair<Hop, int>> chain;
  for (const auto& [pid, registry] : registries) {
    if (registry == nullptr) continue;
    for (std::size_t i = 0; i < registry->hop_count(); ++i) {
      const Hop& hop = registry->hop(i);
      if (hop.trace_id == trace_id) chain.emplace_back(hop, pid);
    }
  }
  std::sort(chain.begin(), chain.end(),
            [](const std::pair<Hop, int>& a, const std::pair<Hop, int>& b) {
              if (a.first.stage != b.first.stage) {
                return a.first.stage < b.first.stage;
              }
              return a.first.ts_ns < b.first.ts_ns;
            });
  return chain;
}

std::string render_hop_breakdown(
    const std::vector<HopBreakdownRow>& rows,
    const std::function<std::string(std::uint32_t)>& channel_name) {
  std::ostringstream out;
  out << std::left << std::setw(18) << "channel" << std::setw(10) << "stage"
      << std::right << std::setw(8) << "count" << std::setw(12) << "mean_us"
      << std::setw(12) << "p50_us" << std::setw(12) << "p99_us"
      << std::setw(12) << "max_us" << "\n";
  for (const HopBreakdownRow& row : rows) {
    std::string name;
    if (channel_name) name = channel_name(row.channel);
    if (name.empty()) name = "chan" + std::to_string(row.channel);
    out << std::left << std::setw(18) << name << std::setw(10)
        << to_string(row.stage) << std::right << std::setw(8)
        << row.durations_us.count();
    const SampleSet& s = row.durations_us;
    out << std::fixed << std::setprecision(1) << std::setw(12) << s.mean()
        << std::setw(12) << s.quantile(0.5) << std::setw(12)
        << s.quantile(0.99) << std::setw(12) << s.quantile(1.0)
        << std::defaultfloat << std::setprecision(6);
    out << "\n";
  }
  return out.str();
}

ScopedSpan::ScopedSpan(Registry& registry, const char* category,
                       const char* name)
    : registry_(registry),
      category_(category),
      name_(name),
      start_ns_(registry.now_ns()) {}

ScopedSpan::~ScopedSpan() {
  registry_.record_span(category_, name_, SimTime{start_ns_},
                        SimTime{registry_.now_ns()});
}

}  // namespace dproc::telemetry
