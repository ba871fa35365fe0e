#include "dproc/core/monitors.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <memory>
#include <sstream>

namespace dproc::core {

std::string to_filter_constant(const std::string& key) {
  std::string out = key;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return out;
}

// --- CPU_MON ---------------------------------------------------------------

CpuMonitor::CpuMonitor(host::Host& host, SimDuration window,
                       SimDuration sample_interval, double sample_cycles)
    : host_(host),
      window_(window),
      sample_interval_(sample_interval),
      sample_cycles_(sample_cycles) {
  max_samples_ = static_cast<std::size_t>(
                     seconds(3600.0) / sample_interval_) +  // hard cap: 1 h
                 1;
  // Jitter each wakeup by ±10%: strictly periodic sampling aliases against
  // periodic workloads (a 5 Hz stream processor observed at exactly 10 Hz
  // reads 0.5 busy regardless of its true utilization); the jitter makes
  // the run-queue average an unbiased estimator, like real timer slack.
  schedule_next_sample();
}

void CpuMonitor::schedule_next_sample() {
  const SimDuration delay =
      sample_interval_ * host_.rng().uniform(0.9, 1.1);
  timer_ = host_.engine().schedule_after(delay, [this] {
    // The kernel thread wakes, walks the task list, records the run-queue
    // length. Both the walk and the wakeup cost kernel cycles.
    host_.cpu().consume_kernel_cycles(sample_cycles_);
    samples_.emplace_back(host_.engine().now(),
                          static_cast<double>(host_.cpu().run_queue_length()));
    // Trim anything older than the largest window we may be asked about.
    const SimTime cutoff = host_.engine().now() - seconds(3600.0);
    while (samples_.size() > max_samples_ ||
           (!samples_.empty() && samples_.front().first < cutoff)) {
      samples_.erase(samples_.begin());
    }
    schedule_next_sample();
  });
}

CpuMonitor::~CpuMonitor() { timer_.cancel(); }

std::vector<MetricDesc> CpuMonitor::metrics() const {
  return {{0, "loadavg", "cpu/loadavg"}, {0, "cpu_util", "cpu/utilization"}};
}

double CpuMonitor::load_average() const {
  const SimTime cutoff = host_.engine().now() - window_;
  double sum = 0.0;
  std::size_t n = 0;
  for (auto it = samples_.rbegin(); it != samples_.rend(); ++it) {
    if (it->first < cutoff) break;
    sum += it->second;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

void CpuMonitor::collect(std::vector<MetricSample>& out, SimTime now) {
  const auto& descs = metrics();
  out.push_back(sample(descs[0].id, load_average(), now));
  out.push_back(sample(descs[1].id, host_.cpu().utilization(), now));
}

// --- MEM_MON ---------------------------------------------------------------

std::vector<MetricDesc> MemMonitor::metrics() const {
  return {{0, "freemem", "mem/freemem"}, {0, "free_pages", "mem/free_pages"}};
}

void MemMonitor::collect(std::vector<MetricSample>& out, SimTime now) {
  out.push_back(sample(0, static_cast<double>(host_.memory().free_bytes()), now));
  out.push_back(sample(0, static_cast<double>(host_.memory().free_pages()), now));
}

// --- DISK_MON --------------------------------------------------------------

std::vector<MetricDesc> DiskMonitor::metrics() const {
  return {{0, "disk_reads", "disk/reads"},
          {0, "disk_writes", "disk/writes"},
          {0, "diskusage", "disk/sectors"}};
}

void DiskMonitor::collect(std::vector<MetricSample>& out, SimTime now) {
  const host::DiskCounters& counters = host_.disk().counters();
  if (!seeded_) {
    last_ = counters;
    last_at_ = now;
    seeded_ = true;
    out.push_back(sample(0, 0.0, now));
    out.push_back(sample(0, 0.0, now));
    out.push_back(sample(0, 0.0, now));
    return;
  }
  const double dt = std::max((now - last_at_).sec(), 1e-9);
  const double reads =
      static_cast<double>(counters.reads - last_.reads) / dt;
  const double writes =
      static_cast<double>(counters.writes - last_.writes) / dt;
  const double sectors =
      static_cast<double>((counters.sectors_read - last_.sectors_read) +
                          (counters.sectors_written - last_.sectors_written)) /
      dt;
  last_ = counters;
  last_at_ = now;
  out.push_back(sample(0, reads, now));
  out.push_back(sample(0, writes, now));
  out.push_back(sample(0, sectors, now));
}

// --- NET_MON ---------------------------------------------------------------

NetMonitor::NetMonitor(host::Host& host, net::Nic& nic,
                       double link_capacity_bps)
    : host_(host), nic_(nic), link_capacity_bps_(link_capacity_bps) {}

std::vector<MetricDesc> NetMonitor::metrics() const {
  return {{0, "net_in", "net/in_bps"},
          {0, "net_out", "net/out_bps"},
          {0, "net_avail", "net/available_bps"},
          {0, "rtt", "net/rtt_us"},
          {0, "retrans", "net/retransmissions"},
          {0, "udp_lost", "net/udp_lost"}};
}

void NetMonitor::collect(std::vector<MetricSample>& out, SimTime now) {
  const net::NicStats& stats = nic_.stats();

  double lost_rate = 0.0;
  if (seeded_) {
    const double dt = std::max((now - last_at_).sec(), 1e-9);
    in_bps_.add(static_cast<double>(stats.bytes_received - last_bytes_in_) *
                8.0 / dt);
    out_bps_.add(static_cast<double>(stats.bytes_sent - last_bytes_out_) *
                 8.0 / dt);
    lost_rate =
        static_cast<double>(stats.datagrams_lost - last_datagrams_lost_) / dt;
  }
  const double in_bps = in_bps_.value();
  const double out_bps = out_bps_.value();
  last_bytes_in_ = stats.bytes_received;
  last_bytes_out_ = stats.bytes_sent;
  last_datagrams_lost_ = stats.datagrams_lost;
  last_at_ = now;
  seeded_ = true;

  // Smoothed RTT averaged across live connections; retransmissions are the
  // cumulative count, matching a kernel's netstat counters. The walk goes
  // in ascending flow-id order, which fixes the summation order and so the
  // published mean's exact bits.
  double rtt_sum = 0.0;
  std::uint64_t retrans = 0;
  std::size_t conns = 0;
  nic_.for_each_tcp_connection([&](const net::TcpConnection& conn) {
    const double srtt_us = conn.srtt_us();
    if (srtt_us > 0) {
      rtt_sum += srtt_us;
      ++conns;
    }
    retrans += conn.retransmissions();
  });

  const double avail =
      std::max(0.0, link_capacity_bps_ - std::max(in_bps, out_bps));

  out.push_back(sample(0, in_bps, now));
  out.push_back(sample(0, out_bps, now));
  out.push_back(sample(0, avail, now));
  out.push_back(sample(0, conns ? rtt_sum / static_cast<double>(conns) : 0.0, now));
  out.push_back(sample(0, static_cast<double>(retrans), now));
  out.push_back(sample(0, lost_rate, now));
}

std::string NetMonitor::render_connections() const {
  std::ostringstream out;
  out << "flow  local  remote  srtt_us  retrans  in_flight  send_queue\n";
  nic_.for_each_tcp_connection([&out](const net::TcpConnection& conn) {
    const net::TcpStats s = conn.stats();
    out << conn.flow_id() << "  " << conn.local_node() << "  "
        << conn.remote_node() << "  " << s.srtt_us << "  "
        << s.retransmissions << "  " << s.in_flight_bytes << "  "
        << s.send_queue_bytes << "\n";
  });
  return out.str();
}

// --- PMC -------------------------------------------------------------------

PmcMonitor::PmcMonitor(host::Host& host, std::vector<std::string> counters)
    : host_(host), counters_(std::move(counters)) {}

std::vector<MetricDesc> PmcMonitor::metrics() const {
  std::vector<MetricDesc> descs;
  descs.reserve(counters_.size());
  for (const std::string& counter : counters_) {
    descs.push_back({0, counter, "pmc/" + counter});
  }
  return descs;
}

void PmcMonitor::collect(std::vector<MetricSample>& out, SimTime now) {
  for (const std::string& counter : counters_) {
    out.push_back(
        sample(0, static_cast<double>(host_.pmc().read(counter)), now));
  }
}

// --- BatteryMonitor -------------------------------------------------------

std::vector<MetricDesc> BatteryMonitor::metrics() const {
  return {{0, "battery_level", "power/battery_level"},
          {0, "battery_joules", "power/battery_joules"},
          {0, "power_watts", "power/watts"}};
}

void BatteryMonitor::collect(std::vector<MetricSample>& out, SimTime now) {
  out.push_back(sample(0, battery_.level(), now));
  out.push_back(sample(0, battery_.remaining_joules(), now));
  out.push_back(sample(0, battery_.watts(), now));
}

// --- DPROC_MON -------------------------------------------------------------

DprocMonitor::DprocMonitor(host::Host& host, bool with_health)
    : host_(host),
      with_health_(with_health),
      submits_(host.telemetry().counter("kecho", "submits")),
      receives_(host.telemetry().counter("kecho", "receives")),
      heartbeats_(host.telemetry().counter("kecho", "heartbeats")),
      suppressed_(host.telemetry().counter("dmon", "suppressed")),
      filter_insns_(host.telemetry().counter("ecode", "filter_insns")),
      net_drops_(host.telemetry().counter("net", "drops")),
      slo_violations_(host.telemetry().counter("trace", "slo_violations")),
      adapt_rounds_(host.telemetry().counter("dmon", "adapt_rounds")),
      adapt_changes_(host.telemetry().counter("dmon", "adapt_changes")),
      adapt_overhead_(host.telemetry().gauge("dmon", "adapt_overhead")),
      submit_us_(host.telemetry().latency("dmon", "submit_us")),
      receive_us_(host.telemetry().latency("dmon", "receive_us")),
      poll_us_(host.telemetry().latency("dmon", "poll_us")) {}

std::vector<MetricDesc> DprocMonitor::metrics() const {
  std::vector<MetricDesc> descs =
         {{0, "dproc_submits", "dproc/submits"},
          {0, "dproc_receives", "dproc/receives"},
          {0, "dproc_submit_p50_us", "dproc/submit_p50_us"},
          {0, "dproc_submit_p99_us", "dproc/submit_p99_us"},
          {0, "dproc_receive_p50_us", "dproc/receive_p50_us"},
          {0, "dproc_receive_p99_us", "dproc/receive_p99_us"},
          {0, "dproc_poll_p99_us", "dproc/poll_p99_us"},
          {0, "dproc_filter_insns", "dproc/filter_insns"},
          {0, "dproc_suppressed", "dproc/suppressed"},
          {0, "dproc_heartbeats", "dproc/heartbeats"},
          {0, "dproc_net_drops", "dproc/net_drops"},
          {0, "dproc_slo_violations", "dproc/slo_violations"},
          {0, "dproc_adapt_rounds", "dproc/adapt_rounds"},
          {0, "dproc_adapt_changes", "dproc/adapt_changes"},
          {0, "dproc_adapt_overhead_pct", "dproc/adapt_overhead_pct"}};
  if (with_health_) {
    descs.push_back({0, "dproc_health_score", "dproc/health_score"});
    descs.push_back({0, "dproc_health_incidents", "dproc/health_incidents"});
  }
  return descs;
}

void DprocMonitor::collect(std::vector<MetricSample>& out, SimTime now) {
  out.push_back(sample(0, static_cast<double>(submits_.value()), now));
  out.push_back(sample(0, static_cast<double>(receives_.value()), now));
  out.push_back(sample(0, submit_us_.quantile_us(0.5), now));
  out.push_back(sample(0, submit_us_.quantile_us(0.99), now));
  out.push_back(sample(0, receive_us_.quantile_us(0.5), now));
  out.push_back(sample(0, receive_us_.quantile_us(0.99), now));
  out.push_back(sample(0, poll_us_.quantile_us(0.99), now));
  out.push_back(sample(0, static_cast<double>(filter_insns_.value()), now));
  out.push_back(sample(0, static_cast<double>(suppressed_.value()), now));
  out.push_back(sample(0, static_cast<double>(heartbeats_.value()), now));
  out.push_back(sample(0, static_cast<double>(net_drops_.value()), now));
  out.push_back(sample(0, static_cast<double>(slo_violations_.value()), now));
  out.push_back(sample(0, static_cast<double>(adapt_rounds_.value()), now));
  out.push_back(sample(0, static_cast<double>(adapt_changes_.value()), now));
  out.push_back(sample(0, adapt_overhead_.value() * 100.0, now));
  if (with_health_) {
    telemetry::Registry& tm = host_.telemetry();
    out.push_back(sample(0, tm.gauge("health", "score").value(), now));
    out.push_back(sample(
        0, static_cast<double>(tm.counter("health", "incidents").value()),
        now));
  }
}

// --- SyntheticMonitor --------------------------------------------------------

SyntheticMonitor::SyntheticMonitor(std::string name, std::size_t metric_count,
                                   ValueFn value_fn)
    : name_(std::move(name)),
      metric_count_(metric_count),
      value_fn_(std::move(value_fn)) {}

std::vector<MetricDesc> SyntheticMonitor::metrics() const {
  std::vector<MetricDesc> descs;
  descs.reserve(metric_count_);
  for (std::size_t i = 0; i < metric_count_; ++i) {
    const std::string key = name_ + std::to_string(i);
    descs.push_back({0, key, name_ + "/" + key});
  }
  return descs;
}

void SyntheticMonitor::collect(std::vector<MetricSample>& out, SimTime now) {
  for (std::size_t i = 0; i < metric_count_; ++i) {
    out.push_back(sample(0, value_fn_ ? value_fn_(i, now) : 0.0, now));
  }
}

// --- TopKMonitor -------------------------------------------------------------

TopKMonitor::TopKMonitor(std::string name, std::size_t k, ObserveFn observe,
                         SketchParams params)
    : name_(std::move(name)),
      k_(k == 0 ? 1 : k),
      observe_(std::move(observe)),
      sketch_(params) {}

std::vector<MetricDesc> TopKMonitor::metrics() const {
  std::vector<MetricDesc> descs;
  descs.reserve(2 * k_);
  for (std::size_t i = 0; i < k_; ++i) {
    const std::string rank = std::to_string(i);
    descs.push_back({0, name_ + "_top" + rank + "_key",
                     name_ + "/top" + rank + "/key"});
    descs.push_back({0, name_ + "_top" + rank + "_val",
                     name_ + "/top" + rank + "/val"});
  }
  return descs;
}

void TopKMonitor::collect(std::vector<MetricSample>& out, SimTime now) {
  obs_.clear();
  if (observe_) observe_(obs_, now);
  for (const auto& [key, weight] : obs_) sketch_.update(key, weight);
  sketch_.refresh_top(k_);
  for (std::size_t i = 0; i < k_; ++i) {
    out.push_back(sample(0, static_cast<double>(sketch_.rank_key(i)), now));
    out.push_back(sample(0, sketch_.rank_count(i), now));
  }
}

TopKMonitor::ObserveFn make_zipf_observer(std::size_t entity_count, double s,
                                          std::uint64_t seed,
                                          std::size_t draws_per_collect) {
  if (entity_count == 0) entity_count = 1;
  // Precompute the Zipf CDF once; draws binary-search it. Keys are
  // 1..entity_count (PID/flow-id style, key 0 avoided by convention).
  auto cdf = std::make_shared<std::vector<double>>();
  cdf->reserve(entity_count);
  double total = 0.0;
  for (std::size_t rank = 1; rank <= entity_count; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), s);
    cdf->push_back(total);
  }
  for (double& c : *cdf) c /= total;

  auto state = std::make_shared<std::uint64_t>(seed == 0 ? 0x9e3779b9ULL : seed);
  return [cdf, state, draws_per_collect](
             std::vector<std::pair<std::int64_t, double>>& out, SimTime) {
    for (std::size_t i = 0; i < draws_per_collect; ++i) {
      // xorshift64*: deterministic, decent uniformity, no <random> state.
      std::uint64_t x = *state;
      x ^= x >> 12;
      x ^= x << 25;
      x ^= x >> 27;
      *state = x;
      const double u =
          static_cast<double>((x * 0x2545f4914f6cdd1dULL) >> 11) /
          static_cast<double>(1ULL << 53);
      const auto it = std::lower_bound(cdf->begin(), cdf->end(), u);
      const auto rank = static_cast<std::int64_t>(it - cdf->begin());
      out.emplace_back(rank + 1, 1.0);
    }
  };
}

std::unique_ptr<TopKMonitor> make_topk_process_monitor(
    std::size_t k, std::size_t process_count, double zipf_s,
    std::uint64_t seed, SketchParams params) {
  return std::make_unique<TopKMonitor>(
      "topk_pid", k, make_zipf_observer(process_count, zipf_s, seed), params);
}

}  // namespace dproc::core
