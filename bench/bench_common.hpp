// Shared helpers for the figure-reproduction benchmarks.
//
// Every bench binary prints the paper's series as an aligned text table plus
// a CSV block (grep '^csv,' to extract). The simulated testbed defaults to
// the paper's §4 platform: 8 nodes, ~17.4 Mflops CPUs, switched 100 Mbps
// Fast Ethernet, monitoring events of 50–100 bytes.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "dproc/core/cluster.hpp"

namespace dproc::bench {

/// Column-aligned table + machine-readable CSV printer.
class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void add_row(const std::vector<double>& values) { rows_.push_back(values); }

  void print(const std::string& title) const {
    std::printf("\n== %s ==\n", title.c_str());
    for (const auto& c : columns_) std::printf("%-22s", c.c_str());
    std::printf("\n");
    for (const auto& row : rows_) {
      for (double v : row) std::printf("%-22.6g", v);
      std::printf("\n");
    }
    for (const auto& row : rows_) {
      std::printf("csv,%s", title.c_str());
      for (double v : row) std::printf(",%.6g", v);
      std::printf("\n");
    }
    std::fflush(stdout);
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<double>> rows_;
};

/// The three monitoring configurations compared throughout §4.1.
enum class MonitorConfig { kPeriod1s, kPeriod2s, kDifferential };

inline const char* to_string(MonitorConfig config) {
  switch (config) {
    case MonitorConfig::kPeriod1s: return "update_period_1s";
    case MonitorConfig::kPeriod2s: return "update_period_2s";
    case MonitorConfig::kDifferential: return "differential_filter";
  }
  return "?";
}

inline core::ClusterConfig paper_cluster(std::size_t node_count,
                                         MonitorConfig config) {
  (void)config;  // applied post-construction, see apply_monitor_config
  core::ClusterConfig cluster;
  cluster.node_count = node_count;
  // d-mon always polls once per second (§2.1); the update period and the
  // differential filter are tuning parameters layered on top.
  cluster.dmon.poll_period = seconds(1.0);
  return cluster;
}

/// Applies the §4.1 monitoring configuration to every d-mon: a 1 s or 2 s
/// update period, or the 15% differential filter. Exits the bench when a
/// node rejects the tuning: the figure would measure an untuned cluster.
inline void apply_monitor_config(core::Cluster& cluster, MonitorConfig config,
                                 double differential_pct = 15.0) {
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.dmon(i) == nullptr) continue;
    core::TuningConfig tuning;
    switch (config) {
      case MonitorConfig::kPeriod1s:
        tuning.default_period = seconds(1.0);
        break;
      case MonitorConfig::kPeriod2s:
        tuning.default_period = seconds(2.0);
        break;
      case MonitorConfig::kDifferential:
        tuning.differential_pct = differential_pct;
        break;
    }
    const Status status = cluster.dmon(i)->apply_tuning(tuning);
    if (!status) {
      std::fprintf(stderr, "node %zu rejected the monitor config: %s\n", i,
                   status.to_string().c_str());
      std::exit(1);
    }
  }
}

}  // namespace dproc::bench
