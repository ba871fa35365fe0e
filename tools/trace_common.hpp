// Command-line plumbing for tools/trace_report: the option struct, its flag
// parser, and the cluster configuration the tool runs — the paper's 8-node
// platform with self-monitoring and causal tracing switched on.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "dproc/core/cluster.hpp"

namespace dproc::tools {

struct TraceToolOptions {
  std::string out_path;
  double run_seconds = 10.0;
  std::size_t nodes = 8;
  /// End-to-end staleness budget for the monitoring channel in
  /// milliseconds; 0 leaves the SLO watchdog off.
  double slo_ms = 0.0;
};

/// Parses `--out PATH`, `--seconds S`, `--nodes N`, `--slo-ms MS`. Returns
/// false (with a usage line on stderr) on malformed input.
inline bool parse_trace_tool_args(int argc, char** argv,
                                  TraceToolOptions& opts) {
  auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s [--out PATH] [--seconds S] [--nodes N] "
                 "[--slo-ms MS]\n",
                 argv[0]);
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(arg, "--out") == 0) {
      const char* v = value();
      if (v == nullptr) return usage();
      opts.out_path = v;
    } else if (std::strcmp(arg, "--seconds") == 0) {
      const char* v = value();
      if (v == nullptr || std::atof(v) <= 0.0) return usage();
      opts.run_seconds = std::atof(v);
    } else if (std::strcmp(arg, "--nodes") == 0) {
      const char* v = value();
      if (v == nullptr || std::atol(v) < 2) return usage();
      opts.nodes = static_cast<std::size_t>(std::atol(v));
    } else if (std::strcmp(arg, "--slo-ms") == 0) {
      const char* v = value();
      if (v == nullptr || std::atof(v) < 0.0) return usage();
      opts.slo_ms = std::atof(v);
    } else {
      return usage();
    }
  }
  return true;
}

/// Cluster configuration the tool runs: `--nodes` nodes on the paper's
/// Fast Ethernet star, self-monitoring on (spans + DPROC_MON metrics) and
/// causal tracing on (hop logs + wire trace contexts); a nonzero
/// `--slo-ms` arms the monitoring channel's staleness watchdog.
inline core::ClusterConfig traced_cluster_config(
    const TraceToolOptions& opts) {
  core::ClusterConfig config;
  config.node_count = opts.nodes;
  config.self_monitor = true;
  config.trace.enabled = true;
  if (opts.slo_ms > 0.0) {
    config.trace.channel_slo.emplace_back(config.dmon.monitor_channel,
                                          milliseconds(opts.slo_ms));
  }
  return config;
}

}  // namespace dproc::tools
