// procfs microbenchmark: what a /proc read costs on a real d-mon tree, and
// what a declared peer costs in procfs heap.
//
// Builds a flat cluster (128 nodes by default, flat128's shape: every node
// declares every other as a peer, batching and join retries on), runs it
// until every peer's feed has arrived, and then measures on node 0's /proc
// with std::chrono:
//
//   read_peer_metric   /proc/cluster/<peer>/<metric>, rotating over every
//                      peer and every metric file
//   read_peer_status   /proc/cluster/<peer>/status, rotating over peers
//   read_local_metric  /proc/<metric>, rotating over the local files
//   bind_peer          binding one more directory to d-mon's shared peer
//                      subtree; its `heap_bytes_per_peer` extra is the live
//                      heap one declared peer adds to the procfs tree, and
//                      `dmon_heap_bytes_per_peer` what a whole add_peer()
//                      adds (peer state included)
//
// Each entry reports ns and allocations per operation. The binary exits 1
// if a warm read makes more than one allocation (its answer) or a declared
// peer holds more than 512 B of procfs heap.
//
//   $ ./micro_procfs            # writes BENCH_micro_procfs.json at the root
//
// DPROC_BENCH_NODES sets the cluster size, DPROC_BENCH_ITERS the reads per
// entry, DPROC_BENCH_JSON_DIR the output directory.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_json.hpp"
#include "dproc/core/cluster.hpp"

namespace dproc::bench {
namespace {

constexpr double kMaxAllocsPerRead = 1.0;
constexpr double kMaxHeapBytesPerPeer = 512.0;

std::size_t bench_nodes() {
  if (const char* s = std::getenv("DPROC_BENCH_NODES")) {
    const unsigned long long v = std::strtoull(s, nullptr, 10);
    if (v >= 2) return static_cast<std::size_t>(v);
  }
  return 128;
}

volatile std::size_t g_sink = 0;

/// Runs `op(i)` for `iters` iterations; ns and allocations per operation.
template <typename Op>
JsonBenchEntry measure(const std::string& name, std::uint64_t iters, Op&& op) {
  const std::uint64_t allocs_before = alloc_count();
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) op(i);
  const auto stop = std::chrono::steady_clock::now();
  const std::uint64_t allocs = alloc_count() - allocs_before;
  JsonBenchEntry e;
  e.name = name;
  e.ns_per_event =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
              .count()) /
      static_cast<double>(iters);
  e.ops_per_sec = e.ns_per_event > 0 ? 1e9 / e.ns_per_event : 0.0;
  e.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(iters);
  e.iterations = iters;
  return e;
}

/// Reads every path of `paths` in rotation; fails the run on an error.
JsonBenchEntry measure_reads(const std::string& name, procfs::ProcFs& fs,
                             const std::vector<std::string>& paths,
                             std::uint64_t iters, bool& ok) {
  for (const std::string& path : paths) {  // warm every path once
    if (!fs.read(path).is_ok()) {
      std::fprintf(stderr, "micro_procfs: read %s failed\n", path.c_str());
      ok = false;
    }
  }
  return measure(name, iters, [&](std::uint64_t i) {
    auto content = fs.read(paths[i % paths.size()]);
    g_sink = g_sink + content.value().size();
  });
}

int run() {
  const std::size_t nodes = bench_nodes();
  const std::uint64_t iters = bench_iterations(200'000);

  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = nodes;
  config.batch.enabled = true;
  // As in flat128: simultaneous joins tail-drop at the registry, and only
  // retried joins bring every node onto the monitoring channel.
  config.liveness.join_retries = true;
  config.liveness.retry_jitter = 1.0;
  core::Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(SimTime::zero() + seconds(10.0));

  procfs::ProcFs& fs = cluster.procfs(0);
  core::DMon& dmon = *cluster.dmon(0);
  bool ok = true;
  std::vector<std::string> peer_dirs;
  for (std::size_t p = 1; p < nodes; ++p) {
    peer_dirs.push_back("/proc/cluster/" + cluster.host(p).name());
    const auto health = dmon.peer_health(cluster.nic(p).node());
    if (!health || !health->has_data) {
      std::fprintf(stderr, "micro_procfs: no feed from node %zu\n", p);
      ok = false;
    }
  }
  std::vector<std::string> metric_paths;
  std::vector<std::string> status_paths;
  std::vector<std::string> local_paths;
  for (const std::string& dir : peer_dirs) {
    for (const core::MetricDesc& desc : dmon.metric_table()) {
      metric_paths.push_back(dir + "/" + desc.path);
    }
    status_paths.push_back(dir + "/status");
  }
  for (const core::MetricDesc& desc : dmon.metric_table()) {
    local_paths.push_back("/proc/" + desc.path);
  }

  std::vector<JsonBenchEntry> entries;
  entries.push_back(
      measure_reads("read_peer_metric", fs, metric_paths, iters, ok));
  entries.push_back(
      measure_reads("read_peer_status", fs, status_paths, iters, ok));
  entries.push_back(
      measure_reads("read_local_metric", fs, local_paths, iters, ok));

  // Heap per declared peer: bind as many extra directories as the cluster
  // has peers (names as long as the real ones), built before measuring.
  std::vector<std::string> extra_dirs;
  for (std::size_t p = 0; p < peer_dirs.size(); ++p) {
    extra_dirs.push_back("/proc/cluster/xnode" + std::to_string(p));
  }
  const std::int64_t heap_before = alloc_live_bytes();
  JsonBenchEntry bind =
      measure("bind_peer", extra_dirs.size(), [&](std::uint64_t i) {
        if (!fs.bind(extra_dirs[i], core::DMon::kPeerTree,
                     static_cast<procfs::ProcFs::Context>(i + 1))
                 .is_ok()) {
          ok = false;
        }
      });
  const double bytes_per_peer =
      static_cast<double>(alloc_live_bytes() - heap_before) /
      static_cast<double>(extra_dirs.size());
  bind.extras.emplace_back("heap_bytes_per_peer", bytes_per_peer);
  bind.extras.emplace_back("nodes", static_cast<double>(nodes));
  for (const std::string& dir : extra_dirs) (void)fs.remove(dir);

  // The whole declaration for comparison: d-mon's peer state (metric
  // table, name) plus its procfs share. The peer table's own growth is
  // amortized into the figure.
  const std::int64_t dmon_before = alloc_live_bytes();
  for (std::size_t p = 0; p < extra_dirs.size(); ++p) {
    dmon.add_peer(static_cast<net::NodeId>(100'000 + p),
                  "xnode" + std::to_string(p));
  }
  bind.extras.emplace_back(
      "dmon_heap_bytes_per_peer",
      static_cast<double>(alloc_live_bytes() - dmon_before) /
          static_cast<double>(extra_dirs.size()));
  entries.push_back(bind);

  std::printf("%-18s %10s %12s\n", "entry", "ns/op", "allocs/op");
  for (const JsonBenchEntry& e : entries) {
    std::printf("%-18s %10.1f %12.3f\n", e.name.c_str(), e.ns_per_event,
                e.allocs_per_event);
  }
  std::printf("procfs heap per declared peer: %.1f B (%zu nodes)\n",
              bytes_per_peer, nodes);
  if (!write_bench_json("micro_procfs", entries)) return 1;

  for (std::size_t i = 0; i < 3; ++i) {
    if (entries[i].allocs_per_event > kMaxAllocsPerRead) {
      std::fprintf(stderr, "micro_procfs: %s makes %.2f allocations per read "
                   "(bar %.0f)\n", entries[i].name.c_str(),
                   entries[i].allocs_per_event, kMaxAllocsPerRead);
      ok = false;
    }
  }
  if (bytes_per_peer > kMaxHeapBytesPerPeer) {
    std::fprintf(stderr, "micro_procfs: %.1f B of procfs heap per peer "
                 "(bar %.0f)\n", bytes_per_peer, kMaxHeapBytesPerPeer);
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dproc::bench

int main() { return dproc::bench::run(); }
