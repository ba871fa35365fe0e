// BENCH_*.json emission for the perf trajectory.
//
// Each microbenchmark binary writes a BENCH_<name>.json file so successive
// PRs can compare hot-path throughput. Schema (validated by
// bench_json_check, run from the bench-smoke CTest target):
//
//   {
//     "bench": "<binary name>",
//     "benchmarks": [
//       {"name": "...", "ops_per_sec": <num>, "ns_per_event": <num>,
//        "allocs_per_event": <num>, "iterations": <num>},
//       ...
//     ]
//   }
//
// Files land in $DPROC_BENCH_JSON_DIR if set (the smoke tests point it at
// the build tree so tiny smoke runs never overwrite the committed numbers),
// otherwise at the repo root (DPROC_REPO_ROOT, baked in by CMake).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace dproc::bench {

struct JsonBenchEntry {
  std::string name;
  double ops_per_sec = 0.0;
  double ns_per_event = 0.0;
  double allocs_per_event = 0.0;
  std::uint64_t iterations = 0;
  /// Additional bench-specific numbers, emitted verbatim as extra keys
  /// (the checker validates the core schema and ignores extras).
  std::vector<std::pair<std::string, double>> extras;
};

inline std::string bench_json_path(const std::string& bench_name) {
  const char* dir = std::getenv("DPROC_BENCH_JSON_DIR");
#ifdef DPROC_REPO_ROOT
  if (dir == nullptr || *dir == '\0') dir = DPROC_REPO_ROOT;
#endif
  if (dir == nullptr || *dir == '\0') dir = ".";
  return std::string{dir} + "/BENCH_" + bench_name + ".json";
}

/// Writes the JSON file; returns true on success.
inline bool write_bench_json(const std::string& bench_name,
                             const std::vector<JsonBenchEntry>& entries) {
  const std::string path = bench_json_path(bench_name);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_json: cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"benchmarks\": [\n",
               bench_name.c_str());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const JsonBenchEntry& e = entries[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ops_per_sec\": %.6g, "
                 "\"ns_per_event\": %.6g, \"allocs_per_event\": %.6g, "
                 "\"iterations\": %llu",
                 e.name.c_str(), e.ops_per_sec, e.ns_per_event,
                 e.allocs_per_event,
                 static_cast<unsigned long long>(e.iterations));
    for (const auto& [key, value] : e.extras) {
      std::fprintf(f, ", \"%s\": %.6g", key.c_str(), value);
    }
    std::fprintf(f, "}%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// Iteration-count override for smoke runs (DPROC_BENCH_ITERS).
inline std::uint64_t bench_iterations(std::uint64_t default_iters) {
  if (const char* s = std::getenv("DPROC_BENCH_ITERS")) {
    const unsigned long long v = std::strtoull(s, nullptr, 10);
    if (v > 0) return v;
  }
  return default_iters;
}

/// Cluster-size override for smoke runs (DPROC_BENCH_NODES, at least 2).
inline std::size_t bench_nodes(std::size_t default_nodes) {
  if (const char* s = std::getenv("DPROC_BENCH_NODES")) {
    const unsigned long long v = std::strtoull(s, nullptr, 10);
    if (v >= 2) return static_cast<std::size_t>(v);
  }
  return default_nodes;
}

}  // namespace dproc::bench
