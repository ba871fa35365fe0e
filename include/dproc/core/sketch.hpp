// Constant-space heavy-hitter sketches for monitoring streams.
//
// The paper's resource-aware theme is that a monitor must not grow with the
// system it watches: publishing "the top-8 CPU consumers" must cost the same
// whether the node runs 100 processes or 10,000. Two classic streaming
// structures deliver that bound:
//
//   CountMinSketch — a rows x cols counter matrix; add() increments one
//   counter per row, estimate() takes the min across rows. Estimates never
//   undercount; overcounts shrink with cols.
//
//   HashPipe — a d-stage pipeline of (key, count) slots (HashPipe, SOSR'17;
//   eHashPipe applies it to host telemetry). An update walks the stages
//   carrying the minimum entry along and evicts it from the last stage, so
//   heavy keys settle in the table and light keys churn through. Evicted
//   residual mass lands in a backing count-min sketch so estimates for
//   evicted-then-reinserted keys stay near the true count.
//
// TopKSketch composes the two behind the rank/key/estimate interface the
// E-code sketch builtins (topk/topkid/cmlookup/skmerge) expect, and
// FilterSketchBridge adapts it to ecode::SketchHost so a deployed filter
// can publish top-k frames in constant space.
//
// Everything here is deterministic: hashing is seeded splitmix64, no global
// state, so tests and the golden trace can pin exact outputs.
#pragma once

#include <cstdint>
#include <vector>

#include "dproc/ecode/vm.hpp"

namespace dproc::core {

/// Sizing knobs for TopKSketch (and the TOP_K monitor family built on it).
/// Defaults hold the whole structure under 16 KiB.
struct SketchParams {
  std::uint32_t stages = 3;       // HashPipe pipeline depth
  std::uint32_t stage_slots = 32; // (key, count) slots per stage
  std::uint32_t cm_rows = 2;      // count-min rows
  std::uint32_t cm_cols = 512;    // count-min columns (power of two)
  std::uint64_t seed = 0x6470726f63ULL;  // hash seed ("dproc")
};

/// Count-min sketch over int64 keys with double counts.
class CountMinSketch {
 public:
  CountMinSketch(std::uint32_t rows, std::uint32_t cols, std::uint64_t seed);

  void add(std::int64_t key, double weight);
  /// Never below the true added weight for `key`.
  [[nodiscard]] double estimate(std::int64_t key) const;
  /// Cell-wise sum; other must share rows/cols/seed.
  void merge(const CountMinSketch& other);
  void clear();

  [[nodiscard]] std::uint32_t rows() const { return rows_; }
  [[nodiscard]] std::uint32_t cols() const { return cols_; }
  [[nodiscard]] std::size_t byte_size() const {
    return counters_.size() * sizeof(double);
  }

 private:
  [[nodiscard]] std::size_t cell(std::uint32_t row, std::int64_t key) const;

  std::uint32_t rows_;
  std::uint32_t cols_;
  std::uint64_t seed_;
  std::vector<double> counters_;  // rows_ x cols_, row-major
};

/// HashPipe heavy-hitter table with a count-min backing store for evicted
/// mass. Memory is fixed at construction; update() is O(stages) and
/// allocation-free.
class HashPipe {
 public:
  explicit HashPipe(const SketchParams& params);

  /// Accounts `weight` to `key` (keys must be >= 0; negative keys are
  /// ignored — slot 0 uses key -1 internally for "empty").
  void update(std::int64_t key, double weight);

  struct Entry {
    std::int64_t key = -1;
    double count = 0.0;
  };

  /// Fills `out` with up to `k` heaviest tracked entries, heaviest first
  /// (count descending, key ascending to break ties deterministically).
  /// Returns the number written. No allocation if out.capacity() >= k.
  std::size_t top(std::size_t k, std::vector<Entry>& out) const;

  /// Estimate for an arbitrary key: its table count (if resident) plus the
  /// count-min estimate of mass evicted from the table.
  [[nodiscard]] double estimate(std::int64_t key) const;

  /// Folds another pipe's tracked entries and evicted mass into this one;
  /// returns the number of entries folded. Params must match.
  std::size_t merge(const HashPipe& other);

  void clear();

  [[nodiscard]] const SketchParams& params() const { return params_; }
  [[nodiscard]] std::size_t byte_size() const {
    return slots_.size() * sizeof(Entry) + evicted_.byte_size();
  }

 private:
  [[nodiscard]] std::size_t slot_index(std::uint32_t stage,
                                       std::int64_t key) const;

  SketchParams params_;
  std::vector<Entry> slots_;  // stages x stage_slots, row-major
  CountMinSketch evicted_;    // residual mass of evicted keys
};

/// The composition the E-code builtins address: a primary heavy-hitter
/// sketch plus rank-ordered top-k snapshots.
class TopKSketch {
 public:
  explicit TopKSketch(const SketchParams& params = {});

  void update(std::int64_t key, double weight) { pipe_.update(key, weight); }

  /// Recomputes the rank-ordered snapshot the rank accessors read. Call
  /// once per collection period, after the updates.
  void refresh_top(std::size_t k);

  /// Estimated count of the rank-th heaviest key (0 = heaviest); 0 when
  /// fewer than rank+1 keys are tracked.
  [[nodiscard]] double rank_count(std::size_t rank) const;
  /// Key at `rank`, or -1 when absent.
  [[nodiscard]] std::int64_t rank_key(std::size_t rank) const;

  [[nodiscard]] double estimate(std::int64_t key) const {
    return pipe_.estimate(key);
  }
  std::size_t merge(const TopKSketch& other) { return pipe_.merge(other.pipe_); }
  void clear();

  [[nodiscard]] std::size_t byte_size() const {
    return pipe_.byte_size() + top_.capacity() * sizeof(HashPipe::Entry);
  }

 private:
  HashPipe pipe_;
  std::vector<HashPipe::Entry> top_;  // last refresh_top snapshot
};

/// Adapts a primary TopKSketch (+ optional auxiliaries, e.g. per-zone
/// sketches to fold in) to the VM's SketchHost interface.
class FilterSketchBridge final : public ecode::SketchHost {
 public:
  explicit FilterSketchBridge(TopKSketch& primary) : primary_(&primary) {}

  /// Registers an auxiliary sketch addressable by skmerge(index).
  void add_aux(TopKSketch& aux) { aux_.push_back(&aux); }

  [[nodiscard]] double topk_count(std::int64_t rank) const override {
    return primary_->rank_count(static_cast<std::size_t>(rank));
  }
  [[nodiscard]] double topk_key(std::int64_t rank) const override {
    return static_cast<double>(
        primary_->rank_key(static_cast<std::size_t>(rank)));
  }
  [[nodiscard]] double cm_estimate(std::int64_t key) const override {
    return primary_->estimate(key);
  }
  double merge_aux(std::int64_t index) override {
    if (index < 0 || static_cast<std::size_t>(index) >= aux_.size()) {
      return -1.0;
    }
    return static_cast<double>(
        primary_->merge(*aux_[static_cast<std::size_t>(index)]));
  }

 private:
  TopKSketch* primary_;
  std::vector<TopKSketch*> aux_;
};

}  // namespace dproc::core
