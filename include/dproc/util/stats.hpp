// Streaming statistics used by monitoring modules and benchmark harnesses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace dproc {

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
class StreamingStats {
 public:
  void add(double x);
  void reset();

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 when fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Quantile sketch backed by a fixed log-linear histogram (HdrHistogram
/// style): each power-of-two octave is split into kSubBuckets linear
/// sub-buckets, so record is O(1), memory is bounded (~2 KB, allocated on
/// the first add), and two sets merge by adding bucket counts — the shape
/// zone roll-ups need. min/max/sum are tracked exactly, so quantile(0),
/// quantile(1) and mean() are exact; interior quantiles interpolate inside
/// one sub-bucket (<= ~9% relative width, typically much closer). Values
/// at or below zero land in the lowest bucket and are reported as min().
class SampleSet {
 public:
  void add(double x);
  /// Pre-allocates the bucket table so later add() calls never allocate.
  void reserve(std::size_t n);
  void clear();
  /// Folds `other` into this set (bucket-count addition; exact min/max/sum
  /// merge). The histogram geometry is a compile-time constant, so any two
  /// SampleSets — including ones from different hosts — are mergeable.
  void merge(const SampleSet& other);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double sum() const { return sum_; }
  /// Interpolated quantile; q in [0, 1]. Returns 0 when empty; exact at
  /// the extremes, sub-bucket interpolated in between.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }

 private:
  // 8 sub-buckets per octave over octaves [2^-25, 2^39): covers tens of
  // nanoseconds-as-fractional-us up to ~5.5e11 with out-of-range values
  // clamped to the edge buckets (min/max stay exact regardless).
  static constexpr int kSubBuckets = 8;
  static constexpr int kMinExp = -25;
  static constexpr int kMaxExp = 39;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets;

  [[nodiscard]] static std::size_t bucket_of(double v);
  [[nodiscard]] static double bucket_lo(std::size_t b);
  [[nodiscard]] static double bucket_hi(std::size_t b);

  std::vector<std::uint32_t> counts_;  // kBuckets entries once allocated
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exponentially weighted moving average, the smoothing the NET_MON module
/// applies to round-trip time samples (same recurrence TCP uses for SRTT).
class Ewma {
 public:
  explicit Ewma(double alpha = 0.125) : alpha_(alpha) {}

  void add(double x) {
    value_ = seeded_ ? (1.0 - alpha_) * value_ + alpha_ * x : x;
    seeded_ = true;
  }
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] bool seeded() const { return seeded_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

/// Fixed-width histogram for distribution summaries in bench output.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// One-line summary like "[lo,hi) n=... |▁▂▅█...|" for logs.
  [[nodiscard]] std::string summary() const;

 private:
  double lo_, hi_, width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0, overflow_ = 0, total_ = 0;
};

}  // namespace dproc
