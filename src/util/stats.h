// Running statistics and percentile estimation for benchmark results.
//
// The paper reports medians of repeated runs and notes run-to-run variation
// (uncore frequency scaling).  `Accumulator` keeps a full sample vector so we
// can report min/median/p95/max exactly, and `Welford` provides numerically
// stable streaming mean/variance for large event streams where storing every
// sample would be wasteful.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace hsw {

// Exact-sample accumulator; O(n) memory, exact order statistics.
class Accumulator {
 public:
  void add(double x);
  void clear();

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;
  // Linear-interpolated percentile; q in [0, 1].  Requires non-empty.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double median() const { return percentile(0.5); }
  [[nodiscard]] double p50() const { return percentile(0.50); }
  [[nodiscard]] double p95() const { return percentile(0.95); }
  [[nodiscard]] double p99() const { return percentile(0.99); }
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

// Log-bucketed histogram for latency distributions: O(1) memory per octave,
// deterministic bucket boundaries (derived from the binary exponent, so the
// same samples always land in the same buckets regardless of insertion or
// merge order).  Each power of two is split into kSubBuckets linear
// sub-buckets — ~9% relative resolution, plenty for telling a 130 ns local
// DRAM access from a 240 ns stale-directory broadcast.
class LogHistogram {
 public:
  static constexpr int kSubBuckets = 8;  // per power of two
  // Key of the bucket that takes every sample <= 0 (and NaN).
  static constexpr int kUnderflowKey = std::numeric_limits<int>::min();

  void add(double x);
  void merge(const LogHistogram& other);
  void clear() {
    underflow_ = 0;
    counts_.clear();
    total_ = 0;
  }

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] bool empty() const { return total_ == 0; }
  // Lower/upper edge of a bucket by key (see bucket_of).
  [[nodiscard]] static double bucket_lower(int key);
  [[nodiscard]] static double bucket_upper(int key);
  [[nodiscard]] static int bucket_of(double x);
  // Quantile estimate via linear interpolation inside the bucket; q in
  // [0, 1].  Requires non-empty.
  [[nodiscard]] double quantile(double q) const;
  // Calls fn(key, count) for every nonempty bucket in key order, which is
  // the order of bucket lower edges (the underflow bucket first).
  template <class Fn>
  void for_each_bucket(Fn&& fn) const {
    if (underflow_ != 0) fn(kUnderflowKey, underflow_);
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] != 0) fn(lo_key_ + static_cast<int>(i), counts_[i]);
    }
  }

 private:
  // The count of `key`, widening counts_ to cover it.
  std::uint64_t& count_of(int key);

  std::uint64_t underflow_ = 0;
  // Counts of the keys lo_key_ .. lo_key_ + size() - 1: one contiguous
  // range between the lowest and the highest key seen.
  std::vector<std::uint64_t> counts_;
  int lo_key_ = 0;
  std::uint64_t total_ = 0;
};

// Welford's online algorithm: O(1) memory streaming mean / variance.
class Welford {
 public:
  void add(double x);
  void merge(const Welford& other);
  void clear();

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace hsw
