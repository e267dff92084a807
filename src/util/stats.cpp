#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace hsw {

void Accumulator::add(double x) {
  samples_.push_back(x);
  sorted_valid_ = false;
}

void Accumulator::clear() {
  samples_.clear();
  sorted_.clear();
  sorted_valid_ = false;
}

void Accumulator::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Accumulator::min() const {
  assert(!samples_.empty());
  ensure_sorted();
  return sorted_.front();
}

double Accumulator::max() const {
  assert(!samples_.empty());
  ensure_sorted();
  return sorted_.back();
}

double Accumulator::mean() const {
  assert(!samples_.empty());
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double Accumulator::percentile(double q) const {
  assert(!samples_.empty());
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

int LogHistogram::bucket_of(double x) {
  if (!(x > 0.0)) return kUnderflowKey;
  int exp = 0;
  const double frac = std::frexp(x, &exp);  // frac in [0.5, 1)
  auto sub = static_cast<int>((frac - 0.5) * (2 * kSubBuckets));
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  return exp * kSubBuckets + sub;
}

double LogHistogram::bucket_lower(int key) {
  if (key == kUnderflowKey) return 0.0;
  // Floor division so negative exponents (sub-nanosecond values) map back
  // to the right octave.
  int exp = key / kSubBuckets;
  int sub = key % kSubBuckets;
  if (sub < 0) {
    sub += kSubBuckets;
    exp -= 1;
  }
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, exp - 1);
}

double LogHistogram::bucket_upper(int key) {
  if (key == kUnderflowKey) return 0.0;
  return bucket_lower(key + 1);
}

std::uint64_t& LogHistogram::count_of(int key) {
  if (counts_.empty()) {
    lo_key_ = key;
    counts_.push_back(0);
  } else if (key < lo_key_) {
    counts_.insert(counts_.begin(), static_cast<std::size_t>(lo_key_ - key), 0);
    lo_key_ = key;
  } else if (static_cast<std::size_t>(key - lo_key_) >= counts_.size()) {
    counts_.resize(static_cast<std::size_t>(key - lo_key_) + 1, 0);
  }
  return counts_[static_cast<std::size_t>(key - lo_key_)];
}

void LogHistogram::add(double x) {
  const int key = bucket_of(x);
  ++(key == kUnderflowKey ? underflow_ : count_of(key));
  ++total_;
}

void LogHistogram::merge(const LogHistogram& other) {
  other.for_each_bucket([this](int key, std::uint64_t count) {
    (key == kUnderflowKey ? underflow_ : count_of(key)) += count;
  });
  total_ += other.total_;
}

double LogHistogram::quantile(double q) const {
  assert(total_ > 0);
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cumulative = 0.0;
  bool found = false;
  double result = 0.0;
  int last = kUnderflowKey;
  for_each_bucket([&](int key, std::uint64_t count) {
    last = key;
    if (found) return;
    const double next = cumulative + static_cast<double>(count);
    if (next >= target) {
      const double lo = bucket_lower(key);
      const double hi = bucket_upper(key);
      result = lo + (hi - lo) * ((target - cumulative) /
                                 static_cast<double>(count));
      found = true;
    }
    cumulative = next;
  });
  return found ? result : bucket_upper(last);
}

void Welford::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void Welford::merge(const Welford& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Welford::clear() { *this = Welford{}; }

double Welford::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Welford::stddev() const { return std::sqrt(variance()); }

}  // namespace hsw
