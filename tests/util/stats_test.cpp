#include "util/stats.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace hsw {
namespace {

TEST(Accumulator, BasicOrderStatistics) {
  Accumulator acc;
  for (double x : {5.0, 1.0, 3.0, 2.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 5u);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 5.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
  EXPECT_DOUBLE_EQ(acc.median(), 3.0);
}

TEST(Accumulator, PercentileInterpolates) {
  Accumulator acc;
  acc.add(0.0);
  acc.add(10.0);
  EXPECT_DOUBLE_EQ(acc.percentile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(acc.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(acc.percentile(1.0), 10.0);
}

TEST(Accumulator, MedianOfEvenCount) {
  Accumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.median(), 2.5);
}

TEST(Accumulator, AddAfterPercentileResorts) {
  Accumulator acc;
  acc.add(10.0);
  EXPECT_DOUBLE_EQ(acc.median(), 10.0);
  acc.add(0.0);
  acc.add(5.0);
  EXPECT_DOUBLE_EQ(acc.median(), 5.0);
}

TEST(Accumulator, Clear) {
  Accumulator acc;
  acc.add(1.0);
  acc.clear();
  EXPECT_TRUE(acc.empty());
}

TEST(Welford, MeanAndVariance) {
  Welford w;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_NEAR(w.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(w.min(), 2.0);
  EXPECT_DOUBLE_EQ(w.max(), 9.0);
}

TEST(Welford, FewSamplesHaveZeroVariance) {
  Welford w;
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  w.add(42.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  EXPECT_DOUBLE_EQ(w.mean(), 42.0);
}

TEST(Welford, MergeMatchesSequential) {
  Welford a;
  Welford b;
  Welford all;
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform() * 100.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Welford, MergeWithEmpty) {
  Welford a;
  a.add(1.0);
  Welford empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

// The LogHistogram as it was before its flat count range: a std::map from
// bucket key to count, and a quantile walk over the map.
struct MapHistogram {
  std::map<int, std::uint64_t> buckets;
  std::uint64_t total = 0;

  void add(double x) {
    buckets[LogHistogram::bucket_of(x)] += 1;
    total += 1;
  }
  void merge(const MapHistogram& other) {
    for (const auto& [key, count] : other.buckets) buckets[key] += count;
    total += other.total;
  }
  double quantile(double q) const {
    const double target = q * static_cast<double>(total);
    double cumulative = 0.0;
    for (const auto& [key, count] : buckets) {
      const double next = cumulative + static_cast<double>(count);
      if (next >= target) {
        const double lo = LogHistogram::bucket_lower(key);
        const double hi = LogHistogram::bucket_upper(key);
        return lo + (hi - lo) * ((target - cumulative) /
                                 static_cast<double>(count));
      }
      cumulative = next;
    }
    return LogHistogram::bucket_upper(buckets.rbegin()->first);
  }
};

void expect_same(const LogHistogram& got, const MapHistogram& want) {
  std::vector<std::pair<int, std::uint64_t>> seen;
  got.for_each_bucket(
      [&](int key, std::uint64_t count) { seen.emplace_back(key, count); });
  EXPECT_EQ(seen, (std::vector<std::pair<int, std::uint64_t>>(
                      want.buckets.begin(), want.buckets.end())));
  EXPECT_EQ(got.total(), want.total);
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.quantile(q)),
              std::bit_cast<std::uint64_t>(want.quantile(q)))
        << "q " << q;
  }
}

TEST(LogHistogramTest, MatchesTheMapHistogram) {
  Xoshiro256 rng(7);
  // Latency-like samples, the underflow bucket (zero, negative, NaN) and
  // far-apart octaves that make the count range grow at both ends.
  const auto sample = [&](int i) {
    switch (i % 7) {
      case 0: return 0.0;
      case 1: return -rng.uniform();
      case 2: return std::ldexp(rng.uniform() + 0.5, -20);
      case 3: return std::ldexp(rng.uniform() + 0.5, 40);
      case 4: return i % 14 == 4 ? std::numeric_limits<double>::quiet_NaN()
                                 : 1e-300;
      default: return 20.0 + 400.0 * rng.uniform();
    }
  };
  LogHistogram a;
  LogHistogram b;
  MapHistogram ma;
  MapHistogram mb;
  for (int i = 0; i < 3000; ++i) {
    const double x = sample(i);
    if (i < 1000 || (i % 3 == 0 && i < 2000)) {
      a.add(x);
      ma.add(x);
    } else {
      b.add(x);
      mb.add(x);
    }
  }
  expect_same(a, ma);
  expect_same(b, mb);
  a.merge(b);
  ma.merge(mb);
  expect_same(a, ma);
  // Merging into an empty histogram.
  LogHistogram empty;
  MapHistogram mempty;
  empty.merge(b);
  mempty.merge(mb);
  expect_same(empty, mempty);
  a.clear();
  EXPECT_TRUE(a.empty());
  std::size_t buckets = 0;
  a.for_each_bucket([&](int, std::uint64_t) { ++buckets; });
  EXPECT_EQ(buckets, 0u);
}

TEST(LogHistogramTest, UnderflowSortsFirst) {
  LogHistogram h;
  h.add(100.0);
  h.add(0.0);
  h.add(0.5);
  std::vector<int> keys;
  h.for_each_bucket([&](int key, std::uint64_t) { keys.push_back(key); });
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], LogHistogram::kUnderflowKey);
  EXPECT_LT(keys[1], keys[2]);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
}

}  // namespace
}  // namespace hsw
