#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <map>
#include <set>
#include <thread>

#include "util/bitmap.h"
#include "util/cell_counts.h"
#include "util/prng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace pandas::util {
namespace {

// ---------------------------------------------------------------- Xoshiro256

TEST(Prng, DeterministicForSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Prng, UniformRespectsBound) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform(bound), bound);
  }
}

TEST(Prng, UniformCoversRange) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.uniform(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Prng, Uniform01InUnitInterval) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Prng, BernoulliRate) {
  Xoshiro256 rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Prng, ExponentialMean) {
  Xoshiro256 rng(17);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Prng, NormalMoments) {
  Xoshiro256 rng(19);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 3.0, 0.1);
}

TEST(Prng, SampleDistinctProperties) {
  Xoshiro256 rng(23);
  for (std::uint32_t bound : {1u, 5u, 100u, 1000u}) {
    for (std::uint32_t count : {0u, 1u, bound / 2, bound, bound + 5}) {
      const auto out = rng.sample_distinct(bound, count);
      EXPECT_EQ(out.size(), std::min(bound, count));
      std::set<std::uint32_t> s(out.begin(), out.end());
      EXPECT_EQ(s.size(), out.size()) << "values must be distinct";
      for (const auto v : out) EXPECT_LT(v, bound);
    }
  }
}

TEST(Prng, SampleDistinctUnbiased) {
  // Every element should be picked roughly equally often.
  Xoshiro256 rng(29);
  std::vector<int> hist(20, 0);
  for (int trial = 0; trial < 4000; ++trial) {
    for (const auto v : rng.sample_distinct(20, 5)) hist[v] += 1;
  }
  for (const auto h : hist) EXPECT_NEAR(h, 1000, 150);
}

TEST(Prng, ShufflePreservesElements) {
  Xoshiro256 rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Prng, Splitmix64KnownValues) {
  // Reference values from the splitmix64 reference implementation with
  // initial state 0.
  std::uint64_t s = 0;
  EXPECT_EQ(splitmix64(s), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(s), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(splitmix64(s), 0x06c45d188009454fULL);
}

// ------------------------------------------------------------------- Samples

TEST(Samples, BasicMoments) {
  Samples s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.5), 1e-12);
}

TEST(Samples, PercentileInterpolation) {
  Samples s;
  for (double v : {10.0, 20.0, 30.0, 40.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 25.0);
  EXPECT_NEAR(s.percentile(99), 39.7, 1e-9);
}

TEST(Samples, FractionBelow) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.fraction_below(50.0), 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_below(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.fraction_below(1000.0), 1.0);
}

TEST(Samples, CdfMonotone) {
  Samples s;
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) s.add(rng.uniform01() * 100);
  const auto cdf = s.cdf(25);
  ASSERT_FALSE(cdf.empty());
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LE(cdf[i - 1].second, cdf[i].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Samples, EmptyThrows) {
  Samples s;
  EXPECT_THROW((void)s.min(), std::logic_error);
  EXPECT_THROW((void)s.mean(), std::logic_error);
  EXPECT_THROW((void)s.percentile(50), std::logic_error);
}

TEST(Samples, MutationInvalidatesSortCache) {
  Samples s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(FormatBytes, Units) {
  EXPECT_EQ(format_bytes(500), "500 B");
  EXPECT_EQ(format_bytes(1500), "1.50 KB");
  EXPECT_EQ(format_bytes(140e6), "140.00 MB");
  EXPECT_EQ(format_bytes(1.09e9), "1.09 GB");
}

// ----------------------------------------------------------------- Bitmap512

TEST(Bitmap, SetTestReset) {
  Bitmap512 bm;
  EXPECT_FALSE(bm.test(0));
  bm.set(0);
  bm.set(63);
  bm.set(64);
  bm.set(511);
  EXPECT_TRUE(bm.test(0));
  EXPECT_TRUE(bm.test(63));
  EXPECT_TRUE(bm.test(64));
  EXPECT_TRUE(bm.test(511));
  EXPECT_EQ(bm.count(), 4u);
  bm.reset(63);
  EXPECT_FALSE(bm.test(63));
  EXPECT_EQ(bm.count(), 3u);
}

TEST(Bitmap, CountPrefix) {
  Bitmap512 bm;
  for (std::uint32_t i = 0; i < 512; i += 2) bm.set(i);
  EXPECT_EQ(bm.count_prefix(0), 0u);
  EXPECT_EQ(bm.count_prefix(1), 1u);
  EXPECT_EQ(bm.count_prefix(10), 5u);
  EXPECT_EQ(bm.count_prefix(512), 256u);
  EXPECT_EQ(bm.count_prefix(600), 256u);
}

TEST(Bitmap, SetPrefix) {
  Bitmap512 bm;
  bm.set_prefix(100);
  EXPECT_EQ(bm.count(), 100u);
  EXPECT_TRUE(bm.test(99));
  EXPECT_FALSE(bm.test(100));
}

TEST(Bitmap, SetBitsRoundTrip) {
  Bitmap512 bm;
  const std::vector<std::uint32_t> bits{0, 1, 63, 64, 127, 128, 300, 511};
  for (const auto b : bits) bm.set(b);
  EXPECT_EQ(bm.set_bits(512), bits);
  // Limit excludes high bits.
  const auto limited = bm.set_bits(128);
  EXPECT_EQ(limited, (std::vector<std::uint32_t>{0, 1, 63, 64, 127}));
}

TEST(Bitmap, ClearBits) {
  Bitmap512 bm;
  bm.set_prefix(8);
  bm.reset(3);
  EXPECT_EQ(bm.clear_bits(8), (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(bm.clear_bits(10), (std::vector<std::uint32_t>{3, 8, 9}));
}

TEST(Bitmap, Contains) {
  Bitmap512 a, b;
  a.set(1);
  a.set(100);
  b.set(1);
  EXPECT_TRUE(a.contains(b));
  EXPECT_FALSE(b.contains(a));
  b.set(200);
  EXPECT_FALSE(a.contains(b));
}

TEST(Bitmap, CountMinus) {
  Bitmap512 a, b;
  a.set_prefix(10);
  b.set(0);
  b.set(5);
  EXPECT_EQ(a.count_minus(b, 512), 8u);
  EXPECT_EQ(a.count_minus(b, 3), 2u);  // {1, 2}
}

// ------------------------------------------------------------ Samples::merge

TEST(Bitmap, RangeQueriesMatchBitByBit) {
  Xoshiro256 rng(0xb17);
  for (int trial = 0; trial < 40; ++trial) {
    Bitmap512 bm;
    const std::uint32_t density = 1 + static_cast<std::uint32_t>(rng.uniform(40));
    for (std::uint32_t i = 0; i < Bitmap512::kCapacity; ++i) {
      if (rng.uniform(density) == 0) bm.set(i);
    }
    auto check = [&](std::uint32_t lo, std::uint32_t hi) {
      std::uint32_t expect = 0;
      for (std::uint32_t i = lo; i < hi; ++i) expect += bm.test(i) ? 1 : 0;
      EXPECT_EQ(bm.count_in(lo, hi), expect) << lo << ".." << hi;
      EXPECT_EQ(bm.any_in(lo, hi), expect != 0) << lo << ".." << hi;
    };
    // Word edges and the whole line, then random ranges.
    for (const std::uint32_t lo : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 511u}) {
      for (const std::uint32_t hi : {0u, 1u, 63u, 64u, 65u, 128u, 129u, 512u}) {
        check(lo, hi);
      }
    }
    for (int r = 0; r < 300; ++r) {
      const auto lo = static_cast<std::uint32_t>(rng.uniform(513));
      const auto hi = lo + static_cast<std::uint32_t>(rng.uniform(513 - lo));
      check(lo, hi);
    }
  }
}

// ---------------------------------------------------------------- CellCounts

/// Keys whose home slot coincides in a `capacity`-slot table.
std::vector<std::uint32_t> colliding_keys(std::size_t capacity, std::size_t n) {
  const auto shift = static_cast<unsigned>(32 - std::countr_zero(capacity));
  std::vector<std::uint32_t> out;
  for (std::uint32_t key = 0; out.size() < n; ++key) {
    if (((key * 0x9E3779B1u) >> shift) == 5) out.push_back(key);
  }
  return out;
}

TEST(CellCounts, CountsAndErases) {
  CellCounts counts;
  EXPECT_EQ(counts.get(CellCounts::key(3, 4)), 0u);
  EXPECT_EQ(counts.increment(CellCounts::key(3, 4)), 1u);
  EXPECT_EQ(counts.increment(CellCounts::key(3, 4)), 2u);
  EXPECT_EQ(counts.increment(CellCounts::key(511, 511)), 1u);
  EXPECT_EQ(counts.get(CellCounts::key(3, 4)), 2u);
  EXPECT_EQ(counts.size(), 2u);
  counts.decrement(CellCounts::key(3, 4));
  EXPECT_EQ(counts.get(CellCounts::key(3, 4)), 1u);
  counts.decrement(CellCounts::key(3, 4));  // reaches 0: the entry goes
  EXPECT_EQ(counts.get(CellCounts::key(3, 4)), 0u);
  EXPECT_EQ(counts.size(), 1u);
  counts.decrement(CellCounts::key(3, 4));  // absent: no-op
  counts.erase(CellCounts::key(511, 511));
  EXPECT_EQ(counts.size(), 0u);
  EXPECT_EQ(counts.get(CellCounts::key(511, 511)), 0u);
}

TEST(CellCounts, SaturatesAtMaxCount) {
  CellCounts counts;
  const auto k = CellCounts::key(0, 0);
  for (std::uint32_t i = 0; i < CellCounts::kMaxCount + 5; ++i) counts.increment(k);
  EXPECT_EQ(counts.get(k), CellCounts::kMaxCount);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(CellCounts, EraseInsideACollisionClusterKeepsLaterKeysReachable) {
  CellCounts counts;
  const auto keys = colliding_keys(16, 5);  // one cluster in the first table
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t c = 0; c <= i; ++c) counts.increment(keys[i]);
  }
  ASSERT_EQ(counts.capacity(), 16u);
  counts.erase(keys[1]);  // backward shift must pull keys[2..4] along
  EXPECT_EQ(counts.get(keys[1]), 0u);
  for (std::size_t i = 2; i < keys.size(); ++i) {
    EXPECT_EQ(counts.get(keys[i]), i + 1) << "key " << i << " lost after erase";
  }
  counts.erase(keys[0]);
  counts.erase(keys[4]);
  EXPECT_EQ(counts.get(keys[2]), 3u);
  EXPECT_EQ(counts.get(keys[3]), 4u);
  EXPECT_EQ(counts.size(), 2u);
}

TEST(CellCounts, GrowsAtHalfLoadAndClearKeepsCapacity) {
  CellCounts counts;
  const auto keys = colliding_keys(16, 40);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    counts.increment(keys[i]);
    EXPECT_LE(2 * counts.size(), counts.capacity());
  }
  EXPECT_EQ(counts.capacity(), 128u);
  for (const auto k : keys) EXPECT_EQ(counts.get(k), 1u);
  counts.clear();
  EXPECT_EQ(counts.size(), 0u);
  EXPECT_EQ(counts.capacity(), 128u);
  for (const auto k : keys) EXPECT_EQ(counts.get(k), 0u);
  EXPECT_EQ(counts.increment(keys[7]), 1u);
}

TEST(CellCounts, MatchesReferenceMapUnderRandomOperations) {
  // Differential check against std::map with the table's semantics (a
  // count that reaches 0 is absent). Keys come from a small pool, part of
  // it colliding, so clusters form, shift and wrap around the table.
  Xoshiro256 rng(0xc0de);
  std::vector<std::uint32_t> pool = colliding_keys(64, 24);
  while (pool.size() < 400) {
    pool.push_back(static_cast<std::uint32_t>(rng.uniform(1u << CellCounts::kKeyBits)));
  }
  CellCounts counts;
  std::map<std::uint32_t, std::uint32_t> ref;
  for (int op = 0; op < 200'000; ++op) {
    const std::uint32_t key = pool[rng.uniform(pool.size())];
    switch (rng.uniform(10)) {
      case 0: case 1: case 2: case 3:
        ASSERT_EQ(counts.increment(key), ++ref[key]);
        break;
      case 4: case 5:
        counts.decrement(key);
        if (auto it = ref.find(key); it != ref.end() && --it->second == 0) {
          ref.erase(it);
        }
        break;
      case 6:
        counts.erase(key);
        ref.erase(key);
        break;
      default: {
        const auto it = ref.find(key);
        ASSERT_EQ(counts.get(key), it == ref.end() ? 0u : it->second);
      }
    }
    if (op % 50'000 == 49'999) {
      counts.clear();
      ref.clear();
    }
    ASSERT_EQ(counts.size(), ref.size());
  }
  for (const auto key : pool) {
    const auto it = ref.find(key);
    EXPECT_EQ(counts.get(key), it == ref.end() ? 0u : it->second);
  }
}

TEST(Samples, MergeCombinesDistributions) {
  Samples a, b;
  for (const double v : {1.0, 2.0, 3.0}) a.add(v);
  for (const double v : {4.0, 5.0}) b.add(v);
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_DOUBLE_EQ(a.sum(), 15.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
  // b is untouched.
  EXPECT_EQ(b.count(), 2u);
}

TEST(Samples, MergeEmptyIsNoop) {
  Samples a, empty;
  a.add(7.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 7.0);
}

TEST(Samples, MergeInvalidatesSortCache) {
  Samples a, b;
  a.add(10.0);
  EXPECT_DOUBLE_EQ(a.percentile(50), 10.0);  // forces the sort cache
  b.add(0.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.percentile(0), 0.0);
}

TEST(Samples, SummarySnapshotMatchesQueries) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  const Summary sum = s.summary();
  EXPECT_EQ(sum.n, 100u);
  EXPECT_DOUBLE_EQ(sum.min, s.min());
  EXPECT_DOUBLE_EQ(sum.p50, s.percentile(50));
  EXPECT_DOUBLE_EQ(sum.mean, s.mean());
  EXPECT_DOUBLE_EQ(sum.stddev, s.stddev());
  EXPECT_DOUBLE_EQ(sum.p99, s.percentile(99));
  EXPECT_DOUBLE_EQ(sum.max, s.max());
  EXPECT_DOUBLE_EQ(sum.sum, s.sum());
}

TEST(Samples, SummaryOfEmptyIsZeros) {
  const Summary sum = Samples{}.summary();
  EXPECT_EQ(sum.n, 0u);
  EXPECT_EQ(sum.mean, 0.0);
  EXPECT_EQ(sum.max, 0.0);
}

// ------------------------------------------------------------------ Histogram

TEST(Histogram, BucketAssignment) {
  Histogram h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.bucket_count(), 4u);  // 3 bounds + overflow
  h.add(0.5);   // <= 1       -> bucket 0
  h.add(1.0);   // == bound   -> bucket 0 (bounds are inclusive upper edges)
  h.add(1.5);   // <= 2       -> bucket 1
  h.add(4.0);   // <= 4       -> bucket 2
  h.add(99.0);  // overflow   -> bucket 3
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 99.0);
}

TEST(Histogram, RejectsNonIncreasingBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), std::logic_error);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::logic_error);
  EXPECT_THROW(Histogram({}), std::logic_error);
}

TEST(Histogram, AddN) {
  Histogram h({10.0});
  h.add_n(5.0, 7);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 35.0);
  EXPECT_EQ(h.counts()[0], 7u);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 2.0});
  a.add(0.5);
  b.add(1.5);
  b.add(9.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.counts()[0], 1u);
  EXPECT_EQ(a.counts()[1], 1u);
  EXPECT_EQ(a.counts()[2], 1u);
  EXPECT_DOUBLE_EQ(a.sum(), 11.0);
}

TEST(Histogram, MergeMismatchedBoundsThrows) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 3.0});
  EXPECT_THROW(a.merge(b), std::logic_error);
}

TEST(Histogram, QuantileInterpolates) {
  Histogram h({10.0, 20.0});
  h.add_n(5.0, 10);   // bucket (0, 10]
  h.add_n(15.0, 10);  // bucket (10, 20]
  // Median sits at the bucket boundary; quartiles inside each bucket.
  EXPECT_NEAR(h.quantile(0.5), 10.0, 1.0);
  EXPECT_GT(h.quantile(0.75), 10.0);
  EXPECT_LE(h.quantile(0.75), 20.0);
  EXPECT_LE(h.quantile(0.25), 10.0);
}

TEST(Histogram, LogMsCoversSlotClock) {
  Histogram h = Histogram::log_ms();
  ASSERT_EQ(h.bounds().front(), 1.0);
  ASSERT_EQ(h.bounds().back(), 16384.0);
  // Doubling bounds: 1, 2, 4, ..., 16384 (15 bounds) + overflow.
  EXPECT_EQ(h.bucket_count(), 16u);
  for (std::size_t i = 1; i < h.bounds().size(); ++i) {
    EXPECT_DOUBLE_EQ(h.bounds()[i], 2.0 * h.bounds()[i - 1]);
  }
}

TEST(Histogram, ClearResets) {
  Histogram h({1.0});
  h.add(0.5);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.counts()[0], 0u);
}

TEST(SummarizeFormat, SummaryAndSamplesAgree) {
  Samples s;
  for (const double v : {1.0, 2.0, 3.0}) s.add(v);
  EXPECT_EQ(summarize(s, "ms"), summarize(s.summary(), "ms"));
}

// --------------------------------------------------------------- ThreadPool

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);  // on a 1-core machine this has no workers at all
  std::vector<int> hits(64, 0);  // plain ints: safe iff the loop is inline
  const auto caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  pool.parallel_for(0, hits.size(), [&](std::size_t i) {
    hits[i] = 1;
    if (pool.workers() == 0 && std::this_thread::get_id() != caller) {
      ++off_thread;
    }
  });
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 64);
  if (pool.workers() == 0) {
    EXPECT_EQ(off_thread.load(), 0);
  }
}

TEST(ThreadPool, EmptyAndSingleRanges) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(0, 100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(0, 4, [&](std::size_t) {
    pool.parallel_for(0, 8, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPool, CurrentThreadIsWorkerSeesWorkersOnly) {
  EXPECT_FALSE(ThreadPool::current_thread_is_worker());
  ThreadPool pool(2);
  std::atomic<int> on_worker{0};
  std::atomic<int> total{0};
  // With 2 workers plus the caller racing over 256 items, workers claim
  // some of them (the caller alone can't observe a true flag).
  pool.parallel_for(0, 256, [&](std::size_t) {
    ++total;
    if (ThreadPool::current_thread_is_worker()) ++on_worker;
  });
  EXPECT_EQ(total.load(), 256);
  EXPECT_FALSE(ThreadPool::current_thread_is_worker());  // caller unchanged
}

TEST(ThreadPool, BackToBackJobsRunOnlyTheirOwnFunction) {
  // A worker that wakes late for job g copies g's function; it must never
  // claim an index of job g + 1 published meanwhile and run g's function
  // on it. Many short back-to-back jobs give such a late worker plenty of
  // chances; every (job, index) pair must run exactly once, under its own
  // job's function.
  ThreadPool pool(3);
  constexpr std::size_t kJobs = 20'000;
  constexpr std::size_t kWidth = 4;
  std::vector<std::atomic<std::uint8_t>> runs(kJobs * kWidth);
  std::atomic<std::size_t> current{0};
  std::atomic<int> stale{0};
  for (std::size_t job = 0; job < kJobs; ++job) {
    current.store(job);
    pool.parallel_for(0, kWidth, [&, job](std::size_t i) {
      if (current.load() != job) ++stale;
      ++runs[job * kWidth + i];
    });
  }
  EXPECT_EQ(stale.load(), 0) << "a job's function ran after the job returned";
  std::size_t wrong = 0;
  for (const auto& r : runs) wrong += r.load() != 1 ? 1 : 0;
  EXPECT_EQ(wrong, 0u) << "(job, index) pairs not run exactly once";
}

TEST(ThreadPool, NestedDispatchIntoAnotherPoolRunsInline) {
  // A worker of pool A entering pool B's parallel_for must not block-dispatch
  // (that can deadlock); the inline fallback handles it, and the iterations
  // all run on the issuing thread.
  ThreadPool a(2);
  ThreadPool b(2);
  std::atomic<int> inner{0};
  a.parallel_for(0, 4, [&](std::size_t) {
    const auto id = std::this_thread::get_id();
    b.parallel_for(0, 8, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), id);
      ++inner;
    });
  });
  EXPECT_EQ(inner.load(), 32);
}

TEST(ThreadPool, SharedPoolSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  std::atomic<int> calls{0};
  ThreadPool::shared().parallel_for(0, 10, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 10);
}

}  // namespace
}  // namespace pandas::util
