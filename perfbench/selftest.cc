// Self-tests for the benchmark's own code: the statistics it reports, the
// inputs it generates, and the checker that guards every reply.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "harness.h"

namespace bullet::perfbench {
namespace {

// Oracle: the smallest value v such that at least p% of the sample is <= v.
std::uint64_t oracle_percentile(const std::vector<std::uint64_t>& sorted, double p) {
  for (const std::uint64_t v : sorted) {
    const auto at_or_below = static_cast<double>(
        std::upper_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
    if (at_or_below * 100.0 >= p * static_cast<double>(sorted.size())) return v;
  }
  return sorted.back();
}

TEST(NearestRank, MatchesSortedOracle) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint64_t> v(1 + rng.next_below(300));
    for (auto& x : v) x = rng.next_below(50);  // many ties
    std::sort(v.begin(), v.end());
    for (const double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      EXPECT_EQ(nearest_rank(v, p), oracle_percentile(v, p))
          << "n=" << v.size() << " p=" << p;
    }
  }
}

TEST(NearestRank, SmallCases) {
  EXPECT_EQ(nearest_rank({}, 50), 0u);
  EXPECT_EQ(nearest_rank({5}, 1), 5u);
  EXPECT_EQ(nearest_rank({5}, 100), 5u);
  // n = 100: p99 is the 99th value, not an interpolation.
  std::vector<std::uint64_t> v(100);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i + 1;
  EXPECT_EQ(nearest_rank(v, 99), 99u);
  EXPECT_EQ(nearest_rank(v, 50), 50u);
}

TEST(Summarize, ReportsMicrosecondsAndCount) {
  const Timing t = summarize({3000, 1000, 2000, 4000});
  EXPECT_EQ(t.count, 4u);
  EXPECT_DOUBLE_EQ(t.mean_us, 2.5);
  EXPECT_DOUBLE_EQ(t.p50_us, 2.0);
  EXPECT_DOUBLE_EQ(t.p99_us, 4.0);
}

TEST(QuarterBest, PicksTheCeilQuarterBestValue) {
  std::vector<double> v;
  for (int i = 16; i >= 1; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(quarter_best(v, false), 4.0);   // 4th smallest of 16
  EXPECT_DOUBLE_EQ(quarter_best(v, true), 13.0);   // 4th largest of 16
  EXPECT_DOUBLE_EQ(quarter_best({7, 3, 5}, false), 3.0);  // ceil(3/4) = 1st
  EXPECT_DOUBLE_EQ(quarter_best({1, 2, 3, 4, 5}, true), 4.0);  // 2nd largest
  EXPECT_DOUBLE_EQ(quarter_best({}, false), 0.0);
}

TEST(Zipf, RankZeroIsHottestAndAllRanksReachable) {
  const Zipf z(64, 0.99);
  Rng rng(3);
  std::vector<int> hits(64, 0);
  for (int i = 0; i < 200000; ++i) ++hits[z.sample(rng)];
  EXPECT_EQ(std::max_element(hits.begin(), hits.end()) - hits.begin(), 0);
  EXPECT_GT(hits[0], 2 * hits[3]);
  EXPECT_GT(hits[63], 0);
}

TEST(Ledger, LayerMeansAddUpToClientMean) {
  LedgerSums s;
  s.ops = 4;
  s.op_ns = 4 * 50000;       // 50 us per op at the client
  s.rpc_calls = 4;
  s.rpc_ns = 4 * 45000;      // 45 us inside the transport
  s.service_calls = 4;
  s.service_ns = 4 * 12000;  // 12 us inside the service
  s.disk_ns = 4 * 8000;      // 8 us on the device
  const Ledger l = make_ledger(s);
  EXPECT_DOUBLE_EQ(l.op_us_mean, 50.0);
  EXPECT_DOUBLE_EQ(l.client_self_us, 5.0);
  EXPECT_DOUBLE_EQ(l.rpc_self_us, 33.0);
  EXPECT_DOUBLE_EQ(l.bullet_self_us, 4.0);
  EXPECT_DOUBLE_EQ(l.disk_self_us, 8.0);
  EXPECT_NEAR(l.sum_us(), l.op_us_mean, 1e-9);
  EXPECT_TRUE(l.consistent());
}

TEST(Ledger, BrokenNestingIsReported) {
  LedgerSums s;
  s.ops = 1;
  s.op_ns = 10000;
  s.rpc_ns = 12000;  // a child longer than its parent
  EXPECT_FALSE(make_ledger(s).consistent());
  EXPECT_EQ(make_ledger(LedgerSums{}).ops, 0u);
}

TEST(Content, RoundTripsAndTripsOnOneFlippedByte) {
  const ContentModel m(11);
  for (const std::size_t size : {std::size_t{1}, std::size_t{16}, std::size_t{512},
                                 std::size_t{4096}, ContentModel::kMaxFile}) {
    const Bytes good = m.make(1234, size);
    ASSERT_EQ(good.size(), size);
    EXPECT_TRUE(m.matches(1234, size, good));
    for (const std::size_t at : {std::size_t{0}, size / 2, size - 1}) {
      Bytes bad = good;
      bad[at] ^= 0x01;
      EXPECT_FALSE(m.matches(1234, size, bad)) << "size " << size << " byte " << at;
    }
    Bytes shorter(good.begin(), good.end() - 1);
    EXPECT_FALSE(m.matches(1234, size, shorter));
  }
}

TEST(Content, DistinctFilesDifferAndSeedsDiffer) {
  const ContentModel a(1), b(2);
  EXPECT_FALSE(a.matches(2, 4096, a.make(1, 4096)));
  EXPECT_FALSE(b.matches(1, 4096, a.make(1, 4096)));
  EXPECT_EQ(a.make(9, 512), ContentModel(1).make(9, 512));
}

TEST(OpHash, OrderSensitive) {
  OpHash x, y;
  x.add(1);
  x.add(2);
  y.add(2);
  y.add(1);
  EXPECT_NE(x.value(), y.value());
}

}  // namespace
}  // namespace bullet::perfbench
