#include "util/stats.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace qolsr::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(4.2);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.2);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.2);
  EXPECT_DOUBLE_EQ(s.max(), 4.2);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic data set is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  // Contiguous halves merged in order hold the samples of the sequential
  // pass, so every moment is bit for bit the same: the sweep harness's
  // thread-count invariance rests on this.
  Rng rng(99);
  RunningStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5.0, 20.0);
    whole.add(x);
    (i < 500 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_EQ(left.mean(), whole.mean());
  EXPECT_EQ(left.variance(), whole.variance());
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a);  // adopt
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Quantile, EmptyAndEdges) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({3.0}, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(quantile({3.0}, 1.0), 3.0);
}

TEST(Quantile, MedianAndInterpolation) {
  std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0 / 3.0), 2.0);
}

TEST(Quantile, SortedVariantAgrees) {
  std::vector<double> sorted{1.0, 2.0, 5.0, 9.0, 10.0};
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.77, 1.0})
    EXPECT_DOUBLE_EQ(quantile_sorted(sorted, q), quantile(sorted, q));
}

TEST(RunningStats, SortedIsInvariantToMergeOrder) {
  // However the partials are merged, the sorted sample (and thus every
  // quantile and histogram) is the same as the sequential accumulation.
  Rng rng(13);
  RunningStats whole, a, b, c;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(-2.0, 8.0);
    whole.add(x);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(x);
  }
  RunningStats abc = a, cba = c;
  abc.merge(b);
  abc.merge(c);
  cba.merge(b);
  cba.merge(a);
  EXPECT_EQ(abc.count(), whole.count());
  EXPECT_EQ(abc.sorted(), whole.sorted());
  EXPECT_EQ(cba.sorted(), whole.sorted());
}

TEST(RunningStats, EmptyMergeKeepsTheSortedSample) {
  RunningStats a, empty;
  a.add(1.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.sorted(), std::vector<double>{1.0});
}

TEST(HistogramSorted, CountsBucketsAndClampsOutliers) {
  // [0, 4) in 4 bins of width 1; -1 clamps into the first bin, 4 and 9
  // into the last.
  const std::vector<double> sorted{-1.0, 0.5, 1.5, 1.7, 3.9, 4.0, 9.0};
  const std::vector<std::size_t> expected{2, 2, 0, 3};
  EXPECT_EQ(histogram_sorted(sorted, 0.0, 4.0, 4), expected);
}

TEST(HistogramSorted, DegenerateRangeFillsFirstBin) {
  const std::vector<double> sorted{5.0, 5.0, 5.0};
  const std::vector<std::size_t> expected{3, 0};
  EXPECT_EQ(histogram_sorted(sorted, 5.0, 5.0, 2), expected);
  // Zero buckets clamps to one; an empty sample yields all-zero counts.
  EXPECT_EQ(histogram_sorted({}, 0.0, 1.0, 0), std::vector<std::size_t>{0});
}

}  // namespace
}  // namespace qolsr::util
