#include "analysis.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.25), 2.0);
  // 101 values 0..100: p99 is exactly 99.
  std::vector<double> v;
  for (int i = 100; i >= 0; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.99), 99.0);
  // Between ranks: q=0.9 over {0,10} -> 9.
  EXPECT_DOUBLE_EQ(Percentile({10.0, 0.0}, 0.9), 9.0);
}

TEST(PercentileTest, MedianOfEpochsIgnoresOneOutlierEpoch) {
  // Per-epoch figures with one stalled epoch: the median stays put.
  EXPECT_DOUBLE_EQ(Median({100.0, 102.0, 98.0, 5000.0, 101.0}), 101.0);
  EXPECT_DOUBLE_EQ(Median({100.0, 102.0, 98.0, 5000.0}), 101.0);
}

TEST(IntervalTest, UnionCountsOverlapsOnce) {
  EXPECT_EQ(UnionLength({}), 0);
  EXPECT_EQ(UnionLength({{0, 10}, {5, 15}, {20, 30}}), 25);
  EXPECT_EQ(UnionLength({{20, 30}, {0, 10}, {10, 20}}), 30);  // touching
  EXPECT_EQ(UnionLength({{0, 100}, {10, 20}, {30, 40}}), 100);  // nested
  EXPECT_EQ(UnionLength({{5, 5}, {7, 3}}), 0);                  // empty/inverted
}

TEST(IntervalTest, IntersectsNormalizedLists) {
  const auto a = Normalize({{30, 60}, {50, 120}, {0, 10}});
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(Length(a), 100);
  EXPECT_EQ(Length(Intersect(a, {{40, 100}})), 60);
  EXPECT_EQ(Length(Intersect(a, {{10, 30}})), 0);
  EXPECT_EQ(Length(Intersect({{0, 50}}, {{40, 100}})), 10);
  EXPECT_EQ(Length(Intersect({{0, 10}, {20, 30}}, {{5, 25}})), 10);
}

TEST(SelfTimeTest, HandBuiltSpanSetTelescopes) {
  // client [0,100); stage [10,90); storage reads [0,20) (a prefetch read
  // that started before the consumer reached the stage) and [60,80).
  const auto self = SelfTimes({0, 100}, {{{10, 90}}, {{0, 20}, {60, 80}}});
  ASSERT_EQ(self.size(), 3u);
  EXPECT_EQ(self[0], 20);  // client outside the stage span
  EXPECT_EQ(self[1], 50);  // stage span minus the reads inside it
  EXPECT_EQ(self[2], 30);  // reads only count inside the stage span
  EXPECT_EQ(self[0] + self[1] + self[2], 100);
}

TEST(SelfTimeTest, ChildOutsideTheRootDoesNotCount) {
  const auto self = SelfTimes({100, 200}, {{{120, 180}}, {{0, 50}}});
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 60);
  EXPECT_EQ(self[2], 0);
}

Span S(std::uint64_t req, std::int64_t a, std::int64_t b, Layer l, Op op = Op::kRead) {
  return Span{req, a, b, 0, l, Layer::kNone, op};
}

TEST(BreakDownTest, JoinsByRequestAndSplitsSiblings) {
  const std::vector<Span> spans = {
      // request 1: two root spans merge to [0,100)
      S(1, 0, 40, Layer::kFrameworks), S(1, 40, 100, Layer::kFrameworks),
      S(1, 10, 90, Layer::kStage), S(1, 20, 80, Layer::kTiering),
      S(1, 30, 50, Layer::kStorage), S(1, 60, 70, Layer::kFastTier),
      S(1, 0, 1000, Layer::kFastTier, Op::kWrite),  // writes never block
      // request 2: stage only
      S(2, 0, 10, Layer::kFrameworks), S(2, 2, 8, Layer::kStage),
      // request 3: no root span, ignored
      S(3, 0, 10, Layer::kStage),
  };
  const auto bd = BreakDown(spans, Layer::kFrameworks,
                            {{Layer::kStage}, {Layer::kTiering},
                             {Layer::kStorage, Layer::kFastTier}});
  ASSERT_EQ(bd.root_us.size(), 2u);
  std::map<double, std::size_t> by_root;  // root duration -> position
  for (std::size_t i = 0; i < bd.root_us.size(); ++i) by_root[bd.root_us[i]] = i;
  const std::size_t r1 = by_root.at(0.1);
  const std::size_t r2 = by_root.at(0.01);
  EXPECT_DOUBLE_EQ(bd.self_us.at(Layer::kFrameworks)[r1], 0.020);
  EXPECT_DOUBLE_EQ(bd.self_us.at(Layer::kStage)[r1], 0.020);
  EXPECT_DOUBLE_EQ(bd.self_us.at(Layer::kTiering)[r1], 0.030);
  EXPECT_DOUBLE_EQ(bd.self_us.at(Layer::kStorage)[r1], 0.020);
  EXPECT_DOUBLE_EQ(bd.self_us.at(Layer::kFastTier)[r1], 0.010);
  EXPECT_DOUBLE_EQ(bd.self_us.at(Layer::kFrameworks)[r2], 0.004);
  EXPECT_DOUBLE_EQ(bd.self_us.at(Layer::kStage)[r2], 0.006);
  EXPECT_DOUBLE_EQ(bd.self_us.at(Layer::kStorage)[r2], 0.0);
}

TEST(BreakDownTest, BandMeansAddUpToTheTypicalRead) {
  // Bimodal reads: four hits of 20 and five waits of 110, 90 of it in
  // storage. The band around the median read holds the waits, and their
  // layer means add up to it.
  std::vector<Span> spans;
  for (std::uint64_t r = 1; r <= 9; ++r) {
    const std::int64_t t = static_cast<std::int64_t>(r) * 1000;
    const bool wait = r > 4;
    spans.push_back(S(r, t, t + (wait ? 110 : 20), Layer::kIpc));
    spans.push_back(S(r, t + 5, t + 5 + (wait ? 100 : 10), Layer::kStage));
    if (wait) spans.push_back(S(r, t + 5, t + 95, Layer::kStorage));
  }
  const auto bd = BreakDown(spans, Layer::kIpc, {{Layer::kStage}, {Layer::kStorage}});
  EXPECT_DOUBLE_EQ(Median(bd.self_us.at(Layer::kStorage)), 0.090);
  const auto band = BandMeans(bd, 0.4, 0.6);
  EXPECT_NEAR(band.at(Layer::kIpc) + band.at(Layer::kStage) + band.at(Layer::kStorage),
              Median(bd.root_us), 1e-12);
  EXPECT_DOUBLE_EQ(band.at(Layer::kStorage), 0.090);
}

}  // namespace
}  // namespace perfbench
