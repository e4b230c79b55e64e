#include "build_guard.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(BuildGuardTest, OptimizedPlainBuildMayTime) {
  BuildInfo b;
  b.ndebug = true;
  EXPECT_TRUE(TimingRefusals(b).empty());
}

TEST(BuildGuardTest, NamesEveryReason) {
  BuildInfo b;
  b.ndebug = false;
  b.lock_order_checks = true;
  b.sanitizer = "thread";
  const auto reasons = TimingRefusals(b);
  ASSERT_EQ(reasons.size(), 3u);
  EXPECT_NE(reasons[0].find("NDEBUG"), std::string::npos);
  EXPECT_NE(reasons[1].find("PRISMA_LOCK_ORDER_CHECKS"), std::string::npos);
  EXPECT_NE(reasons[2].find("-fsanitize=thread"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
