// A tiny-size run of every workload, untraced and traced: the whole
// command path, with the output checks on.
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>

#include "workloads.hpp"

namespace perfbench {
namespace {

class SmokeTest : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(SmokeTest, TinyRunIsCorrectAndReportsEveryMetric) {
  const auto& [workload, trace] = GetParam();
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   ("perfbench_smoke_" + workload + (trace ? "_traced" : "") + "_" +
                    std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);

  RunOptions o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = 0.3;
  o.trace = trace;
  o.tiny = true;
  Report report;
  const bool ok = RunWorkload(o, report);

  std::filesystem::current_path(cwd);
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(ok);
  EXPECT_TRUE(report.correct);
  EXPECT_GT(report.attempted, 0u);
  EXPECT_EQ(report.failed, 0u);
  ASSERT_EQ(report.end_to_end.size(), 4u);
  for (const auto& m : report.end_to_end) EXPECT_GT(m.value, 0.0) << m.name;
  EXPECT_EQ(report.per_layer.empty(), !trace);
  if (trace) {
    for (const auto& m : report.per_layer) {
      if (m.name == "stage.read_us_p50" || m.name == "trace.spans") {
        EXPECT_GT(m.value, 0.0) << m.name;
      }
      if (m.name == "ipc.copies_per_sample" && workload != "tf_tiered") {
        EXPECT_NEAR(m.value, 1.0, 5e-4);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SmokeTest,
    ::testing::Combine(::testing::Values("torch_small", "tf_tiered"),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param) + (std::get<1>(info.param) ? "_traced" : "");
    });

}  // namespace
}  // namespace perfbench
