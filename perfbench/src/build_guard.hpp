// Refuses to report numbers from a build that is not fit for timing.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct BuildInfo {
  bool ndebug = false;          // NDEBUG defined (optimized CMake build)
  bool lock_order_checks = false;  // PRISMA_LOCK_ORDER_CHECKS set
  std::string sanitizer;        // -fsanitize= value, empty if none
  std::string build_type;       // CMake build type, for the record
};

/// What this binary was compiled with.
BuildInfo CurrentBuild();

/// One reason per property that makes `build` unfit for timing; empty
/// when the build may report numbers.
std::vector<std::string> TimingRefusals(const BuildInfo& build);

}  // namespace perfbench
