#include "build_guard.hpp"

#include "common/mutex.hpp"  // defines PRISMA_LOCK_ORDER_CHECKS (0 or 1)

#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench {

BuildInfo CurrentBuild() {
  BuildInfo b;
#ifdef NDEBUG
  b.ndebug = true;
#endif
  b.lock_order_checks = PRISMA_LOCK_ORDER_CHECKS != 0;
  b.sanitizer = PERFBENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__)
  if (b.sanitizer.empty()) b.sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  if (b.sanitizer.empty()) b.sanitizer = "thread";
#endif
  b.build_type = PERFBENCH_BUILD_TYPE;
  return b;
}

std::vector<std::string> TimingRefusals(const BuildInfo& build) {
  std::vector<std::string> reasons;
  if (!build.ndebug) {
    reasons.push_back("built without NDEBUG (assertions on; use Release)");
  }
  if (build.lock_order_checks) {
    reasons.push_back(
        "built with PRISMA_LOCK_ORDER_CHECKS (backtrace per lock acquisition)");
  }
  if (!build.sanitizer.empty()) {
    reasons.push_back("built with -fsanitize=" + build.sanitizer);
  }
  return reasons;
}

}  // namespace perfbench
