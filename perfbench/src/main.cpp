// perfbench: runs one PRISMA workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --dir <empty private directory> [--trace-out <file>] [--tiny]
//
// Detail lines start with '#'; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// of an untraced run (--trace 0) or the per-layer metrics of a traced run
// (--trace 1). Exit codes: 0 ok, 1 set-up failure, 2 usage, 3 build unfit
// for timing, 4 wrong or failed reads (the JSON line is still printed).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "build_guard.hpp"
#include "workloads.hpp"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <torch_small|tf_tiered> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "--dir <dir> [--trace-out <file>] [--tiny]\n",
               why);
  return 2;
}

void PrintMetrics(const std::vector<perfbench::Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("# %-36s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintJson(const perfbench::Report& r,
               const std::vector<perfbench::Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  std::string dir;
  bool have_workload = false, have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--tiny") {
      o.tiny = true;
    } else if ((a == "--workload" || a == "--seed" || a == "--seconds" ||
                a == "--trace" || a == "--dir" || a == "--trace-out") &&
               (v = next()) != nullptr) {
      if (a == "--workload") o.workload = v, have_workload = true;
      if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
      if (a == "--seconds") o.seconds = std::strtod(v, nullptr);
      if (a == "--trace") o.trace = std::string(v) == "1";
      if (a == "--dir") dir = v, have_dir = true;
      if (a == "--trace-out") o.trace_out = v;
    } else {
      return Usage(("bad argument: " + a).c_str());
    }
  }
  if (!have_workload || !have_dir) return Usage("--workload and --dir are required");
  bool known = false;
  for (const auto& n : perfbench::WorkloadNames()) known = known || n == o.workload;
  if (!known) return Usage(("unknown workload: " + o.workload).c_str());
  if (!(o.seconds > 0.0)) return Usage("--seconds must be positive");

  const auto build = perfbench::CurrentBuild();
  const auto refusals = perfbench::TimingRefusals(build);
  if (!refusals.empty()) {
    for (const auto& r : refusals) std::fprintf(stderr, "perfbench: refusing to time: %s\n", r.c_str());
    return 3;
  }
  if (::chdir(dir.c_str()) != 0) return Usage(("cannot enter --dir " + dir).c_str());

  perfbench::Report report;
  const bool ok = perfbench::RunWorkload(o, report);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d engine=%s nproc=%u "
              "build=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, report.engine.c_str(), std::thread::hardware_concurrency(),
              build.build_type.c_str());
  for (const auto& line : report.lines) std::printf("%s\n", line.c_str());
  if (!ok) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: set-up failed\n");
    return 1;
  }
  PrintMetrics(report.end_to_end);
  if (o.trace) PrintMetrics(report.per_layer);
  PrintJson(report, o.trace ? report.per_layer : report.end_to_end);
  return report.correct ? 0 : 4;
}
