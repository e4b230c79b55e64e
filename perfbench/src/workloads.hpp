// The three benchmark workloads and the report they produce.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;      // torch_small | tf_tiered
  std::uint64_t seed = 1;
  double seconds = 10.0;     // measured time per run
  bool trace = false;        // traced run: per-layer metrics
  bool tiny = false;         // smoke-test sizes
  std::string trace_out;     // where to write the spans ("" = nowhere)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::string engine = "none";  // UdsServer engine ("none": no ipc)
  std::vector<Metric> end_to_end;  // untraced run
  std::vector<Metric> per_layer;   // traced run
  std::vector<std::string> lines;  // human-readable detail, printed first
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload inside the current directory (which must be empty
/// and private to this run). Returns false on a set-up failure, with the
/// reason in report.lines; wrong or failed reads are counted in report
/// and make report.correct false.
bool RunWorkload(const RunOptions& options, Report& report);

}  // namespace perfbench
