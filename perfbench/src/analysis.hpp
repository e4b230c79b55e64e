// Arithmetic the benchmark reports with: percentiles and medians of
// per-epoch values, interval unions, and the per-request self-time
// breakdown over the traced spans.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `values` by linear interpolation
/// between closest ranks (numpy's default). 0 for an empty input.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

struct Interval {
  std::int64_t start;
  std::int64_t end;
};

/// Sorted, disjoint union of `intervals` (empty ones dropped).
std::vector<Interval> Normalize(std::vector<Interval> intervals);

/// Intersection of two normalized interval lists.
std::vector<Interval> Intersect(const std::vector<Interval>& a,
                                const std::vector<Interval>& b);

/// Total length of a normalized list.
std::int64_t Length(const std::vector<Interval>& normalized);

/// Length of the union of `intervals` (overlaps counted once).
inline std::int64_t UnionLength(std::vector<Interval> intervals) {
  return Length(Normalize(std::move(intervals)));
}

/// The part of `root` each level of one request covers. `root` is the
/// consumer's call; levels[k] holds the spans k+1 levels below it. A
/// level only counts inside its parent's region: region 0 is the root,
/// region k+1 is region k intersected with the union of levels[k]. So a
/// backend read of a prefetched sample blocks only while it overlaps the
/// consumer's stage span.
std::vector<std::vector<Interval>> NestedRegions(
    Interval root, const std::vector<std::vector<Interval>>& levels);

/// Self time of every level of one request: a region's length minus the
/// next region's. Entry 0 is the root's own self time; the entries sum
/// to the root's duration.
std::vector<std::int64_t> SelfTimes(
    Interval root, const std::vector<std::vector<Interval>>& levels);

/// Per-request self times of a layer chain, in microseconds, over every
/// request that has a span of `root` (a request's several root spans are
/// merged into one window from first start to last end). Only read and
/// stat spans count; writes, removals and recovery never block a
/// consumer's read. Siblings at one level (the slow and the fast tier)
/// each get the part of their parent's region they cover; siblings are
/// only allowed at the last level.
struct Breakdown {
  std::vector<double> root_us;  // the consumer call durations
  std::map<Layer, std::vector<double>> self_us;
};
Breakdown BreakDown(const std::vector<Span>& spans, Layer root,
                    const std::vector<std::vector<Layer>>& levels);

/// Where the time of a typical request goes: each layer's mean self time
/// over the requests whose root duration lies between the `lo` and `hi`
/// quantiles (e.g. 0.4..0.6 around the median read). Per-layer medians
/// cannot be summed when reads are bimodal (buffer hit or wait); these
/// means add up to the band's mean read.
std::map<Layer, double> BandMeans(const Breakdown& bd, double lo, double hi);

}  // namespace perfbench
