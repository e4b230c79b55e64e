#include "analysis.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<Interval> Normalize(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::vector<Interval> out;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) continue;
    if (!out.empty() && iv.start <= out.back().end) {
      out.back().end = std::max(out.back().end, iv.end);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

std::vector<Interval> Intersect(const std::vector<Interval>& a,
                                const std::vector<Interval>& b) {
  std::vector<Interval> out;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const Interval c{std::max(a[i].start, b[j].start), std::min(a[i].end, b[j].end)};
    if (c.end > c.start) out.push_back(c);
    if (a[i].end < b[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

std::int64_t Length(const std::vector<Interval>& normalized) {
  std::int64_t total = 0;
  for (const Interval& iv : normalized) total += iv.end - iv.start;
  return total;
}

std::vector<std::vector<Interval>> NestedRegions(
    Interval root, const std::vector<std::vector<Interval>>& levels) {
  std::vector<std::vector<Interval>> regions;
  regions.push_back(Normalize({root}));
  for (const auto& level : levels) {
    regions.push_back(Intersect(regions.back(), Normalize(level)));
  }
  return regions;
}

std::vector<std::int64_t> SelfTimes(
    Interval root, const std::vector<std::vector<Interval>>& levels) {
  const auto regions = NestedRegions(root, levels);
  std::vector<std::int64_t> self(regions.size(), 0);
  for (std::size_t k = 0; k < regions.size(); ++k) {
    self[k] = Length(regions[k]) -
              (k + 1 < regions.size() ? Length(regions[k + 1]) : 0);
  }
  return self;
}

Breakdown BreakDown(const std::vector<Span>& spans, Layer root,
                    const std::vector<std::vector<Layer>>& levels) {
  constexpr std::size_t kNotInChain = static_cast<std::size_t>(-1);
  std::map<Layer, std::size_t> level_of;  // level index of each non-root layer
  for (std::size_t k = 0; k < levels.size(); ++k) {
    for (const Layer l : levels[k]) level_of[l] = k;
  }
  const auto level = [&](Layer l) {
    const auto it = level_of.find(l);
    return it == level_of.end() ? kNotInChain : it->second;
  };
  // Only read and stat spans of the chain can block a read; group them by
  // request.
  std::vector<Span> joined;
  joined.reserve(spans.size());
  for (const Span& s : spans) {
    if (s.request == 0 || (s.op != Op::kRead && s.op != Op::kStat)) continue;
    if (s.layer != root && level(s.layer) == kNotInChain) continue;
    joined.push_back(s);
  }
  std::sort(joined.begin(), joined.end(),
            [](const Span& a, const Span& b) { return a.request < b.request; });

  Breakdown out;
  std::vector<std::vector<Interval>> by_level(levels.size());
  std::map<Layer, std::vector<Interval>> by_layer;
  for (std::size_t i = 0; i < joined.size();) {
    std::size_t j = i;
    bool has_root = false;
    Interval window{0, 0};
    for (auto& v : by_level) v.clear();
    for (auto& [l, v] : by_layer) v.clear();
    for (; j < joined.size() && joined[j].request == joined[i].request; ++j) {
      const Span& s = joined[j];
      const Interval iv{s.start_ns, s.end_ns};
      if (s.layer == root) {
        window = has_root ? Interval{std::min(window.start, iv.start),
                                     std::max(window.end, iv.end)}
                          : iv;
        has_root = true;
      } else {
        by_level[level(s.layer)].push_back(iv);
        by_layer[s.layer].push_back(iv);
      }
    }
    i = j;
    if (!has_root) continue;

    const auto regions = NestedRegions(window, by_level);
    const auto length = [&](std::size_t k) {
      return k < regions.size() ? Length(regions[k]) : 0;
    };
    out.root_us.push_back(static_cast<double>(window.end - window.start) / 1e3);
    out.self_us[root].push_back(static_cast<double>(length(0) - length(1)) / 1e3);
    for (std::size_t k = 0; k < levels.size(); ++k) {
      if (levels[k].size() == 1) {
        out.self_us[levels[k][0]].push_back(
            static_cast<double>(length(k + 1) - length(k + 2)) / 1e3);
        continue;
      }
      for (const Layer l : levels[k]) {
        const auto found = by_layer.find(l);
        const std::int64_t own =
            found == by_layer.end()
                ? 0
                : Length(Intersect(regions[k], Normalize(found->second)));
        out.self_us[l].push_back(static_cast<double>(own) / 1e3);
      }
    }
  }
  return out;
}

std::map<Layer, double> BandMeans(const Breakdown& bd, double lo, double hi) {
  const double from = Percentile(bd.root_us, lo);
  const double to = Percentile(bd.root_us, hi);
  std::map<Layer, double> sums;
  std::size_t n = 0;
  for (std::size_t i = 0; i < bd.root_us.size(); ++i) {
    if (bd.root_us[i] < from || bd.root_us[i] > to) continue;
    ++n;
    for (const auto& [layer, self] : bd.self_us) sums[layer] += self[i];
  }
  for (auto& [layer, sum] : sums) sum /= static_cast<double>(n);
  return sums;
}

}  // namespace perfbench
