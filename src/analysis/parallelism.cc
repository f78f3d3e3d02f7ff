#include "analysis/parallelism.h"

#include <algorithm>
#include <vector>

#include "analysis/trace_analysis.h"

namespace dpm::analysis {

ParallelismProfile measure_parallelism(const Trace& trace) {
  return measure_parallelism(TraceAnalysis(trace));
}

// Activity is swept on the aligned clock: local clocks are skewed across
// machines, and the trace's own message pairs say by how much.
ParallelismProfile measure_parallelism(const TraceAnalysis& analysis) {
  ParallelismProfile out;
  if (analysis.trace.events.empty()) return out;
  out.processes = analysis.activity.size();

  // +1/-1 deltas for activity intervals (window minus waits), swept in
  // time order; deltas at the same instant apply together.
  std::vector<std::pair<std::int64_t, int>> deltas;
  std::int64_t lo = INT64_MAX, hi = INT64_MIN;
  for (const auto& [key, p] : analysis.activity) {
    lo = std::min(lo, p.first);
    hi = std::max(hi, p.max);
    deltas.emplace_back(p.first, 1);
    deltas.emplace_back(p.max, -1);
    for (const auto& w : p.waits) {
      const std::int64_t wa = std::clamp(w.from, p.first, p.max);
      const std::int64_t wb = std::clamp(w.to, p.first, p.max);
      if (wb <= wa) continue;
      deltas.emplace_back(wa, -1);
      deltas.emplace_back(wb, 1);
    }
  }
  if (hi <= lo) return out;
  out.total_us = hi - lo;
  out.time_at_level.assign(out.processes + 1, 0);

  std::sort(deltas.begin(), deltas.end());
  int level = 0;
  std::int64_t prev = lo;
  double weighted = 0.0;
  for (std::size_t i = 0; i < deltas.size();) {
    const std::int64_t t = deltas[i].first;
    if (t > prev && level >= 0) {
      const std::int64_t span = t - prev;
      const std::size_t k =
          std::min(static_cast<std::size_t>(std::max(level, 0)),
                   out.time_at_level.size() - 1);
      out.time_at_level[k] += span;
      weighted += static_cast<double>(level) * static_cast<double>(span);
    }
    for (; i < deltas.size() && deltas[i].first == t; ++i) {
      level += deltas[i].second;
    }
    prev = t;
  }
  out.average = out.total_us > 0 ? weighted / static_cast<double>(out.total_us) : 0.0;
  return out;
}

}  // namespace dpm::analysis
