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

  // +1/-1 deltas for activity intervals (window minus waits), one run per
  // process, swept in time order; deltas at the same instant apply
  // together, so their order within an instant does not matter.
  struct Delta {
    std::int64_t at;
    int step;
  };
  const auto earlier = [](const Delta& a, const Delta& b) {
    return a.at < b.at;
  };
  std::vector<Delta> deltas;
  std::vector<std::size_t> run_start;
  std::int64_t lo = INT64_MAX, hi = INT64_MIN;
  for (const auto& [key, p] : analysis.activity) {
    lo = std::min(lo, p.first);
    hi = std::max(hi, p.max);
    run_start.push_back(deltas.size());
    deltas.push_back({p.first, 1});
    for (const auto& w : p.waits) {
      const std::int64_t wa = std::clamp(w.from, p.first, p.max);
      const std::int64_t wb = std::clamp(w.to, p.first, p.max);
      if (wb <= wa) continue;
      deltas.push_back({wa, -1});
      deltas.push_back({wb, 1});
    }
    deltas.push_back({p.max, -1});
    // A process's waits close in time order unless it waits on several
    // sockets at once.
    const auto run = deltas.begin() + static_cast<long>(run_start.back());
    if (!std::is_sorted(run, deltas.end(), earlier)) {
      std::sort(run, deltas.end(), earlier);
    }
  }
  if (hi <= lo) return out;
  out.total_us = hi - lo;
  out.time_at_level.assign(out.processes + 1, 0);

  // k-way merge of the sorted runs: a min-heap of run cursors keyed by
  // their next delta's time. The top cursor advances and sinks back into
  // place, or leaves when its run is done.
  struct Cursor {
    std::int64_t at;  // == next->at
    const Delta* next;
    const Delta* end;
  };
  std::vector<Cursor> heap;
  for (std::size_t r = 0; r < run_start.size(); ++r) {
    const Delta* first = deltas.data() + run_start[r];
    const std::size_t end =
        r + 1 < run_start.size() ? run_start[r + 1] : deltas.size();
    heap.push_back({first->at, first, deltas.data() + end});
  }
  const auto later = [](const Cursor& a, const Cursor& b) {
    return a.at > b.at;
  };
  std::make_heap(heap.begin(), heap.end(), later);
  const auto sink_top = [&heap] {
    const Cursor top = heap.front();
    std::size_t i = 0;
    for (std::size_t c = 1; c < heap.size(); c = 2 * i + 1) {
      if (c + 1 < heap.size() && heap[c + 1].at < heap[c].at) ++c;
      if (heap[c].at >= top.at) break;
      heap[i] = heap[c];
      i = c;
    }
    heap[i] = top;
  };

  int level = 0;
  std::int64_t prev = lo;
  double weighted = 0.0;
  while (!heap.empty()) {
    const std::int64_t t = heap.front().at;
    if (t > prev && level >= 0) {
      const std::int64_t span = t - prev;
      const std::size_t k =
          std::min(static_cast<std::size_t>(std::max(level, 0)),
                   out.time_at_level.size() - 1);
      out.time_at_level[k] += span;
      weighted += static_cast<double>(level) * static_cast<double>(span);
    }
    while (!heap.empty() && heap.front().at == t) {
      Cursor& c = heap.front();
      level += c.next->step;
      if (++c.next == c.end) {
        std::pop_heap(heap.begin(), heap.end(), later);
        heap.pop_back();
      } else {
        c.at = c.next->at;
        sink_top();
      }
    }
    prev = t;
  }
  out.average = out.total_us > 0 ? weighted / static_cast<double>(out.total_us) : 0.0;
  return out;
}

}  // namespace dpm::analysis
