// What the report sections share, each derived once per trace: the
// process index, the deduced ordering (§4.1) and the clock alignment it
// yields, connection matching, communication statistics, and one sweep of
// each process's activity on the aligned clock. full_report builds one
// TraceAnalysis for all its sections; the trace-only entry points build
// their own.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "analysis/comm_stats.h"
#include "analysis/ordering.h"

namespace dpm::analysis {

/// A process's first, earliest and latest aligned event times, and its
/// waits for a message (§3.3): a RECVCALL closed by the next RECEIVE on
/// the same socket. `recv` finds the matched sender in the ordering.
struct ProcActivity {
  struct Wait {
    std::int64_t from = 0;
    std::int64_t to = 0;   // > from: zero-length waits are not kept
    std::size_t recv = 0;  // trace index of the closing RECEIVE
  };
  std::int64_t first = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::vector<Wait> waits;
};

/// Refers to `trace`, which must outlive it.
struct TraceAnalysis {
  explicit TraceAnalysis(const Trace& trace);

  const Trace& trace;
  ProcIndex procs;
  Ordering ordering;
  ClockAlignment clocks;
  ConnectionMatcher matcher;
  CommStats stats;
  std::map<ProcKey, ProcActivity> activity;
};

}  // namespace dpm::analysis
