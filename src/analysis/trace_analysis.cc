#include "analysis/trace_analysis.h"

#include <algorithm>

namespace dpm::analysis {

namespace {

std::map<ProcKey, ProcActivity> sweep_activity(const Trace& trace,
                                               const ClockAlignment& clocks) {
  std::map<ProcKey, ProcActivity> out;
  // Open RECVCALLs: (process, socket) -> aligned time of the call.
  std::map<std::pair<ProcKey, std::uint64_t>, std::int64_t> open;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const Event& e = trace.events[i];
    const std::int64_t t = clocks.aligned(e);
    ProcActivity& a =
        out.try_emplace(e.proc(), ProcActivity{t, t, t, {}}).first->second;
    a.min = std::min(a.min, t);
    a.max = std::max(a.max, t);
    if (e.type == meter::EventType::recvcall) {
      open[{e.proc(), e.sock}] = t;
    } else if (e.type == meter::EventType::recv) {
      auto call = open.find({e.proc(), e.sock});
      if (call == open.end()) continue;
      if (t > call->second) a.waits.push_back({call->second, t, i});
      open.erase(call);
    }
  }
  return out;
}

}  // namespace

TraceAnalysis::TraceAnalysis(const Trace& t)
    : trace(t),
      ordering(order_events(t)),
      clocks(estimate_clock_alignment(t, ordering)),
      matcher(t),
      stats(communication_statistics(t, matcher)),
      activity(sweep_activity(t, clocks)) {}

}  // namespace dpm::analysis
