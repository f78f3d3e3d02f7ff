#include "analysis/trace_analysis.h"

#include <algorithm>

namespace dpm::analysis {

namespace {

std::map<ProcKey, ProcActivity> sweep_activity(const Trace& trace,
                                               const ProcIndex& procs,
                                               const ClockAlignment& clocks) {
  struct OpenCall {
    std::uint64_t sock;
    std::int64_t at;  // aligned time of the RECVCALL
  };
  std::vector<ProcActivity> per_slot(procs.keys.size());
  std::vector<char> seen(procs.keys.size(), 0);
  // Each process's open RECVCALLs: rarely more than one at a time.
  std::vector<std::vector<OpenCall>> open(procs.keys.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const Event& e = trace.events[i];
    const std::uint32_t s = procs.slot[i];
    const std::int64_t t = clocks.aligned(e);
    ProcActivity& a = per_slot[s];
    if (!seen[s]) a.first = a.min = a.max = t;
    seen[s] = 1;
    a.min = std::min(a.min, t);
    a.max = std::max(a.max, t);
    if (e.type != meter::EventType::recvcall &&
        e.type != meter::EventType::recv) {
      continue;
    }
    std::vector<OpenCall>& calls = open[s];
    const auto call =
        std::find_if(calls.begin(), calls.end(),
                     [&](const OpenCall& c) { return c.sock == e.sock; });
    if (e.type == meter::EventType::recvcall) {
      if (call != calls.end()) call->at = t;
      else calls.push_back({e.sock, t});
    } else if (call != calls.end()) {
      if (t > call->at) a.waits.push_back({call->at, t, i});
      calls.erase(call);
    }
  }
  std::map<ProcKey, ProcActivity> out;
  for (std::size_t s = 0; s < per_slot.size(); ++s) {
    out.emplace_hint(out.end(), procs.keys[s], std::move(per_slot[s]));
  }
  return out;
}

}  // namespace

TraceAnalysis::TraceAnalysis(const Trace& t)
    : trace(t),
      procs(t),
      ordering(order_events(t, procs)),
      clocks(estimate_clock_alignment(t, ordering, procs)),
      matcher(t),
      stats(communication_statistics(t, matcher, procs)),
      activity(sweep_activity(t, procs, clocks)) {}

}  // namespace dpm::analysis
