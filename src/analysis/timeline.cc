#include "analysis/timeline.h"

#include <algorithm>

#include "analysis/trace_analysis.h"
#include "util/strings.h"

namespace dpm::analysis {

std::string render_timeline(const Trace& trace, TimelineOptions opts) {
  return render_timeline(TraceAnalysis(trace), opts);
}

std::string render_timeline(const TraceAnalysis& analysis,
                            TimelineOptions opts) {
  if (analysis.trace.events.empty()) return "(empty trace)\n";
  const int width = std::max(8, opts.width);

  std::int64_t lo = INT64_MAX, hi = INT64_MIN;
  for (const auto& [key, p] : analysis.activity) {
    lo = std::min(lo, p.min);
    hi = std::max(hi, p.max);
  }
  if (hi <= lo) hi = lo + 1;

  auto bucket_of = [&](std::int64_t t) {
    const auto b = (t - lo) * width / (hi - lo);
    return static_cast<int>(std::clamp<std::int64_t>(b, 0, width - 1));
  };

  std::string out;
  for (const auto& [key, p] : analysis.activity) {
    std::string line(static_cast<std::size_t>(width), ' ');
    for (int b = bucket_of(p.first); b <= bucket_of(p.max); ++b) {
      line[static_cast<std::size_t>(b)] = '#';
    }
    for (const auto& w : p.waits) {
      for (int i = bucket_of(w.from); i <= bucket_of(w.to); ++i) {
        line[static_cast<std::size_t>(i)] = '.';
      }
    }
    out += util::strprintf("%-12s |%s|\n", proc_key_text(key).c_str(),
                           line.c_str());
  }
  if (opts.show_legend) {
    out += util::strprintf(
        "window: %lld us ('#' active, '.' waiting for a message)\n",
        static_cast<long long>(hi - lo));
  }
  return out;
}

}  // namespace dpm::analysis
