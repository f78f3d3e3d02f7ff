// Performance diagnosis: turn a trace into the findings a programmer
// acts on. This is the end purpose of the tool ("aid the programmer in
// developing, debugging, and measuring the performance of distributed
// programs") distilled into rules over the other analyses:
//
//   * starved processes — a large fraction of the active window spent in
//     recvcall→receive waits, attributed to the dominant sending peer
//   * serialization — low average parallelism despite several processes
//   * traffic hot spots — one channel dominating the byte volume
//   * message loss — attributable datagram sends that never arrived
//   * clock skew — cross-machine timestamp anomalies and their magnitude
#pragma once

#include <string>
#include <vector>

#include "analysis/trace_reader.h"

namespace dpm::analysis {

enum class Severity { info, notice, warning };

struct Finding {
  Severity severity = Severity::info;
  std::string category;  // "wait", "serial", "hotspot", "loss", "clocks"
  std::string message;   // human-readable, self-contained
};

struct Diagnosis {
  std::vector<Finding> findings;

  bool has(const std::string& category) const;
  std::string render() const;
};

struct ParallelismProfile;
struct TraceAnalysis;

Diagnosis diagnose(const Trace& trace);
/// `parallelism` is measure_parallelism(analysis), passed in so a report
/// that also renders it measures it once.
Diagnosis diagnose(const TraceAnalysis& analysis,
                   const ParallelismProfile& parallelism);

}  // namespace dpm::analysis
