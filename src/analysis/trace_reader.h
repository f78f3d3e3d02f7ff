// Typed view over filter traces — the input to the analysis routines.
//
// "The analysis routines provide the means for interpreting the traces
// created by filters. They give meaning to the data by summarizing and
// operating on the event records collected." (§3.3)
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "filter/trace.h"
#include "meter/metermsgs.h"

namespace dpm::analysis {

/// A process identity within a trace: pids are only unique per machine
/// (§3.5.1), so the pair identifies a process.
struct ProcKey {
  std::uint16_t machine = 0;
  std::int32_t pid = 0;
  friend auto operator<=>(const ProcKey&, const ProcKey&) = default;
};

std::string proc_key_text(const ProcKey& k);

/// One trace event with every field the standard meter may produce.
/// Fields that a record does not carry (or that the filter discarded) are
/// left at their defaults; `has(name)` reports presence.
struct Event {
  meter::EventType type = meter::EventType::send;
  std::uint16_t machine = 0;
  std::int64_t cpu_time = 0;   // local clock (skewed!)
  std::int64_t proc_time = 0;  // CPU time, 10ms grain
  std::int32_t pid = 0;
  std::uint32_t pc = 0;
  std::uint64_t sock = 0;
  std::uint64_t new_sock = 0;
  std::uint32_t msg_length = 0;
  std::int32_t new_pid = 0;
  std::int32_t status = 0;
  std::string dest_name;
  std::string source_name;
  std::string sock_name;
  std::string peer_name;
  std::size_t index = 0;  // position in the trace file

  ProcKey proc() const { return ProcKey{machine, pid}; }
};

/// Converts a decoded filter record; nullopt if the event name is unknown
/// or identity fields are missing.
std::optional<Event> event_from_record(const filter::Record& rec);

struct Trace {
  std::vector<Event> events;
  std::size_t malformed = 0;

  /// Every process in the trace, once, in ProcKey order.
  std::vector<ProcKey> processes() const;
};

/// Dense process numbers for one trace, built in one pass: `keys` lists
/// every process once in ProcKey order, and `slot[i]` is the position of
/// events[i]'s process in `keys`. Per-event work indexes vectors by slot
/// instead of looking a ProcKey up in a map.
struct ProcIndex {
  explicit ProcIndex(const Trace& trace);

  std::vector<ProcKey> keys;
  std::vector<std::uint32_t> slot;  // parallel to trace.events
};

/// Parses a filter log file's text. Lines are scanned as views straight
/// into the Events' reserved slots — no intermediate Record (or per-field
/// string) is built, so large traces load without per-record churn.
/// Produces the same events and malformed count as converting
/// parse_trace's records one by one.
Trace read_trace(const std::string& text);

/// Parses one trimmed, non-comment trace line into `e`, which the caller
/// default-constructs — the per-line primitive read_trace is built on,
/// exposed so streaming consumers (analysis/live/ TraceTailer) parse
/// identically to the batch reader. When a field name repeats, its first
/// occurrence wins (as in Record::find), `event=` included. False on a
/// malformed token or an unknown/missing event name; the caller owns
/// skipping blank/'#' lines and assigning `e.index`.
bool parse_trace_event_line(std::string_view line, Event& e);

}  // namespace dpm::analysis
