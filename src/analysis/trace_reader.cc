#include "analysis/trace_reader.h"

#include <algorithm>
#include <set>

#include "util/strings.h"

namespace dpm::analysis {

namespace {

/// Case-insensitive match of `s` against an all-lowercase literal.
bool iequals(std::string_view s, std::string_view lower_lit) {
  if (s.size() != lower_lit.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != lower_lit[i]) return false;
  }
  return true;
}

/// Event type for a trace line's event name. Description files use caps
/// ("SEND") and a few long forms; matched without allocating.
std::optional<meter::EventType> type_for_name(std::string_view name) {
  using meter::EventType;
  struct Alias {
    const char* name;
    EventType type;
  };
  static constexpr Alias kNames[] = {
      {"send", EventType::send},         {"recv", EventType::recv},
      {"receive", EventType::recv},      {"recvcall", EventType::recvcall},
      {"sockcrt", EventType::sockcrt},   {"socket", EventType::sockcrt},
      {"dup", EventType::dup},           {"destsock", EventType::destsock},
      {"fork", EventType::fork},         {"accept", EventType::accept},
      {"connect", EventType::connect},   {"termproc", EventType::termproc},
  };
  for (const auto& a : kNames) {
    if (iequals(name, a.name)) return a.type;
  }
  return std::nullopt;
}

/// The Event's copy of a string field. Numeric tokens are canonicalized
/// through their parsed value, matching what the Record-based path
/// produced (parse_trace_line + field_value_text).
std::string text_of(std::string_view value) {
  if (auto n = util::parse_int(value)) return std::to_string(*n);
  return std::string(value);
}

/// Stores `value` into `field` when it parses as an integer.
template <typename T>
void set_num(T& field, std::string_view value) {
  if (const auto n = util::parse_int(value)) field = static_cast<T>(*n);
}

void apply_field(Event& e, std::string_view name, std::string_view value) {
  if (name == "machine") set_num(e.machine, value);
  else if (name == "cpuTime") set_num(e.cpu_time, value);
  else if (name == "procTime") set_num(e.proc_time, value);
  else if (name == "pid") set_num(e.pid, value);
  else if (name == "pc") set_num(e.pc, value);
  else if (name == "sock") set_num(e.sock, value);
  else if (name == "newSock") set_num(e.new_sock, value);
  else if (name == "msgLength") set_num(e.msg_length, value);
  else if (name == "newPid") set_num(e.new_pid, value);
  else if (name == "status") set_num(e.status, value);
  else if (name == "destName") e.dest_name = text_of(value);
  else if (name == "sourceName") e.source_name = text_of(value);
  else if (name == "sockName") e.sock_name = text_of(value);
  else if (name == "peerName") e.peer_name = text_of(value);
  // Other names (size, traceType, ...) carry nothing the Event keeps.
}

}  // namespace

std::string proc_key_text(const ProcKey& k) {
  return util::strprintf("m%u/p%d", k.machine, k.pid);
}

std::optional<Event> event_from_record(const filter::Record& rec) {
  const auto type = type_for_name(rec.event_name);
  if (!type) return std::nullopt;
  Event e;
  e.type = *type;
  if (auto v = rec.num("machine")) e.machine = static_cast<std::uint16_t>(*v);
  if (auto v = rec.num("cpuTime")) e.cpu_time = *v;
  if (auto v = rec.num("procTime")) e.proc_time = *v;
  if (auto v = rec.num("pid")) e.pid = static_cast<std::int32_t>(*v);
  if (auto v = rec.num("pc")) e.pc = static_cast<std::uint32_t>(*v);
  if (auto v = rec.num("sock")) e.sock = static_cast<std::uint64_t>(*v);
  if (auto v = rec.num("newSock")) e.new_sock = static_cast<std::uint64_t>(*v);
  if (auto v = rec.num("msgLength")) e.msg_length = static_cast<std::uint32_t>(*v);
  if (auto v = rec.num("newPid")) e.new_pid = static_cast<std::int32_t>(*v);
  if (auto v = rec.num("status")) e.status = static_cast<std::int32_t>(*v);
  if (auto v = rec.text("destName")) e.dest_name = *v;
  if (auto v = rec.text("sourceName")) e.source_name = *v;
  if (auto v = rec.text("sockName")) e.sock_name = *v;
  if (auto v = rec.text("peerName")) e.peer_name = *v;
  return e;
}

/// Tokens are scanned as views; the only allocations are the Event's own
/// string fields (and an unescape scratch, for the rare '%'-escaped
/// value).
bool parse_trace_event_line(std::string_view line, Event& e) {
  bool saw_event = false;
  const char* p = line.data();
  const char* const end = p + line.size();
  while (true) {
    while (p < end && (*p == ' ' || *p == '\t')) ++p;
    if (p == end) break;
    // One pass over the token finds its end, its first '=' and whether
    // its value carries an escape.
    const char* const tok = p;
    const char* eq = nullptr;
    bool escaped = false;
    for (; p < end && *p != ' ' && *p != '\t'; ++p) {
      if (*p == '=' && !eq) eq = p;
      else if (*p == '%' && eq) escaped = true;
    }
    if (!eq || eq == tok) return false;
    const std::string_view name(tok, static_cast<std::size_t>(eq - tok));
    std::string_view value(eq + 1, static_cast<std::size_t>(p - eq - 1));
    std::string scratch;
    if (escaped) {
      scratch = filter::unescape_value(value);
      value = scratch;
    }
    if (name == "event") {
      const auto t = type_for_name(value);
      if (!t) return false;
      e.type = *t;
      saw_event = true;
      continue;
    }
    apply_field(e, name, value);
  }
  return saw_event;
}

Trace read_trace(const std::string& text) {
  Trace out;
  out.events.reserve(
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1);
  const std::string_view sv{text};
  std::size_t start = 0;
  while (start < sv.size()) {
    const std::size_t nl = sv.find('\n', start);
    const std::size_t end = (nl == std::string_view::npos) ? sv.size() : nl;
    const std::string_view line = util::trim(sv.substr(start, end - start));
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    Event e;
    if (!parse_trace_event_line(line, e)) {
      ++out.malformed;
      continue;
    }
    e.index = out.events.size();
    out.events.push_back(std::move(e));
  }
  return out;
}

std::vector<ProcKey> Trace::processes() const {
  std::set<ProcKey> keys;
  for (const auto& e : events) keys.insert(e.proc());
  return std::vector<ProcKey>(keys.begin(), keys.end());
}

}  // namespace dpm::analysis
