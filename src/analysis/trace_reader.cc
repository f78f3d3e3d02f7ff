#include "analysis/trace_reader.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <numeric>
#include <unordered_map>

#include "util/strings.h"

namespace dpm::analysis {

namespace {

// ---- Word-at-a-time byte search --------------------------------------------
//
// A trace line is ~120 bytes of name=value tokens. The scanner looks for
// its few special bytes (separators, '=', '%') eight at a time: each byte
// of a word is compared against a pattern with carry-free arithmetic, so a
// match flags exactly its own byte and the first flagged byte is the
// first match.

constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;

constexpr std::uint64_t repeat_byte(char c) {
  return 0x0101010101010101ULL * static_cast<unsigned char>(c);
}

/// 0x80 in each byte of `w` equal to the matching byte of `pattern`, 0 in
/// every other byte.
constexpr std::uint64_t equal_bytes(std::uint64_t w, std::uint64_t pattern) {
  const std::uint64_t x = w ^ pattern;
  return ~(((x & kLow7) + kLow7) | x | kLow7);
}

/// The 8 bytes at `p`, first byte in the low bits.
std::uint64_t load8(const char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

bool is_sep(char c) { return c == ' ' || c == '\t'; }

/// First byte in [p, end) that is a separator (' ', '\t') or `Stop`; `end`
/// if there is none. Reads only bytes of [line, end): the last partial word
/// is loaded as the 8 bytes ending at `end`, with the ones before `p`
/// shifted out.
template <char Stop>
const char* find_stop(const char* p, const char* end, const char* line) {
  constexpr std::uint64_t kSpace = repeat_byte(' ');
  constexpr std::uint64_t kTab = repeat_byte('\t');
  constexpr std::uint64_t kStop = repeat_byte(Stop);
  const auto hits = [](std::uint64_t w) {
    return equal_bytes(w, kSpace) | equal_bytes(w, kTab) |
           equal_bytes(w, kStop);
  };
  for (; end - p >= 8; p += 8) {
    if (const std::uint64_t m = hits(load8(p))) {
      return p + std::countr_zero(m) / 8;
    }
  }
  if (p == end) return end;
  if (end - line >= 8) {
    const auto before = static_cast<unsigned>(8 - (end - p));
    const std::uint64_t m = hits(load8(end - 8)) >> (8 * before);
    return m ? p + std::countr_zero(m) / 8 : end;
  }
  for (; p < end; ++p) {
    if (is_sep(*p) || *p == Stop) return p;
  }
  return end;
}

// ---- Values ----------------------------------------------------------------

/// Event type for a trace line's event name. Description files use caps
/// ("SEND") and a few long forms; names match case-insensitively. Every
/// name is at most 8 letters, so it is compared as one word: OR-ing 0x20
/// into a byte maps a letter to its lower case and can equal a lowercase
/// letter only if the byte was that letter in either case.
std::optional<meter::EventType> type_for_name(std::string_view name) {
  using meter::EventType;
  constexpr auto fold = [](std::string_view s) {
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      w |= std::uint64_t{static_cast<unsigned char>(s[i]) | 0x20u} << (8 * i);
    }
    return w;
  };
  struct Alias {
    std::uint64_t folded;
    EventType type;
  };
  static constexpr Alias kNames[] = {
      {fold("send"), EventType::send},
      {fold("recv"), EventType::recv},
      {fold("receive"), EventType::recv},
      {fold("recvcall"), EventType::recvcall},
      {fold("sockcrt"), EventType::sockcrt},
      {fold("socket"), EventType::sockcrt},
      {fold("dup"), EventType::dup},
      {fold("destsock"), EventType::destsock},
      {fold("fork"), EventType::fork},
      {fold("accept"), EventType::accept},
      {fold("connect"), EventType::connect},
      {fold("termproc"), EventType::termproc},
  };
  if (name.empty() || name.size() > 8) return std::nullopt;
  const std::uint64_t w = fold(name);
  for (const auto& a : kNames) {
    if (a.folded == w) return a.type;
  }
  return std::nullopt;
}

/// The fields an Event keeps, plus `event` itself.
enum class Field : std::uint8_t {
  event, machine, cpu_time, proc_time, pid, pc, sock, new_sock, msg_length,
  new_pid, status, dest_name, source_name, sock_name, peer_name, other,
};

/// Field names dispatch on their length, then one memcmp.
Field field_of(std::string_view n) {
  const auto is = [&](std::string_view lit) {
    return std::memcmp(n.data(), lit.data(), lit.size()) == 0;
  };
  switch (n.size()) {
    case 2: return is("pc") ? Field::pc : Field::other;
    case 3: return is("pid") ? Field::pid : Field::other;
    case 4: return is("sock") ? Field::sock : Field::other;
    case 5: return is("event") ? Field::event : Field::other;
    case 6:
      return is("newPid") ? Field::new_pid
             : is("status") ? Field::status
                            : Field::other;
    case 7:
      return is("machine") ? Field::machine
             : is("cpuTime") ? Field::cpu_time
             : is("newSock") ? Field::new_sock
                             : Field::other;
    case 8:
      return is("procTime") ? Field::proc_time
             : is("destName") ? Field::dest_name
             : is("sockName") ? Field::sock_name
             : is("peerName") ? Field::peer_name
                              : Field::other;
    case 9: return is("msgLength") ? Field::msg_length : Field::other;
    case 10: return is("sourceName") ? Field::source_name : Field::other;
    default: return Field::other;
  }
}

/// Stores `value` into `field` when it parses as an integer.
template <typename T>
void set_num(T& field, std::string_view value, bool escaped) {
  const auto n = escaped ? util::parse_int(filter::unescape_value(value))
                         : util::parse_int(value);
  if (n) field = static_cast<T>(*n);
}

/// The Event's copy of a string field. Numeric values are canonicalized
/// through their parsed value, matching the Record path
/// (parse_trace_line + field_value_text).
void set_text(std::string& field, std::string_view value, bool escaped) {
  if (escaped) {
    field = filter::unescape_value(value);
    if (const auto n = util::parse_int(field)) field = std::to_string(*n);
    return;
  }
  if (const auto n = util::parse_int(value)) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, *n);
    field.assign(buf, res.ptr);
    return;
  }
  field.assign(value);
}

/// False for a byte std::isspace rejects in every locale (printable ASCII
/// other than ' '), so most lines skip util::trim.
bool may_be_space(char c) {
  const auto u = static_cast<unsigned char>(c);
  return u <= ' ' || u >= 0x7f;
}

/// Lines in `text`, an upper bound on its events. memchr finds each
/// newline several times faster than a byte loop.
std::size_t line_count(std::string_view text) {
  std::size_t n = 1;
  const char* const end = text.data() + text.size();
  for (const char* p = text.data();
       (p = static_cast<const char*>(
           std::memchr(p, '\n', static_cast<std::size_t>(end - p)))); ++p) {
    ++n;
  }
  return n;
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

/// Tokens are scanned as views straight into `e`; the only allocations
/// are the Event's own string fields (and, for the rare '%'-escaped value,
/// its decoded copy). A name's first occurrence wins, as in Record::find.
bool parse_trace_event_line(std::string_view line, Event& e) {
  const char* const begin = line.data();
  const char* const end = begin + line.size();
  const char* p = begin;
  std::uint32_t seen = 0;  // bit per Field already taken
  while (true) {
    while (p < end && is_sep(*p)) ++p;
    if (p == end) break;
    const char* const tok = p;
    const char* const eq = find_stop<'='>(p, end, begin);
    if (eq == end || *eq != '=' || eq == tok) return false;
    p = find_stop<'%'>(eq + 1, end, begin);
    const bool escaped = p < end && *p == '%';
    if (escaped) p = find_stop<' '>(p, end, begin);  // to the separator
    const Field f =
        field_of(std::string_view(tok, static_cast<std::size_t>(eq - tok)));
    const auto bit = std::uint32_t{1} << static_cast<unsigned>(f);
    if (f == Field::other || (seen & bit) != 0) continue;
    seen |= bit;
    const std::string_view value(eq + 1, static_cast<std::size_t>(p - eq - 1));
    switch (f) {
      case Field::event: {
        const auto t = escaped ? type_for_name(filter::unescape_value(value))
                               : type_for_name(value);
        if (!t) return false;
        e.type = *t;
        break;
      }
      case Field::machine: set_num(e.machine, value, escaped); break;
      case Field::cpu_time: set_num(e.cpu_time, value, escaped); break;
      case Field::proc_time: set_num(e.proc_time, value, escaped); break;
      case Field::pid: set_num(e.pid, value, escaped); break;
      case Field::pc: set_num(e.pc, value, escaped); break;
      case Field::sock: set_num(e.sock, value, escaped); break;
      case Field::new_sock: set_num(e.new_sock, value, escaped); break;
      case Field::msg_length: set_num(e.msg_length, value, escaped); break;
      case Field::new_pid: set_num(e.new_pid, value, escaped); break;
      case Field::status: set_num(e.status, value, escaped); break;
      case Field::dest_name: set_text(e.dest_name, value, escaped); break;
      case Field::source_name: set_text(e.source_name, value, escaped); break;
      case Field::sock_name: set_text(e.sock_name, value, escaped); break;
      case Field::peer_name: set_text(e.peer_name, value, escaped); break;
      case Field::other: break;
    }
  }
  return (seen & 1u) != 0;  // Field::event
}

Trace read_trace(const std::string& text) {
  Trace out;
  out.events.reserve(line_count(text));
  const std::string_view sv{text};
  std::size_t start = 0;
  while (start < sv.size()) {
    const std::size_t nl = sv.find('\n', start);
    const std::size_t end = (nl == std::string_view::npos) ? sv.size() : nl;
    std::string_view line = sv.substr(start, end - start);
    start = end + 1;
    if (!line.empty() && (may_be_space(line.front()) ||
                          may_be_space(line.back()))) {
      line = util::trim(line);
    }
    if (line.empty() || line[0] == '#') continue;
    Event& e = out.events.emplace_back();
    if (!parse_trace_event_line(line, e)) {
      out.events.pop_back();
      ++out.malformed;
      continue;
    }
    e.index = out.events.size() - 1;
  }
  return out;
}

std::vector<ProcKey> Trace::processes() const { return ProcIndex(*this).keys; }

ProcIndex::ProcIndex(const Trace& trace) : slot(trace.events.size()) {
  // Number processes in order of first appearance (runs of one process's
  // events skip the hash lookup), then renumber them in ProcKey order.
  const auto packed = [](const Event& e) {
    return std::uint64_t{e.machine} << 32 | static_cast<std::uint32_t>(e.pid);
  };
  std::unordered_map<std::uint64_t, std::uint32_t> first_seen;
  std::uint64_t last_key = 0;
  std::uint32_t last = 0;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const Event& e = trace.events[i];
    const std::uint64_t key = packed(e);
    if (i == 0 || key != last_key) {
      const auto [it, fresh] = first_seen.try_emplace(
          key, static_cast<std::uint32_t>(keys.size()));
      if (fresh) keys.push_back(e.proc());
      last_key = key;
      last = it->second;
    }
    slot[i] = last;
  }
  std::vector<std::uint32_t> by_key(keys.size());
  std::iota(by_key.begin(), by_key.end(), 0u);
  std::sort(by_key.begin(), by_key.end(), [&](std::uint32_t a, std::uint32_t b) {
    return keys[a] < keys[b];
  });
  std::vector<std::uint32_t> rank(keys.size());
  std::vector<ProcKey> sorted(keys.size());
  for (std::uint32_t r = 0; r < by_key.size(); ++r) {
    rank[by_key[r]] = r;
    sorted[r] = keys[by_key[r]];
  }
  keys = std::move(sorted);
  for (std::uint32_t& s : slot) s = rank[s];
}

}  // namespace dpm::analysis
