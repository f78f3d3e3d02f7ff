// read_trace scans lines straight into Events; filter::parse_trace builds
// Records. trace_reader.h promises both readings agree: read_trace(text)
// equals event_from_record over parse_trace(text), record for record, and
// its malformed count is parse_trace's plus the records event_from_record
// rejects. Checked here on seeded random logs.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "analysis/trace_reader.h"
#include "filter/trace.h"
#include "util/rng.h"

namespace dpm::analysis {
namespace {

template <typename T, std::size_t N>
const T& pick(util::Rng& rng, const T (&items)[N]) {
  return items[rng.uniform(0, static_cast<std::int64_t>(N) - 1)];
}

/// Event names: lower, upper and mixed case, the description aliases, an
/// escaped spelling, and names that are no event at all.
constexpr const char* kEventNames[] = {
    "send",  "SEND",     "Recv",    "RECEIVE", "recvcall", "SOCKET",
    "sockcrt", "DESTSOCK", "dup",   "fork",    "ACCEPT",   "connect",
    "TERMPROC", "SE%4eD",  "bogus", "",        "%-1send",
};
constexpr const char* kNumericFields[] = {
    "machine", "cpuTime", "procTime", "pid",    "pc",
    "sock",    "newSock", "msgLength", "newPid", "status",
};
constexpr const char* kTextFields[] = {
    "destName", "sourceName", "sockName", "peerName",
};
constexpr const char* kUnknownFields[] = {
    "size", "type", "domain", "sockNameLen", "traceType", "Machine",
};
constexpr const char* kValues[] = {
    "0",     "7",      "-12",   "+5",     "65536",  "4759000",
    "0x10",  "12a",    "",      "%31%32", "%2d3",   "99999999999999999999",
    "abc",   "a%20b",  "a%-1b", "a%41b",  "%4",     "%zz",
    "n%25",  "228320140",
};
constexpr const char* kBadTokens[] = {"noequals", "=5", "="};
constexpr const char* kSeparators[] = {" ", "\t", "  ", " \t "};
constexpr const char* kBlankOrComment[] = {
    "", "   ", "\t", "# comment", "  # indented comment", "#event=SEND pid=1",
};

/// One random log line: an event token somewhere among numeric, text and
/// unknown fields, sometimes a bad token, random separators and
/// surrounding whitespace. Some lines repeat a field name or `event=` with
/// another value: the first occurrence must win on both paths.
std::string random_line(util::Rng& rng) {
  if (rng.bernoulli(0.1)) return pick(rng, kBlankOrComment);
  std::vector<std::string> tokens;
  auto add_fields = [&](const auto& names) {
    for (const char* name : names) {
      if (rng.bernoulli(0.5)) {
        tokens.push_back(std::string(name) + "=" + pick(rng, kValues));
      }
    }
  };
  add_fields(kNumericFields);
  add_fields(kTextFields);
  add_fields(kUnknownFields);
  if (rng.bernoulli(0.05)) tokens.push_back(pick(rng, kBadTokens));
  if (!tokens.empty() && rng.bernoulli(0.3)) {
    const std::string& t = tokens[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(tokens.size()) - 1))];
    const auto eq = t.find('=');
    if (eq != std::string::npos && eq > 0) {
      tokens.push_back(t.substr(0, eq + 1) + pick(rng, kValues));
    }
  }
  if (rng.bernoulli(0.15)) {
    tokens.push_back(std::string("event=") + pick(rng, kEventNames));
  }
  for (std::size_t i = tokens.size(); i > 1; --i) {
    std::swap(tokens[i - 1],
              tokens[static_cast<std::size_t>(
                  rng.uniform(0, static_cast<std::int64_t>(i) - 1))]);
  }
  if (!rng.bernoulli(0.05)) {
    const auto at = rng.uniform(0, static_cast<std::int64_t>(tokens.size()));
    tokens.insert(tokens.begin() + at,
                  std::string("event=") + pick(rng, kEventNames));
  }
  std::string line = rng.bernoulli(0.2) ? pick(rng, kSeparators) : "";
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) line += pick(rng, kSeparators);
    line += tokens[i];
  }
  if (rng.bernoulli(0.2)) line += pick(rng, kSeparators);
  return line;
}

auto fields_of(const Event& e) {
  return std::tie(e.type, e.machine, e.cpu_time, e.proc_time, e.pid, e.pc,
                  e.sock, e.new_sock, e.msg_length, e.new_pid, e.status,
                  e.dest_name, e.source_name, e.sock_name, e.peer_name,
                  e.index);
}

class TraceReaderProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, TraceReaderProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST_P(TraceReaderProperty, ReadTraceMatchesRecordPath) {
  util::Rng rng(GetParam());
  std::string text;
  const auto lines = rng.uniform(50, 200);
  for (std::int64_t i = 0; i < lines; ++i) {
    text += random_line(rng);
    if (i + 1 < lines || rng.bernoulli(0.5)) text += '\n';
  }

  const Trace got = read_trace(text);
  const filter::ParsedTrace parsed = filter::parse_trace(text);
  std::vector<Event> want;
  std::size_t want_malformed = parsed.malformed;
  for (const filter::Record& rec : parsed.records) {
    if (auto e = event_from_record(rec)) {
      e->index = want.size();
      want.push_back(std::move(*e));
    } else {
      ++want_malformed;
    }
  }

  EXPECT_EQ(got.malformed, want_malformed);
  ASSERT_EQ(got.events.size(), want.size());
  // The generator must reach both outcomes, or the check is vacuous.
  EXPECT_GT(want.size(), 0u);
  EXPECT_GT(want_malformed, 0u);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(fields_of(got.events[i]) == fields_of(want[i]))
        << "record " << i << " of seed " << GetParam();
  }
}

}  // namespace
}  // namespace dpm::analysis
