#include "analysis/trace_reader.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <tuple>

#include "analysis/live/aggregator.h"
#include "filter/trace.h"

namespace dpm::analysis {
namespace {

auto fields_of(const Event& e) {
  return std::tie(e.type, e.machine, e.cpu_time, e.proc_time, e.pid, e.pc,
                  e.sock, e.new_sock, e.msg_length, e.new_pid, e.status,
                  e.dest_name, e.source_name, e.sock_name, e.peer_name);
}

/// The Record path's reading of one line: parse_trace_line, then
/// event_from_record.
std::optional<Event> record_path(const std::string& line) {
  const auto rec = filter::parse_trace_line(line);
  if (!rec) return std::nullopt;
  return event_from_record(*rec);
}

/// parse_trace_event_line on a heap copy of `line` sized exactly, so a read
/// past its end is a heap overflow under AddressSanitizer.
std::optional<Event> scan_exact(std::string_view line) {
  const auto buf = std::make_unique<char[]>(line.size());
  std::copy(line.begin(), line.end(), buf.get());
  Event e;
  if (!parse_trace_event_line(std::string_view(buf.get(), line.size()), e)) {
    return std::nullopt;
  }
  return e;
}

/// Both readings of `line` agree, and the scanner accepts it.
Event expect_agree(const std::string& line) {
  const auto want = record_path(line);
  const auto got = scan_exact(line);
  EXPECT_EQ(got.has_value(), want.has_value()) << line;
  if (!got || !want) return Event{};
  EXPECT_TRUE(fields_of(*got) == fields_of(*want)) << line;
  return *got;
}

TEST(TraceReader, PercentEscapeNeedsTwoHexDigits) {
  // A sign is not a hex digit: "%-1" stays literal instead of decoding to
  // the byte 0xff.
  const Trace t = read_trace(
      "event=SEND pid=1 destName=a%-1b\n"
      "event=SEND pid=1 destName=a%41b\n");
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ(t.events[0].dest_name, "a%-1b");
  EXPECT_EQ(t.events[1].dest_name, "aAb");
}

TEST(TraceReader, RepeatedNamesKeepTheirFirstOccurrence) {
  const std::string line =
      "event=SEND pid=1 pid=2 destName=a destName=b event=RECV";
  const Trace t = read_trace(line);
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].type, meter::EventType::send);
  EXPECT_EQ(t.events[0].pid, 1);
  EXPECT_EQ(t.events[0].dest_name, "a");
  expect_agree(line);
  // A first value that is no number still wins: the field stays unset.
  EXPECT_EQ(expect_agree("event=SEND pid=x pid=2").pid, 0);
  // Only the first event= names the record.
  EXPECT_TRUE(scan_exact("event=SEND event=bogus").has_value());
  EXPECT_FALSE(scan_exact("event=bogus event=SEND").has_value());
  EXPECT_FALSE(record_path("event=bogus event=SEND").has_value());
}

TEST(TraceReader, TokensEndingAtEveryWordOffset) {
  // Every prefix of these lines, each in an exactly sized buffer, so tokens
  // end on, just before and just after 8-byte boundaries and at the end of
  // the buffer with no newline after it.
  const std::string lines[] = {
      "event=SEND pid=12345678 sock=7 msgLength=1234567 destName=abcdefgh",
      "event=RECV\tpid=1\t\tsock=22 sourceName=%41%42 machine=9",
      "  event=accept sockName=a%20b peerName=12345678901234567 newSock=3  ",
  };
  for (const std::string& line : lines) {
    for (std::size_t n = 1; n <= line.size(); ++n) {
      const std::string prefix = line.substr(0, n);
      const auto want = record_path(prefix);
      const auto got = scan_exact(prefix);
      ASSERT_EQ(got.has_value(), want.has_value()) << prefix;
      if (got) {
        EXPECT_TRUE(fields_of(*got) == fields_of(*want)) << prefix;
      }
    }
  }
}

TEST(TraceReader, EscapeInLastWordAndTabSeparators) {
  const Event e = expect_agree("event=SEND\tpid=3\tdestName=x%20y");
  EXPECT_EQ(e.pid, 3);
  EXPECT_EQ(e.dest_name, "x y");
  // A numeric field may be escaped too; a lone '%' at the very end stays.
  EXPECT_EQ(expect_agree("event=SEND\tsock=%34%32").sock, 42u);
  EXPECT_EQ(expect_agree("event=SEND destName=a%").dest_name, "a%");
  EXPECT_EQ(expect_agree("event=SEND destName=%4").dest_name, "%4");
}

TEST(TraceReader, IntegersFollowFromChars) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(expect_agree("event=SEND cpuTime=-9223372036854775808").cpu_time,
            kMin);
  EXPECT_EQ(expect_agree("event=SEND cpuTime=9223372036854775807").cpu_time,
            std::numeric_limits<std::int64_t>::max());
  // Out of range, a '+' sign, or trailing junk leave the field unset.
  EXPECT_EQ(expect_agree("event=SEND cpuTime=9223372036854775808").cpu_time, 0);
  EXPECT_EQ(expect_agree("event=SEND cpuTime=-9223372036854775809").cpu_time, 0);
  EXPECT_EQ(expect_agree("event=SEND cpuTime=99999999999999999999").cpu_time, 0);
  EXPECT_EQ(expect_agree("event=SEND pid=+5").pid, 0);
  EXPECT_EQ(expect_agree("event=SEND pid=5x").pid, 0);
  EXPECT_EQ(expect_agree("event=SEND pid=-").pid, 0);
  EXPECT_EQ(expect_agree("event=SEND pid=-0").pid, 0);
  EXPECT_EQ(expect_agree("event=SEND pid=007").pid, 7);
  EXPECT_EQ(expect_agree("event=SEND pid=-0000000000000000000000012").pid, -12);
  // Text fields keep what is no number and canonicalize what is.
  EXPECT_EQ(expect_agree("event=SEND destName=007").dest_name, "7");
  EXPECT_EQ(expect_agree("event=SEND destName=-0").dest_name, "0");
  EXPECT_EQ(expect_agree("event=SEND destName=+5").dest_name, "+5");
  EXPECT_EQ(
      expect_agree("event=SEND destName=9223372036854775808").dest_name,
      "9223372036854775808");
}

/// Collects every event a LiveAnalysis receives.
struct Recorder : live::LiveObserver {
  std::vector<Event> events;
  void on_event(std::size_t, const Event& e) override { events.push_back(e); }
};

TEST(TraceReader, TailerMatchesReadTraceAtAnyChunking) {
  const std::string text =
      "# comment\n"
      "event=SOCKET machine=1 cpuTime=100 pid=7 sock=3\n"
      "\n"
      "event=SEND\tmachine=1 cpuTime=120 pid=7 sock=3 msgLength=16 "
      "destName=\n"
      "noequals event=SEND\n"
      "  event=RECEIVE machine=2 cpuTime=130 pid=9 sock=4 sourceName=a%20b  \n"
      "event=RECVCALL machine=2 cpuTime=-9223372036854775808 pid=9 sock=4";
  const Trace want = read_trace(text);
  ASSERT_EQ(want.events.size(), 4u);
  ASSERT_EQ(want.malformed, 1u);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, text.size()}) {
    live::LiveAnalysis live;
    Recorder rec;
    live.add_observer(&rec);
    live::TraceTailer tailer(live);
    for (std::size_t at = 0; at < text.size(); at += chunk) {
      tailer.feed(std::string_view(text).substr(at, chunk));
    }
    tailer.finish();
    EXPECT_EQ(tailer.malformed(), want.malformed) << "chunk " << chunk;
    ASSERT_EQ(rec.events.size(), want.events.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < want.events.size(); ++i) {
      EXPECT_TRUE(fields_of(rec.events[i]) == fields_of(want.events[i]))
          << "chunk " << chunk << ", event " << i;
    }
  }
}

}  // namespace
}  // namespace dpm::analysis
