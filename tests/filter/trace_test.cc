#include "filter/trace.h"

#include <gtest/gtest.h>

namespace dpm::filter {
namespace {

Record sample_record() {
  Record r;
  r.event_name = "SEND";
  r.type = 1;
  r.fields = {{"size", std::int64_t{50}},
              {"machine", std::int64_t{0}},
              {"cpuTime", std::int64_t{12345}},
              {"type", std::int64_t{1}},
              {"pid", std::int64_t{7}},
              {"destName", std::string{"228320140"}}};
  return r;
}

TEST(Trace, LineRoundTrip) {
  const std::string line = trace_line(sample_record(), {});
  EXPECT_EQ(line.back(), '\n');
  auto parsed = parse_trace_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->event_name, "SEND");
  EXPECT_EQ(parsed->type, 1u);
  EXPECT_EQ(parsed->num("pid").value(), 7);
  EXPECT_EQ(parsed->text("destName").value(), "228320140");
}

TEST(Trace, DiscardedFieldsAreOmitted) {
  const std::string line = trace_line(sample_record(), {"pid", "machine"});
  auto parsed = parse_trace_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("pid"), nullptr);
  EXPECT_EQ(parsed->find("machine"), nullptr);
  EXPECT_NE(parsed->find("cpuTime"), nullptr);
  // Discarding reduces the saved size (the point of '#', §3.4).
  EXPECT_LT(line.size(), trace_line(sample_record(), {}).size());
}

TEST(Trace, EscapesAwkwardValues) {
  Record r;
  r.event_name = "SEND";
  r.fields = {{"destName", std::string{"a b=c"}}};
  const std::string line = trace_line(r, {});
  auto parsed = parse_trace_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->text("destName").value(), "a b=c");
}

TEST(Trace, PercentEscapeNeedsTwoHexDigits) {
  // A sign is not a hex digit: "%-1" stays literal instead of decoding to
  // the byte 0xff.
  auto hostile = parse_trace_line("event=SEND destName=a%-1b");
  ASSERT_TRUE(hostile.has_value());
  EXPECT_EQ(hostile->text("destName").value(), "a%-1b");
  auto escaped = parse_trace_line("event=SEND destName=a%41b");
  ASSERT_TRUE(escaped.has_value());
  EXPECT_EQ(escaped->text("destName").value(), "aAb");
  EXPECT_EQ(unescape_value("%+1%4%zz%4A"), "%+1%4%zzJ");
}

TEST(Trace, ParseWholeFile) {
  std::string file = trace_line(sample_record(), {}) +
                     "# comment line\n"
                     "\n" +
                     trace_line(sample_record(), {"pid"}) + "not a record\n";
  ParsedTrace t = parse_trace(file);
  EXPECT_EQ(t.records.size(), 2u);
  EXPECT_EQ(t.malformed, 1u);
}

TEST(Trace, LogPath) {
  EXPECT_EQ(log_path_for("f1"), "/usr/tmp/f1.log");
}

}  // namespace
}  // namespace dpm::filter
