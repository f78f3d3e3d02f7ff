#include "analysis/trace_reader.h"

#include <gtest/gtest.h>

namespace dpm::analysis {
namespace {

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

}  // namespace
}  // namespace dpm::analysis
