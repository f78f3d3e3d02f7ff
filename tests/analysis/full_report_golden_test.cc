// Golden texts for full_report: the whole report, byte for byte, over
// three fixed traces. The files under golden/ were written by the report
// as it was before the sections started sharing one ordering, one clock
// alignment and one per-process sweep; a refactor of the analysis code
// must leave them unchanged.
#include "analysis/report.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "analysis/diagnose.h"
#include "analysis_testing.h"

#ifndef DPM_GOLDEN_DIR
#error "DPM_GOLDEN_DIR must name the directory of the golden files"
#endif

namespace dpm::analysis {
namespace {

using analysis_testing::Stamp;
using meter::MeterAccept;
using meter::MeterConnect;
using meter::MeterRecv;
using meter::MeterRecvCall;
using meter::MeterSend;
using meter::MeterTermProc;

/// bench_analysis's synthetic trace (BM_FullReport: 8 pairs, 50 messages,
/// 2000 us of skew per machine): each pair of processes on its own two
/// machines exchanges messages over one matched connection.
std::string synthetic_trace(int pairs, int msgs, std::int64_t skew_us) {
  std::vector<std::pair<Stamp, meter::MeterBody>> ev;
  auto emit = [&](const meter::MeterBody& body, std::uint16_t machine,
                  std::int64_t t) {
    ev.emplace_back(Stamp{machine, t + machine * skew_us, 0}, body);
  };
  for (int p = 0; p < pairs; ++p) {
    const auto ma = static_cast<std::uint16_t>(2 * p);
    const auto mb = static_cast<std::uint16_t>(2 * p + 1);
    const std::int32_t pid_a = 100 + p, pid_b = 200 + p;
    const std::string name_a = std::to_string(1000000 + p);
    const std::string name_b = std::to_string(2000000 + p);
    emit(MeterConnect{pid_a, 0, 10, name_a, name_b}, ma, 0);
    emit(MeterAccept{pid_b, 0, 20, 21, name_b, name_a}, mb, 500);
    for (int i = 0; i < msgs; ++i) {
      const std::int64_t t = 1000 + i * 400;
      const auto len = static_cast<std::uint32_t>(64 + i % 32);
      emit(MeterSend{pid_a, 0, 10, len, ""}, ma, t);
      emit(MeterRecvCall{pid_b, 0, 21}, mb, t + 100);
      emit(MeterRecv{pid_b, 0, 21, len, ""}, mb, t + 200);
    }
    emit(MeterTermProc{pid_a, 0, 0}, ma, 1000 + msgs * 400);
    emit(MeterTermProc{pid_b, 0, 0}, mb, 1200 + msgs * 400);
  }
  return analysis_testing::trace_text(ev);
}

/// A trace on which every diagnose rule fires:
///   wait     m1/p2 waits ~90% of its window for m0/p1's one message
///   serial   four processes that mostly run one after another
///   hotspot  m0/p1 -> m1/p2 carries almost all of three edges' bytes
///   loss     m2/p3 sends 10 datagrams to m2/p4, 6 arrive
///   clocks   m1 stamps the receive 50 us before m0 stamps its send
std::string every_finding_trace() {
  std::vector<std::pair<Stamp, meter::MeterBody>> ev = {
      {Stamp{0, 100, 0}, MeterConnect{1, 0, 5, "a1", "b1"}},
      {Stamp{1, 990, 0}, MeterAccept{2, 0, 7, 9, "b1", "a1"}},
      {Stamp{1, 1000, 0}, MeterRecvCall{2, 0, 9}},
      {Stamp{1, 1900, 0}, MeterRecv{2, 0, 9, 10000, ""}},
      {Stamp{0, 1950, 10000}, MeterSend{1, 0, 5, 10000, ""}},
      {Stamp{0, 1960, 10000}, MeterTermProc{1, 0, 0}},
      {Stamp{1, 1990, 0}, MeterConnect{2, 0, 11, "b2", "c1"}},
      {Stamp{1, 2000, 0}, MeterSend{2, 0, 11, 100, ""}},
      {Stamp{1, 2010, 0}, MeterTermProc{2, 0, 0}},
      {Stamp{2, 2100, 0}, MeterAccept{3, 0, 12, 13, "c1", "b2"}},
      {Stamp{2, 2150, 0}, MeterRecvCall{3, 0, 13}},
      {Stamp{2, 2250, 0}, MeterRecv{3, 0, 13, 100, ""}},
      {Stamp{2, 2500, 0}, MeterConnect{4, 0, 20, "d1", "e1"}},
  };
  for (int i = 0; i < 10; ++i) {
    ev.push_back({Stamp{2, 2300 + 10 * i, 0}, MeterSend{3, 0, 12, 8, "d1"}});
  }
  ev.push_back({Stamp{2, 2400, 20000}, MeterTermProc{3, 0, 0}});
  for (int i = 0; i < 6; ++i) {
    ev.push_back({Stamp{2, 2600 + 10 * i, 0}, MeterRecv{4, 0, 20, 8, "c1"}});
  }
  ev.push_back({Stamp{2, 2700, 0}, MeterTermProc{4, 0, 0}});
  return analysis_testing::trace_text(ev);
}

void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(DPM_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(actual, want.str()) << "full_report differs from " << path;
}

TEST(FullReportGolden, SyntheticSkewedPairs) {
  const Trace trace = read_trace(synthetic_trace(8, 50, 2000));
  ASSERT_EQ(trace.events.size(), 8u * (2 + 3 * 50 + 2));
  expect_golden("synthetic_skew2000.txt", full_report(trace));
}

TEST(FullReportGolden, EveryDiagnosis) {
  const Trace trace = read_trace(every_finding_trace());
  const Diagnosis d = diagnose(trace);
  for (const char* category : {"wait", "serial", "hotspot", "loss", "clocks"}) {
    EXPECT_TRUE(d.has(category)) << category << "\n" << d.render();
  }
  expect_golden("every_diagnosis.txt", full_report(trace));
}

TEST(FullReportGolden, EmptyTrace) {
  expect_golden("empty.txt", full_report(Trace{}));
}

}  // namespace
}  // namespace dpm::analysis
