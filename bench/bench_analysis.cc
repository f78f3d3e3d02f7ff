// E6 — the analysis routines (§3.3): real-time throughput of trace
// parsing, communication statistics, structure recovery, ordering and
// parallelism over synthetic traces of growing size, plus ordering
// recovery under heavy clock skew.
//
// Counters:
//   MB             read_trace input consumed per second (shown as MB/s),
//                  on a ring-shaped log
//   events_per_s   analysis throughput (real time)
//   pairs          matched send/receive pairs found
//   anomalies      clock anomalies detected
#include <benchmark/benchmark.h>

#include "analysis/report.h"
#include "filter/descriptions.h"
#include "filter/trace.h"
#include "meter/metermsgs.h"

namespace dpm::bench {
namespace {

/// A synthetic trace: `pairs` processes on distinct machines, each pair
/// exchanging `msgs` messages over a matched connection, with per-machine
/// clock offsets to stress the alignment logic.
std::string synthetic_trace(int pairs, int msgs, std::int64_t skew_us) {
  const filter::Descriptions desc =
      *filter::Descriptions::parse(filter::default_descriptions_text());
  std::string out;
  auto emit = [&](meter::MeterBody body, std::uint16_t machine,
                  std::int64_t t) {
    meter::MeterMsg m;
    m.body = std::move(body);
    m.header.machine = machine;
    m.header.cpu_time = t + machine * skew_us;
    m.header.proc_time = 0;
    auto rec = desc.decode(m.serialize());
    out += filter::trace_line(*rec, {});
  };

  for (int p = 0; p < pairs; ++p) {
    const auto ma = static_cast<std::uint16_t>(2 * p);
    const auto mb = static_cast<std::uint16_t>(2 * p + 1);
    const std::int32_t pid_a = 100 + p, pid_b = 200 + p;
    const std::string name_a = std::to_string(1000000 + p);
    const std::string name_b = std::to_string(2000000 + p);
    emit(meter::MeterConnect{pid_a, 0, 10, name_a, name_b}, ma, 0);
    emit(meter::MeterAccept{pid_b, 0, 20, 21, name_b, name_a}, mb, 500);
    for (int i = 0; i < msgs; ++i) {
      const std::int64_t t = 1000 + i * 400;
      emit(meter::MeterSend{pid_a, 0, 10,
                            static_cast<std::uint32_t>(64 + i % 32), ""},
           ma, t);
      emit(meter::MeterRecvCall{pid_b, 0, 21}, mb, t + 100);
      emit(meter::MeterRecv{pid_b, 0, 21,
                            static_cast<std::uint32_t>(64 + i % 32), ""},
           mb, t + 200);
    }
    emit(meter::MeterTermProc{pid_a, 0, 0}, ma, 1000 + msgs * 400);
    emit(meter::MeterTermProc{pid_b, 0, 0}, mb, 1200 + msgs * 400);
  }
  return out;
}

/// A ring-shaped trace like a metered ring session's log: `nodes`
/// processes, one per machine, each connected to the next; every round
/// each node sends to its successor, then waits for and receives from its
/// predecessor. Lines carry the standard descriptions' fields (about 120
/// bytes and 11 fields for a SEND or RECEIVE).
std::string ring_trace(int nodes, int rounds) {
  const filter::Descriptions desc =
      *filter::Descriptions::parse(filter::default_descriptions_text());
  std::string out;
  auto emit = [&](meter::MeterBody body, int node, std::int64_t t) {
    meter::MeterMsg m;
    m.body = std::move(body);
    m.header.machine = static_cast<std::uint16_t>(node + 1);
    m.header.cpu_time = 4'000'000 + t + node * 1'500;
    m.header.proc_time = t / 10;
    out += filter::trace_line(*desc.decode(m.serialize()), {});
  };
  const auto pid = [](int node) { return 101 + node % 3; };
  const auto name = [](int node) { return std::to_string(900000 + node); };
  for (int i = 0; i < nodes; ++i) {
    const int next = (i + 1) % nodes;
    emit(meter::MeterSockCrt{pid(i), 0, 150, 2, 1, 0}, i, 0);
    emit(meter::MeterConnect{pid(i), 0, 150, name(i), name(next) + "0"}, i, 200);
    emit(meter::MeterAccept{pid(next), 0, 160, 161, name(next) + "0", name(i)},
         next, 300);
  }
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < nodes; ++i) {
      const std::int64_t t = 1'000 + r * 2'000;
      const auto len = static_cast<std::uint32_t>(16 + r % 48);
      emit(meter::MeterSend{pid(i), 0, 150, len, ""}, i, t);
      emit(meter::MeterRecvCall{pid(i), 0, 161}, i, t + 100);
      emit(meter::MeterRecv{pid(i), 0, 161, len, ""}, i, t + 900);
    }
  }
  return out;
}

void BM_ReadTraceRing(benchmark::State& state) {
  const std::string text = ring_trace(16, static_cast<int>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    analysis::Trace t = analysis::read_trace(text);
    benchmark::DoNotOptimize(t.events.data());
    bytes += text.size();
  }
  state.counters["MB"] = benchmark::Counter(
      static_cast<double>(bytes) / 1e6, benchmark::Counter::kIsRate);
  state.counters["bytes_per_line"] =
      static_cast<double>(text.size()) /
      static_cast<double>(analysis::read_trace(text).events.size());
}

void BM_TraceParse(benchmark::State& state) {
  const std::string text = synthetic_trace(static_cast<int>(state.range(0)),
                                           50, 0);
  std::size_t events = 0;
  for (auto _ : state) {
    analysis::Trace t = analysis::read_trace(text);
    benchmark::DoNotOptimize(t.events.data());
    events += t.events.size();
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

void BM_CommStats(benchmark::State& state) {
  const analysis::Trace trace = analysis::read_trace(
      synthetic_trace(static_cast<int>(state.range(0)), 50, 0));
  std::size_t events = 0;
  for (auto _ : state) {
    analysis::CommStats s = analysis::communication_statistics(trace);
    benchmark::DoNotOptimize(s.total_events);
    events += trace.events.size();
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

void BM_Ordering(benchmark::State& state) {
  const analysis::Trace trace = analysis::read_trace(
      synthetic_trace(static_cast<int>(state.range(0)), 50, 0));
  std::size_t events = 0, pairs = 0;
  for (auto _ : state) {
    analysis::Ordering o = analysis::order_events(trace);
    benchmark::DoNotOptimize(o.message_pairs);
    events += trace.events.size();
    pairs = o.message_pairs;
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["pairs"] = static_cast<double>(pairs);
}

void BM_OrderingUnderSkew(benchmark::State& state) {
  // Heavy skew: every cross-machine pair is a clock anomaly, yet ordering
  // recovery and alignment still work (§4.1's point that order must be
  // deduced from the trace, not the clocks).
  const analysis::Trace trace =
      analysis::read_trace(synthetic_trace(4, 100, -60000));
  std::size_t anomalies = 0;
  for (auto _ : state) {
    analysis::Ordering o = analysis::order_events(trace);
    analysis::ClockAlignment a =
        analysis::estimate_clock_alignment(trace, o);
    benchmark::DoNotOptimize(a.offset_us.size());
    anomalies = o.clock_anomalies;
  }
  state.counters["anomalies"] = static_cast<double>(anomalies);
}

void BM_Parallelism(benchmark::State& state) {
  const analysis::Trace trace = analysis::read_trace(
      synthetic_trace(static_cast<int>(state.range(0)), 50, 3000));
  for (auto _ : state) {
    analysis::ParallelismProfile p = analysis::measure_parallelism(trace);
    benchmark::DoNotOptimize(p.average);
  }
}

void BM_FullReport(benchmark::State& state) {
  const analysis::Trace trace = analysis::read_trace(
      synthetic_trace(static_cast<int>(state.range(0)), 50, 2000));
  for (auto _ : state) {
    std::string report = analysis::full_report(trace);
    benchmark::DoNotOptimize(report);
  }
}

BENCHMARK(BM_ReadTraceRing)->Arg(2000);
BENCHMARK(BM_TraceParse)->Arg(2)->Arg(8)->Arg(32);
BENCHMARK(BM_CommStats)->Arg(2)->Arg(8)->Arg(32);
BENCHMARK(BM_Ordering)->Arg(2)->Arg(8)->Arg(32);
BENCHMARK(BM_OrderingUnderSkew);
BENCHMARK(BM_Parallelism)->Arg(2)->Arg(8);
BENCHMARK(BM_FullReport)->Arg(8);

}  // namespace
}  // namespace dpm::bench

BENCHMARK_MAIN();
