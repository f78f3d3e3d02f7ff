// Task-switch microbench: the host cost of one executive dispatch.
//
// Two tasks ping-pong through make_runnable/park_current: each wakes the
// other and parks, so every dispatch the executive makes is one switch
// into a task and one back out. The figure is wall time divided by
// Executive::switches() (the count `sim.task_switches` reports), as the
// median of several repeats.
//
//   bench_executive            1M dispatches x 7 repeats
//   bench_executive --smoke    100k dispatches x 5 repeats; exits 1 when
//                              the fastest repeat costs more than 1 us per
//                              switch (the fastest, because ctest runs
//                              tests side by side and a repeat that loses
//                              its core measures the scheduler)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "sim/executive.h"

namespace {

using dpm::sim::Executive;
using dpm::sim::TaskId;

constexpr double kSmokeLimitNs = 1000;

/// Runs one ping-pong world of `rounds` wake/park pairs per task; returns
/// ns per dispatch.
double ns_per_switch(int rounds) {
  Executive exec;
  TaskId ping = 0;
  TaskId pong = 0;
  auto player = [&exec, rounds](const TaskId* peer) {
    return [&exec, rounds, peer] {
      for (int i = 0; i < rounds; ++i) {
        exec.make_runnable(*peer);
        exec.park_current();
      }
      exec.make_runnable(*peer);
    };
  };
  ping = exec.spawn("ping", player(&pong));
  pong = exec.spawn("pong", player(&ping));
  const auto t0 = std::chrono::steady_clock::now();
  exec.run();
  const auto t1 = std::chrono::steady_clock::now();
  const double ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count();
  return ns / static_cast<double>(exec.switches());
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int rounds = smoke ? 50'000 : 500'000;  // dispatches = 2 x rounds
  const int repeats = smoke ? 5 : 7;
  ns_per_switch(rounds / 10);  // warm-up: stack pool, page faults
  std::vector<double> samples;
  for (int r = 0; r < repeats; ++r) samples.push_back(ns_per_switch(rounds));
  std::sort(samples.begin(), samples.end());
  const double median = samples[samples.size() / 2];
  std::printf(
      "bench_executive: %d dispatches x %d repeats: %.1f ns/switch "
      "(median; min %.1f, max %.1f)\n",
      2 * rounds, repeats, median, samples.front(), samples.back());
  if (smoke && samples.front() > kSmokeLimitNs) {
    std::fprintf(stderr, "bench_executive: %.1f ns/switch exceeds %.0f ns\n",
                 samples.front(), kSmokeLimitNs);
    return 1;
  }
  return 0;
}
