// dpm_perfbench: the host-time benchmark of the dpm library.
//
//   dpm_perfbench --workload stream|session|cluster --seed N --seconds S
//                 --trace 0|1
//
// Runs one workload for S seconds of timed passes and prints, as the
// last line of stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 runs the
// span tracer and reports the per-layer metrics (and writes the spans to
// .bench_build/traces/). Exits 1 when any correctness check fails, 2 on
// bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

constexpr std::uint64_t kDefaultSeed = 1;

int usage() {
  std::fprintf(stderr,
               "usage: dpm_perfbench --workload stream|session|cluster "
               "[--seed N (default %llu)] [--seconds S] [--trace 0|1]\n",
               static_cast<unsigned long long>(kDefaultSeed));
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpm::perfbench;
  Options opt;
  opt.seed = kDefaultSeed;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "1") == 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0) return usage();

  Result res;
  WorkloadRun run;
  if (opt.workload == "stream") {
    run = run_stream(opt, res);
  } else if (opt.workload == "session") {
    run = run_session(opt, res);
  } else if (opt.workload == "cluster") {
    run = run_cluster(opt, res);
  } else {
    return usage();
  }
  finish(opt, run, res);
  for (const std::string& e : res.errors) {
    std::fprintf(stderr, "dpm_perfbench %s: check failed: %s\n",
                 opt.workload.c_str(), e.c_str());
  }
  print_result(res);
  return res.correct ? 0 : 1;
}
