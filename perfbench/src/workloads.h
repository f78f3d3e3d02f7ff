// The benchmark's three workloads. Each builds its inputs from the seed,
// runs one untimed check pass, then timed passes, then its
// unmetered twin for the perturbation ratio.
#pragma once

#include "harness.h"

namespace dpm::perfbench {

WorkloadRun run_stream(const Options& opt, Result& res);
WorkloadRun run_session(const Options& opt, Result& res);
WorkloadRun run_cluster(const Options& opt, Result& res);

}  // namespace dpm::perfbench
