// Shared harness of the host-time benchmark: options, the span tracer,
// controller and world wrappers that time each call from outside, registry
// reads, and the result every workload reports.
//
// The benchmark drives the library only through public entry points and
// times each layer around those calls. Nothing here reaches into src/.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "control/session.h"
#include "kernel/world.h"

namespace dpm::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::int64_t wall_ns();
std::int64_t thread_cpu_ns();

// ---- span tracer -----------------------------------------------------------

/// Layers follow the src/ modules a span's call lands in. `setup` covers
/// world construction and monitor installation; `sim` is World::run.
enum class Layer : std::uint8_t {
  setup,
  control,
  sim,
  meter,
  kernel,
  filter,
  analysis,
  kCount
};
const char* layer_name(Layer l);

/// In-memory span recorder. Spans opened on the harness thread are timed
/// by the wall clock. Spans opened inside a simulated process (each runs
/// on its own OS thread, handing control back and forth with the
/// executive) are timed by that thread's CPU clock, so a call that parks
/// the process does not bill the parked interval to the caller; their
/// parent is the innermost span open on the same thread, else the
/// innermost harness span. Exactly one thread runs at a time, so plain
/// containers are safe. A span's self time is its duration minus its
/// children's, so the self times of all spans sum to the top-level spans.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    Layer layer = Layer::sim;
    std::uint64_t parent = 0;  // 1-based span id, 0 = top level
    std::uint64_t group = 0;   // shared by the spans of one command/batch
    std::int64_t start_ns = 0;  // wall clock
    std::int64_t end_ns = 0;
    std::int64_t dur_ns = 0;    // wall, or thread CPU for in-process spans
    bool in_process = false;
  };

  void enable(bool on);
  bool on() const { return on_; }
  std::uint64_t new_group() { return ++groups_; }

  /// Opens a span; `group` 0 inherits the parent's group (or starts one).
  std::uint64_t begin(Layer layer, const char* name, std::uint64_t group = 0);
  void end(std::uint64_t id);

  /// Self time per layer, and the summed duration of top-level spans.
  struct Totals {
    std::int64_t self_ns[static_cast<int>(Layer::kCount)] = {};
    std::int64_t top_level_ns = 0;
    std::map<std::string, std::int64_t> by_name_ns;  // summed durations
    std::map<std::string, std::uint64_t> by_name_count;
  };
  Totals totals() const;

  /// Writes every span as one tab-separated line; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool on_ = false;
  std::uint64_t groups_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> harness_stack_;
};

Tracer& tracer();

/// RAII span; does nothing while the tracer is off.
class Scope {
 public:
  Scope(Layer layer, const char* name, std::uint64_t group = 0)
      : id_(tracer().on() ? tracer().begin(layer, name, group) : 0) {}
  ~Scope() {
    if (id_ != 0) tracer().end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::uint64_t id_;
};

// ---- registry reads ---------------------------------------------------------

/// Reads a counter without creating it (0 when absent).
std::uint64_t counter(const obs::Registry& reg, std::string_view key);

/// Every counter of the world registry. The registry is sim-time only, so
/// two runs of the same inputs must produce identical maps.
using Counts = std::map<std::string, std::uint64_t>;
Counts snapshot_counts(const kernel::World& world);

/// Names the first counter that differs, or "" when equal.
std::string diff_counts(const Counts& a, const Counts& b);

// ---- timed calls ------------------------------------------------------------

struct CommandSample {
  std::string verb;
  double ms = 0;
  bool failed = false;
};

/// A MonitorSession wrapper that times every command (span
/// "control.command", layer control) and records its latency.
class Console {
 public:
  Console(control::MonitorSession& session, std::vector<CommandSample>* log)
      : session_(session), log_(log) {}

  /// MonitorSession::command, timed. `ok_marker`, when given, must appear
  /// in the reply or the command counts as failed.
  std::string command(const std::string& line,
                      const char* ok_marker = nullptr);

  /// Sends a command whose reply waits for a job to run to completion,
  /// as send_line + World::run (span "sim.run") + drain_output, so the
  /// job's run time is billed to the executive rather than to the
  /// controller. Not recorded as a command latency sample.
  std::string run_job(kernel::World& world, const std::string& line,
                      double* wall_s, std::int64_t* sim_us);

  /// Marks the last recorded command failed (for replies whose failure
  /// shows only in their effect, e.g. getlog's retrieved file).
  void fail_last() {
    if (log_ != nullptr && !log_->empty()) log_->back().failed = true;
  }

 private:
  control::MonitorSession& session_;
  std::vector<CommandSample>* log_;
};

/// World::run timed as span "sim.run".
void run_world(kernel::World& world);

double seconds_since(std::int64_t t0_ns);

/// A simulated site: machines, the monitor and the application programs
/// installed, a meterdaemon on every machine, and a controller session
/// opened on the first machine.
struct Site {
  std::unique_ptr<kernel::World> world;
  std::unique_ptr<control::MonitorSession> session;
};

/// Builds a site with the named machines. `install` runs before the
/// daemons start (extra programs, files).
Site open_site(const std::vector<std::string>& machines,
               const std::function<void(kernel::World&)>& install = {});

std::size_t count_substr(const std::string& text, std::string_view needle);

// ---- results ---------------------------------------------------------------

/// One pass of a workload: a fresh world, set up, driven, reported.
struct Pass {
  double wall_s = 0;
  double setup_s = 0;
  double run_s = 0;           // the metered run phase
  std::uint64_t records = 0;  // meter records emitted in the run phase
  double report_s = 0;        // job end to finished report
  double lifecycle_s = 0;     // host seconds of the lifecycle commands
  std::uint64_t procs = 0;    // process lifecycles completed
  std::uint64_t commands = 0;
  std::uint64_t failed_commands = 0;
  std::uint64_t lost_records = 0;  // dropped+lost+stranded+malformed
  std::int64_t sim_us = 0;         // simulated run time of the job
  Counts counts;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void fail(const std::string& why);
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

/// Closes a pass: books both conservation ledgers (a ledger that does not
/// balance fails the run), the registry counters and the pass's command
/// tallies into `it`, appends the commands to `cmds`, tears the site down
/// (span "setup.teardown") and sets the pass's wall time from `t_pass`.
void close_pass(Site& site, std::int64_t t_pass,
                const std::vector<CommandSample>& local,
                std::vector<CommandSample>& cmds, Pass& it, Result& res);

/// The offline report of a retrieved log: read_trace and full_report
/// (their time is added to `it.report_s`), then order_events.
struct Analysed {
  std::size_t events = 0;
  std::size_t pairs = 0;
};
Analysed analyse(const std::string& log_text, Pass& it, Result& res);

/// What a workload hands back; main() turns it into metrics.
struct WorkloadRun {
  std::vector<Pass> untraced;  // timed passes, tracer off
  std::vector<Pass> traced;    // --trace 1 only
  std::vector<CommandSample> commands;         // untraced passes
  std::vector<CommandSample> traced_commands;  // traced passes
  double perturbation = 0;
  Counts reference;  // counters of the check pass
  std::uint64_t reference_procs = 0;
  /// Records the benchmark itself emitted through kernel::meter_emit per
  /// pass (the meter.emit span's denominator; 0 when the records
  /// come from the programs' own syscalls).
  std::uint64_t bench_emitted_per_pass = 0;
};

/// One pass: builds a fresh world, drives its job (metered or as the
/// unmetered twin), appends its command samples to `cmds`. `check` asks
/// for the checks too costly for every pass (the first pass only).
using PassFn = std::function<Pass(std::vector<CommandSample>& cmds,
                                  bool metered, bool check)>;

/// Runs the untimed check pass (its counters and simulated run time become
/// the reference), then timed passes until `seconds` of pass wall time have
/// passed (at least three), requiring every pass's counters and simulated
/// run time to equal the reference exactly; then the unmetered twin for
/// the perturbation ratio. With --trace 1 the budget is split: the first
/// half untraced (the overhead baseline), the second half traced.
WorkloadRun run_passes(const Options& opt, Result& res, const PassFn& pass);

/// Turns a finished run into the metrics --trace selects.
void finish(const Options& opt, const WorkloadRun& run, Result& res);

/// Prints the result object as the last line of stdout.
void print_result(const Result& res);

}  // namespace dpm::perfbench
