#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <thread>

#include "analysis/ordering.h"
#include "analysis/report.h"
#include "analysis/trace_reader.h"
#include "apps/apps.h"

namespace dpm::perfbench {

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

// ---- tracer -----------------------------------------------------------------

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::setup: return "setup";
    case Layer::control: return "control";
    case Layer::sim: return "sim";
    case Layer::meter: return "meter";
    case Layer::kernel: return "kernel";
    case Layer::filter: return "filter";
    case Layer::analysis: return "analysis";
    case Layer::kCount: break;
  }
  return "?";
}

namespace {

std::thread::id g_harness_thread;

/// Open spans of the simulated process running on this OS thread. The
/// CPU clock reading at begin is kept beside the id.
struct OpenSpan {
  std::uint64_t id;
  std::int64_t cpu0;
};
thread_local std::vector<OpenSpan> t_process_stack;

}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Tracer::enable(bool on) {
  on_ = on;
  g_harness_thread = std::this_thread::get_id();
}

std::uint64_t Tracer::begin(Layer layer, const char* name,
                            std::uint64_t group) {
  const bool in_process = std::this_thread::get_id() != g_harness_thread;
  std::uint64_t parent = 0;
  if (in_process && !t_process_stack.empty()) {
    parent = t_process_stack.back().id;
  } else if (!harness_stack_.empty()) {
    parent = harness_stack_.back();
  }
  if (group == 0) {
    group = parent != 0 ? spans_[parent - 1].group : new_group();
  }
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = parent;
  s.group = group;
  s.in_process = in_process;
  spans_.push_back(s);
  const std::uint64_t id = spans_.size();
  if (in_process) {
    t_process_stack.push_back({id, thread_cpu_ns()});
  } else {
    harness_stack_.push_back(id);
  }
  spans_.back().start_ns = wall_ns();
  return id;
}

void Tracer::end(std::uint64_t id) {
  const std::int64_t now = wall_ns();
  Span& s = spans_[id - 1];
  s.end_ns = now;
  if (s.in_process) {
    // Spans close in LIFO order per thread (Scope is RAII).
    s.dur_ns = thread_cpu_ns() - t_process_stack.back().cpu0;
    t_process_stack.pop_back();
  } else {
    s.dur_ns = now - s.start_ns;
    harness_stack_.pop_back();
  }
}

Tracer::Totals Tracer::totals() const {
  Totals t;
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent - 1] += s.dur_ns;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    t.self_ns[static_cast<int>(s.layer)] += s.dur_ns - child_ns[i];
    if (s.parent == 0) t.top_level_ns += s.dur_ns;
    t.by_name_ns[s.name] += s.dur_ns;
    ++t.by_name_count[s.name];
  }
  return t;
}

bool Tracer::write(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "# id\tparent\tgroup\tlayer\tname\tstart_ns\tend_ns\tdur_ns\tclock\n";
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i + 1 << '\t' << s.parent << '\t' << s.group << '\t'
        << layer_name(s.layer) << '\t' << s.name << '\t' << s.start_ns - t0
        << '\t' << s.end_ns - t0 << '\t' << s.dur_ns << '\t'
        << (s.in_process ? "thread_cpu" : "wall") << '\n';
  }
  return out.good();
}

// ---- registry ---------------------------------------------------------------

std::uint64_t counter(const obs::Registry& reg, std::string_view key) {
  const auto& cs = reg.counters();
  const auto it = cs.find(key);
  return it == cs.end() ? 0 : it->second.value();
}

Counts snapshot_counts(const kernel::World& world) {
  Counts out;
  for (const auto& [name, c] : world.obs().counters()) out[name] = c.value();
  return out;
}

std::string diff_counts(const Counts& a, const Counts& b) {
  for (const auto& [name, v] : a) {
    const auto it = b.find(name);
    const std::uint64_t w = it == b.end() ? 0 : it->second;
    if (v != w) {
      return name + " " + std::to_string(v) + " vs " + std::to_string(w);
    }
  }
  for (const auto& [name, w] : b) {
    if (w != 0 && a.find(name) == a.end()) {
      return name + " 0 vs " + std::to_string(w);
    }
  }
  return "";
}

// ---- timed calls ------------------------------------------------------------

std::string Console::command(const std::string& line,
                             const char* ok_marker) {
  const std::int64_t t0 = wall_ns();
  std::string reply;
  {
    Scope span(Layer::control, "control.command");
    reply = session_.command(line);
  }
  const double ms = static_cast<double>(wall_ns() - t0) / 1e6;
  if (log_ != nullptr) {
    CommandSample c;
    c.verb = line.substr(0, line.find(' '));
    c.ms = ms;
    c.failed =
        ok_marker != nullptr && reply.find(ok_marker) == std::string::npos;
    log_->push_back(std::move(c));
  }
  return reply;
}

std::string Console::run_job(kernel::World& world, const std::string& line,
                             double* wall_s, std::int64_t* sim_us) {
  const util::TimePoint s0 = world.now();
  const std::int64_t t0 = wall_ns();
  session_.send_line(line);
  run_world(world);
  std::string reply = session_.drain_output();
  if (wall_s != nullptr) *wall_s = static_cast<double>(wall_ns() - t0) / 1e9;
  if (sim_us != nullptr) *sim_us = util::count_us(world.now() - s0);
  return reply;
}

void run_world(kernel::World& world) {
  Scope span(Layer::sim, "sim.run");
  world.run();
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(wall_ns() - t0_ns) / 1e9;
}

Site open_site(const std::vector<std::string>& machines,
               const std::function<void(kernel::World&)>& install) {
  Site site;
  site.world = std::make_unique<kernel::World>();
  kernel::World& world = *site.world;
  for (const std::string& m : machines) world.add_machine(m);
  control::install_monitor(world);
  apps::install_everywhere(world);
  if (install) install(world);
  control::spawn_meterdaemons(world);
  site.session = std::make_unique<control::MonitorSession>(
      world, control::MonitorSession::Options{.host = machines.front()});
  world.run();
  (void)site.session->drain_output();
  return site;
}

void close_pass(Site& site, std::int64_t t_pass,
                const std::vector<CommandSample>& local,
                std::vector<CommandSample>& cmds, Pass& it, Result& res) {
  const kernel::MeterConservation mc = site.world->meter_conservation();
  const kernel::FanInConservation fc = site.world->fanin_conservation();
  res.check(mc.balanced(), "meter conservation ledger does not balance");
  res.check(fc.balanced(), "fan-in conservation ledger does not balance");
  it.lost_records = mc.dropped + mc.lost + mc.stranded + mc.malformed +
                    fc.lost + fc.overflow + fc.stranded + fc.malformed;
  it.counts = snapshot_counts(*site.world);
  for (const CommandSample& s : local) {
    ++it.commands;
    if (s.failed) ++it.failed_commands;
  }
  cmds.insert(cmds.end(), local.begin(), local.end());
  {
    Scope span(Layer::setup, "setup.teardown");
    site.session.reset();
    site.world.reset();
  }
  it.wall_s = seconds_since(t_pass);
}

Analysed analyse(const std::string& log_text, Pass& it, Result& res) {
  const std::int64_t t0 = wall_ns();
  analysis::Trace trace;
  {
    Scope span(Layer::analysis, "analysis.read_trace");
    trace = analysis::read_trace(log_text);
  }
  std::string report;
  {
    Scope span(Layer::analysis, "analysis.report");
    report = analysis::full_report(trace);
  }
  it.report_s += seconds_since(t0);
  res.check(!report.empty(), "empty analysis report");
  Analysed a;
  a.events = trace.events.size();
  Scope span(Layer::analysis, "analysis.order");
  a.pairs = analysis::order_events(trace).message_pairs;
  return a;
}

std::size_t count_substr(const std::string& text, std::string_view needle) {
  std::size_t n = 0;
  for (auto pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// ---- passes -----------------------------------------------------------------

void Result::fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

WorkloadRun run_passes(const Options& opt, Result& res, const PassFn& pass) {
  constexpr std::size_t kMinPasses = 3;
  WorkloadRun out;
  std::int64_t ref_sim_us = 0;
  {
    std::vector<CommandSample> untimed;
    const Pass ref = pass(untimed, /*metered=*/true, /*check=*/true);
    out.reference = ref.counts;
    out.reference_procs = ref.procs;
    ref_sim_us = ref.sim_us;
  }
  auto timed = [&](std::vector<Pass>& passes,
                   std::vector<CommandSample>& cmds, double budget_s) {
    double spent = 0;
    while (spent < budget_s || passes.size() < kMinPasses) {
      Pass it = pass(cmds, /*metered=*/true, /*check=*/false);
      const std::string diff = diff_counts(out.reference, it.counts);
      res.check(diff.empty(),
                "counters differ from the check pass with the same seed: " +
                    diff);
      res.check(it.sim_us == ref_sim_us,
                "simulated run time differs from the check pass with the "
                "same seed");
      spent += it.wall_s;
      std::fprintf(stderr,
                   "%s pass %zu%s: wall %.4f s, setup %.5f s, run %.4f s "
                   "(%llu records), report %.4f s, lifecycles %.4f s\n",
                   opt.workload.c_str(), passes.size(),
                   tracer().on() ? " traced" : "", it.wall_s, it.setup_s,
                   it.run_s, static_cast<unsigned long long>(it.records),
                   it.report_s, it.lifecycle_s);
      passes.push_back(std::move(it));
    }
  };
  if (opt.trace) {
    timed(out.untraced, out.commands, opt.seconds / 2);
    tracer().enable(true);
    timed(out.traced, out.traced_commands, opt.seconds / 2);
    tracer().enable(false);
  } else {
    timed(out.untraced, out.commands, opt.seconds);
  }
  std::vector<CommandSample> untimed;
  const Pass twin = pass(untimed, /*metered=*/false, /*check=*/false);
  out.perturbation = ratio(static_cast<double>(ref_sim_us),
                           static_cast<double>(twin.sim_us));
  return out;
}

// ---- metrics ----------------------------------------------------------------

namespace {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double get(const Counts& c, const std::string& key) {
  const auto it = c.find(key);
  return it == c.end() ? 0 : static_cast<double>(it->second);
}

/// Verbs whose median latency the traced run reports (the paper's
/// command list as this benchmark uses it).
constexpr const char* kVerbs[] = {"filter",   "fanin",     "rpcmode",
                                  "newjob",   "addprocess", "addgroup",
                                  "setflags", "startjob",  "stopjob",
                                  "removejob", "getlog"};

void end_to_end(const WorkloadRun& run, Result& res) {
  // Medians over passes, so one pass hit by outside noise does not move
  // a run's figure.
  std::vector<double> rate, procs, setup, report;
  for (const Pass& it : run.untraced) {
    rate.push_back(ratio(static_cast<double>(it.records), it.run_s));
    procs.push_back(ratio(static_cast<double>(it.procs), it.lifecycle_s));
    setup.push_back(it.setup_s);
    report.push_back(it.report_s);
  }
  std::vector<double> cmd_ms;
  for (const CommandSample& c : run.commands) cmd_ms.push_back(c.ms);
  res.metrics.push_back({"records_per_s", median(rate), "records/s"});
  res.metrics.push_back({"report_s", median(report), "s"});
  res.metrics.push_back({"procs_per_s", median(procs), "procs/s"});
  res.metrics.push_back({"cmd_ms_p50", quantile(cmd_ms, 0.5), "ms"});
  res.metrics.push_back({"cmd_ms_p90", quantile(cmd_ms, 0.9), "ms"});
  res.metrics.push_back({"setup_s", median(setup), "s"});
  res.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  res.metrics.push_back({"perturbation", run.perturbation, "ratio"});
}

void per_layer(const WorkloadRun& run, Result& res) {
  const Tracer::Totals t = tracer().totals();
  const Counts& c = run.reference;
  const double n = static_cast<double>(run.traced.size());
  auto secs = [](std::int64_t ns) { return static_cast<double>(ns) / 1e9; };
  auto self = [&](Layer l) { return secs(t.self_ns[static_cast<int>(l)]); };
  auto named = [&](const char* name) {
    const auto it = t.by_name_ns.find(name);
    return it == t.by_name_ns.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto calls = [&](const char* name) {
    const auto it = t.by_name_count.find(name);
    return it == t.by_name_count.end() ? 0.0
                                       : static_cast<double>(it->second);
  };

  // The layers' self times plus the unattributed remainder are the traced
  // wall time exactly (integer nanoseconds, no rounding in between).
  std::int64_t wall_ns_total = 0, self_sum = 0;
  for (const Pass& it : run.traced) {
    wall_ns_total += static_cast<std::int64_t>(it.wall_s * 1e9 + 0.5);
  }
  for (std::int64_t s : t.self_ns) self_sum += s;
  res.check(self_sum == t.top_level_ns,
            "span self times do not sum to the top-level spans");
  const std::int64_t unattributed_ns = wall_ns_total - t.top_level_ns;

  const double events = get(c, "kernel.meter_events");
  const double switches = get(c, "sim.task_switches");
  const double filter_in = get(c, "filter.records_in");
  std::vector<double> untraced_wall, traced_wall;
  for (const Pass& it : run.untraced) untraced_wall.push_back(it.wall_s);
  for (const Pass& it : run.traced) traced_wall.push_back(it.wall_s);

  auto add = [&](const char* name, double v, const char* unit) {
    res.metrics.push_back({name, v, unit});
  };
  // sim
  add("sim.self_s", self(Layer::sim), "s");
  add("sim.task_switches", switches, "count");
  add("sim.us_per_switch", ratio(self(Layer::sim) * 1e6, switches * n), "us");
  // kernel + meter
  add("meter.self_s", self(Layer::meter), "s");
  add("meter.emit_ns",
      ratio(named("meter.emit"),
            static_cast<double>(run.bench_emitted_per_pass) * n),
      "ns");
  add("meter.records_per_flush", ratio(events, get(c, "kernel.meter_flushes")),
      "records");
  add("kernel.self_s", self(Layer::kernel), "s");
  add("kernel.recv_ns", ratio(named("kernel.recv"), calls("kernel.recv")),
      "ns");
  add("ring.wakeups", get(c, "ring.wakeups"), "count");
  // net
  add("net.bytes_remote_per_record", ratio(get(c, "net.bytes_remote"), events),
      "bytes");
  add("net.packets_sent", get(c, "net.packets_sent"), "count");
  // filter (the session filter plus the fan-in tier's local filters)
  add("filter.self_s", self(Layer::filter), "s");
  add("filter.feed_ns", ratio(named("filter.feed"), filter_in * n), "ns");
  add("filter.accept_ratio", ratio(get(c, "filter.accepted"), events),
      "ratio");
  add("filter.bytecode_ops_per_record",
      ratio(get(c, "filter.bytecode_ops") + get(c, "localfilter.bytecode_ops"),
            filter_in + get(c, "localfilter.records_in")),
      "ops");
  add("fanin.forwarded_records", get(c, "fanin.forwarded_records"), "count");
  // control + daemon
  add("control.self_s", self(Layer::control), "s");
  add("setup.self_s", self(Layer::setup), "s");
  for (const char* verb : kVerbs) {
    std::vector<double> ms;
    for (const CommandSample& s : run.traced_commands) {
      if (s.verb == verb) ms.push_back(s.ms);
    }
    add((std::string("control.cmd_ms.") + verb).c_str(), median(ms), "ms");
  }
  add("daemon.rpc_calls_per_proc",
      ratio(get(c, "daemon.rpc_calls"),
            static_cast<double>(run.reference_procs)),
      "calls");
  add("daemon.rpc_retries", get(c, "daemon.rpc_retries"), "count");
  add("daemon.rpc_failures", get(c, "daemon.rpc_failures"), "count");
  // analysis
  add("analysis.self_s", self(Layer::analysis), "s");
  add("analysis.read_trace_s", ratio(named("analysis.read_trace"), n) / 1e9,
      "s");
  add("analysis.order_s", ratio(named("analysis.order"), n) / 1e9, "s");
  add("analysis.report_s", ratio(named("analysis.report"), n) / 1e9, "s");
  add("analysis.live_ns",
      ratio(named("analysis.live"), get(c, "filter.accepted") * n), "ns");
  add("live.message_pairs", get(c, "live.message_pairs"), "count");
  // failures, as ratios of the untraced and traced passes together
  double lost = 0, emitted = 0, cmds = 0, cmd_failed = 0;
  for (const auto* its : {&run.untraced, &run.traced}) {
    for (const Pass& it : *its) {
      lost += static_cast<double>(it.lost_records);
      emitted += static_cast<double>(it.records);
      cmds += static_cast<double>(it.commands);
      cmd_failed += static_cast<double>(it.failed_commands);
    }
  }
  add("loss_ratio", ratio(lost, emitted), "ratio");
  add("cmd_fail_ratio", ratio(cmd_failed, cmds), "ratio");
  // the trace itself
  add("trace.wall_s", secs(wall_ns_total), "s");
  add("trace.unattributed_s", secs(unattributed_ns), "s");
  add("trace.overhead",
      ratio(median(traced_wall), median(untraced_wall)) - 1.0, "ratio");
}

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

}  // namespace

void finish(const Options& opt, const WorkloadRun& run, Result& res) {
  for (const auto* its : {&run.untraced, &run.traced}) {
    for (const Pass& it : *its) {
      res.attempted += it.records + it.commands;
      res.failed += it.lost_records + it.failed_commands;
    }
  }
  res.check(res.failed == 0,
            std::to_string(res.failed) + " lost records or failed commands");
  if (opt.trace) {
    per_layer(run, res);
    const std::string path = ".bench_build/traces/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".tsv";
    res.check(tracer().write(path), "cannot write spans to " + path);
  } else {
    end_to_end(run, res);
  }
}

void print_result(const Result& res) {
  std::string out = "{\"correct\": ";
  out += res.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace dpm::perfbench
