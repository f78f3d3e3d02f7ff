// cluster: the control plane and the fan-in tier.
//
// 64 machines plus a hub, controller RPCs batched, the session filter on
// the hub fed through a fan-in tree of arity 4 (local filters on every
// machine). First a burst_sender on every machine sends datagrams whose
// local filters keep one in four (msgLength>256); senders' gaps are
// seeded per quarter of the machines. Its log is retrieved and analysed.
// Then waves of waiter processes each go through addgroup, startjob,
// stopjob and removejob. An unmetered twin of the sender load gives the
// perturbation ratio.
#include <cstdlib>
#include <random>

#include "util/strings.h"
#include "workloads.h"

namespace dpm::perfbench {
namespace {

constexpr int kMachines = 64;
constexpr int kArity = 4;
constexpr int kCount = 400;      // datagrams per sender
constexpr int kEvery = 4;        // one datagram in four is large (kept)
constexpr int kWaves = 4;
constexpr int kPerMachine = 4;   // waiters per machine per wave
constexpr int kGroups = 4;       // sender groups, one seeded gap each
constexpr const char* kRules = "machine=#*, pid=#*, type=1, msgLength>256\n";

/// The count leading a controller summary line located by `marker`, as
/// in "job 'w0': 256 of 256 processes created across 64 machines".
std::uint64_t summary_count(const std::string& out, const char* marker) {
  const auto p = out.find(marker);
  if (p == std::string::npos) return 0;
  auto ls = out.rfind('\n', p);
  ls = ls == std::string::npos ? 0 : ls + 1;
  const auto sep = out.find("': ", ls);
  if (sep == std::string::npos || sep > p) return 0;
  return std::strtoull(out.c_str() + sep + 3, nullptr, 10);
}

Pass run_pass(const std::vector<int>& gaps_us,
              std::vector<CommandSample>& cmds, bool metered, Result& res) {
  Pass it;
  const std::int64_t t_pass = wall_ns();
  std::vector<CommandSample> local;
  Site site;
  const std::int64_t t_setup = wall_ns();
  {
    Scope span(Layer::setup, "setup.world");
    std::vector<std::string> machines = {"hub"};
    for (int i = 1; i <= kMachines; ++i) {
      machines.push_back(util::strprintf("m%d", i));
    }
    site = open_site(machines, [](kernel::World& w) {
      w.machine_by_name("hub")->fs.put_text("tmpl_cluster", kRules);
    });
    Console con(*site.session, &local);
    (void)con.command("rpcmode batched");
    (void)con.command("filter f1 hub filter descriptions tmpl_cluster",
                      "created");
    const std::string out = con.command(
        util::strprintf("fanin f1 %d m 1 %d", kArity, kMachines));
    if (count_substr(out, "(0 failed)") != 2) {
      con.fail_last();
      res.fail("cluster: fan-in tree not built:\n" + out);
    }
  }
  it.setup_s = seconds_since(t_setup);

  // ---- sender load ----
  kernel::World& world = *site.world;
  Console c(*site.session, &local);
  (void)c.command("newjob load f1");
  if (metered) (void)c.command("setflags load send", "new job flags");
  const int per_group = kMachines / kGroups;
  for (int g = 0; g < kGroups; ++g) {
    const std::string out = c.command(util::strprintf(
        "addgroup load m %d %d 1 burst_sender self 9 %d 64 512 %d %d",
        g * per_group + 1, (g + 1) * per_group, kCount, kEvery,
        gaps_us[static_cast<std::size_t>(g)]));
    if (summary_count(out, "processes created") !=
        static_cast<std::uint64_t>(per_group)) {
      c.fail_last();
    }
  }
  const std::string reply =
      c.run_job(world, "startjob load", &it.run_s, &it.sim_us);
  it.records = counter(world.obs(), "kernel.meter_events");
  res.check(count_substr(reply, "terminated: reason: normal") == kMachines,
            "cluster: not every sender finished normally");
  (void)c.command("removejob load", "removed");

  if (metered) {
    const std::uint64_t expect = static_cast<std::uint64_t>(kMachines) *
                                 ((kCount + kEvery - 1) / kEvery);
    res.check(it.records == static_cast<std::uint64_t>(kMachines) * kCount,
              "cluster: senders emitted " + std::to_string(it.records) +
                  " records");
    res.check(counter(world.obs(), "filter.accepted") == expect,
              "cluster: the hub filter accepted " +
                  std::to_string(counter(world.obs(), "filter.accepted")) +
                  " records, expected " + std::to_string(expect));
    const std::int64_t t_rep = wall_ns();
    (void)c.command("getlog f1 cluster.trace");
    const auto text =
        world.machine_by_name("hub")->fs.read_text("cluster.trace");
    if (!text) c.fail_last();
    it.report_s = seconds_since(t_rep);
    const Analysed a = analyse(text ? *text : std::string(), it, res);
    res.check(a.events == expect, "cluster: retrieved trace holds " +
                                      std::to_string(a.events) + " records");

    // ---- waves of process lifecycles ----
    const std::uint64_t want =
        static_cast<std::uint64_t>(kMachines) * kPerMachine;
    const std::int64_t t_life = wall_ns();
    for (int w = 0; w < kWaves; ++w) {
      const std::string job = util::strprintf("w%d", w);
      (void)c.command("newjob " + job + " f1");
      std::string out = c.command(util::strprintf(
          "addgroup %s m 1 %d %d waiter", job.c_str(), kMachines, kPerMachine));
      if (summary_count(out, "processes created") != want) c.fail_last();
      out = c.command("startjob " + job);
      if (summary_count(out, "processes started.") != want) c.fail_last();
      out = c.command("stopjob " + job);
      if (summary_count(out, "processes stopped.") != want) c.fail_last();
      out = c.command("removejob " + job);
      if (count_substr(out, "' removed") != want) c.fail_last();
    }
    it.lifecycle_s = seconds_since(t_life);
    it.procs = want * kWaves;
  }
  close_pass(site, t_pass, local, cmds, it, res);
  return it;
}

}  // namespace

WorkloadRun run_cluster(const Options& opt, Result& res) {
  std::mt19937_64 rng(opt.seed);
  std::vector<int> gaps_us;
  for (int g = 0; g < kGroups; ++g) {
    gaps_us.push_back(280 + static_cast<int>(rng() % 41));  // 280..320 us
  }
  return run_passes(opt, res,
                    [&](std::vector<CommandSample>& cmds, bool metered, bool) {
                      return run_pass(gaps_us, cmds, metered, res);
                    });
}

}  // namespace dpm::perfbench
