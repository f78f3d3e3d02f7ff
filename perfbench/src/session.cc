// session: the paper's own use case, driven through the controller.
//
// A 16-node token ring (ring_node on m1..m16, nodes placed on machines by
// a seeded permutation) is metered with every flag and the keep-all
// templates into a filter on the hub, so every record crosses a remote
// edge. The job runs to completion, is removed, its log is retrieved with
// getlog and analysed offline (read_trace, full_report). An unmetered
// twin of the same job gives the perturbation ratio.
#include <algorithm>
#include <random>

#include "util/strings.h"
#include "workloads.h"

namespace dpm::perfbench {
namespace {

constexpr int kNodes = 16;
constexpr int kRounds = 2000;
constexpr int kBasePort = 7000;

/// `hosts[i]` is the machine of ring node i.
Pass run_pass(const std::vector<std::string>& hosts,
              std::vector<CommandSample>& cmds, bool metered, Result& res) {
  Pass it;
  const std::int64_t t_pass = wall_ns();
  std::vector<CommandSample> local;
  Site site;
  const std::int64_t t_setup = wall_ns();
  {
    Scope span(Layer::setup, "setup.world");
    std::vector<std::string> machines = {"hub"};
    for (int i = 1; i <= kNodes; ++i) {
      machines.push_back(util::strprintf("m%d", i));
    }
    site = open_site(machines);
    Console(*site.session, &local).command("filter f1 hub", "created");
  }
  it.setup_s = seconds_since(t_setup);

  kernel::World& world = *site.world;
  Console c(*site.session, &local);
  const std::int64_t t_life = wall_ns();
  (void)c.command("newjob ring f1");
  std::string all_hosts;
  for (const std::string& h : hosts) all_hosts += " " + h;
  for (int i = 0; i < kNodes; ++i) {
    (void)c.command(
        util::strprintf("addprocess ring %s ring_node %d %d %d %d%s",
                        hosts[static_cast<std::size_t>(i)].c_str(), i, kNodes,
                        kRounds, kBasePort, all_hosts.c_str()),
        "created");
  }
  if (metered) {
    const std::string out = c.command("setflags ring all", "Flags set");
    res.check(count_substr(out, "Flags set") == kNodes,
              "session: setflags did not reach every process:\n" + out);
  }
  const std::string reply =
      c.run_job(world, "startjob ring", &it.run_s, &it.sim_us);
  it.records = counter(world.obs(), "kernel.meter_events");
  (void)c.command("removejob ring", "removed");
  it.lifecycle_s = seconds_since(t_life);
  it.procs = kNodes;
  res.check(count_substr(reply, "terminated: reason: normal") == kNodes,
            "session: not every ring node finished normally:\n" + reply);

  if (metered) {
    // Job end to finished report: retrieve the log, parse it, report.
    const std::int64_t t_rep = wall_ns();
    (void)c.command("getlog f1 ring.trace");
    const auto text = world.machine_by_name("hub")->fs.read_text("ring.trace");
    if (!text) c.fail_last();
    it.report_s = seconds_since(t_rep);
    const Analysed a = analyse(text ? *text : std::string(), it, res);
    res.check(a.events == it.records,
              "session: retrieved trace holds " + std::to_string(a.events) +
                  " records, the meters emitted " +
                  std::to_string(it.records));
    res.check(a.pairs > 0, "session: no message pairs in the trace");
  }
  close_pass(site, t_pass, local, cmds, it, res);
  return it;
}

}  // namespace

WorkloadRun run_session(const Options& opt, Result& res) {
  // The seed places ring nodes on machines.
  std::vector<std::string> hosts;
  for (int i = 1; i <= kNodes; ++i) hosts.push_back(util::strprintf("m%d", i));
  std::mt19937_64 rng(opt.seed);
  for (std::size_t i = hosts.size() - 1; i > 0; --i) {
    std::swap(hosts[i], hosts[rng() % (i + 1)]);
  }
  return run_passes(opt, res,
                    [&](std::vector<CommandSample>& cmds, bool metered, bool) {
                      return run_pass(hosts, cmds, metered, res);
                    });
}

}  // namespace dpm::perfbench
