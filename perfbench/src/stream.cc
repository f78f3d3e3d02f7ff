// stream: the meter -> filter hot path on its own.
//
// One producer process hands a seeded mix of event bodies to
// kernel::meter_emit in batches, doing a fixed slice of application work
// between batches. A sink process on the same machine (a local meter
// edge) reads the meter connection with Sys::recv, selects with a
// FilterEngine whose rules keep roughly one record in five, and streams
// the accepted log text into a live analysis (TraceTailer -> LiveAnalysis)
// the way dpmtop consumes it. WorldConfig stays at its shipped defaults.
// The controller creates, starts and removes the two processes.
#include <memory>
#include <random>

#include "analysis/live/aggregator.h"
#include "filter/filter_program.h"
#include "filter/trace.h"
#include "kernel/meter_hooks.h"
#include "kernel/syscalls.h"
#include "meter/meterflags.h"
#include "workloads.h"

namespace dpm::perfbench {
namespace {

constexpr std::size_t kRecords = 600000;  // event bodies per pass
constexpr std::size_t kBatch = 256;       // bodies between work slices
constexpr std::int64_t kWorkUs = 10000;   // application work per batch
constexpr net::Port kPort = 4500;
constexpr std::size_t kMaxRecordBytes = 96;  // header + largest body
constexpr std::size_t kMaxLineBytes = 160;   // longest rendered log line

/// Keeps the joined channel between pids 1 and 2 whole (so live pairing
/// has work), plus long sends, named receives and self-named accepts.
constexpr const char* kRules =
    "pid=1, pc=#*\n"
    "pid=2\n"
    "type=1, msgLength>1400, #destName=*\n"
    "type=2, sourceName=228320140\n"
    "type=8, sockName=peerName\n";

/// A seeded body mix. The first two bodies join a stream channel (pid 1
/// connects, pid 2 accepts); about one draw in ten then routes a
/// send/receive pair over it. The rest are single events of other pids
/// with seeded kinds and field values.
std::vector<meter::MeterBody> make_bodies(std::uint64_t seed, std::size_t n) {
  using namespace meter;
  std::mt19937_64 rng(seed);
  auto pick = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return lo + rng() % (hi - lo + 1);
  };
  std::vector<MeterBody> out;
  out.reserve(n);
  out.emplace_back(MeterConnect{1, 0, 5, "111", "222"});
  out.emplace_back(MeterAccept{2, 0, 6, 7, "222", "111"});
  while (out.size() < n) {
    const auto pid = static_cast<Pid>(pick(10, 17));
    const auto pc = static_cast<std::uint32_t>(pick(1, 64));
    const auto sock = static_cast<SocketId>(pick(3, 9));
    const auto len = static_cast<std::uint32_t>(pick(16, 1500));
    const std::uint64_t r = pick(0, 99);
    const char* name = pick(0, 7) == 0 ? "228320140" : "";
    if (r < 10) {
      out.emplace_back(MeterSend{1, pc, 5, len, ""});
      if (out.size() < n) out.emplace_back(MeterRecv{2, pc, 7, len, ""});
    } else if (r < 40) {
      out.emplace_back(MeterSend{pid, pc, sock, len, name});
    } else if (r < 60) {
      out.emplace_back(MeterRecv{pid, pc, sock, len, name});
    } else if (r < 75) {
      out.emplace_back(MeterRecvCall{pid, pc, sock});
    } else if (r < 82) {
      out.emplace_back(MeterSockCrt{pid, pc, sock, 2,
                                    static_cast<std::uint32_t>(pick(1, 2)), 0});
    } else if (r < 87) {
      out.emplace_back(MeterDup{pid, pc, sock, sock + 10});
    } else if (r < 91) {
      out.emplace_back(MeterDestSock{pid, pc, sock});
    } else if (r < 94) {
      out.emplace_back(MeterFork{pid, pc, static_cast<Pid>(pick(100, 2000))});
    } else if (r < 97) {
      const bool self_named = pick(0, 3) == 0;
      out.emplace_back(MeterAccept{pid, pc, 4, sock + 100, "131073",
                                   self_named ? "131073" : "196612"});
    } else {
      out.emplace_back(MeterConnect{pid, pc, 5, "196612", "131073"});
    }
  }
  return out;
}

/// What the sink fills; owned by the pass, outliving the world.
struct SinkState {
  std::unique_ptr<filter::FilterEngine> engine;
  std::unique_ptr<analysis::live::LiveAnalysis> live;
  std::unique_ptr<analysis::live::TraceTailer> tailer;
  std::string log;
  bool capture = false;  // keep the raw meter bytes for the oracle
  util::Bytes raw;
};

kernel::ProcessMain sink_main(std::shared_ptr<SinkState> st) {
  return [st](kernel::Sys& sys) {
    auto ls = sys.socket(kernel::SockDomain::internet,
                         kernel::SockType::stream);
    if (!ls || !sys.bind_port(*ls, kPort) || !sys.listen(*ls, 4)) sys.exit(1);
    auto conn = sys.accept(*ls);
    if (!conn) sys.exit(1);
    for (;;) {
      const std::uint64_t g = tracer().on() ? tracer().new_group() : 0;
      util::SysResult<util::Bytes> data = util::Bytes{};
      {
        Scope span(Layer::kernel, "kernel.recv", g);
        data = sys.recv(*conn, 65536);
      }
      if (!data.ok() || data->empty()) break;
      if (st->capture) {
        st->raw.insert(st->raw.end(), data->begin(), data->end());
      }
      const std::size_t before = st->log.size();
      {
        Scope span(Layer::filter, "filter.feed", g);
        st->engine->feed(1, *data, st->log);
      }
      {
        Scope span(Layer::analysis, "analysis.live", g);
        st->tailer->feed(std::string_view(st->log).substr(before));
      }
    }
    st->engine->end_connection(1);
    st->tailer->finish();
    sys.exit(0);
  };
}

/// argv: <exe> <metered 0|1>. Connects to the sink, makes that connection
/// its meter socket (unless unmetered), then emits every body.
kernel::ProcessMain producer_main(
    std::shared_ptr<const std::vector<meter::MeterBody>> bodies,
    const std::vector<std::string>& argv) {
  const bool metered = argv.size() > 1 && argv[1] == "1";
  return [bodies, metered](kernel::Sys& sys) {
    auto addr = sys.resolve(sys.hostname(), kPort);
    auto fd = sys.socket(kernel::SockDomain::internet,
                         kernel::SockType::stream);
    if (!addr || !fd) sys.exit(1);
    // The sink may not be listening yet: retry like a real client would.
    int tries = 0;
    while (!sys.connect(*fd, *addr)) {
      if (++tries > 100) sys.exit(1);
      sys.sleep(util::msec(1));
    }
    if (metered) {
      (void)sys.setmeter(meter::SETMETER_SELF,
                         static_cast<std::int32_t>(meter::M_ALL), *fd);
    }
    (void)sys.close(*fd);
    kernel::World& world = sys.world();
    kernel::Process* self = world.find_process(sys.machine_id(), sys.getpid());
    const auto& b = *bodies;
    for (std::size_t i = 0; i < b.size(); i += kBatch) {
      {
        Scope span(Layer::meter, "meter.emit",
                   tracer().on() ? tracer().new_group() : 0);
        const std::size_t end = std::min(b.size(), i + kBatch);
        for (std::size_t j = i; j < end; ++j) {
          kernel::meter_emit(world, *self,
                             kernel::MeterEventDraft{meter::M_ALL, b[j]});
        }
      }
      sys.compute(util::usec(kWorkUs));
    }
    sys.exit(0);
  };
}

/// Oracle: the interpreted Templates over the records the sink received
/// (framed and decoded from its raw bytes) must select the identical log,
/// and the meter ledger must show every emitted record consumed.
void check_oracle(const SinkState& st, const filter::Templates& rules,
                  const kernel::MeterConservation& mc, Result& res) {
  const std::uint64_t lost = mc.dropped + mc.lost + mc.stranded + mc.malformed;
  res.check(mc.consumed == mc.emitted && lost == 0,
            "stream: meter ledger shows loss");
  const auto desc =
      *filter::Descriptions::parse(filter::default_descriptions_text());
  std::string oracle;
  oracle.reserve(st.log.size());
  std::size_t framed = 0;
  const util::Bytes& raw = st.raw;
  for (std::size_t pos = 0; pos + 4 <= raw.size();) {
    const std::uint32_t size = static_cast<std::uint32_t>(raw[pos]) |
                               static_cast<std::uint32_t>(raw[pos + 1]) << 8 |
                               static_cast<std::uint32_t>(raw[pos + 2]) << 16 |
                               static_cast<std::uint32_t>(raw[pos + 3]) << 24;
    if (size == 0 || pos + size > raw.size()) break;
    const auto rec = desc.decode(raw.data() + pos, size);
    pos += size;
    ++framed;
    if (!rec) continue;
    const auto d = rules.evaluate(*rec);
    if (d.accept) oracle += filter::trace_line(*rec, d.discard);
  }
  res.check(framed == mc.emitted, "stream: framed " + std::to_string(framed) +
                                       " records, emitted " +
                                       std::to_string(mc.emitted));
  res.check(oracle == st.log,
            "stream: filter log differs from the interpreted oracle");
}

Pass run_pass(
    const std::shared_ptr<const std::vector<meter::MeterBody>>& bodies,
    const filter::Templates& rules, std::vector<CommandSample>& cmds,
    bool metered, bool check, Result& res) {
  Pass it;
  const std::int64_t t_pass = wall_ns();
  auto st = std::make_shared<SinkState>();
  st->capture = check;
  // Reserve (untouched, so not resident) room for the whole pass: growth
  // by doubling would otherwise make peak RSS jump whenever a seed's log
  // happens to cross a power of two.
  st->log.reserve(kRecords * kMaxLineBytes);
  if (check) st->raw.reserve(kRecords * kMaxRecordBytes);

  std::vector<CommandSample> local;
  Site site;
  const std::int64_t t_setup = wall_ns();
  {
    Scope span(Layer::setup, "setup.world");
    site = open_site({"m1"}, [&](kernel::World& w) {
      w.programs().register_program(
          "pb_sink",
          [st](const std::vector<std::string>&) { return sink_main(st); });
      w.programs().register_program(
          "pb_producer", [bodies](const std::vector<std::string>& argv) {
            return producer_main(bodies, argv);
          });
      control::install_app(w, 1, "pb_sink", "pb_sink");
      control::install_app(w, 1, "pb_producer", "pb_producer");
    });
    st->engine = std::make_unique<filter::FilterEngine>(
        *filter::Descriptions::parse(filter::default_descriptions_text()),
        rules, filter::EvalPath::view, &site.world->obs());
    st->live = std::make_unique<analysis::live::LiveAnalysis>(
        analysis::live::LiveConfig{}, &site.world->obs());
    st->tailer = std::make_unique<analysis::live::TraceTailer>(*st->live);
    // A job needs a controller filter; the stream's records go to the
    // sink, so this one stays idle.
    Console(*site.session, &local).command("filter f1 m1", "created");
  }
  it.setup_s = seconds_since(t_setup);

  kernel::World& world = *site.world;
  Console c(*site.session, &local);
  const std::int64_t t_life = wall_ns();
  (void)c.command("newjob s f1");
  (void)c.command("addprocess s m1 pb_sink", "created");
  (void)c.command(std::string("addprocess s m1 pb_producer ") +
                      (metered ? "1" : "0"),
                  "created");
  const std::string reply =
      c.run_job(world, "startjob s", &it.run_s, &it.sim_us);
  it.records = counter(world.obs(), "kernel.meter_events");
  (void)c.command("removejob s", "removed");
  it.lifecycle_s = seconds_since(t_life);
  it.procs = 2;
  res.check(count_substr(reply, "terminated: reason: normal") == 2,
            "stream: a process did not finish normally:\n" + reply);

  if (metered) {
    // The report a user gets once the stream has ended.
    const Analysed a = analyse(st->log, it, res);
    if (check) {
      // The live pairing must agree with the batch ordering of the log.
      const auto ls = st->live->stats();
      res.check(ls.events == a.events,
                "stream: live analysis saw " + std::to_string(ls.events) +
                    " events, the log has " + std::to_string(a.events));
      res.check(ls.message_pairs == a.pairs && a.pairs > 0,
                "stream: live pairs " + std::to_string(ls.message_pairs) +
                    " != order_events pairs " + std::to_string(a.pairs));
      check_oracle(*st, rules, world.meter_conservation(), res);
    }
  }
  close_pass(site, t_pass, local, cmds, it, res);
  return it;
}

}  // namespace

WorkloadRun run_stream(const Options& opt, Result& res) {
  const auto bodies = std::make_shared<const std::vector<meter::MeterBody>>(
      make_bodies(opt.seed, kRecords));
  const filter::Templates rules = *filter::Templates::parse(kRules);
  WorkloadRun out = run_passes(
      opt, res,
      [&](std::vector<CommandSample>& cmds, bool metered, bool check) {
        return run_pass(bodies, rules, cmds, metered, check, res);
      });
  out.bench_emitted_per_pass = kRecords;
  return out;
}

}  // namespace dpm::perfbench
