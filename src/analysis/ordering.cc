#include "analysis/ordering.h"

#include <algorithm>
#include <unordered_map>

#include "analysis/live/pairing.h"

namespace dpm::analysis {

Ordering order_events(const Trace& trace) {
  return order_events(trace, ProcIndex(trace));
}

Ordering order_events(const Trace& trace, const ProcIndex& procs) {
  Ordering out;
  const std::size_t n = trace.events.size();
  out.events.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.events[i].index = i;

  // ---- Match sends to receives per directed channel ----
  // The channel semantics (k-th send with k-th receive, stream channels
  // keyed by the sending endpoint, datagram traffic by name ownership)
  // live in the incremental PairingCore shared with the streaming
  // aggregator — the batch path just feeds it the whole trace.
  live::PairingCore pairing;
  for (std::size_t i = 0; i < n; ++i) pairing.observe(trace.events[i], i);

  // Every event has at most two successors: the next event of its process
  // and, for a matched send, its receive.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> next_in_proc(n, kNone);
  std::vector<std::size_t> recv_of(n, kNone);
  std::vector<std::uint32_t> indeg(n, 0);

  for (const auto& p : pairing.take_pairs()) {
    out.events[p.recv].matched_send = p.send;
    recv_of[p.send] = p.recv;
    ++indeg[p.recv];
    ++out.message_pairs;
    const Event& se = trace.events[p.send];
    const Event& re = trace.events[p.recv];
    if (se.machine != re.machine) {
      ++out.cross_machine_pairs;
      if (re.cpu_time < se.cpu_time) {
        ++out.clock_anomalies;
        out.max_anomaly_us =
            std::max(out.max_anomaly_us, se.cpu_time - re.cpu_time);
      }
    }
  }

  // ---- Program order within each process ----
  std::vector<std::size_t> last_of(procs.keys.size(), kNone);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t& last = last_of[procs.slot[i]];
    if (last != kNone) {
      next_in_proc[last] = i;
      ++indeg[i];
    }
    last = i;
  }

  // ---- Lamport clocks by topological order (Kahn) ----
  std::vector<std::size_t> ready;  // FIFO: read from `head`, never popped
  ready.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.events[i].lamport = 1;
    if (indeg[i] == 0) ready.push_back(i);
  }
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const std::size_t i = ready[head];
    for (const std::size_t j : {next_in_proc[i], recv_of[i]}) {
      if (j == kNone) continue;
      out.events[j].lamport =
          std::max(out.events[j].lamport, out.events[i].lamport + 1);
      if (--indeg[j] == 0) ready.push_back(j);
    }
  }
  out.had_cycle = ready.size() != n;  // possible only from mis-matched pairs
  return out;
}

ClockAlignment estimate_clock_alignment(const Trace& trace,
                                        const Ordering& ordering) {
  return estimate_clock_alignment(trace, ordering, ProcIndex(trace));
}

ClockAlignment estimate_clock_alignment(const Trace& trace,
                                        const Ordering& ordering,
                                        const ProcIndex& procs) {
  ClockAlignment out;
  if (procs.keys.empty()) return out;

  // The machines present, ascending: the index's keys are in machine order.
  std::vector<std::uint16_t> machines;
  for (const ProcKey& k : procs.keys) {
    if (machines.empty() || machines.back() != k.machine) {
      machines.push_back(k.machine);
    }
  }

  // Minimum observed (recv - send) per directed machine pair.
  const auto pair_key = [](std::uint16_t from, std::uint16_t to) {
    return std::uint32_t{from} << 16 | to;
  };
  std::unordered_map<std::uint32_t, std::int64_t> min_delta;
  for (const OrderedEvent& oe : ordering.events) {
    if (!oe.matched_send) continue;
    const Event& recv = trace.events[oe.index];
    const Event& send = trace.events[*oe.matched_send];
    if (recv.machine == send.machine) continue;
    const std::int64_t delta = recv.cpu_time - send.cpu_time;
    const auto [it, fresh] =
        min_delta.try_emplace(pair_key(send.machine, recv.machine), delta);
    if (!fresh) it->second = std::min(it->second, delta);
  }

  // Pairwise offset estimates; BFS over the "has traffic" graph anchors
  // each component at its lowest machine id.
  auto pair_offset = [&](std::uint16_t a,
                         std::uint16_t b) -> std::optional<std::int64_t> {
    auto ab = min_delta.find(pair_key(a, b));
    auto ba = min_delta.find(pair_key(b, a));
    if (ab != min_delta.end() && ba != min_delta.end()) {
      return (ab->second - ba->second) / 2;  // offset_b - offset_a
    }
    if (ab != min_delta.end()) return ab->second;  // latency unknown: bound
    if (ba != min_delta.end()) return -ba->second;
    return std::nullopt;
  };

  out.by_machine.assign(machines.back() + 1u, 0);
  std::vector<char> done(out.by_machine.size(), 0);
  for (std::uint16_t root : machines) {
    if (done[root]) continue;
    done[root] = 1;
    std::vector<std::uint16_t> frontier{root};  // FIFO: read from `head`
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const std::uint16_t a = frontier[head];
      for (std::uint16_t b : machines) {
        if (done[b]) continue;
        auto off = pair_offset(a, b);
        if (!off) continue;
        out.by_machine[b] = out.by_machine[a] + *off;
        done[b] = 1;
        frontier.push_back(b);
      }
    }
  }
  for (std::uint16_t m : machines) {
    out.offset_us.emplace_hint(out.offset_us.end(), m, out.by_machine[m]);
  }
  return out;
}

}  // namespace dpm::analysis
