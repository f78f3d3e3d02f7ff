// Wait channels: the kernel's sleep/wakeup primitive.
//
// Waiters re-check their condition after every wakeup (wakeups may be
// spurious — a task can appear on several channels at once), mirroring the
// classic UNIX sleep/wakeup discipline.
#pragma once

#include <algorithm>
#include <vector>

#include "sim/executive.h"

namespace dpm::kernel {

struct WaitChannel {
  std::vector<sim::TaskId> waiters;

  /// Registers `id` once: a task that parks again before the channel wakes
  /// (a select re-arming every socket it watches) keeps its first place,
  /// which is where wake_all would have made it runnable anyway.
  void add(sim::TaskId id) {
    if (std::find(waiters.begin(), waiters.end(), id) == waiters.end()) {
      waiters.push_back(id);
    }
  }

  void wake_all(sim::Executive& exec) {
    // Swap out first: a woken task may immediately re-register.
    std::vector<sim::TaskId> ids;
    ids.swap(waiters);
    for (sim::TaskId id : ids) exec.make_runnable(id);
  }
};

}  // namespace dpm::kernel
