#include "sim/executive.h"

#include <gtest/gtest.h>
#include <xmmintrin.h>

#include <cfenv>
#include <climits>
#include <fstream>
#include <string>
#include <vector>

namespace dpm::sim {
namespace {

using util::TimePoint;
using util::usec;

// Parks `depth` frames below the caller with a guard in every frame, so an
// unwind has to walk the whole parked stack. Guards log their depth as
// they are destroyed (innermost first).
void park_nested(Executive& exec, std::vector<int>& destroyed, int depth) {
  struct Guard {
    std::vector<int>* out;
    int depth;
    ~Guard() { out->push_back(depth); }
  } guard{&destroyed, depth};
  if (depth == 0) {
    exec.park_current();
  } else {
    park_nested(exec, destroyed, depth - 1);
  }
}

const std::vector<int> kUnwoundInnermostFirst{0, 1, 2, 3};

std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

// Recurses without bound (the limit is never reached) through frames the
// optimizer cannot fold into a loop.
int recurse(const volatile int* limit, int depth) {
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  if (depth >= *limit) return frame[0];
  return recurse(limit, depth + 1) + frame[0];
}

TEST(Executive, EventsAdvanceTime) {
  Executive exec;
  std::vector<std::int64_t> at;
  exec.schedule_after(usec(10), [&] { at.push_back(util::count_us(exec.now())); });
  exec.schedule_after(usec(5), [&] { at.push_back(util::count_us(exec.now())); });
  exec.run();
  EXPECT_EQ(at, (std::vector<std::int64_t>{5, 10}));
  EXPECT_EQ(util::count_us(exec.now()), 10);
}

TEST(Executive, TaskRunsAndFinishes) {
  Executive exec;
  bool ran = false;
  const TaskId id = exec.spawn("t", [&] { ran = true; });
  exec.run();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(exec.task_finished(id));
  EXPECT_EQ(exec.live_tasks(), 0u);
}

TEST(Executive, SleepAdvancesSimTime) {
  Executive exec;
  std::int64_t woke_at = -1;
  exec.spawn("sleeper", [&] {
    exec.sleep_for(usec(250));
    woke_at = util::count_us(exec.now());
  });
  exec.run();
  EXPECT_EQ(woke_at, 250);
}

TEST(Executive, ParkAndWake) {
  Executive exec;
  int stage = 0;
  TaskId waiter = 0;
  waiter = exec.spawn("waiter", [&] {
    stage = 1;
    exec.park_current();
    stage = 2;
  });
  exec.run();
  EXPECT_EQ(stage, 1);  // parked
  exec.make_runnable(waiter);
  exec.run();
  EXPECT_EQ(stage, 2);
}

TEST(Executive, WakePendingWhileRunningIsNotLost) {
  Executive exec;
  int stage = 0;
  TaskId id = exec.spawn("self", [&] {
    // A wake arrives while we are running; the next park must consume it
    // instead of blocking.
    exec.make_runnable(exec.current_task());
    exec.park_current();
    stage = 1;
  });
  exec.run();
  EXPECT_EQ(stage, 1);
  EXPECT_TRUE(exec.task_finished(id));
}

TEST(Executive, TwoTasksInterleaveDeterministically) {
  Executive exec;
  std::vector<int> order;
  exec.spawn("a", [&] {
    order.push_back(1);
    exec.sleep_for(usec(10));
    order.push_back(3);
  });
  exec.spawn("b", [&] {
    order.push_back(2);
    exec.sleep_for(usec(5));
    order.push_back(4);
  });
  exec.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
}

TEST(Executive, AbortUnwindsParkedTask) {
  Executive exec;
  std::vector<int> destroyed;
  const TaskId id = exec.spawn("victim", [&] {
    park_nested(exec, destroyed, 3);  // never woken normally
  });
  exec.run();
  EXPECT_TRUE(destroyed.empty());
  exec.abort_task(id);
  exec.run();
  EXPECT_EQ(destroyed, kUnwoundInnermostFirst);
  EXPECT_TRUE(exec.task_finished(id));
}

TEST(Executive, RunUntilStopsAtBoundary) {
  Executive exec;
  int fired = 0;
  exec.schedule_after(usec(10), [&] { ++fired; });
  exec.schedule_after(usec(20), [&] { ++fired; });
  exec.run_until(TimePoint{} + usec(15));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(util::count_us(exec.now()), 15);
  exec.run();
  EXPECT_EQ(fired, 2);
}

TEST(Executive, DestructorAbortsLiveTasks) {
  std::vector<int> destroyed;
  {
    Executive exec;
    exec.spawn("stuck", [&exec, &destroyed] {
      park_nested(exec, destroyed, 3);
    });
    exec.run();
    EXPECT_TRUE(destroyed.empty());
  }
  EXPECT_EQ(destroyed, kUnwoundInnermostFirst);
}

TEST(Executive, MakeRunnableIdempotent) {
  Executive exec;
  int wakes = 0;
  TaskId id = exec.spawn("w", [&] {
    exec.park_current();
    ++wakes;
  });
  exec.run();
  exec.make_runnable(id);
  exec.make_runnable(id);  // double wake: only one resume happens
  exec.run();
  EXPECT_EQ(wakes, 1);
  EXPECT_TRUE(exec.task_finished(id));
}

TEST(Executive, ManyTasksDrainCleanly) {
  Executive exec;
  int done = 0;
  for (int i = 0; i < 100; ++i) {
    exec.spawn("n", [&exec, &done, i] {
      exec.sleep_for(usec(i % 7));
      ++done;
    });
  }
  exec.run();
  EXPECT_EQ(done, 100);
}

// The controller's `replay whatif` builds and runs a whole second world
// from inside its own process body.
TEST(Executive, TaskRunsANestedExecutive) {
  Executive outer;
  std::vector<std::string> log;
  const TaskId host = outer.spawn("host", [&] {
    log.push_back("host");
    {
      Executive inner;
      inner.spawn("sleeper", [&] {
        inner.sleep_for(usec(5));
        log.push_back("sleeper woke");
      });
      const TaskId stuck = inner.spawn("stuck", [&] {
        log.push_back("stuck parks");
        inner.park_current();
        log.push_back("unreachable");
      });
      inner.run();
      EXPECT_EQ(util::count_us(inner.now()), 5);
      EXPECT_FALSE(inner.task_finished(stuck));
    }  // tears down `stuck` from inside this task
    outer.sleep_for(usec(10));
    log.push_back("host resumed");
  });
  outer.run();
  EXPECT_TRUE(outer.task_finished(host));
  EXPECT_EQ(util::count_us(outer.now()), 10);
  EXPECT_EQ(log, (std::vector<std::string>{"host", "stuck parks",
                                           "sleeper woke", "host resumed"}));
}

// Finished tasks stay in the executive's table, but their stacks go back
// to the pool as each body ends: mappings must not grow with task count.
TEST(Executive, FinishedTasksReleaseTheirStacks) {
  Executive exec;
  exec.spawn("warmup", [] {});
  exec.run();
  const std::size_t before = mapping_count();
  int done = 0;
  for (int i = 0; i < 20000; ++i) {
    exec.spawn("short", [&] {
      exec.sleep_for(usec(1));
      ++done;
    });
    exec.run();
  }
  EXPECT_EQ(done, 20000);
  EXPECT_EQ(exec.live_tasks(), 0u);
  EXPECT_LE(mapping_count(), before + 32);
}

// MXCSR and the x87 control word are per task: a rounding mode one task
// sets is neither seen by the executive nor by another task, and is still
// in force when the task that set it resumes.
TEST(Executive, FloatingPointControlStaysWithItsTask) {
  constexpr unsigned kSseRounding = 0x6000;  // MXCSR RC field
  constexpr unsigned kSseRoundUp = 0x4000;
  Executive exec;
  int other_round = -1;
  unsigned other_sse = ~0u;
  int own_round = -1;
  unsigned own_sse = 0;
  const TaskId setter = exec.spawn("setter", [&] {
    std::fesetround(FE_UPWARD);
    exec.park_current();
    own_round = std::fegetround();
    own_sse = _mm_getcsr() & kSseRounding;
  });
  exec.spawn("other", [&] {
    other_round = std::fegetround();
    other_sse = _mm_getcsr() & kSseRounding;
  });
  exec.run();
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(_mm_getcsr() & kSseRounding, 0u);
  EXPECT_EQ(other_round, FE_TONEAREST);
  EXPECT_EQ(other_sse, 0u);
  exec.make_runnable(setter);
  exec.run();
  EXPECT_EQ(own_round, FE_UPWARD);
  EXPECT_EQ(own_sse, kSseRoundUp);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(_mm_getcsr() & kSseRounding, 0u);
}

TEST(ExecutiveDeathTest, StackOverflowFaultsOnGuardPage) {
  EXPECT_DEATH(
      {
        Executive exec;
        exec.spawn("deep", [] {
          const volatile int limit = INT_MAX;
          recurse(&limit, 0);
        });
        exec.run();
      },
      "");
}

}  // namespace
}  // namespace dpm::sim
