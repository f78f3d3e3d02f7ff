// Cooperative tasks: simulated processes as suspendable activities.
//
// Each task runs its body as a stackful fiber on the thread that resumes
// it (the executive's). Exactly one fiber or the executive is ever
// running: control is handed over explicitly through resume()/park(),
// with a hand-written stack switch. This gives natural blocking syscalls
// inside process bodies while keeping the simulation single-threaded, and
// therefore deterministic.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace dpm::sim {

/// Thrown inside a task body when the task is aborted (process killed while
/// blocked, or simulation teardown). Process bodies must let it propagate;
/// the task's entry frame catches it, so it never crosses a stack boundary.
struct TaskAborted {};

class Task {
 public:
  using Body = std::function<void()>;

  explicit Task(std::string name);
  ~Task();

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  /// Installs the body; the task stays suspended until the first resume().
  /// The stack is taken from the pool on first resume and returned to it
  /// as soon as the body finishes.
  void start(Body body);

  /// Executive side: runs the task until it parks or finishes.
  /// Precondition: started, not finished, not currently running.
  void resume();

  /// Task side: yields control back to the resumer; returns when resumed.
  /// Throws TaskAborted if an abort was requested.
  void park();

  /// Marks the task for abortion; the next park()/resume boundary throws
  /// TaskAborted inside the body. Safe to call multiple times.
  void request_abort();

  bool started() const { return started_; }
  bool finished() const { return finished_; }
  bool abort_requested() const { return abort_; }
  const std::string& name() const { return name_; }

 private:
  /// Entry frame of every fiber: runs the body, catching TaskAborted.
  static void fiber_main(Task* task) noexcept;

  /// Fiber side of resume()/park(): hands control back to the resumer.
  void switch_out();

  std::string name_;
  Body body_;
  std::byte* stack_ = nullptr;  // usable stack (guard page below); null
                                // before first resume and after finish
  void* sp_ = nullptr;          // fiber's saved stack pointer while parked
  void* resumer_sp_ = nullptr;  // resumer's saved stack pointer while running
#if defined(__SANITIZE_ADDRESS__)
  // The resumer's stack, reported by ASan on each switch into the fiber,
  // so switch_out() can tell ASan which stack it returns to.
  const void* resumer_stack_bottom_ = nullptr;
  std::size_t resumer_stack_size_ = 0;
#endif
  bool started_ = false;
  bool finished_ = false;
  bool abort_ = false;
};

}  // namespace dpm::sim
