#include "sim/task.h"

#include <sys/mman.h>

#include <cassert>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <system_error>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if !defined(__x86_64__)
#error "sim::Task's stack switch is written for x86-64 SysV only"
#endif

// dpm_fiber_switch(from_sp, to_sp): pushes the callee-saved registers of
// the running context, with MXCSR and the x87 control word (both
// callee-saved under the SysV ABI), stores the stack pointer to *from_sp,
// then loads to_sp and pops the context saved there.
//
// dpm_fiber_trampoline: where a fresh fiber's first switch "returns" to.
// Calls r13(r12), i.e. Task::fiber_main(task), which never returns. The
// undefined return address ends unwinding and backtraces at the fiber base.
extern "C" {
void dpm_fiber_switch(void** from_sp, void* to_sp);
void dpm_fiber_trampoline();
}

asm(R"(
  .text
  .p2align 4
  .globl dpm_fiber_switch
  .hidden dpm_fiber_switch
  .type dpm_fiber_switch, @function
dpm_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size dpm_fiber_switch, .-dpm_fiber_switch

  .p2align 4
  .globl dpm_fiber_trampoline
  .hidden dpm_fiber_trampoline
  .type dpm_fiber_trampoline, @function
dpm_fiber_trampoline:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  call *%r13
  ud2
  .cfi_endproc
  .size dpm_fiber_trampoline, .-dpm_fiber_trampoline
)");

namespace dpm::sim {

namespace {

// Usable bytes of every fiber stack, sized from a measured high-water
// mark (DESIGN.md §5). A PROT_NONE guard page sits below each.
constexpr std::size_t kStackBytes = 512 * 1024;
constexpr std::size_t kGuardBytes = 4096;

// Free stacks, linked through their lowest word (a stack in the pool runs
// nothing, so the word is free). Per thread: a stack is only ever resumed
// on the thread whose executive runs it.
thread_local std::byte* t_free_stacks = nullptr;

std::byte* acquire_stack() {
  if (std::byte* stack = t_free_stacks) {
    std::memcpy(&t_free_stacks, stack, sizeof t_free_stacks);
#if defined(__SANITIZE_ADDRESS__)
    // Frames the previous fiber never returned from left redzones behind.
    ASAN_UNPOISON_MEMORY_REGION(stack, kStackBytes);
#endif
    return stack;
  }
  // Two VMAs per stack: the PROT_NONE guard page and the usable stack.
  void* base = mmap(nullptr, kGuardBytes + kStackBytes, PROT_NONE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1, 0);
  if (base == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(), "fiber stack");
  }
  std::byte* stack = static_cast<std::byte*>(base) + kGuardBytes;
  if (mprotect(stack, kStackBytes, PROT_READ | PROT_WRITE) != 0) {
    const int err = errno;
    munmap(base, kGuardBytes + kStackBytes);
    throw std::system_error(err, std::generic_category(), "fiber stack");
  }
  return stack;
}

void release_stack(std::byte* stack) {
  std::memcpy(stack, &t_free_stacks, sizeof t_free_stacks);
  t_free_stacks = stack;
}

// A fresh fiber starts with the ABI's initial floating-point control state
// (round to nearest, all exceptions masked), whatever its creator had set.
constexpr std::uint64_t kInitialFpControl =
    0x1F80u | (std::uint64_t{0x037F} << 32);  // MXCSR | x87 control word << 32

}  // namespace

Task::Task(std::string name) : name_(std::move(name)) {}

Task::~Task() {
  // The executive is responsible for aborting and draining tasks before
  // destruction; this is a backstop for abnormal teardown.
  if (started_ && !finished_) {
    request_abort();
    while (!finished_) resume();
  }
}

void Task::start(Body body) {
  assert(!started_);
  started_ = true;
  body_ = std::move(body);
}

void Task::resume() {
  assert(started_ && !finished_);
  if (!stack_) {
    if (abort_) {  // aborted before it ever ran: the body is skipped
      finished_ = true;
      return;
    }
    stack_ = acquire_stack();
    // The frame dpm_fiber_switch pops: FP control, r15, r14, r13, r12, rbx,
    // rbp, return address. It sits two words below the top, so the
    // trampoline runs with a 16-byte-aligned stack pointer.
    void** frame = reinterpret_cast<void**>(stack_ + kStackBytes) - 10;
    std::memset(frame, 0, 10 * sizeof(void*));
    std::memcpy(&frame[0], &kInitialFpControl, sizeof kInitialFpControl);
    frame[3] = reinterpret_cast<void*>(&Task::fiber_main);
    frame[4] = this;
    frame[7] = reinterpret_cast<void*>(&dpm_fiber_trampoline);
    sp_ = frame;
  }
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, stack_, kStackBytes);
#endif
  dpm_fiber_switch(&resumer_sp_, sp_);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  if (finished_) {
    release_stack(stack_);
    stack_ = nullptr;
  }
}

void Task::park() {
  switch_out();
  if (abort_) throw TaskAborted{};
}

void Task::request_abort() { abort_ = true; }

void Task::switch_out() {
#if defined(__SANITIZE_ADDRESS__)
  // A finished fiber never comes back: a null save slot tells ASan to
  // drop its fake stack.
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(finished_ ? nullptr : &fake_stack,
                                 resumer_stack_bottom_, resumer_stack_size_);
#endif
  dpm_fiber_switch(&sp_, resumer_sp_);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack, &resumer_stack_bottom_,
                                  &resumer_stack_size_);
#endif
}

void Task::fiber_main(Task* task) noexcept {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(nullptr, &task->resumer_stack_bottom_,
                                  &task->resumer_stack_size_);
#endif
  if (!task->abort_) {
    try {
      task->body_();
    } catch (const TaskAborted&) {
      // Normal forced-unwind path.
    }
  }
  task->finished_ = true;
  task->switch_out();  // never resumed again
}

}  // namespace dpm::sim
