#include "des/process.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <system_error>
#include <utility>

#if !defined(__x86_64__)
#error "des::Process fibers switch stacks in x86-64 assembly: x86-64 only"
#endif

// Sanitizer fiber annotations: compiled in only when the matching sanitizer
// is on (clang spells the test __has_feature, gcc __SANITIZE_*__).
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PEVPM_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define PEVPM_FIBER_TSAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) && !defined(PEVPM_FIBER_ASAN)
#define PEVPM_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__) && !defined(PEVPM_FIBER_TSAN)
#define PEVPM_FIBER_TSAN 1
#endif

#ifdef PEVPM_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef PEVPM_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

// pevpm_fiber_switch(save_sp, load_sp): saves the callee-saved registers
// of the x86-64 SysV ABI (rbp, rbx, r12-r15, the MXCSR and the x87 control
// word) on the current stack, stores rsp in *save_sp, loads load_sp and
// restores the same set from there. Everything else is caller-saved, so
// the call itself tells the compiler what the switch clobbers. The signal
// mask is left alone, so a switch makes no syscall.
//
// pevpm_fiber_start: where a new fiber's first switch returns to. Its
// initial frame (Fiber::Frame) leaves the entry function in r12 and its
// argument in rbx; rsp is 16-byte aligned here, as the call needs. The
// CFI marks it the outermost frame for unwinders and debuggers.
asm(R"(
  .text
  .globl pevpm_fiber_switch
  .hidden pevpm_fiber_switch
  .type pevpm_fiber_switch, @function
  .p2align 4
pevpm_fiber_switch:
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
  .size pevpm_fiber_switch, .-pevpm_fiber_switch

  .globl pevpm_fiber_start
  .hidden pevpm_fiber_start
  .type pevpm_fiber_start, @function
  .p2align 4
pevpm_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %rbx, %rdi
  call *%r12
  ud2
  .cfi_endproc
  .size pevpm_fiber_start, .-pevpm_fiber_start
)");

extern "C" {
void pevpm_fiber_switch(void** save_sp, void* load_sp);
void pevpm_fiber_start();
}

namespace des {

/// One process's stack and saved stack pointers. enter() runs on the
/// caller's stack and returns when the fiber calls leave() or exit();
/// leave() returns when the next enter() comes. Every enter() comes from
/// the thread that runs the owning engine, never two at once.
/// The ASan caller-stack bounds are still taken afresh at every switch,
/// so a later run() may come from another thread.
class Process::Fiber {
 public:
  explicit Fiber(Process* owner);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Caller -> fiber.
  void enter();
  /// Fiber -> caller.
  void leave();
  /// First call on the fiber: completes the enter() that started it.
  void started();
  /// Last switch off the fiber; it never runs again.
  [[noreturn]] void exit();

 private:
  /// What pevpm_fiber_switch pops, lowest address first: the frame a new
  /// fiber's first enter() loads. Its return address is pevpm_fiber_start,
  /// which calls r12(rbx), i.e. entry(owner).
  struct Frame {
    std::uint32_t mxcsr = 0;
    std::uint16_t fpu_control = 0;
    std::uint16_t unused = 0;
    void* r15 = nullptr;
    void* r14 = nullptr;
    void* r13 = nullptr;
    void (*r12)(Process*) = nullptr;
    Process* rbx = nullptr;
    void* rbp = nullptr;  ///< null ends frame-pointer walks here
    void (*ret)() = nullptr;
  };
  // Eight bytes of control words, six registers and the return address.
  // The frame ends at the page-aligned stack top, so once the switch's ret
  // pops it rsp is 16-byte aligned, as pevpm_fiber_start's call requires.
  static_assert(sizeof(Frame) == 64);

  static void entry(Process* owner) { owner->fiber_main(); }

  [[nodiscard]] void* stack_bottom() const noexcept {
    return static_cast<std::byte*>(mapping_) + (mapping_bytes_ - kStackBytes);
  }

  void* mapping_ = nullptr;  ///< guard page, then the stack
  std::size_t mapping_bytes_ = 0;
  void* sp_ = nullptr;         ///< the fiber's rsp while it is switched out
  void* caller_sp_ = nullptr;  ///< the caller's rsp while the fiber runs
#ifdef PEVPM_FIBER_ASAN
  const void* caller_bottom_ = nullptr;
  std::size_t caller_size_ = 0;
#endif
#ifdef PEVPM_FIBER_TSAN
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
#endif
};

Process::Fiber::Fiber(Process* owner) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  mapping_bytes_ = page + kStackBytes;
  const int prot = PROT_READ | PROT_WRITE;
  const int flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK;
  mapping_ = mmap(nullptr, mapping_bytes_, prot, flags, -1, 0);
  // NOLINTNEXTLINE(performance-no-int-to-ptr): MAP_FAILED is libc's (void*)-1
  if (mapping_ == MAP_FAILED) {
    throw std::system_error{errno, std::generic_category(),
                            "des::Process: fiber stack mmap"};
  }
  if (mprotect(mapping_, page, PROT_NONE) != 0) {
    const int err = errno;
    munmap(mapping_, mapping_bytes_);
    throw std::system_error{err, std::generic_category(),
                            "des::Process: fiber setup"};
  }
  std::byte* const top = static_cast<std::byte*>(mapping_) + mapping_bytes_;
  auto* frame = new (top - sizeof(Frame)) Frame{};
  // The fiber starts with the constructing thread's floating-point control
  // state (rounding mode, exception masks, flush-to-zero).
  asm("stmxcsr %0" : "=m"(frame->mxcsr));
  asm("fnstcw %0" : "=m"(frame->fpu_control));
  frame->r12 = &entry;
  frame->rbx = owner;
  frame->ret = &pevpm_fiber_start;
  sp_ = frame;
#ifdef PEVPM_FIBER_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Process::Fiber::~Fiber() {
#ifdef PEVPM_FIBER_TSAN
  __tsan_destroy_fiber(tsan_fiber_);
#endif
#ifdef PEVPM_FIBER_ASAN
  // The final frames left their redzones poisoned; a later mapping at the
  // same address must not inherit them.
  __asan_unpoison_memory_region(mapping_, mapping_bytes_);
#endif
  munmap(mapping_, mapping_bytes_);
}

void Process::Fiber::enter() {
#ifdef PEVPM_FIBER_TSAN
  tsan_caller_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#ifdef PEVPM_FIBER_ASAN
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, stack_bottom(), kStackBytes);
#endif
  pevpm_fiber_switch(&caller_sp_, sp_);
#ifdef PEVPM_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

void Process::Fiber::leave() {
#ifdef PEVPM_FIBER_TSAN
  __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
#ifdef PEVPM_FIBER_ASAN
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, caller_bottom_, caller_size_);
#endif
  pevpm_fiber_switch(&sp_, caller_sp_);
#ifdef PEVPM_FIBER_ASAN
  // Record the stack of whichever enter() resumed us.
  __sanitizer_finish_switch_fiber(fake_stack, &caller_bottom_, &caller_size_);
#endif
}

void Process::Fiber::started() {
#ifdef PEVPM_FIBER_ASAN
  __sanitizer_finish_switch_fiber(nullptr, &caller_bottom_, &caller_size_);
#endif
}

void Process::Fiber::exit() {
#ifdef PEVPM_FIBER_TSAN
  __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
#ifdef PEVPM_FIBER_ASAN
  // A null save slot tells ASan this fiber's fake stack can go.
  __sanitizer_start_switch_fiber(nullptr, caller_bottom_, caller_size_);
#endif
  pevpm_fiber_switch(&sp_, caller_sp_);
  std::abort();  // nothing switches back to a finished fiber
}

Process::Process(Engine& engine, std::string name, std::function<void()> body,
                 SimTime start_at)
    : engine_{engine},
      name_{std::move(name)},
      body_{std::move(body)},
      fiber_{std::make_unique<Fiber>(this)} {
  engine_.schedule_at(start_at, [this] {
    if (!finished_) resume();
  });
}

Process::~Process() {
  if (!finished_) kill();
}

void Process::fiber_main() {
  fiber_->started();
  if (!killed_) {
    try {
      body_();
    } catch (const Killed&) {
      // Normal forced-unwind path.
    } catch (...) {
      failure_ = std::current_exception();
    }
  }
  finished_ = true;
  fiber_->exit();
}

void Process::resume() {
  ++engine_.resumes_;
  fiber_->enter();
}

void Process::yield() {
  fiber_->leave();
  if (killed_) throw Killed{};
}

void Process::sleep_once() {
  blocked_ = true;
  yield();
  blocked_ = false;
  ++sleep_gen_;
}

void Process::schedule_wake(std::uint64_t gen) {
  engine_.schedule_at(engine_.now(), [this, gen] {
    if (blocked_ && sleep_gen_ == gen && !finished_) resume();
  });
}

void Process::delay(Duration dt) {
  const SimTime until = engine_.now() + dt;
  while (engine_.now() < until) {
    const Engine::EventId id = engine_.schedule_at(
        until, [this, gen = sleep_gen_] {
          if (blocked_ && sleep_gen_ == gen && !finished_) resume();
        });
    sleep_once();
    engine_.cancel(id);
  }
}

void Process::park() {
  while (!permit_) sleep_once();
  permit_ = false;
}

bool Process::park_until(SimTime deadline) {
  while (!permit_ && engine_.now() < deadline) {
    const Engine::EventId id = engine_.schedule_at(
        deadline, [this, gen = sleep_gen_] {
          if (blocked_ && sleep_gen_ == gen && !finished_) resume();
        });
    sleep_once();
    engine_.cancel(id);
  }
  if (permit_) {
    permit_ = false;
    return true;
  }
  return false;
}

void Process::unpark() {
  permit_ = true;
  if (blocked_) schedule_wake(sleep_gen_);
}

void Process::kill() {
  if (finished_) return;
  killed_ = true;
  // Switch to the fiber so it unwinds on its own stack. If the body never
  // ran, fiber_main notices killed_ and finishes without running it.
  resume();
}

void Process::rethrow_if_failed() {
  if (failure_) std::rethrow_exception(failure_);
}

}  // namespace des
