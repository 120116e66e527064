#include "des/process.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdlib>
#include <system_error>
#include <utility>

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

namespace des {

/// One process's stack and saved contexts. enter() runs on the caller's
/// stack and returns when the fiber calls leave() or exit(); leave()
/// returns when the next enter() comes. The caller may be a different
/// OS thread from one enter() to the next, never two at once.
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
  /// A 64-bit pointer as makecontext's int-sized arguments.
  using Halves = std::array<unsigned, 2>;
  static void entry(unsigned first, unsigned second);

  [[nodiscard]] void* stack_bottom() const noexcept {
    return static_cast<std::byte*>(mapping_) + (mapping_bytes_ - kStackBytes);
  }

  void* mapping_ = nullptr;  ///< guard page, then the stack
  std::size_t mapping_bytes_ = 0;
  ucontext_t ctx_{};
  ucontext_t caller_{};
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
  if (mprotect(mapping_, page, PROT_NONE) != 0 || getcontext(&ctx_) != 0) {
    const int err = errno;
    munmap(mapping_, mapping_bytes_);
    throw std::system_error{err, std::generic_category(),
                            "des::Process: fiber setup"};
  }
  ctx_.uc_stack.ss_sp = stack_bottom();
  ctx_.uc_stack.ss_size = kStackBytes;
  ctx_.uc_link = nullptr;  // entry() never returns; exit() switches out
  // makecontext passes only int arguments, so the owner pointer travels as
  // two 32-bit halves; entry() joins them again.
  const auto halves = std::bit_cast<Halves>(owner);
  // makecontext's C signature takes every entry point as void(*)(); the
  // context it builds calls entry() with its real two-argument type.
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&entry), 2, halves[0],
              halves[1]);
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

void Process::Fiber::entry(unsigned first, unsigned second) {
  std::bit_cast<Process*>(Halves{first, second})->fiber_main();
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
  if (swapcontext(&caller_, &ctx_) != 0) std::abort();
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
  if (swapcontext(&ctx_, &caller_) != 0) std::abort();
#ifdef PEVPM_FIBER_ASAN
  // The next enter() may come from another thread's stack.
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
  setcontext(&caller_);
  std::abort();  // setcontext returns only on failure
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

void Process::resume() { fiber_->enter(); }

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
