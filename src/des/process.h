// Cooperative processes over the discrete-event engine.
//
// Each Process runs its body on its own user-space fiber: an mmap'ed stack
// of kStackBytes behind a PROT_NONE guard page. Exactly one context (the
// engine loop or one process) executes at a time on a given OS thread:
// resume() switches from the engine's stack to the process's, and every
// blocking primitive switches back. The switch is a hand-written x86-64
// routine (process.cpp) that saves the callee-saved registers and swaps
// stack pointers: a plain function call on one thread, with no syscall,
// so the engine queue and the process state need no locks. The fibers
// build only for x86-64. This lets simulated MPI ranks be written as ordinary
// blocking code while virtual time stays fully deterministic (all wake-ups
// are engine events ordered by time/seq).
//
// A simulation runs on one engine, on the thread that called
// Engine::run(), so all fibers of a simulation share that thread.
//
// Blocking primitives and their guarantees:
//   delay(dt)            advance this process's virtual clock by dt
//   park()               block until some context calls unpark()
//   park_until(t)        like park() but gives up at absolute time t
// unpark() carries a single permit (like thread park/unpark), so an unpark
// that races ahead of the park is never lost. Spurious wake-ups are
// impossible to observe: every primitive re-checks its condition.
//
// A body must not block inside a catch handler: the C++ runtime keeps its
// caught-exception stack per OS thread, not per fiber.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>

#include "des/engine.h"

namespace des {

class Process {
 public:
  /// Thrown inside the body when the process is killed; the body wrapper
  /// catches it. User code should not catch it (or must rethrow).
  struct Killed {};

  /// Usable stack of every process fiber. Overflowing it faults on the
  /// guard page below it. Rank bodies peak near 5 KiB across the test
  /// suite; the rest is room for deep user code and sanitizer frames.
  static constexpr std::size_t kStackBytes = std::size_t{256} << 10;

  /// Creates the process and schedules its first activation at `start_at`.
  Process(Engine& engine, std::string name, std::function<void()> body,
          SimTime start_at = SimTime{});
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool finished() const noexcept { return finished_; }
  [[nodiscard]] Engine& engine() noexcept { return engine_; }
  [[nodiscard]] SimTime now() const noexcept { return engine_.now(); }

  // ---- Callable only from inside the process body ----

  /// Advances this process's virtual time by `dt`. Permits posted by
  /// unpark() during the delay are retained.
  void delay(Duration dt);

  /// Blocks until a permit is available, then consumes it.
  void park();

  /// Blocks until a permit is available or the absolute deadline passes.
  /// Returns true if a permit was consumed.
  bool park_until(SimTime deadline);

  // ---- Callable from any active context ----

  /// Posts a permit and wakes the process if it is parked.
  void unpark();

  /// Forces the process to unwind (its next/pending blocking call throws
  /// Killed). Used for tearing down deadlocked simulations.
  void kill();

  /// Rethrows any exception that escaped the body.
  void rethrow_if_failed();

 private:
  class Fiber;

  /// Runs on the fiber: the body, then the final switch out.
  [[noreturn]] void fiber_main();
  /// Engine context -> process context; returns when the process yields.
  /// Counted in Engine::resumes().
  void resume();
  /// Process context -> engine context; throws Killed when killed.
  void yield();
  /// One sleep episode: yields until a wake event for the current
  /// generation fires. Callers loop on their condition.
  void sleep_once();
  /// Schedules an immediate engine event waking generation `gen`.
  void schedule_wake(std::uint64_t gen);

  Engine& engine_;
  std::string name_;
  std::function<void()> body_;

  bool finished_ = false;
  bool killed_ = false;
  bool blocked_ = false;        ///< inside sleep_once()
  bool permit_ = false;         ///< unpark token
  std::uint64_t sleep_gen_ = 1; ///< invalidates stale wake events
  std::exception_ptr failure_;

  std::unique_ptr<Fiber> fiber_;
};

}  // namespace des
