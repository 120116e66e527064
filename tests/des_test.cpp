// Unit tests for the discrete-event engine and cooperative processes.
#include <gtest/gtest.h>

#include <cfenv>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "des/engine.h"
#include "des/partitioned_engine.h"
#include "des/process.h"
#include "digest.h"

namespace {

TEST(Engine, ExecutesInTimeOrder) {
  des::Engine engine;
  std::vector<int> order;
  engine.schedule_at(des::SimTime{30}, [&] { order.push_back(3); });
  engine.schedule_at(des::SimTime{10}, [&] { order.push_back(1); });
  engine.schedule_at(des::SimTime{20}, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), des::SimTime{30});
  EXPECT_EQ(engine.processed(), 3u);
}

TEST(Engine, SameTimeOrderedByPriorityThenSeq) {
  des::Engine engine;
  std::vector<std::string> order;
  engine.schedule_at(des::SimTime{5}, [&] { order.push_back("b1"); }, 1);
  engine.schedule_at(des::SimTime{5}, [&] { order.push_back("a1"); }, 0);
  engine.schedule_at(des::SimTime{5}, [&] { order.push_back("b2"); }, 1);
  engine.schedule_at(des::SimTime{5}, [&] { order.push_back("a2"); }, 0);
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "a2", "b1", "b2"}));
}

TEST(Engine, SchedulingInThePastThrows) {
  des::Engine engine;
  engine.schedule_at(des::SimTime{10}, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(des::SimTime{5}, [] {}), std::invalid_argument);
  EXPECT_THROW(engine.schedule_in(des::Duration{-1}, [] {}), std::invalid_argument);
}

TEST(Engine, CancelPreventsExecution) {
  des::Engine engine;
  bool ran = false;
  const auto id = engine.schedule_at(des::SimTime{10}, [&] { ran = true; });
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));  // double-cancel reports failure
  engine.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(engine.processed(), 0u);
}

TEST(Engine, CancelAfterExecutionReturnsFalse) {
  des::Engine engine;
  const auto id = engine.schedule_at(des::SimTime{1}, [] {});
  engine.run();
  EXPECT_FALSE(engine.cancel(id));
}

TEST(Engine, CancelInvalidIdReturnsFalse) {
  des::Engine engine;
  EXPECT_FALSE(engine.cancel({}));
}

TEST(Engine, PendingCountsExcludeCancelled) {
  des::Engine engine;
  engine.schedule_at(des::SimTime{1}, [] {});
  const auto id = engine.schedule_at(des::SimTime{2}, [] {});
  EXPECT_EQ(engine.pending(), 2u);
  engine.cancel(id);
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_FALSE(engine.empty());
  engine.run();
  EXPECT_TRUE(engine.empty());
}

TEST(Engine, RunUntilAdvancesClockWithoutOverrunning) {
  des::Engine engine;
  std::vector<int> hits;
  engine.schedule_at(des::SimTime{10}, [&] { hits.push_back(10); });
  engine.schedule_at(des::SimTime{30}, [&] { hits.push_back(30); });
  engine.run_until(des::SimTime{20});
  EXPECT_EQ(hits, std::vector<int>{10});
  EXPECT_EQ(engine.now(), des::SimTime{20});
  engine.run();
  EXPECT_EQ(hits, (std::vector<int>{10, 30}));
}

TEST(Engine, EventsCanScheduleEvents) {
  des::Engine engine;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) engine.schedule_in(des::Duration{10}, chain);
  };
  engine.schedule_at(des::SimTime{0}, chain);
  engine.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(engine.now(), des::SimTime{40});
}

TEST(Engine, HasRunAnswersAsIfTheReservedEventWereQueued) {
  des::Engine engine;
  std::vector<bool> seen;
  des::Engine::Key at10{};
  engine.schedule_at(des::SimTime{10},
                     [&] { seen.push_back(engine.has_run(at10)); });
  at10 = engine.reserve_key(des::SimTime{10});
  const des::Engine::Key at70 = engine.reserve_key(des::SimTime{70});
  EXPECT_FALSE(engine.has_run(at10)) << "nothing has run yet";
  // Same time and priority: the earlier event runs before the key, the
  // later one after it; priority -1 runs before it.
  des::Engine::Key inside{};
  engine.schedule_at(des::SimTime{10}, [&] {
    seen.push_back(engine.has_run(at10));
    // A key reserved now has not run, even at this very instant.
    inside = engine.reserve_key(des::SimTime{10});
    seen.push_back(engine.has_run(inside));
  });
  engine.schedule_at(des::SimTime{10},
                     [&] { seen.push_back(engine.has_run(at10)); }, -1);
  engine.schedule_at(des::SimTime{100}, [] {});
  engine.run_until(des::SimTime{9});
  EXPECT_FALSE(engine.has_run(at10));
  engine.step();  // priority -1
  EXPECT_FALSE(engine.has_run(at10));
  engine.step();  // the event scheduled before the key
  EXPECT_FALSE(engine.has_run(at10));
  engine.step();  // the event scheduled after it
  EXPECT_TRUE(engine.has_run(at10));
  EXPECT_FALSE(engine.has_run(inside));
  // Priority -1, the event before the key, the event after it, and the
  // key reserved inside that last callback.
  EXPECT_EQ(seen, (std::vector<bool>{false, false, true, false}));
  engine.run_until(des::SimTime{10});
  EXPECT_TRUE(engine.has_run(inside));
  EXPECT_FALSE(engine.has_run(at70));
  engine.step();  // t = 100
  EXPECT_TRUE(engine.has_run(at70));
  // An earlier horizon takes nothing back.
  engine.run_until(des::SimTime{50});
  EXPECT_TRUE(engine.has_run(at70));
  // After run(), everything that existed has run; newer keys have not.
  const des::Engine::Key late = engine.reserve_key(des::SimTime{200});
  engine.run();
  EXPECT_TRUE(engine.has_run(late));
  EXPECT_FALSE(engine.has_run(engine.reserve_key(des::SimTime{200})));
}

TEST(Process, DelayAdvancesVirtualTime) {
  des::Engine engine;
  des::SimTime finish{-1};
  std::unique_ptr<des::Process> worker;
  worker = std::make_unique<des::Process>(engine, "w", [&] {
    worker->delay(des::Duration{100});
    worker->delay(des::Duration{250});
    finish = engine.now();
  });
  engine.run();
  EXPECT_EQ(finish, des::SimTime{350});
}

TEST(Process, StartAtDelaysFirstActivation) {
  des::Engine engine;
  des::SimTime started{-1};
  des::Process proc{engine, "p", [&] { started = engine.now(); },
                    des::SimTime{500}};
  engine.run();
  EXPECT_EQ(started, des::SimTime{500});
  EXPECT_TRUE(proc.finished());
}

TEST(Process, UnparkBeforeParkIsNotLost) {
  des::Engine engine;
  bool resumed = false;
  std::unique_ptr<des::Process> proc;
  proc = std::make_unique<des::Process>(engine, "p", [&] {
    proc->unpark();  // permit posted before park
    proc->park();    // consumes it without blocking
    resumed = true;
  });
  engine.run();
  EXPECT_TRUE(resumed);
}

TEST(Process, ParkBlocksUntilUnparked) {
  des::Engine engine;
  des::SimTime woke{-1};
  std::unique_ptr<des::Process> sleeper;
  sleeper = std::make_unique<des::Process>(engine, "sleeper", [&] {
    sleeper->park();
    woke = engine.now();
  });
  std::unique_ptr<des::Process> waker;
  waker = std::make_unique<des::Process>(engine, "waker", [&] {
    waker->delay(des::Duration{777});
    sleeper->unpark();
  });
  engine.run();
  EXPECT_EQ(woke, des::SimTime{777});
}

TEST(Process, ParkUntilTimesOut) {
  des::Engine engine;
  bool got_permit = true;
  des::SimTime after{-1};
  std::unique_ptr<des::Process> proc;
  proc = std::make_unique<des::Process>(engine, "p", [&] {
    got_permit = proc->park_until(des::SimTime{1000});
    after = engine.now();
  });
  engine.run();
  EXPECT_FALSE(got_permit);
  EXPECT_EQ(after, des::SimTime{1000});
}

TEST(Process, ParkUntilSucceedsBeforeDeadline) {
  des::Engine engine;
  bool got_permit = false;
  des::SimTime after{-1};
  std::unique_ptr<des::Process> sleeper;
  sleeper = std::make_unique<des::Process>(engine, "sleeper", [&] {
    got_permit = sleeper->park_until(des::SimTime{1000});
    after = engine.now();
  });
  std::unique_ptr<des::Process> waker;
  waker = std::make_unique<des::Process>(engine, "waker", [&] {
    waker->delay(des::Duration{300});
    sleeper->unpark();
  });
  engine.run();
  EXPECT_TRUE(got_permit);
  EXPECT_EQ(after, des::SimTime{300});
}

TEST(Process, DestructorKillsBlockedProcess) {
  des::Engine engine;
  bool unwound = false;
  {
    std::unique_ptr<des::Process> proc;
    proc = std::make_unique<des::Process>(engine, "stuck", [&] {
      struct Guard {
        bool* flag;
        ~Guard() { *flag = true; }
      } guard{&unwound};
      static_cast<void>(guard);
      // park() forever: deadlock on purpose; the destructor must unwind it.
      for (;;) proc->park();
    });
    engine.run();  // process parks; queue drains
    EXPECT_FALSE(proc->finished());
  }  // destructor must kill + join without hanging
  EXPECT_TRUE(unwound);
}

TEST(Process, ExceptionsAreCapturedAndRethrown) {
  des::Engine engine;
  des::Process proc{engine, "thrower",
                    [] { throw std::runtime_error{"boom"}; }};
  engine.run();
  EXPECT_TRUE(proc.finished());
  EXPECT_THROW(proc.rethrow_if_failed(), std::runtime_error);
}

TEST(Process, ManyProcessesInterleaveDeterministically) {
  // Two identical engines must produce identical interleavings.
  auto run_once = [] {
    des::Engine engine;
    std::vector<int> order;
    std::vector<std::unique_ptr<des::Process>> procs;
    for (int i = 0; i < 8; ++i) {
      procs.push_back(std::make_unique<des::Process>(
          engine, "p" + std::to_string(i), [&, i] {
            for (int k = 0; k < 3; ++k) {
              procs[i]->delay(des::Duration{10 * (i + 1)});
              order.push_back(i);
            }
          }));
    }
    engine.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---- fiber edge cases ----------------------------------------------------

TEST(Process, DestructorKillsProcessThatNeverStarted) {
  des::Engine engine;
  bool ran = false;
  {
    des::Process proc{engine, "late", [&] { ran = true; },
                      des::SimTime{1000}};
    engine.run_until(des::SimTime{10});
    EXPECT_FALSE(proc.finished());
  }  // killed before its first activation: the body must never run
  EXPECT_FALSE(ran);
}

TEST(Process, DestructorKillsProcessInParkUntil) {
  des::Engine engine;
  bool unwound = false;
  bool returned = false;
  {
    std::unique_ptr<des::Process> proc;
    proc = std::make_unique<des::Process>(engine, "waiting", [&] {
      struct Guard {
        bool* flag;
        ~Guard() { *flag = true; }
      } guard{&unwound};
      static_cast<void>(guard);
      static_cast<void>(proc->park_until(des::SimTime{1'000'000}));
      returned = true;
    });
    engine.run_until(des::SimTime{500});  // parked, deadline still ahead
    EXPECT_FALSE(proc->finished());
  }
  EXPECT_TRUE(unwound);
  EXPECT_FALSE(returned);
}

TEST(Process, ExceptionAfterASwitchIsRethrown) {
  des::Engine engine;
  std::unique_ptr<des::Process> proc;
  proc = std::make_unique<des::Process>(engine, "late-thrower", [&] {
    proc->delay(des::Duration{40});
    throw std::out_of_range{"late boom"};
  });
  engine.run();
  EXPECT_TRUE(proc->finished());
  try {
    proc->rethrow_if_failed();
    FAIL() << "expected the body's exception";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "late boom");
  }
}

TEST(Process, KillRunsDestructorsInsideOutOnTheFiber) {
  des::Engine engine;
  std::vector<int> destroyed;
  struct Guard {
    std::vector<int>* log;
    int id;
    ~Guard() { log->push_back(id); }
  };
  std::unique_ptr<des::Process> proc;
  proc = std::make_unique<des::Process>(engine, "victim", [&] {
    const Guard outer{&destroyed, 1};
    proc->delay(des::Duration{10});
    const Guard inner{&destroyed, 2};
    proc->delay(des::Duration{1'000'000});
    destroyed.push_back(99);  // never reached
  });
  engine.run_until(des::SimTime{100});
  ASSERT_TRUE(destroyed.empty());
  proc->kill();
  EXPECT_TRUE(proc->finished());
  EXPECT_EQ(destroyed, (std::vector<int>{2, 1}));
  EXPECT_NO_THROW(proc->rethrow_if_failed());  // Killed is not a failure
}

/// Recurses `depth` frames of 4 KiB each, blocking once at the bottom.
int deep_sum(des::Process& proc, int depth) {
  volatile unsigned char frame[4096];
  for (std::size_t i = 0; i < sizeof frame; ++i) {
    frame[i] = static_cast<unsigned char>(i + static_cast<std::size_t>(depth));
  }
  if (depth == 0) {
    proc.delay(des::Duration{5});
  } else {
    static_cast<void>(deep_sum(proc, depth - 1));
  }
  int sum = 0;
  for (std::size_t i = 0; i < sizeof frame; i += 512) sum += frame[i];
  return sum;
}

TEST(Process, BodyCanUse64KiBOfStack) {
  des::Engine engine;
  int sum = -1;
  std::unique_ptr<des::Process> proc;
  proc = std::make_unique<des::Process>(
      engine, "deep", [&] { sum = deep_sum(*proc, 16); });
  engine.run();
  EXPECT_TRUE(proc->finished());
  EXPECT_NO_THROW(proc->rethrow_if_failed());
  // The outermost frame reads (i + 16) mod 256 = 16 at eight offsets.
  EXPECT_EQ(sum, 8 * 16);
  EXPECT_EQ(engine.now(), des::SimTime{5});
}

TEST(Process, RoundingModeStaysWithItsContext) {
  // The rounding mode is callee-saved state in the x86-64 ABI (x87 control
  // word and MXCSR), so each side of a switch keeps its own.
  des::Engine engine;
  volatile double one = 1.0;
  volatile double three = 3.0;
  int body_mode = -1;
  int engine_mode = -1;
  double body_third = 0.0;
  double engine_third = 0.0;
  std::unique_ptr<des::Process> proc;
  proc = std::make_unique<des::Process>(engine, "upward", [&] {
    ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
    proc->delay(des::Duration{10});
    body_mode = std::fegetround();
    body_third = one / three;
  });
  engine.schedule_at(des::SimTime{5}, [&] {  // while the body is blocked
    engine_mode = std::fegetround();
    engine_third = one / three;
  });
  engine.run();
  EXPECT_TRUE(proc->finished());
  EXPECT_EQ(body_mode, FE_UPWARD);
  EXPECT_EQ(engine_mode, FE_TONEAREST);
  EXPECT_GT(body_third, engine_third);  // the SSE unit rounded upward too
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);  // the final switch restored it
}

/// True when `object` is 16-byte aligned. Its address goes through a
/// volatile, so the compiler cannot answer from the declared alignment.
template <typename T>
bool on_16_byte_boundary(const T& object) {
  const volatile auto address = reinterpret_cast<std::uintptr_t>(&object);
  return address % 16 == 0;
}

[[gnu::noinline]] bool callee_local_is_aligned() {
  alignas(16) const unsigned char local[16] = {};
  return on_16_byte_boundary(local);
}

TEST(Process, StackIsAbiAlignedOnEntryAndAfterAResume) {
  des::Engine engine;
  bool first_frame = false;
  bool after_resume = false;
  std::unique_ptr<des::Process> proc;
  proc = std::make_unique<des::Process>(engine, "aligned", [&] {
    alignas(16) const unsigned char local[16] = {};
    first_frame = on_16_byte_boundary(local);
    proc->delay(des::Duration{1});
    after_resume = callee_local_is_aligned();
  });
  engine.run();
  EXPECT_TRUE(proc->finished());
  EXPECT_TRUE(first_frame);
  EXPECT_TRUE(after_resume);
}

/// Number of mappings in this process's address space.
std::size_t mapping_count() {
  std::ifstream maps{"/proc/self/maps"};
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST(Process, ThousandsOfFibersReleaseTheirStacks) {
  auto round = [] {
    des::Engine engine;
    std::vector<std::unique_ptr<des::Process>> procs(1024);
    int done = 0;
    for (std::size_t i = 0; i < procs.size(); ++i) {
      procs[i] = std::make_unique<des::Process>(
          engine, "p" + std::to_string(i), [&, i] {
            procs[i]->delay(des::Duration{static_cast<std::int64_t>(i % 7)});
            ++done;
          });
    }
    engine.run();
    return done;
  };
  ASSERT_EQ(round(), 1024);  // warms the allocator
  const std::size_t before = mapping_count();
  ASSERT_GT(before, 0u);
  ASSERT_EQ(round(), 1024);
  // A leaked fiber keeps two mappings (guard page + stack), 2048 for the
  // round; the slack covers the sanitizer runtimes' own bookkeeping maps.
  EXPECT_LE(mapping_count(), before + 128);
}

TEST(Process, PartitionedFibersFinishAlikeAtEveryWorkerCount) {
  // Twelve processes over three partitions; each wakes a neighbour on the
  // next partition through a cross-partition post, so fibers are resumed
  // by events that crossed a window boundary. The finish times and permit
  // counts are pinned to a digest recorded when windows still ran on 1, 2
  // and 4 worker threads, all of which agreed on it.
  auto run = [] {
    constexpr int kPartitions = 3;
    constexpr int kProcs = 12;
    des::PartitionSet sim{kPartitions, des::Duration{50}};
    std::vector<std::unique_ptr<des::Process>> procs(kProcs);
    std::vector<des::SimTime> finish(kProcs, des::SimTime{-1});
    std::vector<int> permits(kProcs, 0);
    auto part_of = [](int i) { return des::PartitionId{i % kPartitions}; };
    for (int i = 0; i < kProcs; ++i) {
      procs[i] = std::make_unique<des::Process>(
          sim.engine(part_of(i)), "p" + std::to_string(i), [&, i] {
            des::Process& me = *procs[i];
            const int next = (i + 1) % kProcs;
            des::Process* neighbour = procs[next].get();
            for (int k = 0; k < 20; ++k) {
              me.delay(des::Duration{7 + 3 * i + k % 5});
              const des::SimTime at = me.now() + sim.lookahead();
              sim.post(part_of(i), part_of(next), at,
                       [neighbour] { neighbour->unpark(); });
              if (me.park_until(me.now() + des::Duration{40 + i})) {
                ++permits[i];
              }
            }
            finish[i] = me.now();
          });
    }
    sim.run();
    for (auto& p : procs) {
      EXPECT_TRUE(p->finished());
      p->rethrow_if_failed();
    }
    return std::make_pair(finish, permits);
  };
  const auto [finish, permits] = run();
  int consumed = 0;
  testdigest::Digest digest;
  for (std::size_t i = 0; i < finish.size(); ++i) {
    digest.add(static_cast<std::uint64_t>(finish[i].ns()));
    digest.add(static_cast<std::uint64_t>(permits[i]));
    consumed += permits[i];
  }
  EXPECT_GT(consumed, 0) << "no cross-partition wake-up was exercised";
  EXPECT_EQ(digest.hex(), "8ee8eed9d06e4987");
}

}  // namespace
