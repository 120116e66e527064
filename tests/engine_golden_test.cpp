// Golden event-order tests for the overhauled engine.
//
// The indexed 4-ary heap, the immediate-event FIFO bypass and lazy
// cancellation must preserve the engine's observable contract exactly:
// events execute in (time, priority, sequence) order, FIFO among ties.
// Every test here drives the production des::Engine and a straight-line
// reference implementation (std::priority_queue + hash-set cancellation,
// the pre-overhaul design) through the same script and requires the
// recorded execution orders to match event for event.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "des/engine.h"
#include "des/partitioned_engine.h"
#include "digest.h"

namespace {

// Reference engine: the simplest implementation of the ordering contract.
class RefEngine {
 public:
  using Callback = std::function<void()>;
  struct EventId {
    std::uint64_t seq = 0;
    [[nodiscard]] bool valid() const noexcept { return seq != 0; }
  };

  [[nodiscard]] des::SimTime now() const noexcept { return now_; }

  EventId schedule_at(des::SimTime t, Callback fn, int priority = 0) {
    const std::uint64_t seq = next_seq_++;
    queue_.push(Event{t, priority, seq, std::move(fn)});
    live_.insert(seq);
    return EventId{seq};
  }
  EventId schedule_in(des::Duration dt, Callback fn, int priority = 0) {
    return schedule_at(now_ + dt, std::move(fn), priority);
  }
  bool cancel(EventId id) {
    if (!id.valid() || live_.count(id.seq) == 0) return false;
    return cancelled_.insert(id.seq).second;
  }
  bool step() {
    while (!queue_.empty()) {
      if (pop_and_run()) return true;
    }
    return false;
  }
  void run() {
    while (step()) {
    }
  }
  void run_until(des::SimTime t) {
    while (!queue_.empty() && queue_.top().time <= t) pop_and_run();
    if (now_ < t) now_ = t;
  }

 private:
  struct Event {
    des::SimTime time{};
    int priority = 0;
    std::uint64_t seq = 0;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };
  /// Pops the earliest event and runs it unless it was cancelled.
  bool pop_and_run() {
    Event event = queue_.top();
    queue_.pop();
    live_.erase(event.seq);
    if (cancelled_.erase(event.seq) > 0) return false;
    now_ = event.time;
    event.fn();
    return true;
  }

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<std::uint64_t> live_;
  std::unordered_set<std::uint64_t> cancelled_;
  des::SimTime now_{};
  std::uint64_t next_seq_ = 1;
};

/// One recorded execution step: which scripted event ran, and when.
struct Fired {
  int label = 0;
  des::SimTime at{};

  bool operator==(const Fired&) const = default;
};

/// A schedule/cancel script interpreted against either engine. Ops are
/// applied up front; `nested` ops run from inside event `from_label`'s
/// callback with times relative to now (offset 0 = an immediate event, the
/// FIFO-bypass path), which is how the bypass and in-callback
/// cancellations get exercised.
struct ScriptOp {
  enum Kind { kSchedule, kCancel } kind = kSchedule;
  int label = 0;        ///< identity of the scheduled event
  std::int64_t at = 0;  ///< absolute ns (top-level) or now-offset (nested)
  int priority = 0;
  int cancel_label = 0;  ///< label whose event to cancel (cancel)
};

struct Script {
  std::vector<ScriptOp> top_level;
  /// label -> ops performed inside that event's callback.
  std::vector<std::pair<int, std::vector<ScriptOp>>> nested;
};

template <typename EngineT>
std::vector<Fired> replay(const Script& script) {
  EngineT engine;
  std::vector<Fired> order;
  std::vector<typename EngineT::EventId> ids(1024);

  std::function<void(const ScriptOp&, bool)> apply = [&](const ScriptOp& op,
                                                         bool nested) {
    if (op.kind == ScriptOp::kCancel) {
      engine.cancel(ids[op.cancel_label]);
      return;
    }
    const auto callback = [&, label = op.label] {
      order.push_back(Fired{label, engine.now()});
      for (const auto& [from, ops] : script.nested) {
        if (from == label) {
          for (const ScriptOp& nested_op : ops) apply(nested_op, true);
        }
      }
    };
    ids[op.label] = nested
                        ? engine.schedule_in(des::Duration{op.at}, callback,
                                             op.priority)
                        : engine.schedule_at(des::SimTime{op.at}, callback,
                                             op.priority);
  };
  for (const ScriptOp& op : script.top_level) apply(op, false);
  engine.run();
  return order;
}

void expect_same_order(const Script& script) {
  const std::vector<Fired> ref = replay<RefEngine>(script);
  const std::vector<Fired> got = replay<des::Engine>(script);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].label, got[i].label) << "diverged at step " << i;
    EXPECT_EQ(ref[i].at, got[i].at) << "diverged at step " << i;
  }
}

TEST(EngineGolden, RecordedScheduleCancelScript) {
  // Hand-written worst-case mix: same-time ties at t=50 across priorities,
  // cancellation of a pending event, re-scheduling and immediate events
  // from inside callbacks, and a cancel issued from a callback against a
  // later event.
  Script script;
  script.top_level = {
      {ScriptOp::kSchedule, 1, 100, 0, 0},
      {ScriptOp::kSchedule, 2, 50, 0, 0},
      {ScriptOp::kSchedule, 3, 50, -1, 0},
      {ScriptOp::kSchedule, 4, 50, 0, 0},   // FIFO tie with label 2
      {ScriptOp::kSchedule, 5, 200, 1, 0},
      {ScriptOp::kSchedule, 6, 200, 0, 0},
      {ScriptOp::kCancel, 0, 0, 0, 1},      // cancel label 1 before it runs
      {ScriptOp::kSchedule, 7, 150, 0, 0},
  };
  script.nested = {
      {2, {{ScriptOp::kSchedule, 8, 0, 0, 0},     // immediate (offset 0)
           {ScriptOp::kSchedule, 9, 10, 0, 0},
           {ScriptOp::kCancel, 0, 0, 0, 7}}},     // cancel a pending event
      {8, {{ScriptOp::kSchedule, 10, 0, 0, 0}}},  // immediate from immediate
      {6, {{ScriptOp::kSchedule, 11, 10, -5, 0}}},
  };
  expect_same_order(script);
}

TEST(EngineGolden, RandomInterleavingsMatchReference) {
  // Property: for seeded random scripts (schedules at random offsets and
  // priorities, cancels aimed at random earlier labels, nested ops behind
  // roughly a third of the events), both engines execute the identical
  // sequence. 40 seeds x 60 ops covers tie groups, heap churn and
  // cancel-of-executed races.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL;
    const auto rnd = [&state](std::uint64_t bound) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return (state >> 33) % bound;
    };
    Script script;
    int next_label = 1;
    const auto make_op = [&](std::int64_t base) {
      if (next_label > 1 && rnd(4) == 0) {
        return ScriptOp{ScriptOp::kCancel, 0, 0, 0,
                        static_cast<int>(1 + rnd(next_label - 1))};
      }
      const int label = next_label++;
      return ScriptOp{ScriptOp::kSchedule, label,
                      base + static_cast<std::int64_t>(rnd(8)),
                      static_cast<int>(rnd(3)) - 1, 0};
    };
    for (int i = 0; i < 40; ++i) {
      script.top_level.push_back(make_op(static_cast<std::int64_t>(rnd(20))));
    }
    for (int label = 1; label < next_label; ++label) {
      if (rnd(3) != 0) continue;
      std::vector<ScriptOp> ops;
      const int count = static_cast<int>(1 + rnd(2));
      for (int i = 0; i < count && next_label < 1000; ++i) {
        // Nested schedules land at now + offset; offset 0 exercises the
        // immediate-FIFO bypass against heap-resident ties.
        ops.push_back(make_op(0));
      }
      script.nested.emplace_back(label, std::move(ops));
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_same_order(script);
  }
}

TEST(EngineGolden, CancellationStress) {
  // Schedule a block, cancel every other event (some before, some after
  // unrelated dispatches), and verify exactly the survivors run, in order.
  des::Engine engine;
  std::vector<des::Engine::EventId> ids;
  std::vector<int> fired;
  constexpr int kEvents = 2000;
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(engine.schedule_at(des::SimTime{10 + (i % 97)}, [&fired, i] {
      fired.push_back(i);
    }));
  }
  int cancelled = 0;
  for (int i = 0; i < kEvents; i += 2) {
    EXPECT_TRUE(engine.cancel(ids[i]));
    EXPECT_FALSE(engine.cancel(ids[i])) << "double-cancel must fail";
    ++cancelled;
  }
  EXPECT_EQ(engine.pending(), kEvents - cancelled);
  engine.run();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kEvents - cancelled));
  for (const int i : fired) EXPECT_EQ(i % 2, 1);
  // Post-run, every handle is stale; cancel must refuse them all.
  for (const auto& id : ids) EXPECT_FALSE(engine.cancel(id));
}

TEST(EngineGolden, StaleHandleAfterSlotReuseIsRejected) {
  // The generation tag must keep an old EventId from cancelling an
  // unrelated event that happens to recycle the same pool slot.
  des::Engine engine;
  bool second_ran = false;
  const auto first = engine.schedule_at(des::SimTime{1}, [] {});
  engine.run();  // first's slot is released and goes back on the free list
  const auto second = engine.schedule_at(des::SimTime{2}, [&second_ran] {
    second_ran = true;
  });
  EXPECT_EQ(first.slot, second.slot) << "test assumes LIFO slot reuse";
  EXPECT_FALSE(engine.cancel(first)) << "stale generation must be rejected";
  engine.run();
  EXPECT_TRUE(second_ran);
}

TEST(EngineGolden, CancelFromInsideCallbackOfSameTimestamp) {
  // An event may cancel a same-time event that is still queued behind it;
  // both engines must agree that the victim never runs.
  Script script;
  script.top_level = {
      {ScriptOp::kSchedule, 1, 10, 0, 0},
      {ScriptOp::kSchedule, 2, 10, 0, 0},
      {ScriptOp::kSchedule, 3, 10, 0, 0},
  };
  script.nested = {{1, {{ScriptOp::kCancel, 0, 0, 0, 3}}}};
  expect_same_order(script);
}

/// What one replay of the timer workload observed.
struct TimerReplay {
  std::vector<Fired> order;
  std::vector<bool> cancels;  ///< every cancel() result, in call order
};

/// A cancel-heavy workload shaped like TCP retransmission timers: 64
/// connections each run a chain of near-term activities, and every
/// activity disarms its connection's timer (200 us or more ahead) and arms
/// a new one, so over 12,000 far-future timers are cancelled from inside
/// callbacks and only the last per connection fires. The control loop
/// interleaves step() and run_until() with out-of-callback cancels: of an
/// event scheduled to be the next one to run (the heap root), and of
/// handles already cancelled, whose slots the engine may have recycled.
template <typename EngineT>
TimerReplay replay_timers(std::uint64_t seed) {
  constexpr int kConnections = 64;
  constexpr int kActivities = 12'500;
  EngineT engine;
  TimerReplay replay;
  std::vector<typename EngineT::EventId> timer(kConnections);
  std::vector<typename EngineT::EventId> disarmed;
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL;
  const auto rnd = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::int64_t>((state >> 33) % bound);
  };
  const auto cancel = [&](typename EngineT::EventId id) {
    replay.cancels.push_back(engine.cancel(id));
  };
  int activities = 0;
  int next_label = kConnections + 1;
  std::function<void(int)> activity = [&](int conn) {
    replay.order.push_back(Fired{conn, engine.now()});
    cancel(timer[conn]);
    disarmed.push_back(timer[conn]);
    const int label = next_label++;
    timer[conn] = engine.schedule_in(
        des::Duration{200'000 + rnd(1000)},
        [&replay, &engine, label] {
          replay.order.push_back(Fired{label, engine.now()});
        });
    if (++activities < kActivities) {
      // Offset 0 with priority 0 takes the immediate-event queue.
      engine.schedule_in(des::Duration{rnd(40)},
                         [&activity, conn] { activity(conn); },
                         static_cast<int>(rnd(3)) - 1);
    }
  };
  for (int conn = 0; conn < kConnections; ++conn) {
    engine.schedule_at(des::SimTime{rnd(100)},
                       [&activity, conn] { activity(conn); });
  }
  for (int control = 0; control < 2000; ++control) {
    switch (rnd(3)) {
      case 0:
        engine.step();
        break;
      case 1:
        engine.run_until(engine.now() + des::Duration{rnd(60)});
        break;
      default: {
        // Nothing else has priority -100, so this event is the earliest
        // pending one — the heap root — until the cancel.
        const int label = next_label++;
        cancel(engine.schedule_at(
            engine.now(),
            [&replay, &engine, label] {
              replay.order.push_back(Fired{label, engine.now()});
            },
            -100));
        for (int i = 0; i < 4 && !disarmed.empty(); ++i) {
          cancel(disarmed[static_cast<std::size_t>(
              rnd(static_cast<std::int64_t>(disarmed.size())))]);
        }
        break;
      }
    }
  }
  engine.run();
  if constexpr (std::is_same_v<EngineT, des::Engine>) {
    EXPECT_GE(engine.cancelled(), 10'000u);
    EXPECT_LE(engine.heap_high_water(),
              2 * engine.pending_high_water() + 64)
        << "cancelled timers were not purged";
    // Purged slots go back to the pool: no slot index exceeds the most
    // events ever queued or running at once.
    std::uint32_t top_slot = 0;
    for (const auto& id : disarmed) top_slot = std::max(top_slot, id.slot);
    EXPECT_LE(top_slot,
              engine.heap_high_water() + engine.pending_high_water() + 1)
        << "purged slots were not recycled";
  }
  return replay;
}

TEST(EngineGolden, PurgedTimersMatchReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const TimerReplay ref = replay_timers<RefEngine>(seed);
    const TimerReplay got = replay_timers<des::Engine>(seed);
    ASSERT_EQ(ref.order.size(), got.order.size());
    for (std::size_t i = 0; i < ref.order.size(); ++i) {
      ASSERT_EQ(ref.order[i], got.order[i]) << "diverged at step " << i;
    }
    EXPECT_EQ(ref.cancels, got.cancels);
  }
}

// ---------------------------------------------------------------------------
// Partitioned golden runs: the PartitionSet's determinism contract is that
// the per-partition execution order (and every event timestamp) is a pure
// function of the scripted workload. The random workloads are pinned to
// digests recorded when the set still ran windows on 1, 2, 4 and 8 worker
// threads, all of which produced these streams.
// ---------------------------------------------------------------------------

/// One recorded step of a partitioned replay.
struct PartFired {
  int partition = 0;
  int label = 0;
  des::SimTime at{};

  bool operator==(const PartFired&) const = default;
};

constexpr des::Duration kLookahead{10};

/// Replays a seeded random partitioned workload: every partition starts
/// with a few local events; each event may schedule further local work at
/// random offsets and post cross-partition continuations at >= lookahead.
/// Returns the per-partition execution streams concatenated in partition
/// order (each stream is internally ordered by execution).
std::vector<std::vector<PartFired>> replay_partitioned(std::uint64_t seed,
                                                       int partitions) {
  des::PartitionSet sim{partitions, kLookahead};
  std::vector<std::vector<PartFired>> streams(partitions);

  // Deterministic per-event RNG: derived from the seed and the event's
  // identity, NOT from execution order.
  const auto mix = [seed](std::uint64_t a, std::uint64_t b) {
    std::uint64_t x = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                      (b * 0xbf58476d1ce4e5b9ULL);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  };

  // Each event runs `body(partition, label, depth)`: records itself, then
  // fans out bounded further work.
  std::function<void(int, int, int)> body = [&](int part, int label,
                                                int depth) {
    des::Engine& engine = sim.engine(des::PartitionId{part});
    streams[part].push_back(PartFired{part, label, engine.now()});
    if (depth >= 3) return;
    const std::uint64_t r = mix(static_cast<std::uint64_t>(part) * 1000 + label,
                                static_cast<std::uint64_t>(depth));
    // Local follow-up, possibly at the same timestamp (tie-break path).
    if (r % 3 != 0) {
      const int child = label * 7 + 1;
      engine.schedule_in(des::Duration{static_cast<std::int64_t>(r % 4)},
                         [&body, part, child, depth] {
                           body(part, child, depth + 1);
                         },
                         static_cast<int>(r % 3) - 1);
    }
    // Cross-partition post one lookahead (or more) out.
    if (partitions > 1 && r % 2 == 0) {
      const int to = static_cast<int>((r >> 8) % partitions);
      if (to != part) {
        const int child = label * 7 + 2;
        sim.post(des::PartitionId{part}, des::PartitionId{to},
                 engine.now() + kLookahead +
                     des::Duration{static_cast<std::int64_t>(r % 5)},
                 [&body, to, child, depth] { body(to, child, depth + 1); });
      }
    }
  };

  for (int part = 0; part < partitions; ++part) {
    for (int i = 0; i < 4; ++i) {
      const int label = 100 + i;
      const des::SimTime at{static_cast<std::int64_t>(mix(part, i) % 6)};
      sim.engine(des::PartitionId{part}).schedule_at(at, [&body, part, label] {
        body(part, label, 0);
      });
    }
  }
  sim.run();
  return streams;
}

TEST(PartitionedGolden, RandomWorkloadsMatchAcrossThreadCounts) {
  const char* const expected[] = {
      "86c4174454ae6e8d", "98ea53685b651450", "d1a4ac9f05d31742",
      "725598d1858d1026", "acd7610d2d50c8d4", "eb5a5d68df72d192",
      "461e15aedca1869c", "e3f779a2c2ff42cc", "1aa5d7ae93108f4c",
      "72723e59f4686e74", "f4c20d90759b7f1e", "38919d784a4b5dbc",
  };
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    testdigest::Digest digest;
    std::size_t total = 0;
    for (const auto& stream : replay_partitioned(seed, 4)) {
      digest.add(static_cast<std::uint64_t>(stream.size()));
      for (const PartFired& fired : stream) {
        digest.add(static_cast<std::uint64_t>(fired.partition));
        digest.add(static_cast<std::uint64_t>(fired.label));
        digest.add(static_cast<std::uint64_t>(fired.at.ns()));
      }
      total += stream.size();
    }
    ASSERT_GT(total, 0u);
    EXPECT_EQ(digest.hex(), expected[seed - 1]);
  }
}

TEST(PartitionedGolden, RecordedCrossPostScript) {
  // Hand-written boundary cases: posts landing exactly at the lookahead
  // horizon, same-timestamp ties between an injected and a local event
  // (the injected event's schedule time decides), and a chain that
  // ping-pongs between partitions.
  const auto run_once = [] {
    des::PartitionSet sim{2, kLookahead};
    std::vector<PartFired> log;
    const auto record = [&log, &sim](int part, int label) {
      log.push_back(
          PartFired{part, label, sim.engine(des::PartitionId{part}).now()});
    };
    // Local event in partition 1 at t=10 (scheduled at t=0)...
    sim.engine(des::PartitionId{1}).schedule_at(des::SimTime{10},
                                                [&] { record(1, 1); });
    // ...and an injected event also at t=10, posted from partition 0 at
    // t=0: the injected event carries schedule time 0 and ties with the
    // local one, resolved by the (time, priority, sched, seq) key.
    sim.engine(des::PartitionId{0}).schedule_at(des::SimTime{0}, [&] {
      record(0, 2);
      sim.post(des::PartitionId{0}, des::PartitionId{1}, des::SimTime{10},
               [&] { record(1, 3); });
      // Ping-pong chain: 0 -> 1 -> 0, each hop exactly one lookahead out.
      sim.post(des::PartitionId{0}, des::PartitionId{1},
               des::SimTime{} + kLookahead, [&] {
                 record(1, 4);
                 sim.post(des::PartitionId{1}, des::PartitionId{0},
                          sim.engine(des::PartitionId{1}).now() + kLookahead,
                          [&] { record(0, 5); });
               });
    });
    sim.run();
    return log;
  };
  // Label 2 runs at 0. The cross posts 3 and 4 tie with the local 1 on
  // (time, priority, sched) and sort after it on their cross-tagged seq,
  // in post order; 4's post lands at 20.
  const std::vector<PartFired> expected{
      {0, 2, des::SimTime{0}},  {1, 1, des::SimTime{10}},
      {1, 3, des::SimTime{10}}, {1, 4, des::SimTime{10}},
      {0, 5, des::SimTime{20}},
  };
  EXPECT_EQ(run_once(), expected);
}

TEST(PartitionedGolden, PendingPostsDrainInPairThenFifoOrder) {
  // Cross-partition posts sort in (source, FIFO) order behind local events
  // of equal (time, priority, sched). 300 same-time posts from partition 0
  // to 2, 5 from partition 1 to 2, and one local event in partition 2 all
  // land at t = 20 with schedule time 0, so only `seq` separates them.
  // Partition 1 posts first, so FIFO across sources would put its labels
  // first.
  constexpr int kFromZero = 300;
  constexpr int kFromOne = 5;
  des::PartitionSet sim{3, kLookahead};
  std::vector<int> order;
  const des::SimTime at{20};
  const auto record = [&order](int label) {
    return [&order, label] { order.push_back(label); };
  };
  sim.engine(des::PartitionId{1}).schedule_at(des::SimTime{0}, [&] {
    for (int i = 0; i < kFromOne; ++i) {
      sim.post(des::PartitionId{1}, des::PartitionId{2}, at,
               record(1000 + i));
    }
  });
  sim.engine(des::PartitionId{0}).schedule_at(des::SimTime{0}, [&] {
    for (int i = 0; i < kFromZero; ++i) {
      sim.post(des::PartitionId{0}, des::PartitionId{2}, at, record(i));
    }
  });
  // Scheduled after the posts at the same (time, priority, sched); a local
  // event still sorts first.
  sim.engine(des::PartitionId{2}).schedule_at(des::SimTime{0}, [&] {
    sim.engine(des::PartitionId{2}).schedule_at(at, record(-1));
  });
  sim.run();

  std::vector<int> expected{-1};
  for (int i = 0; i < kFromZero; ++i) expected.push_back(i);
  for (int i = 0; i < kFromOne; ++i) expected.push_back(1000 + i);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.processed(), 3u + 1u + kFromZero + kFromOne);
}

TEST(PartitionedGolden, SinglePartitionMatchesPlainEngine) {
  // K = 1 must be the plain engine bit for bit: run the recorded script
  // from RecordedScheduleCancelScript through a one-partition set and the
  // reference engine and require identical streams.
  struct SetAdapter {
    des::PartitionSet sim{1, des::Duration{1}};
    using EventId = des::Engine::EventId;
    [[nodiscard]] des::SimTime now() {
      return sim.engine(des::PartitionId{0}).now();
    }
    EventId schedule_at(des::SimTime t, std::function<void()> fn,
                        int priority = 0) {
      return sim.engine(des::PartitionId{0})
          .schedule_at(t, std::move(fn), priority);
    }
    EventId schedule_in(des::Duration dt, std::function<void()> fn,
                        int priority = 0) {
      return sim.engine(des::PartitionId{0})
          .schedule_in(dt, std::move(fn), priority);
    }
    bool cancel(EventId id) {
      return sim.engine(des::PartitionId{0}).cancel(id);
    }
    void run() { sim.run(); }
  };
  Script script;
  script.top_level = {
      {ScriptOp::kSchedule, 1, 100, 0, 0},
      {ScriptOp::kSchedule, 2, 50, 0, 0},
      {ScriptOp::kSchedule, 3, 50, -1, 0},
      {ScriptOp::kSchedule, 4, 50, 0, 0},
      {ScriptOp::kSchedule, 5, 200, 1, 0},
      {ScriptOp::kCancel, 0, 0, 0, 1},
      {ScriptOp::kSchedule, 6, 150, 0, 0},
  };
  script.nested = {
      {2, {{ScriptOp::kSchedule, 7, 0, 0, 0},
           {ScriptOp::kCancel, 0, 0, 0, 6}}},
  };
  const std::vector<Fired> ref = replay<RefEngine>(script);
  const std::vector<Fired> got = replay<SetAdapter>(script);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i], got[i]) << "diverged at step " << i;
  }
}

TEST(PartitionedGolden, PostBelowLookaheadIsRejected) {
  des::PartitionSet sim{2, kLookahead};
  // A cross-partition post inside the lookahead window would break the
  // conservative execution guarantee; it must be refused loudly.
  EXPECT_THROW(sim.post(des::PartitionId{0}, des::PartitionId{1},
                        des::SimTime{} + kLookahead - des::Duration{1}, [] {}),
               std::logic_error);
  // At exactly now + lookahead it is legal.
  sim.post(des::PartitionId{0}, des::PartitionId{1},
           des::SimTime{} + kLookahead, [] {});
  sim.run();
  EXPECT_EQ(sim.processed(), 1u);
}

TEST(PartitionedGolden, SamePartitionPostTiesLikeALocalSchedule) {
  // post(p, p, ...) is a local schedule: at equal (time, priority, sched)
  // it runs in call order with Engine::schedule_at, never behind it as a
  // cross-partition post would.
  des::PartitionSet sim{2, kLookahead};
  des::Engine& engine = sim.engine(des::PartitionId{1});
  std::vector<int> order;
  const auto record = [&order](int label) {
    return [&order, label] { order.push_back(label); };
  };
  const des::SimTime at{5};
  engine.schedule_at(des::SimTime{0}, [&] {
    engine.schedule_at(at, record(1));
    sim.post(des::PartitionId{1}, des::PartitionId{1}, at, record(2));
    engine.schedule_at(at, record(3));
    sim.post(des::PartitionId{1}, des::PartitionId{1}, at, record(4));
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(PartitionedGolden, PartitionCountMustFitTheSourceField) {
  // A cross post's seq packs its source partition into kSourceBits bits
  // between the cross bit and the counter; a larger set must be refused.
  constexpr int kMax = des::PartitionSet::kMaxPartitions;
  EXPECT_THROW((des::PartitionSet{kMax + 1, kLookahead}),
               std::invalid_argument);
  EXPECT_THROW((des::PartitionSet{0, kLookahead}), std::invalid_argument);
  EXPECT_THROW((des::PartitionSet{2, des::Duration{}}),
               std::invalid_argument);

  // The widest set works, and its top source still sorts by source: the
  // post from the last partition, made first, runs after partition 0's.
  des::PartitionSet sim{kMax, kLookahead};
  const des::PartitionId top{kMax - 1};
  std::vector<int> order;
  sim.engine(top).schedule_at(des::SimTime{0}, [&] {
    sim.post(top, des::PartitionId{1}, des::SimTime{20},
             [&order] { order.push_back(2); });
  });
  sim.engine(des::PartitionId{0}).schedule_at(des::SimTime{0}, [&] {
    sim.post(des::PartitionId{0}, des::PartitionId{1}, des::SimTime{20},
             [&order] { order.push_back(1); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_THROW((void)sim.engine(des::PartitionId{kMax}), std::out_of_range);
}

TEST(EngineGolden, RunUntilHonoursCancellationAndResumes) {
  des::Engine engine;
  std::vector<int> fired;
  engine.schedule_at(des::SimTime{10}, [&] { fired.push_back(10); });
  const auto mid =
      engine.schedule_at(des::SimTime{20}, [&] { fired.push_back(20); });
  engine.schedule_at(des::SimTime{30}, [&] { fired.push_back(30); });
  engine.cancel(mid);
  engine.run_until(des::SimTime{25});
  EXPECT_EQ(fired, (std::vector<int>{10}));
  EXPECT_EQ(engine.now(), des::SimTime{25});
  engine.run();
  EXPECT_EQ(fired, (std::vector<int>{10, 30}));
}

}  // namespace
