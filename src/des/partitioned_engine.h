// Conservative partitioned discrete-event simulation on one event heap.
//
// A PartitionSet models K logical processes (one per cluster switch) whose
// only interactions are posts that land at least one lookahead after the
// posting instant — the classic conservative-synchronisation invariant.
// All K partitions share one des::Engine: engine(p) returns it for every
// p, and run() is Engine::run(). What keeps the partitions apart is the
// ordering key (DESIGN.md section 9):
//
//   * a local event — Engine::schedule_at, Engine::reserve_key, or
//     post(p, p, ...) — keys as (time, priority, sched, seq), `seq` being
//     the engine's counter;
//   * a cross-partition post — post(from, to, ...) with from != to — keys
//     as (time, priority, sched, 1, source partition, post order), the
//     last three packed into the 64-bit `seq`: the top bit, then
//     kSourceBits of source partition, then the engine's counter.
//
// At equal (time, priority, sched) a cross post therefore runs after every
// local event, and cross posts run in (source, FIFO) order. Because posts
// land at least one lookahead out, this gives each partition exactly the
// event order of a per-partition engine run in lookahead windows with a
// (destination, source, FIFO) drain between them (DESIGN.md section 9
// has the proof); the lookahead check in post() is what the proof needs.
//
// A partitioned run is its own reference: it is not ordering-equivalent to
// the same model on one partition, where every boundary hop would be a
// local event (DESIGN.md section 9 has the reproduction). smpi::Runtime
// therefore always partitions by switch.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "core/units.h"
#include "des/engine.h"
#include "des/smallfn.h"
#include "des/time.h"

namespace des {

using units::PartitionId;

class PartitionSet {
 public:
  /// Width of the source-partition field of a cross post's `seq`: it sits
  /// between the top ("cross") bit and the engine's counter.
  static constexpr unsigned kSourceBits = 63 - Engine::kTagShift;
  static constexpr int kMaxPartitions = 1 << kSourceBits;

  /// `lookahead` is the minimum cross-partition latency in virtual time;
  /// required > 0 when partitions > 1. Throws std::invalid_argument when
  /// `partitions` is outside [1, kMaxPartitions].
  PartitionSet(int partitions, Duration lookahead);

  PartitionSet(const PartitionSet&) = delete;
  PartitionSet& operator=(const PartitionSet&) = delete;

  [[nodiscard]] int partitions() const noexcept { return partitions_; }
  [[nodiscard]] Duration lookahead() const noexcept { return lookahead_; }
  /// The shared engine, after checking that `p` names a partition.
  [[nodiscard]] Engine& engine(PartitionId p) {
    check(p);
    return engine_;
  }
  [[nodiscard]] const Engine& engine(PartitionId p) const {
    check(p);
    return engine_;
  }

  /// Posts `fn` into partition `to` at absolute time `at`, from partition
  /// `from`'s execution context; the event's tie-break schedule time is
  /// now(). Cross-partition posts must respect the lookahead
  /// (`at >= now() + lookahead()`, else std::logic_error) and take the
  /// cross key above; same-partition posts are a local schedule.
  void post(PartitionId from, PartitionId to, SimTime at, SmallFn fn,
            int priority = 0);

  /// Runs every partition to completion on the calling thread. The
  /// parameter is ignored; it remains only for existing callers and goes
  /// with the benchmark harness's next change.
  void run(unsigned /*ignored*/ = 1) { engine_.run(); }

  /// Virtual time of the last dispatched event (the simulation finish time
  /// after run()).
  [[nodiscard]] SimTime last_event_time() const noexcept {
    return engine_.now();
  }

  [[nodiscard]] std::uint64_t processed() const noexcept {
    return engine_.processed();
  }
  [[nodiscard]] std::uint64_t cancelled() const noexcept {
    return engine_.cancelled();
  }
  [[nodiscard]] std::uint64_t heap_high_water() const noexcept {
    return engine_.heap_high_water();
  }
  [[nodiscard]] std::uint64_t pending_high_water() const noexcept {
    return engine_.pending_high_water();
  }
  [[nodiscard]] std::uint64_t resumes() const noexcept {
    return engine_.resumes();
  }

 private:
  void check(PartitionId p) const {
    if (p.value() < 0 || p.value() >= partitions_) {
      throw std::out_of_range{"PartitionSet: no such partition"};
    }
  }

  Engine engine_;
  int partitions_ = 1;
  Duration lookahead_{};
};

}  // namespace des
