#include "des/partitioned_engine.h"

#include <utility>

namespace des {

PartitionSet::PartitionSet(int partitions, Duration lookahead)
    : partitions_{partitions}, lookahead_{lookahead} {
  if (partitions < 1 || partitions > kMaxPartitions) {
    throw std::invalid_argument{
        "PartitionSet: partitions outside [1, kMaxPartitions]"};
  }
  if (partitions > 1 && lookahead <= Duration{}) {
    throw std::invalid_argument{"PartitionSet: lookahead must be > 0"};
  }
}

// LINT:hot-path begin (cross-partition post: one heap push on the shared
// engine — no allocation, locks or iostream here. Enforced by
// tools/repro_lint.)
void PartitionSet::post(PartitionId from, PartitionId to, SimTime at,
                        SmallFn fn, int priority) {
  check(from);
  check(to);
  if (from == to) {
    engine_.schedule_injected(at, std::move(fn), priority);
    return;
  }
  if (at < engine_.now() + lookahead_) {
    throw std::logic_error{"PartitionSet::post: event inside the lookahead"};
  }
  constexpr std::uint64_t kCross = std::uint64_t{1} << 63;
  engine_.schedule_injected(
      at, std::move(fn), priority,
      kCross | static_cast<std::uint64_t>(from.value()) << Engine::kTagShift);
}
// LINT:hot-path end

}  // namespace des
