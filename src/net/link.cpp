#include "net/link.h"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace net {

void Link::grow_releases() {
  std::rotate(releases_.begin(),
              releases_.begin() + static_cast<std::ptrdiff_t>(release_head_),
              releases_.end());
  release_head_ = 0;
  releases_.resize(releases_.empty() ? 16 : 2 * releases_.size());
}

// LINT:hot-path begin (per-hop submit and lazy backlog retirement: the
// release ring is pooled and grows only in grow_releases above; no heap
// allocation, locks, or iostream below; enforced by tools/repro_lint)
void Link::retire() noexcept {
  const std::size_t mask = releases_.size() - 1;
  while (release_count_ != 0 &&
         engine_.has_run(releases_[release_head_].key)) {
    backlog_ -= releases_[release_head_].bytes;
    release_head_ = (release_head_ + 1) & mask;
    --release_count_;
  }
}

Link::Resolved Link::submit_resolved(const Packet& packet) {
  retire();
  if (backlog_ + packet.wire_bytes > params_.buffer) {
    ++dropped_;
    return Resolved{SubmitOutcome::kDropped, engine_.now()};
  }
  backlog_ += packet.wire_bytes;
  peak_backlog_ = std::max(peak_backlog_, backlog_);

  const des::SimTime start = std::max(engine_.now(), busy_until_);
  const des::Duration tx =
      params_.per_packet + params_.rate.time_to_send(packet.wire_bytes);
  busy_until_ = start + tx;
  busy_time_ += tx;
  ++sent_;
  bytes_sent_ += packet.wire_bytes;

  // The packet leaves the queue when fully serialised (retired lazily), and
  // arrives at the far end one propagation latency later.
  if (release_count_ == releases_.size()) grow_releases();
  releases_[(release_head_ + release_count_++) & (releases_.size() - 1)] =
      Release{engine_.reserve_key(busy_until_), packet.wire_bytes};

  // Injected wire loss: the packet was transmitted (it paid for its queue
  // slot and serialisation above) but never arrives.
  if (fault_ && fault_->should_drop(engine_.now())) {
    ++lost_;
    return Resolved{SubmitOutcome::kLost, busy_until_ + params_.latency};
  }
  return Resolved{SubmitOutcome::kDelivered, busy_until_ + params_.latency};
}
// LINT:hot-path end

void Link::reset_stats() noexcept {
  retire();
  sent_ = 0;
  dropped_ = 0;
  lost_ = 0;
  bytes_sent_ = Bytes{};
  peak_backlog_ = backlog_;
  busy_time_ = des::Duration{};
}

}  // namespace net
