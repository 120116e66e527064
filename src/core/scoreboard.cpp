#include "core/scoreboard.h"

#include <algorithm>

#include "stats/rng.h"

namespace pevpm {

namespace {

/// Ranks are small and dense, so callers mix the packed pair (mix64)
/// before masking it to a bucket.
std::uint64_t pair_key(int src, int dst) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

}  // namespace

Scoreboard::Scoreboard(int lanes) : lanes_{lanes} {
  // Room for the messages and streams of a small run, so most runs size
  // these once instead of through a chain of regrowths.
  times_.reserve(64 * 2 * static_cast<std::size_t>(lanes));
  floors_.reserve(16 * static_cast<std::size_t>(lanes));
}

void Scoreboard::rehash(std::size_t buckets) {
  index_.assign(buckets, kNoStream);
  const std::size_t mask = buckets - 1;
  for (std::uint32_t pos = 0; pos < streams_.size(); ++pos) {
    std::size_t b = stats::mix64(streams_[pos].key) & mask;
    while (index_[b] != kNoStream) b = (b + 1) & mask;
    index_[b] = pos;
  }
}

// LINT:hot-path begin (per-message scoreboard traffic: pooled messages and
// indexed stream records; only pool, record and index growth allocate)
std::uint32_t Scoreboard::stream_of(int src, int dst) {
  ++lookups_;
  if (index_.empty()) rehash(16);
  const std::uint64_t key = pair_key(src, dst);
  const std::size_t mask = index_.size() - 1;
  std::size_t b = stats::mix64(key) & mask;
  while (index_[b] != kNoStream) {
    if (streams_[index_[b]].key == key) return index_[b];
    b = (b + 1) & mask;
  }
  const auto pos = static_cast<std::uint32_t>(streams_.size());
  index_[b] = pos;
  streams_.push_back(Stream{key});
  floors_.resize(floors_.size() + static_cast<std::size_t>(lanes_), 0.0);
  // Keep the load factor under 1/2 so probe chains stay short.
  if (streams_.size() * 2 >= index_.size()) rehash(index_.size() * 2);
  return pos;
}

MessageRef Scoreboard::add(std::uint32_t stream, net::Bytes bytes,
                           int send_directive) {
  Stream& s = streams_[stream];
  TransitMessage* message = free_;
  std::uint32_t slot = 0;
  if (message != nullptr) {
    free_ = message->next;
    slot = message->slot;
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    message = &pool_.emplace_back();
    times_.resize(times_.size() + 2 * static_cast<std::size_t>(lanes_));
  }
  *message = TransitMessage{};
  message->id = next_id_++;
  message->bytes = bytes;
  message->send_directive = send_directive;
  message->stream = stream;
  message->slot = slot;
  if (s.tail != nullptr) {
    s.tail->next = message;
  } else {
    s.head = message;
  }
  s.tail = message;
  if (s.unclaimed == nullptr) s.unclaimed = message;
  unassigned_.push_back(message);
  ++outstanding_;
  return message;
}

MessageRef Scoreboard::claim(std::uint32_t stream) {
  Stream& s = streams_[stream];
  TransitMessage* message = s.unclaimed;
  if (message == nullptr) return nullptr;
  message->claimed = true;
  s.unclaimed = message->next;
  return message;
}

void Scoreboard::consume(MessageRef message) {
  if (message->consumed) return;
  message->consumed = true;
  --outstanding_;
  // Receives may complete out of order (two irecvs waited in reverse), so
  // only a consumed head leaves the stream; later ones wait their turn.
  Stream& s = streams_[message->stream];
  while (s.head != nullptr && s.head->consumed) {
    TransitMessage* done = s.head;
    s.head = done->next;
    done->next = free_;
    free_ = done;
  }
  if (s.head == nullptr) s.tail = nullptr;
}

void Scoreboard::take_unassigned(std::vector<MessageRef>& out) {
  out.clear();
  out.swap(unassigned_);
}

// LINT:hot-path end

}  // namespace pevpm
