// The PEVPM contention scoreboard.
//
// Per the paper: "PEVPM maintains a contention scoreboard that stores the
// state of all outstanding communication operations at any point in the
// simulation, including message sources and destinations, departure times
// and sizes." Messages are added during sweep phases; match phases assign
// arrival times (sampling distributions parameterised by the scoreboard
// population); receives consume messages in per-pair FIFO order, removing
// them from the scoreboard.
//
// Layout: messages live in a pool with a free list, so a run allocates
// only while its peak number of messages in transit grows. Each (src, dst)
// stream is one record (its FIFO and its in-order arrival floor). The
// record is found once, through an open-addressed hash on the pair
// (`stream_of`), and named by its index after that: by the message, by a
// posted receive and by the caller's operand cache. Records exist only for
// pairs that have carried or awaited a message, so memory follows the
// active pairs rather than P^2.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "net/units.h"

namespace pevpm {

struct TransitMessage {
  std::uint64_t id = 0;
  net::Bytes bytes{};
  double depart = 0.0;        ///< sender clock at the send directive
  double arrival = -1.0;      ///< assigned during a match phase
  bool arrival_known = false;
  bool claimed = false;       ///< reserved by a posted receive
  bool consumed = false;      ///< delivered; awaiting removal
  int send_directive = 0;     ///< directive id, for attribution
  /// Next message of the same stream (or of the free list once removed).
  TransitMessage* next = nullptr;
  std::uint32_t stream = 0;   ///< index of the message's (src, dst) record
};

/// A message on the scoreboard. Valid until the message is consumed and
/// leaves the head of its stream; its slot is then reused.
using MessageRef = TransitMessage*;

class Scoreboard {
 public:
  /// An index no record has: a vacant hash bucket, or (to callers that
  /// keep indexes) a stream not yet looked up.
  static constexpr std::uint32_t kNoStream = UINT32_MAX;

  /// Index of the src->dst stream record, created on first use. The only
  /// hashed lookup; every other call takes the index it returns.
  [[nodiscard]] std::uint32_t stream_of(int src, int dst);

  /// Adds a message to `stream` in send order; returns its handle.
  MessageRef add(std::uint32_t stream, net::Bytes bytes, double depart,
                 int send_directive);

  /// Oldest unclaimed message of `stream`, or nullptr. Marks it claimed.
  [[nodiscard]] MessageRef claim(std::uint32_t stream);

  /// Marks a claimed message consumed and removes settled queue heads.
  void consume(MessageRef message);

  /// Messages in transit (added, not yet consumed) — the paper's contention
  /// level.
  [[nodiscard]] int outstanding() const noexcept { return outstanding_; }

  /// Moves every message awaiting an arrival assignment, in global send
  /// order, into `out` (cleared first). Swapping buffers keeps both
  /// vectors' capacity, so a caller that passes the same buffer each match
  /// phase stops allocating once it has grown.
  void take_unassigned(std::vector<MessageRef>& out);

  /// The arrival time of `message` given its `sampled` one: never before
  /// an earlier message on the same stream (TCP delivers in order). Raises
  /// the stream's floor to the result.
  [[nodiscard]] double settle_arrival(MessageRef message, double sampled);

  [[nodiscard]] std::uint64_t total_messages() const noexcept { return next_id_ - 1; }
  /// `stream_of` calls so far.
  [[nodiscard]] std::uint64_t stream_lookups() const noexcept {
    return lookups_;
  }

 private:
  /// One (src, dst) stream: a FIFO threaded through TransitMessage::next.
  /// Claims are taken in order, so claimed messages form a prefix and
  /// `unclaimed` marks where it ends.
  struct Stream {
    std::uint64_t key = 0;
    TransitMessage* head = nullptr;
    TransitMessage* tail = nullptr;
    TransitMessage* unclaimed = nullptr;  ///< oldest unclaimed, or null
    double last_arrival = 0.0;            ///< in-order delivery floor
  };

  void rehash(std::size_t buckets);

  /// Message storage: a deque never moves its elements, so MessageRefs stay
  /// valid while the pool grows.
  std::deque<TransitMessage> pool_;
  TransitMessage* free_ = nullptr;
  /// Stream records in first-use order; `index_` holds open-addressed
  /// bucket -> record positions (kNoStream = vacant).
  std::vector<Stream> streams_;
  std::vector<std::uint32_t> index_;
  std::vector<MessageRef> unassigned_;
  int outstanding_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t lookups_ = 0;
};

}  // namespace pevpm
