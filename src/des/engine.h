// Discrete-event engine.
//
// Events are ordered by (time, priority, schedule time, sequence number):
// simultaneous events execute in a deterministic order, and the
// schedule-time + sequence tiebreak makes same-time same-priority events
// FIFO. Within one engine `sched` (the value of now() when the event was
// scheduled) is non-decreasing in sequence order, so the extra key changes
// nothing sequentially. A frame or a transport registration that crosses
// from one cluster switch to another is scheduled through
// schedule_injected() with cross_tag(source switch) in the high bits of
// its sequence number, which fixes its order against every other event
// (DESIGN.md section 9). Exactly one execution context (the engine loop
// or one cooperative process) is active at any instant, so the queue
// needs no locking: a process switch (process.h) is a fiber switch on the
// engine's own thread.
//
// Storage is allocation-free in steady state: events live in pooled slots
// recycled through a free list, callbacks are constructed directly into the
// slot's inline buffer (smallfn.h), and the ready queue is a 4-ary heap of
// 32-byte entries whose ordering keys are embedded in the entry itself, so
// comparisons never chase a pointer. Slots live in fixed-size chunks with
// stable addresses, which lets a callback run in place while it schedules
// further events. Cancellation is lazy — the slot is flagged and its
// callback destroyed immediately, and the heap entry is discarded when it
// surfaces at the root — but bounded: once cancelled entries make up more
// than half the heap (plus a fixed slack), cancel() compacts the heap and
// re-heapifies it, so its size tracks the live events rather than every
// TCP retransmission timer ever disarmed. The pop order cannot change,
// since the ordering key is a strict total order. Generation tags on the
// slots make stale EventIds (after the event ran, was cancelled, purged,
// or the slot was recycled) harmless.
//
// An event whose only effect is bookkeeping the owner can apply on demand
// need not be queued at all: reserve_key() hands out the key it would have
// had (consuming its sequence number, so no other event's key moves), and
// has_run() says whether it would already have executed — exactly, ties at
// the same nanosecond included. net::Link retires its queue backlog this
// way instead of scheduling one release event per packet.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "des/smallfn.h"
#include "des/time.h"

namespace des {

class Engine {
 public:
  using Callback = SmallFn;

  /// Opaque handle for cancellation. Default-constructed ids are invalid.
  /// `slot` is the pool index + 1; `gen` must match the slot's current
  /// generation, which bumps every time the slot is released.
  struct EventId {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
    [[nodiscard]] bool valid() const noexcept { return slot != 0; }
  };

  /// Full ordering key of an event: events execute in ascending
  /// (time, priority, sched, seq) order.
  struct Key {
    SimTime time{};
    SimTime sched{};
    std::uint64_t seq = 0;
    std::int32_t priority = 0;
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now). Lower `priority` runs
  /// first among same-time events. The callable is constructed directly
  /// into the event slot; captures up to SmallFn::kInlineBytes never touch
  /// the heap.
  template <typename F>
  EventId schedule_at(SimTime t, F&& fn, int priority = 0) {
    if (t < now_) {
      throw std::invalid_argument{"Engine::schedule_at: time is in the past"};
    }
    const std::uint32_t index = acquire_slot();
    Slot& slot = slot_at(index);
    slot.fn.emplace(std::forward<F>(fn));
    slot.state = SlotState::kScheduled;
    const HeapEntry entry{t, now_, next_seq_++, index, priority};
    // Immediate default-priority events (the process wake-up pattern) skip
    // the heap: successive pushes have non-decreasing (time, seq), so the
    // FIFO is already sorted and the dispatcher only compares its front
    // against the heap root.
    if (t == now_ && priority == 0) {
      fifo_.push_back(entry);
    } else {
      heap_push(entry);
    }
    note_scheduled();
    return EventId{index + 1, slot.gen};
  }

  /// Schedules `fn` at now + dt.
  template <typename F>
  EventId schedule_in(Duration dt, F&& fn, int priority = 0) {
    if (dt < Duration{}) {
      throw std::invalid_argument{"Engine::schedule_in: negative delay"};
    }
    return schedule_at(now_ + dt, std::forward<F>(fn), priority);
  }

  /// Sequence numbers stay below 2^kTagShift wherever a tag is in use:
  /// schedule_injected() ORs its `tag` above them.
  static constexpr unsigned kTagShift = 44;
  /// Sources a cross tag can name: the field between the top bit and
  /// kTagShift.
  static constexpr int kMaxCrossSources = 1 << (63 - kTagShift);

  /// The `tag` of a cross post from `source` (in [0, kMaxCrossSources)):
  /// the top bit, then the source. At equal (time, priority, sched) a
  /// cross post runs after every untagged event, and cross posts run in
  /// (source, post order). This is the one definition of that key.
  [[nodiscard]] static constexpr std::uint64_t cross_tag(int source) noexcept {
    return std::uint64_t{1} << 63 | static_cast<std::uint64_t>(source)
                                        << kTagShift;
  }

  /// Schedules an already-built callback (a cross post) at absolute time
  /// `t` (>= now), with `tag` (zero, or a value with no bit below
  /// kTagShift) ORed into its sequence number; a tag orders the event
  /// after every untagged one of equal (time, priority, sched).
  /// Throws std::overflow_error when a nonzero tag would meet a sequence
  /// number of 2^kTagShift or more. Always takes the heap path.
  EventId schedule_injected(SimTime t, SmallFn fn, int priority = 0,
                            std::uint64_t tag = 0) {
    if (t < now_) {
      throw std::invalid_argument{
          "Engine::schedule_injected: time is in the past"};
    }
    if (tag != 0 && (next_seq_ >> kTagShift) != 0) {
      throw std::overflow_error{
          "Engine::schedule_injected: sequence numbers reached the tag"};
    }
    const std::uint32_t index = acquire_slot();
    Slot& slot = slot_at(index);
    slot.fn = std::move(fn);
    slot.state = SlotState::kScheduled;
    heap_push(HeapEntry{t, now_, tag | next_seq_++, index, priority});
    note_scheduled();
    return EventId{index + 1, slot_at(index).gen};
  }

  /// Returns the key schedule_at(t, fn) would give a default-priority
  /// event now, consuming its sequence number, without queueing anything.
  [[nodiscard]] Key reserve_key(SimTime t) {
    if (t < now_) {
      throw std::invalid_argument{"Engine::reserve_key: time is in the past"};
    }
    return Key{t, now_, next_seq_++, 0};
  }

  /// True when an event holding `key` (from reserve_key) would already have
  /// executed by this point: inside a callback, iff it sorts before the
  /// dispatching event; after step(), before the event step() ran; after
  /// run_until(t), iff its time is <= t; after run(), always. Keys reserved
  /// since that event started never count as run.
  [[nodiscard]] bool has_run(const Key& key) const noexcept {
    return key.seq < ran_below_seq_ && before(key, ran_key_);
  }

  /// Cancels a pending event. Returns false if it already ran, is
  /// currently running, or was already cancelled.
  bool cancel(EventId id);

  /// Runs until the queue is empty.
  void run();

  /// Runs events with time <= t, then sets now to t.
  void run_until(SimTime t);

  /// Executes the next event, if any. Returns false when the queue is empty.
  bool step();

  [[nodiscard]] std::size_t pending() const noexcept { return live_; }
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }
  /// Successful cancel() calls.
  [[nodiscard]] std::uint64_t cancelled() const noexcept { return cancelled_; }
  /// Largest heap size reached, cancelled entries included.
  [[nodiscard]] std::size_t heap_high_water() const noexcept {
    return heap_high_water_;
  }
  /// Largest pending() reached.
  [[nodiscard]] std::size_t pending_high_water() const noexcept {
    return pending_high_water_;
  }
  /// Switches into the fibers of this engine's des::Process objects.
  [[nodiscard]] std::uint64_t resumes() const noexcept { return resumes_; }

 private:
  friend class Process;  // counts resumes_

  static constexpr std::uint32_t kNil = UINT32_MAX;
  /// Slots per pool chunk. Chunked storage keeps slot addresses stable, so
  /// a callback can execute in place while scheduling (and growing the
  /// pool) underneath itself.
  static constexpr std::uint32_t kChunkShift = 9;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  /// cancel() compacts the heap once it holds more than
  /// 2 * pending() + kPurgeSlack entries. The slack keeps tiny queues from
  /// compacting on every cancel; the factor 2 makes the O(n) compaction
  /// amortised O(1) per cancel.
  static constexpr std::size_t kPurgeSlack = 64;

  enum class SlotState : std::uint8_t {
    kFree,
    kScheduled,
    kCancelled,
    kRunning
  };

  struct Slot {
    Callback fn;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNil;
    SlotState state = SlotState::kFree;
  };

  /// Heap entries carry the full ordering key so sift operations compare
  /// without touching the slot pool. `sched` is now() at schedule time
  /// (locally monotone with seq, so a no-op for purely local runs).
  struct HeapEntry {
    SimTime time{};
    SimTime sched{};
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::int32_t priority = 0;
  };

  /// The execution order, over heap entries and Keys alike.
  template <typename A, typename B>
  [[nodiscard]] static bool before(const A& a, const B& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    if (a.priority != b.priority) return a.priority < b.priority;
    if (a.sched != b.sched) return a.sched < b.sched;
    return a.seq < b.seq;
  }

  [[nodiscard]] Slot& slot_at(std::uint32_t index) noexcept {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  [[nodiscard]] std::uint32_t acquire_slot();
  /// Recycles a slot: bumps the generation and pushes it on the free list.
  /// The callback must already be moved out or destroyed.
  void release_slot(std::uint32_t index) noexcept;
  /// Runs the callback of a popped, still-live slot in place, then
  /// recycles the slot.
  void dispatch(const HeapEntry& head);

  void note_scheduled() noexcept {
    if (++live_ > pending_high_water_) pending_high_water_ = live_;
  }

  void heap_push(const HeapEntry& entry);
  /// Removes the root, restoring the heap property.
  void heap_pop_root() noexcept;
  /// Moves the hole at `i` down to where `moved` belongs and writes it.
  void sift_down(std::size_t i, const HeapEntry& moved) noexcept;
  /// Drops every cancelled heap entry, releases its slot and re-heapifies.
  void purge_cancelled() noexcept;

  /// Points `out` at the earliest pending entry (FIFO front vs heap root)
  /// without removing it. Returns false when both queues are empty;
  /// `from_heap` says which queue holds the minimum.
  [[nodiscard]] bool peek_head(const HeapEntry*& out, bool& from_heap) noexcept;
  /// Removes the entry peek_head() reported.
  void pop_head(bool from_heap) noexcept;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;  ///< slots ever created across chunks
  std::vector<HeapEntry> heap_;
  /// Immediate (time == now, priority 0) events in push order; `fifo_head_`
  /// indexes the first unconsumed entry.
  std::vector<HeapEntry> fifo_;
  std::size_t fifo_head_ = 0;
  std::uint32_t free_head_ = kNil;
  std::size_t live_ = 0;  ///< scheduled and not cancelled
  SimTime now_{};
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t heap_high_water_ = 0;
  std::size_t pending_high_water_ = 0;
  std::uint64_t resumes_ = 0;  ///< counted by Process::resume()
  /// has_run() state: every event that existed before `ran_below_seq_` was
  /// handed out and sorts before `ran_key_` has executed.
  Key ran_key_{};
  std::uint64_t ran_below_seq_ = 0;
};

}  // namespace des
