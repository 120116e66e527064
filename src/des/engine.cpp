#include "des/engine.h"

namespace des {

std::uint32_t Engine::acquire_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t index = free_head_;
    free_head_ = slot_at(index).next_free;
    return index;
  }
  if ((slot_count_ & (kChunkSize - 1)) == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return slot_count_++;
}

// LINT:hot-path begin (event dispatch: no heap allocation, locks, or
// iostream below — acquire_slot above owns the one allowed allocation,
// pool-chunk growth; enforced by tools/repro_lint)
void Engine::release_slot(std::uint32_t index) noexcept {
  Slot& slot = slot_at(index);
  slot.state = SlotState::kFree;
  ++slot.gen;
  slot.next_free = free_head_;
  free_head_ = index;
}

void Engine::heap_push(const HeapEntry& entry) {
  // Hole insertion: bubble the hole up, write the entry once at the end.
  heap_.push_back(entry);
  if (heap_.size() > heap_high_water_) heap_high_water_ = heap_.size();
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!before(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void Engine::heap_pop_root() noexcept {
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, moved);
}

void Engine::sift_down(std::size_t i, const HeapEntry& moved) noexcept {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = (i << 2) + 1;
    if (first_child >= n) break;
    const std::size_t last_child = first_child + 4 < n ? first_child + 4 : n;
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], moved)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moved;
}

void Engine::purge_cancelled() noexcept {
  std::size_t kept = 0;
  for (const HeapEntry& entry : heap_) {
    if (slot_at(entry.slot).state == SlotState::kCancelled) {
      release_slot(entry.slot);
    } else {
      heap_[kept++] = entry;
    }
  }
  heap_.resize(kept);
  // Floyd's bottom-up heapify: sift every parent down, last one first.
  if (kept < 2) return;
  for (std::size_t i = (kept - 2) / 4 + 1; i-- > 0;) {
    const HeapEntry moved = heap_[i];
    sift_down(i, moved);
  }
}

bool Engine::cancel(EventId id) {
  if (!id.valid() || id.slot > slot_count_) return false;
  Slot& slot = slot_at(id.slot - 1);
  if (slot.gen != id.gen || slot.state != SlotState::kScheduled) return false;
  slot.state = SlotState::kCancelled;
  slot.fn.reset();  // release captures now; the heap entry is discarded later
  --live_;
  ++cancelled_;
  // Safe inside a callback: the dispatch loops copy the head entry before
  // running it, so nothing holds a pointer into heap_ across a callback.
  if (heap_.size() > 2 * live_ + kPurgeSlack) purge_cancelled();
  return true;
}

void Engine::dispatch(const HeapEntry& head) {
  Slot& slot = slot_at(head.slot);
  // kRunning keeps cancel() and slot reuse away while the callback executes
  // in place; chunked storage guarantees `slot` stays put even if the
  // callback grows the pool. The guard recycles the slot even when the
  // callback throws (the exception still propagates to the caller).
  slot.state = SlotState::kRunning;
  --live_;
  ran_key_ = Key{head.time, head.sched, head.seq, head.priority};
  ran_below_seq_ = next_seq_;
  now_ = head.time;
  ++processed_;
  struct Guard {
    Engine* engine;
    std::uint32_t index;
    ~Guard() {
      engine->slot_at(index).fn.reset();
      engine->release_slot(index);
    }
  } guard{this, head.slot};
  slot.fn();
}

bool Engine::peek_head(const HeapEntry*& out, bool& from_heap) noexcept {
  const bool have_fifo = fifo_head_ < fifo_.size();
  if (heap_.empty()) {
    if (!have_fifo) return false;
    out = &fifo_[fifo_head_];
    from_heap = false;
    return true;
  }
  if (have_fifo && before(fifo_[fifo_head_], heap_[0])) {
    out = &fifo_[fifo_head_];
    from_heap = false;
  } else {
    out = &heap_[0];
    from_heap = true;
  }
  return true;
}

void Engine::pop_head(bool from_heap) noexcept {
  if (from_heap) {
    heap_pop_root();
    return;
  }
  if (++fifo_head_ == fifo_.size()) {
    fifo_.clear();
    fifo_head_ = 0;
  }
}

bool Engine::step() {
  const HeapEntry* peeked = nullptr;
  bool from_heap = false;
  while (peek_head(peeked, from_heap)) {
    const HeapEntry head = *peeked;
    pop_head(from_heap);
    if (slot_at(head.slot).state == SlotState::kCancelled) {
      release_slot(head.slot);
      continue;
    }
    dispatch(head);
    return true;
  }
  return false;
}

void Engine::run() {
  while (step()) {
  }
  // Every event that exists has run.
  ran_key_ = Key{kNever, kNever, UINT64_MAX, INT32_MAX};
  ran_below_seq_ = next_seq_;
}

void Engine::run_until(SimTime t) {
  const HeapEntry* peeked = nullptr;
  bool from_heap = false;
  while (peek_head(peeked, from_heap)) {
    const HeapEntry head = *peeked;
    if (head.time > t) {
      if (slot_at(head.slot).state == SlotState::kCancelled) {
        pop_head(from_heap);
        release_slot(head.slot);
        continue;
      }
      break;
    }
    pop_head(from_heap);
    if (slot_at(head.slot).state == SlotState::kCancelled) {
      release_slot(head.slot);
      continue;
    }
    dispatch(head);
  }
  if (now_ < t) now_ = t;
  // Every event that exists with time <= t has run. A t behind an earlier
  // horizon or dispatch adds nothing to what has run.
  const Key horizon{t, kNever, UINT64_MAX, INT32_MAX};
  if (!before(horizon, ran_key_)) {
    ran_key_ = horizon;
    ran_below_seq_ = next_seq_;
  }
}
// LINT:hot-path end

}  // namespace des
