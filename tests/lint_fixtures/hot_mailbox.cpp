// Fixture: a bounded-mailbox shape — a window-dispatch / mailbox
// drain loop is fenced, so blocking or allocating mid-drain is a finding;
// the overflow slow path outside the fence may lock and allocate.
#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

struct Event {
  long at = 0;
  int payload = 0;
};

std::vector<Event> g_ring(256);
std::deque<Event> g_overflow;

// LINT:hot-path begin (fixture mailbox drain)
int drain_mailbox(int head, int tail) {
  std::unique_lock<std::mutex> gate;        // flagged: unique_lock + mutex
  Event* spill = new Event;                 // flagged: new
  std::condition_variable poke;             // flagged: condition_variable
  int drained = 0;
  while (head != tail) {
    drained += g_ring[head & 255].payload;  // fine: preallocated ring slot
    head = head + 1;
  }
  delete spill;                             // flagged: delete
  return drained;
}
// LINT:hot-path end

// The overflow path runs only when the ring is full: locking and growing
// the deque there is the documented design, and must stay quiet.
std::mutex g_overflow_gate;

void push_overflow(const Event& event) {
  std::lock_guard<std::mutex> hold{g_overflow_gate};
  g_overflow.push_back(event);
}
