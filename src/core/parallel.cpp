#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace pevpm {

unsigned resolve_threads(int requested) noexcept {
  if (requested >= 1) return static_cast<unsigned>(requested);
  return std::max(1u, std::thread::hardware_concurrency());
}

void parallel_for(int total, unsigned threads,
                  const std::function<void(int)>& fn) {
  if (total <= 0) return;
  const unsigned workers =
      std::min<unsigned>(std::max(1u, threads), static_cast<unsigned>(total));
  if (workers == 1 || total == 1) {
    for (int i = 0; i < total; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  int error_index = total;
  std::mutex error_mu;
  auto drain = [&] {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      try {
        fn(i);
      } catch (...) {
        // Every index below i was claimed before it and runs to its end,
        // so the lowest failing index is the one a serial loop reports.
        std::lock_guard lock{error_mu};
        if (i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(workers - 1);
    for (unsigned t = 1; t < workers; ++t) helpers.emplace_back(drain);
    drain();
  }  // joins the helpers
  if (error) std::rethrow_exception(error);
}

}  // namespace pevpm
