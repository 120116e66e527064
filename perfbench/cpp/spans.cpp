#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <new>
#include <utility>

#include "serve/json.h"

// ---------------------------------------------------------------------------
// Instrumented global allocator. Counting is gated so the untraced run pays
// one relaxed load per allocation and nothing else.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench::spans {
namespace {

using SteadyClock = std::chrono::steady_clock;

struct Record {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while the span is open
  std::int32_t parent = -1;  ///< index of the causing span, -1 for a root
  std::uint64_t request = 0;
};

const SteadyClock::time_point g_epoch = SteadyClock::now();
std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<Record> g_records;  // guarded by g_mu
thread_local std::int32_t t_current = -1;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now() - g_epoch)
      .count();
}

std::int32_t begin(const char* name, std::uint64_t request,
                   std::int32_t parent) {
  const std::int64_t start = now_ns();
  std::lock_guard lock{g_mu};
  g_records.push_back(Record{name, start, -1, parent, request});
  return static_cast<std::int32_t>(g_records.size() - 1);
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it (children on other threads may overlap).
std::vector<double> self_times(const std::vector<Record>& all) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      all.size());
  for (const Record& r : all) {
    if (r.parent >= 0 && r.end_ns >= 0) {
      children[static_cast<std::size_t>(r.parent)].emplace_back(r.start_ns,
                                                                r.end_ns);
    }
  }
  std::vector<double> self(all.size(), 0.0);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Record& r = all[i];
    if (r.end_ns < 0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = r.start_ns;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, reach);
      hi = std::min(hi, r.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = static_cast<double>(r.end_ns - r.start_ns - covered) * 1e-9;
  }
  return self;
}

std::vector<Record> records() {
  std::lock_guard lock{g_mu};
  return g_records;
}

}  // namespace

void count_allocations(bool on) noexcept {
  g_count_allocs.store(on, std::memory_order_relaxed);
}

std::uint64_t allocations() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

void enable(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t request)
    : Span(name, request, t_current) {}

Span::Span(const char* name, std::uint64_t request, std::int32_t parent) {
  if (!enabled()) return;
  index_ = begin(name, request, parent);
  saved_current_ = t_current;
  t_current = index_;
}

Span::~Span() {
  if (index_ < 0) return;
  const std::int64_t end = now_ns();
  {
    std::lock_guard lock{g_mu};
    g_records[static_cast<std::size_t>(index_)].end_ns = end;
  }
  t_current = saved_current_;
}

std::vector<double> durations(const std::string& name) {
  std::vector<double> out;
  std::lock_guard lock{g_mu};
  for (const Record& r : g_records) {
    if (r.end_ns >= 0 && name == r.name) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-9);
    }
  }
  return out;
}

std::vector<NameTotals> totals() {
  const std::vector<Record> all = records();
  const std::vector<double> self = self_times(all);
  std::map<std::string, NameTotals> by_name;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].end_ns < 0) continue;
    NameTotals& t = by_name[all[i].name];
    t.name = all[i].name;
    ++t.count;
    t.total_s += static_cast<double>(all[i].end_ns - all[i].start_ns) * 1e-9;
    t.self_s += self[i];
  }
  std::vector<NameTotals> out;
  for (auto& [name, t] : by_name) out.push_back(std::move(t));
  return out;
}

bool write_json(const std::string& path, const std::string& workload,
                std::uint64_t seed) {
  const std::vector<Record> all = records();
  serve::Json list{serve::Json::Array{}};
  for (const Record& r : all) {
    serve::Json span{serve::Json::Object{}};
    span.set("name", serve::Json{r.name});
    span.set("start_ns", serve::Json{r.start_ns});
    span.set("end_ns", serve::Json{r.end_ns});
    span.set("parent", serve::Json{static_cast<std::int64_t>(r.parent)});
    span.set("request", serve::Json{r.request});
    list.as_array().push_back(std::move(span));
  }
  serve::Json by_name{serve::Json::Object{}};
  for (const NameTotals& t : totals()) {
    serve::Json entry{serve::Json::Object{}};
    entry.set("count", serve::Json{t.count});
    entry.set("total_s", serve::Json{t.total_s});
    entry.set("self_s", serve::Json{t.self_s});
    by_name.set(t.name, std::move(entry));
  }
  serve::Json doc{serve::Json::Object{}};
  doc.set("workload", serve::Json{workload});
  doc.set("seed", serve::Json{seed});
  doc.set("totals", std::move(by_name));
  doc.set("spans", std::move(list));
  std::ofstream out{path};
  out << doc.dump() << "\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench::spans
