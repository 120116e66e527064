#include "common.h"

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>

#include <fstream>

#include "stats/summary.h"

namespace perfbench {

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

double quantile_of(std::vector<double> xs, double q) {
  return xs.empty() ? 0.0 : stats::quantile(xs, q);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of the
  // process image that exec'd this one (the Python runner's).
  std::ifstream status{"/proc/self/status"};
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void report_end_to_end(Result& result, const SetupTimes& setup,
                       const std::vector<double>& work_per_cpu_s,
                       double rss_mb) {
  result.set("setup_s", setup.cpu_s, "s");
  result.set("work_per_cpu_s", median_of(work_per_cpu_s), "1/s");
  result.set("rss_mb", rss_mb, "MB");
  result.info.push_back("setup wall s: " + std::to_string(setup.wall_s));
}

void report_wall(Result& result, const std::vector<double>& work_per_s,
                 const std::vector<double>& op_ms, bool as_metrics) {
  const double values[] = {median_of(work_per_s), quantile_of(op_ms, 0.5),
                           quantile_of(op_ms, 0.99)};
  const char* names[] = {"wall.work_per_s", "wall.p50_ms", "wall.p99_ms"};
  const char* units[] = {"1/s", "ms", "ms"};
  for (int i = 0; i < 3; ++i) {
    if (as_metrics) {
      result.set(names[i], values[i], units[i]);
    } else {
      result.info.push_back(std::string{names[i]} + ": " +
                            std::to_string(values[i]));
    }
  }
}

}  // namespace perfbench
