// Fault-injection tail: reproduces the paper's TCP-retransmission outliers.
//
// Grove & Coddington observed rare ~200 ms spikes in the Figure 3/4
// distributions and attributed them to TCP retransmit timeouts under loss
// on Fast Ethernet. The base simulator only loses packets when a queue
// overflows; this bench instead injects seeded random loss (net/fault.h)
// into an uncontended 2x1 ping-pong and shows the latency PDF growing a
// distinct retransmission mode pinned near the configured RTO — two to
// three orders of magnitude above the lossless median — while the delivered
// message count stays exactly the same (TCP-lite reliability).
//
// Acceptance: the retransmit mode sits within a factor of three of the RTO,
// at >= 100x the lossless median, and the loss run reports nonzero
// retransmit/timeout counters.
#include <cstdio>

#include "bench_util.h"
#include "gate.h"
#include "stats/summary.h"

int main() {
  benchutil::banner("fault tail", "injected loss vs the 200 ms RTO mode");
  const int reps = benchutil::scaled(500, 80);
  const net::Bytes size{1024};
  const double loss_rate = 0.02;

  auto opt = benchutil::bench_options(2, 1, reps);
  opt.bin_width_us = 50.0;

  const auto lossless = mpibench::run_isend(opt, size);
  const double lossless_median = lossless.distribution().quantile(0.5);

  opt.cluster.fault.loss_rate = loss_rate;
  opt.cluster.fault.seed = opt.seed;
  const auto lossy = mpibench::run_isend(opt, size);
  const auto lossy_dist = lossy.distribution();
  const double rto_s = opt.cluster.tcp.rto_initial.to_seconds();

  // The retransmit mode: the fullest histogram bin clearly above the
  // lossless bulk (50x its median keeps jitter spikes out).
  double mode_s = 0.0;
  std::uint64_t mode_count = 0;
  for (const auto& bin : lossy.oneway.bins()) {
    if (bin.lo < 50.0 * lossless_median) continue;
    if (bin.count > mode_count) {
      mode_count = bin.count;
      mode_s = 0.5 * (bin.lo + bin.hi);
    }
  }
  const double ratio = lossless_median > 0 ? mode_s / lossless_median : 0.0;

  std::printf("\n# size=%llu B, loss_rate=%.3f, rto=%.0f ms, seed %llu\n",
              static_cast<unsigned long long>(size.count()), loss_rate, rto_s * 1e3,
              static_cast<unsigned long long>(opt.seed));
  std::printf("run,median_us,p99_us,p999_us,max_us,retransmits,timeouts,"
              "faults,messages\n");
  const auto row = [](const char* name,
                      const mpibench::PointToPointResult& r) {
    const auto d = r.distribution();
    std::printf("%s,%.1f,%.1f,%.1f,%.1f,%llu,%llu,%llu,%llu\n", name,
                d.quantile(0.5) * 1e6, d.quantile(0.99) * 1e6,
                d.quantile(0.999) * 1e6, d.max() * 1e6,
                static_cast<unsigned long long>(r.tcp_retransmits),
                static_cast<unsigned long long>(r.tcp_timeouts),
                static_cast<unsigned long long>(r.faults_injected),
                static_cast<unsigned long long>(r.messages));
  };
  row("lossless", lossless);
  row("lossy", lossy);

  std::printf("\n# retransmit mode %.1f us = %.0fx lossless median %.1f us "
              "(rto %.0f ms)\n",
              mode_s * 1e6, ratio, lossless_median * 1e6, rto_s * 1e3);
  const bool mode_near_rto = mode_s > rto_s / 3.0 && mode_s < rto_s * 3.0;
  const bool pass = mode_near_rto && ratio >= 100.0 &&
                    lossy.tcp_retransmits > 0 && lossy.tcp_timeouts > 0 &&
                    lossy.messages == lossless.messages;
  std::printf("# acceptance: mode within 3x of rto, >= 100x lossless "
              "median, retransmits > 0,\n# identical message count -> %s\n",
              pass ? "PASS" : "FAIL");

  std::printf("\nsize,run,bin_lo_us,bin_hi_us,count\n");
  for (const auto& bin : lossy.oneway.bins()) {
    if (bin.count == 0) continue;
    std::printf("%llu,lossy,%.1f,%.1f,%llu\n",
                static_cast<unsigned long long>(size.count()), bin.lo * 1e6,
                bin.hi * 1e6, static_cast<unsigned long long>(bin.count));
  }

  serve::Json doc{serve::Json::Object{}};
  doc.set("bench", "fault_tail");
  doc.set("size_bytes", size.count());
  doc.set("loss_rate", loss_rate);
  doc.set("rto_ms", rto_s * 1e3);
  doc.set("lossless_median_us", lossless_median * 1e6);
  doc.set("retransmit_mode_us", mode_s * 1e6);
  doc.set("mode_over_median", ratio);
  doc.set("lossy_p99_us", lossy_dist.quantile(0.99) * 1e6);
  doc.set("lossy_p999_us", lossy_dist.quantile(0.999) * 1e6);
  doc.set("retransmits", lossy.tcp_retransmits);
  doc.set("timeouts", lossy.tcp_timeouts);
  doc.set("faults_injected", lossy.faults_injected);
  doc.set("pass", pass);
  if (!gate::emit(doc)) return 1;
  return pass ? 0 : 1;
}
