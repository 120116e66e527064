#include "checks.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common.h"

namespace perfbench {

std::string check_isend_cell(const mpibench::PointToPointResult& cell,
                             net::Bytes size, int nprocs, int reps,
                             double nic_bits_per_s) {
  const auto expected = static_cast<std::uint64_t>(nprocs) *
                        static_cast<std::uint64_t>(reps);
  char buf[160];
  if (cell.messages == 0) {
    std::snprintf(buf, sizeof buf, "%zu B cell was skipped",
                  static_cast<std::size_t>(size.count()));
    return buf;
  }
  if (cell.size != size) {
    std::snprintf(buf, sizeof buf, "cell reports %zu B, asked for %zu B",
                  static_cast<std::size_t>(cell.size.count()),
                  static_cast<std::size_t>(size.count()));
    return buf;
  }
  if (cell.messages != expected) {
    std::snprintf(buf, sizeof buf,
                  "%zu B cell counted %" PRIu64 " messages, expected %" PRIu64,
                  static_cast<std::size_t>(size.count()), cell.messages,
                  expected);
    return buf;
  }
  if (cell.oneway.total() != expected || cell.sender_hist.total() != expected) {
    std::snprintf(buf, sizeof buf,
                  "%zu B cell histograms hold %" PRIu64 " / %" PRIu64
                  " samples, expected %" PRIu64,
                  static_cast<std::size_t>(size.count()), cell.oneway.total(),
                  cell.sender_hist.total(), expected);
    return buf;
  }
  if (cell.oneway.underflow() != 0) {
    std::snprintf(buf, sizeof buf,
                  "%zu B cell has %" PRIu64 " negative one-way times",
                  static_cast<std::size_t>(size.count()),
                  cell.oneway.underflow());
    return buf;
  }
  const double wire_s =
      8.0 * static_cast<double>(size.count()) / nic_bits_per_s;
  if (!(cell.oneway.summary().min() >= wire_s)) {
    std::snprintf(buf, sizeof buf,
                  "%zu B cell's fastest one-way time %.3g s is below the "
                  "%.3g s the payload needs on the NIC",
                  static_cast<std::size_t>(size.count()),
                  cell.oneway.summary().min(), wire_s);
    return buf;
  }
  return {};
}

double error_pct(double predicted_s, double reference_s) {
  return 100.0 * std::fabs(predicted_s - reference_s) / reference_s;
}

std::string check_prediction(const pevpm::Prediction& prediction,
                             double reference_s, double limit_pct) {
  if (prediction.deadlocked) return "a replication deadlocked";
  if (!(reference_s > 0.0)) return "reference time is not positive";
  const double err = error_pct(prediction.seconds(), reference_s);
  if (!(err <= limit_pct)) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "prediction %.6f s is %.2f%% off the reference %.6f s "
                  "(limit %.1f%%)",
                  prediction.seconds(), err, reference_s, limit_pct);
    return buf;
  }
  return {};
}

std::string check_reply(const std::string& reply_summary,
                        const std::string& local_summary) {
  if (reply_summary == local_summary) return {};
  std::size_t at = 0;
  while (at < reply_summary.size() && at < local_summary.size() &&
         reply_summary[at] == local_summary[at]) {
    ++at;
  }
  return "reply differs from the local evaluation at byte " +
         std::to_string(at);
}

std::string check_digest(std::uint64_t first, std::uint64_t rerun) {
  if (first == rerun) return {};
  return "same-seed rerun changed the output digest";
}

namespace {

void add_histogram(Digest& d, const stats::Histogram& h) {
  d.add(static_cast<std::uint64_t>(h.bin_count()));
  for (std::size_t i = 0; i < h.bin_count(); ++i) d.add(h.count_at(i));
  d.add(h.summary().mean());
  d.add(h.summary().min());
  d.add(h.summary().max());
}

}  // namespace

std::uint64_t digest_of(
    const std::vector<mpibench::PointToPointResult>& cells) {
  Digest d;
  for (const mpibench::PointToPointResult& c : cells) {
    d.add(static_cast<std::uint64_t>(c.size.count()));
    d.add(c.messages);
    add_histogram(d, c.oneway);
    add_histogram(d, c.sender_hist);
    d.add(c.tcp_timeouts);
    d.add(c.tcp_retransmits);
    d.add(c.tcp_fast_retransmits);
    d.add(c.link_drops);
  }
  return d.value();
}

std::uint64_t digest_of(const pevpm::Prediction& prediction) {
  Digest d;
  d.add(static_cast<std::uint64_t>(prediction.makespan.count()));
  d.add(prediction.makespan.mean());
  d.add(prediction.makespan.stddev());
  d.add(prediction.makespan.min());
  d.add(prediction.makespan.max());
  d.add(prediction.detail.makespan);
  d.add(prediction.detail.messages);
  d.add(static_cast<std::uint64_t>(prediction.deadlocked));
  return d.value();
}

}  // namespace perfbench
