// Self-tests of the benchmark's output checks: every check accepts a right
// answer and rejects a deliberately wrong one, so none of them can pass
// unconditionally. Build and run with
//
//   python3 perfbench/run.py --self-test
#include <cstdio>
#include <string>

#include "checks.h"
#include "mpibench/benchmark.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

bool passes(const std::string& why) { return why.empty(); }

/// The Perseus NIC: 100 Mbit/s, so 1 KiB needs 81.92 us on the wire.
constexpr double kNicBitsPerS = 100e6;

/// A well-formed cell: nprocs x reps messages, each in both histograms;
/// the first one-way time is `fastest_s`.
mpibench::PointToPointResult good_cell(net::Bytes size, int nprocs, int reps,
                                       double fastest_s = 1e-4) {
  mpibench::PointToPointResult cell;
  cell.size = size;
  for (int i = 0; i < nprocs * reps; ++i) {
    cell.oneway.add(i == 0 ? fastest_s : 1e-4 + 1e-7 * i);
    cell.sender_hist.add(2e-5);
    ++cell.messages;
  }
  return cell;
}

std::string check(const mpibench::PointToPointResult& cell, net::Bytes size) {
  return perfbench::check_isend_cell(cell, size, 8, 5, kNicBitsPerS);
}

void test_isend_cell() {
  const net::Bytes size{1024};
  expect(passes(check(good_cell(size, 8, 5), size)), "a complete cell passes");

  mpibench::PointToPointResult short_count = good_cell(size, 8, 5);
  --short_count.messages;
  expect(!passes(check(short_count, size)), "a short message count is rejected");

  expect(!passes(check(good_cell(size, 8, 4), size)),
         "a cell missing a repetition is rejected");

  mpibench::PointToPointResult lost_sample = good_cell(size, 8, 5);
  lost_sample.oneway = stats::Histogram{1e-5};
  expect(!passes(check(lost_sample, size)),
         "a histogram total that disagrees is rejected");

  expect(!passes(check(mpibench::PointToPointResult{}, size)),
         "a skipped cell is rejected");

  expect(!passes(check(good_cell(net::Bytes{2048}, 8, 5), size)),
         "a cell of the wrong size is rejected");

  expect(passes(check(good_cell(size, 8, 5, 82e-6), size)),
         "a one-way time just above the wire time passes");
  expect(!passes(check(good_cell(size, 8, 5, 80e-6), size)),
         "a one-way time faster than the wire is rejected");
  expect(!passes(check(good_cell(size, 8, 5, -1e-6), size)),
         "a negative one-way time is rejected");
}

pevpm::Prediction prediction_of(double seconds) {
  pevpm::Prediction p;
  p.makespan.add(seconds);
  return p;
}

void test_prediction() {
  expect(passes(perfbench::check_prediction(prediction_of(1.02), 1.0, 5.0)),
         "a prediction 2% off passes");
  expect(!passes(perfbench::check_prediction(prediction_of(1.06), 1.0, 5.0)),
         "a prediction 6% slow is rejected");
  expect(!passes(perfbench::check_prediction(prediction_of(0.94), 1.0, 5.0)),
         "a prediction 6% fast is rejected");
  pevpm::Prediction deadlocked = prediction_of(1.0);
  deadlocked.deadlocked = true;
  expect(!passes(perfbench::check_prediction(deadlocked, 1.0, 5.0)),
         "a deadlocked prediction is rejected");
  expect(!passes(perfbench::check_prediction(prediction_of(1.0), 0.0, 5.0)),
         "a zero reference is rejected");
}

void test_reply() {
  const std::string local = "procs 8  mean 0.123456 s\n";
  expect(passes(perfbench::check_reply(local, local)),
         "an identical reply passes");
  std::string corrupted = local;
  corrupted[14] = '7';
  expect(!passes(perfbench::check_reply(corrupted, local)),
         "a corrupted reply is rejected");
  expect(!passes(perfbench::check_reply(local.substr(0, 10), local)),
         "a truncated reply is rejected");
}

void test_digests() {
  std::vector<mpibench::PointToPointResult> a{good_cell(net::Bytes{1024}, 4, 3)};
  std::vector<mpibench::PointToPointResult> b = a;
  expect(passes(perfbench::check_digest(perfbench::digest_of(a),
                                        perfbench::digest_of(b))),
         "equal sweeps have equal digests");
  b[0].oneway.add(5e-4);
  expect(!passes(perfbench::check_digest(perfbench::digest_of(a),
                                         perfbench::digest_of(b))),
         "one extra sample changes the sweep digest");
  expect(perfbench::digest_of(prediction_of(1.0)) !=
             perfbench::digest_of(prediction_of(1.0 + 1e-12)),
         "a last-bit change changes the prediction digest");
}

}  // namespace

int main() {
  test_isend_cell();
  test_prediction();
  test_reply();
  test_digests();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
