// The PEVPM virtual machine: sweep/match semantics, scoreboard, sampler
// modes, deadlock detection and loss attribution.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "core/parse.h"
#include "core/predict.h"
#include "core/scoreboard.h"
#include "core/sampler.h"
#include "core/vm.h"
#include "mpibench/table.h"
#include "program_layout.h"

namespace {

using mpibench::DistributionTable;
using mpibench::OpKind;

/// A table with constant delivery and sender times: predictions become
/// exactly computable by hand.
DistributionTable constant_table(double oneway_s, double sender_s,
                                 int contention = 1) {
  DistributionTable table;
  table.insert(OpKind::kPtpOneWay, net::Bytes{0}, contention,
               stats::EmpiricalDistribution::constant(oneway_s));
  table.insert(OpKind::kPtpOneWay, net::Bytes{1<<20}, contention,
               stats::EmpiricalDistribution::constant(oneway_s));
  table.insert(OpKind::kPtpSender, net::Bytes{0}, contention,
               stats::EmpiricalDistribution::constant(sender_s));
  table.insert(OpKind::kPtpSender, net::Bytes{1<<20}, contention,
               stats::EmpiricalDistribution::constant(sender_s));
  return table;
}

/// Spread delivery and sender distributions (defined below, beside the
/// golden runs that use them).
DistributionTable spread_table();

pevpm::SimulationResult run(const pevpm::Model& model, int nprocs,
                            const DistributionTable& table,
                            pevpm::SamplerOptions opts = {}) {
  pevpm::DeliverySampler sampler{table, opts, 42};
  return pevpm::simulate(model, nprocs, {}, sampler);
}

TEST(Vm, SerialOnlyModelSumsComputeTime) {
  const auto model = pevpm::parse_model("loop 10 {\n serial time = 0.5\n}\n");
  const auto table = constant_table(1.0, 0.0);
  const auto result = run(model, 4, table);
  EXPECT_DOUBLE_EQ(result.makespan, 5.0);
  for (const auto& proc : result.processes) {
    EXPECT_DOUBLE_EQ(proc.compute, 5.0);
    EXPECT_DOUBLE_EQ(proc.blocked, 0.0);
  }
  EXPECT_FALSE(result.deadlocked);
}

TEST(Vm, PingPongTimesAreExactWithConstantTable) {
  // p0 sends (sender cost 1 ms), message arrives 10 ms after depart; p1
  // replies. One round trip = 2 x 10 ms for the waiting side.
  const char* text = R"(
runon procnum == 0 {
  message send size = 100 to = 1
  message recv size = 100 from = 1
} else {
  message recv size = 100 from = 0
  message send size = 100 to = 0
}
)";
  const auto model = pevpm::parse_model(text);
  const auto table = constant_table(10e-3, 1e-3);
  const auto result = run(model, 2, table);
  // p1: blocked until t=10ms, sends (1ms) -> finishes at 11ms.
  // p0: sends (1ms), then waits for p1's reply, which departed at p1's
  // clock 10ms and arrives 10ms later.
  EXPECT_NEAR(result.processes[1].finish, 0.011, 1e-9);
  EXPECT_NEAR(result.processes[0].finish, 0.020, 1e-9);
  EXPECT_EQ(result.messages, 2u);
}

TEST(Vm, LateReceiverPaysDrainCostNotArrival) {
  const char* text = R"(
runon procnum == 0 {
  message send size = 100 to = 1
} else {
  serial time = 1.0
  message recv size = 100 from = 0
}
)";
  const auto model = pevpm::parse_model(text);
  const auto table = constant_table(10e-3, 1e-3);
  const auto result = run(model, 2, table);
  // The message arrived at 10 ms; p1 receives at 1 s + drain (sender-table
  // proxy cost, 1 ms).
  EXPECT_NEAR(result.processes[1].finish, 1.001, 1e-9);
}

TEST(Vm, RunonGuardsSelectProcesses) {
  const char* text = R"(
runon procnum == 2 {
  serial time = 7.0
} else {
  serial time = 1.0
}
)";
  const auto model = pevpm::parse_model(text);
  const auto result = run(model, 4, constant_table(1.0, 0.0));
  EXPECT_DOUBLE_EQ(result.processes[2].compute, 7.0);
  EXPECT_DOUBLE_EQ(result.processes[0].compute, 1.0);
  EXPECT_DOUBLE_EQ(result.makespan, 7.0);
}

TEST(Vm, NonblockingOverlapsComputeWithTransfer) {
  const char* text = R"(
runon procnum == 0 {
  message send size = 100 to = 1
} else {
  message irecv size = 100 from = 0 handle = h
  serial time = 0.008
  wait h
}
)";
  const auto model = pevpm::parse_model(text);
  const auto table = constant_table(10e-3, 0.0);
  const auto result = run(model, 2, table);
  // Compute (8 ms) overlaps the 10 ms transfer: wait only blocks 2 ms.
  EXPECT_NEAR(result.processes[1].finish, 0.010, 1e-9);
  EXPECT_NEAR(result.processes[1].blocked, 0.002, 1e-9);
}

TEST(Vm, WaitOnIsendHandleCompletesInstantly) {
  const char* text = R"(
runon procnum == 0 {
  message isend size = 100 to = 1 handle = s
  wait s
} else {
  message recv size = 100 from = 0
}
)";
  const auto model = pevpm::parse_model(text);
  const auto table = constant_table(10e-3, 1e-3);
  const auto result = run(model, 2, table);
  EXPECT_NEAR(result.processes[0].finish, 1e-3, 1e-9);
}

TEST(Vm, MessagesMatchFifoPerPair) {
  const char* text = R"(
runon procnum == 0 {
  message send size = 1 to = 1
  message send size = 2 to = 1
} else {
  message recv size = 1 from = 0
  message recv size = 2 from = 0
}
)";
  const auto model = pevpm::parse_model(text);
  const auto result = run(model, 2, constant_table(1e-3, 0.0));
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(result.messages, 2u);
}

// Stream matching under the constant table (10 ms delivery, 1 ms sender
// cost and late-receive drain): every finish time below is worked by hand.
constexpr double kStreamOneWay = 10e-3;
constexpr double kStreamSender = 1e-3;

TEST(VmStreams, ReceivesPostedBeforeTheirSendsOnTwoStreams) {
  // p0 posts each receive before its sender has sent: p1 sends only after
  // p0 sweeps, and p2 only after a message from p1 reaches it.
  const char* text = R"(
runon procnum == 0 {
  message recv size = 100 from = 1
  message recv size = 100 from = 2
} else {
  runon procnum == 1 {
    serial time = 1.0
    message send size = 100 to = 0
    message send size = 100 to = 2
  } else {
    message recv size = 100 from = 1
    message send size = 100 to = 0
  }
}
)";
  const auto model = pevpm::parse_model(text);
  const auto result =
      run(model, 3, constant_table(kStreamOneWay, kStreamSender));
  ASSERT_FALSE(result.deadlocked);
  EXPECT_EQ(result.messages, 3u);
  // p1 departs at 1.000 (to p0) and 1.001 (to p2), done at 1.002; p2 gets
  // its message at 1.011 and departs then, done at 1.012; p0 gets p1's at
  // 1.010, then p2's at 1.021.
  EXPECT_DOUBLE_EQ(result.processes[1].finish, 1.002);
  EXPECT_DOUBLE_EQ(result.processes[2].finish, 1.012);
  EXPECT_DOUBLE_EQ(result.processes[0].finish, 1.021);
  EXPECT_DOUBLE_EQ(result.processes[0].blocked, 1.021);
}

TEST(VmStreams, TwoIrecvsWaitedInReverseOrder) {
  // Both messages are on the stream when p1 posts its irecvs, so a claims
  // the first and b the second; b completes (and is consumed) first. The
  // second round reuses the stream after both left it.
  const char* text = R"(
loop 2 {
  runon procnum == 0 {
    message send size = 100 to = 1
    serial time = 1.0
    message send size = 100 to = 1
  } else {
    message irecv size = 100 from = 0 handle = a
    message irecv size = 100 from = 0 handle = b
    wait b
    wait a
  }
}
)";
  const auto model = pevpm::parse_model(text);
  const auto result =
      run(model, 2, constant_table(kStreamOneWay, kStreamSender));
  ASSERT_FALSE(result.deadlocked);
  EXPECT_EQ(result.messages, 4u);
  // p0 departs at 0, 1.001, 1.002 and 2.003, done at 2.004. p1 waits for
  // b (1.011), drains a (1.012), then waits for b (2.013), drains a.
  EXPECT_DOUBLE_EQ(result.processes[0].finish, 2.004);
  EXPECT_DOUBLE_EQ(result.processes[1].finish, 2.014);
}

TEST(VmStreams, PeerReadingAnInductionVariableIsResolvedEachTime) {
  // The peers read k, so no operand cache holds their streams.
  const char* text = R"(
runon procnum == 0 {
  serial time = 0.1
}
loop numprocs - 1 as k {
  message send size = 100 to = (procnum + k + 1) % numprocs
  message recv size = 100 from = (procnum + numprocs - k - 1) % numprocs
}
)";
  const auto model = pevpm::parse_model(text);
  const auto result =
      run(model, 3, constant_table(kStreamOneWay, kStreamSender));
  ASSERT_FALSE(result.deadlocked);
  EXPECT_EQ(result.messages, 6u);
  // k = 0: p0 departs at 0.1 and drains p2's early message (0.102); p1
  // waits for p0's (0.110), p2 for p1's (0.010). k = 1: p0 waits for p1's
  // (departed 0.110), p1 drains p2's (0.112), p2 waits for p0's (0.112).
  EXPECT_DOUBLE_EQ(result.processes[0].finish, 0.120);
  EXPECT_DOUBLE_EQ(result.processes[1].finish, 0.112);
  EXPECT_DOUBLE_EQ(result.processes[2].finish, 0.112);
}

TEST(Vm, DeadlockIsReportedNotThrown) {
  const char* text = R"(
message recv size = 8 from = (procnum + 1) % numprocs
message send size = 8 to = (procnum + 1) % numprocs
)";
  const auto model = pevpm::parse_model(text);
  const auto result = run(model, 3, constant_table(1e-3, 0.0));
  EXPECT_TRUE(result.deadlocked);
  EXPECT_EQ(result.deadlocked_processes.size(), 3u);
  EXPECT_EQ(result.deadlocked_directives.size(), 3u);
}

TEST(Vm, ModelErrorsThrow) {
  const auto table = constant_table(1e-3, 0.0);
  const auto self = pevpm::parse_model("message send size = 8 to = procnum\n");
  EXPECT_THROW((void)run(self, 2, table), pevpm::ModelError);
  const auto oob = pevpm::parse_model("message send size = 8 to = numprocs\n");
  EXPECT_THROW((void)run(oob, 2, table), pevpm::ModelError);
  const auto badwait = pevpm::parse_model("wait nothing\n");
  EXPECT_THROW((void)run(badwait, 2, table), pevpm::ModelError);
}

TEST(Vm, LossAttributionPinpointsTheSlowReceive) {
  const char* text = R"(
runon procnum == 0 {
  serial time = 2.0
  message send size = 8 to = 1
} else {
  message recv size = 8 from = 0
}
)";
  const auto model = pevpm::parse_model(text);
  const auto result = run(model, 2, constant_table(1e-3, 0.0));
  ASSERT_FALSE(result.deadlocked);
  EXPECT_NEAR(result.processes[1].blocked, 2.001, 1e-9);
  const auto losses = result.top_losses(1);
  ASSERT_EQ(losses.size(), 1u);
  EXPECT_NEAR(losses[0].second, 2.001, 1e-9);
}

TEST(Vm, AverageAndMinimumModesAreDeterministicBounds) {
  // A two-point distribution: min 1 ms, max 3 ms (mean 2 ms).
  // Entries exactly at the message size, so lookups return the original
  // distribution object (blending would blur means to bin midpoints).
  DistributionTable table;
  stats::Histogram h{1e-4};
  h.add(1e-3);
  h.add(3e-3);
  table.insert(OpKind::kPtpOneWay, net::Bytes{100}, 1, stats::EmpiricalDistribution{h});
  table.insert(OpKind::kPtpSender, net::Bytes{100}, 1,
               stats::EmpiricalDistribution::constant(0.0));
  const char* text = R"(
runon procnum == 0 {
  message send size = 100 to = 1
} else {
  message recv size = 100 from = 0
}
)";
  const auto model = pevpm::parse_model(text);
  pevpm::SamplerOptions min_opts;
  min_opts.mode = pevpm::PredictionMode::kMinimum;
  pevpm::SamplerOptions avg_opts;
  avg_opts.mode = pevpm::PredictionMode::kAverage;
  const auto min_result = run(model, 2, table, min_opts);
  const auto avg_result = run(model, 2, table, avg_opts);
  EXPECT_NEAR(min_result.makespan, 1e-3, 1e-9);
  EXPECT_NEAR(avg_result.makespan, 2e-3, 1e-9);
  // Distribution mode lands within the support.
  const auto dist_result = run(model, 2, table);
  EXPECT_GE(dist_result.makespan, 1e-3 - 1e-9);
  EXPECT_LE(dist_result.makespan, 3e-3 + 1e-4);
  // Ordering: the minimum model is the most optimistic.
  EXPECT_LT(min_result.makespan, avg_result.makespan);
}

TEST(Vm, SymbolicModelReevaluatesAcrossMachineSizes) {
  const auto model = pevpm::parse_model("serial time = 1.0 / numprocs\n");
  const auto table = constant_table(1e-3, 0.0);
  EXPECT_DOUBLE_EQ(run(model, 2, table).makespan, 0.5);
  EXPECT_DOUBLE_EQ(run(model, 8, table).makespan, 0.125);
}

TEST(Vm, LoopInductionVariableDrivesPartners) {
  // A ring relay: each round, p0 sends to a different peer chosen by the
  // loop variable — exercising "loop N as k".
  const char* text = R"(
runon procnum == 0 {
  loop numprocs - 1 as k {
    message send size = 64 to = k + 1
  }
} else {
  message recv size = 64 from = 0
}
)";
  const auto model = pevpm::parse_model(text);
  const auto result = run(model, 4, constant_table(1e-3, 1e-4));
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(result.messages, 3u);
  // Printed form round-trips the "as" syntax, and compiles and runs the
  // same.
  const auto again = pevpm::parse_model(model.str(), "model");
  EXPECT_EQ(again.str(), model.str());
  EXPECT_EQ(testlayout::layout(again.program),
            testlayout::layout(model.program));
  const auto table = spread_table();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(run(again, 4, table).makespan),
            std::bit_cast<std::uint64_t>(run(model, 4, table).makespan));
}

TEST(Vm, UnboundVariableInUntakenBranchStillPredicts) {
  const char* text = R"(
runon procnum == numprocs {
  serial time = missing
} else {
  serial time = 0.25
}
)";
  const auto model = pevpm::parse_model(text);
  EXPECT_DOUBLE_EQ(run(model, 3, constant_table(1e-3, 0.0)).makespan, 0.25);
}

TEST(Vm, UnboundVariableInTakenBranchThrows) {
  const char* text = R"(
runon procnum == 1 {
  serial time = missing
}
)";
  const auto model = pevpm::parse_model(text);
  try {
    (void)run(model, 3, constant_table(1e-3, 0.0));
    FAIL() << "expected an unbound-variable error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "unbound PEVPM variable 'missing'");
  }
}

/// Runs `text` on `nprocs` processes and returns the ModelError message
/// (empty when the run did not throw one).
std::string model_error(const char* text, int nprocs = 2) {
  const auto model = pevpm::parse_model(text);
  try {
    (void)run(model, nprocs, constant_table(1e-3, 1e-4));
  } catch (const pevpm::ModelError& e) {
    return e.what();
  }
  return {};
}

TEST(VmRange, MessageSizeOutOfRangeNamesValueAndDirective) {
  const std::string what = model_error(R"(
runon procnum == 0 {
  message send size = 1e30 to = 1
} else {
  message recv size = 8 from = 0
}
)");
  EXPECT_NE(what.find("message size"), std::string::npos) << what;
  EXPECT_NE(what.find("1e+30"), std::string::npos) << what;
}

TEST(VmRange, LoopCountOutOfRangeThrows) {
  const std::string what = model_error("loop 1e30 {\n serial time = 1\n}\n");
  EXPECT_NE(what.find("loop count"), std::string::npos) << what;
  EXPECT_NE(what.find("1e+30"), std::string::npos) << what;
  const std::string nan = model_error(
      "loop 1e308 * 10 - 1e308 * 10 {\n serial time = 1\n}\n");
  EXPECT_NE(nan.find("loop count"), std::string::npos) << nan;
  EXPECT_NE(nan.find("nan"), std::string::npos) << nan;
}

TEST(VmRange, RankOutOfRangeNamesValue) {
  const std::string what = model_error("message send size = 8 to = 1e30\n");
  EXPECT_NE(what.find("send to"), std::string::npos) << what;
  EXPECT_NE(what.find("1e+30"), std::string::npos) << what;
  const std::string inf = model_error("message recv size = 8 from = -1e308 * 10\n");
  EXPECT_NE(inf.find("recv from"), std::string::npos) << inf;
  EXPECT_NE(inf.find("-inf"), std::string::npos) << inf;
}

TEST(VmRange, SerialTimeMustBeFinite) {
  const std::string inf = model_error("serial time = 1e308 * 10\n");
  EXPECT_NE(inf.find("serial time"), std::string::npos) << inf;
  EXPECT_NE(inf.find("inf"), std::string::npos) << inf;
  const std::string nan = model_error("serial time = 1e308 * 10 - 1e308 * 10\n");
  EXPECT_NE(nan.find("serial time"), std::string::npos) << nan;
  EXPECT_NE(nan.find("nan"), std::string::npos) << nan;
}

TEST(VmHandles, ReusingAPendingReceiveHandleThrows) {
  const std::string what = model_error(R"(
runon procnum == 0 {
  message send size = 8 to = 1
  message send size = 8 to = 1
} else {
  message irecv size = 8 from = 0 handle = h
  message irecv size = 8 from = 0 handle = h
  wait h
}
)");
  EXPECT_NE(what.find("handle 'h'"), std::string::npos) << what;
  // An isend over a pending receive handle would orphan it just the same.
  const std::string isend = model_error(R"(
message irecv size = 8 from = (procnum + numprocs - 1) % numprocs handle = h
message isend size = 8 to = (procnum + 1) % numprocs handle = h
wait h
)");
  EXPECT_NE(isend.find("handle 'h'"), std::string::npos) << isend;
}

TEST(VmHandles, ReusingACompletedIsendHandleStaysLegal) {
  const char* text = R"(
runon procnum == 0 {
  message isend size = 8 to = 1 handle = s
  message isend size = 8 to = 1 handle = s
  wait s
} else {
  message recv size = 8 from = 0
  message recv size = 8 from = 0
}
)";
  const auto model = pevpm::parse_model(text);
  const auto result = run(model, 2, constant_table(1e-3, 1e-4));
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(result.messages, 2u);
}

/// The operand cache slot of the first operand of instruction `pc`, which
/// must have opcode `op`.
int operand_cache(const pevpm::Program& program, std::size_t pc,
                  pevpm::Opcode op) {
  const pevpm::Instruction& in = program.instructions().at(pc);
  EXPECT_EQ(in.op, op) << "instruction " << pc;
  return in.cache[0];
}

/// The operand cache slot of the Serial time at instruction `pc`.
int serial_cache(const pevpm::Program& program, std::size_t pc) {
  return operand_cache(program, pc, pevpm::Opcode::kSerial);
}

/// The operand cache slot of the count of the loop entered at `pc`.
int count_cache(const pevpm::Program& program, std::size_t pc) {
  return operand_cache(program, pc, pevpm::Opcode::kLoopEnter);
}

TEST(VmOperandCache, InvariantOperandsAreEvaluatedOncePerProcess) {
  const auto model = pevpm::parse_model(
      "loop 3 {\n serial time = procnum + 1\n}\n");
  // enter, serial, next
  const pevpm::Program& program = model.program;
  EXPECT_EQ(program.cached_operands(), 2);  // the count and the Serial time
  EXPECT_GE(count_cache(program, 0), 0);
  EXPECT_GE(serial_cache(program, 1), 0);
  // Each process reads its own entry.
  const auto result = run(model, 3, constant_table(1e-3, 0.0));
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(result.processes[r].compute, 3.0 * (r + 1.0));
  }
}

TEST(VmOperandCache, InductionReadersAreReevaluatedEachIteration) {
  const auto model = pevpm::parse_model(
      "loop 4 as i {\n serial time = 0.25 * i\n}\n");
  const pevpm::Program& program = model.program;
  EXPECT_GE(count_cache(program, 0), 0);
  EXPECT_EQ(serial_cache(program, 1), -1);
  EXPECT_EQ(program.cached_operands(), 1);
  EXPECT_DOUBLE_EQ(run(model, 2, constant_table(1e-3, 0.0)).makespan, 1.5);
}

TEST(VmOperandCache, LoopVariableShadowingAParamIsNotInvariant) {
  // `k` is a param until the inner loop first binds it; from then on it
  // holds the inner loop's last value, so an operand reading `k` changes
  // between outer iterations even though it sits outside the inner loop.
  const char* text = R"(
param k = 5
loop 2 {
  serial time = k
  loop 3 as k {
    serial time = 0
  }
}
)";
  const auto model = pevpm::parse_model(text);
  // enter 2, serial k, enter 3 as k, serial 0, next, next
  EXPECT_EQ(serial_cache(model.program, 1), -1);
  // First outer iteration reads the param, the second the inner loop's
  // last value: 5 + 2.
  EXPECT_DOUBLE_EQ(run(model, 2, constant_table(1e-3, 0.0)).makespan, 7.0);
}

TEST(VmOperandCache, DivisionByZeroInAnUntakenBranchNeverThrows) {
  const char* text = R"(
loop 3 {
  runon procnum == numprocs {
    serial time = 1 / 0
  } else {
    serial time = 0.25
  }
}
)";
  const auto model = pevpm::parse_model(text);
  EXPECT_DOUBLE_EQ(run(model, 3, constant_table(1e-3, 0.0)).makespan, 0.75);
}

TEST(VmOperandCache, DivisionByZeroInATakenBranchThrowsOnFirstExecution) {
  const std::string what = model_error(R"(
loop 3 {
  serial time = 1
  runon procnum == 1 {
    serial time = 1 / 0
  }
}
)");
  EXPECT_EQ(what, "PEVPM expression: division by zero");
}

TEST(VmOperandCache, RunonWithEmptyBodiesStillEvaluatesItsCondition) {
  EXPECT_EQ(model_error("runon 1 / 0 {\n}\n"),
            "PEVPM expression: division by zero");
  EXPECT_EQ(model_error("runon missing {\n} else {\n}\n"),
            "unbound PEVPM variable 'missing'");
}

TEST(VmOperandCache, LoopWithAnEmptyBodyStillEvaluatesItsCount) {
  EXPECT_EQ(model_error("loop 1 / 0 {\n}\n"),
            "PEVPM expression: division by zero");
  EXPECT_EQ(model_error("loop missing as k {\n}\n"),
            "unbound PEVPM variable 'missing'");
  EXPECT_EQ(model_error("loop 1e30 {\n}\n"),
            "loop count evaluates to 1e+30, which is not an integer in "
            "range (1e+30)");
}

TEST(VmOperandCache, LoopWithAnEmptyBodyBindsNothingAndKeepsNoState) {
  // The empty inner loop neither binds `z` (the Serial time reads the
  // param) nor leaves loop state behind for the outer loop's next step.
  const auto model = pevpm::parse_model(
      "param z = 7\nloop 2 {\n loop 3 as z {\n }\n serial time = z\n}\n");
  const auto result = run(model, 2, constant_table(1e-3, 0.0));
  EXPECT_DOUBLE_EQ(result.processes[0].compute, 14.0);
  EXPECT_DOUBLE_EQ(result.makespan, 14.0);
}

TEST(VmOperandCache, ReceiveSizeIsCheckedThoughNothingIsSent) {
  EXPECT_EQ(model_error(R"(
runon procnum == 0 {
  message send size = 8 to = 1
} else {
  message recv size = -8 from = 0
}
)"),
            "message with negative size");
}

TEST(VmOperandCache, HandBuiltNodesWithoutAnIndexStillEvaluate) {
  pevpm::Model model;
  pevpm::Body body;
  body.push_back(std::make_shared<const pevpm::Node>(pevpm::Node{
      pevpm::SerialNode{pevpm::parse_expr("0.5 * (procnum + 1)",
                                          model.variables),
                        {}},
      2, 0}));
  pevpm::LoopNode loop;
  loop.count = pevpm::parse_expr("2", model.variables);
  loop.body = std::move(body);
  model.body.push_back(std::make_shared<const pevpm::Node>(
      pevpm::Node{std::move(loop), 1, 0}));
  model.node_count = 2;
  model.program = pevpm::compile(model);
  // A hand-built model compiles like its parsed twin.
  const pevpm::Model twin = pevpm::parse_model(
      "loop 2 {\n serial time = 0.5 * (procnum + 1)\n}\n");
  ASSERT_EQ(testlayout::layout(model.program),
            testlayout::layout(twin.program));
  const auto result = run(model, 2, constant_table(1e-3, 0.0));
  EXPECT_DOUBLE_EQ(result.processes[0].compute, 1.0);
  EXPECT_DOUBLE_EQ(result.processes[1].compute, 2.0);
}

TEST(VmOperandCache, ModelThatWasNeverCompiledIsRejected) {
  // A body without its program would run nothing, to a makespan of 0.
  pevpm::Model model;
  model.body.push_back(std::make_shared<const pevpm::Node>(pevpm::Node{
      pevpm::SerialNode{pevpm::constant(0.5), {}}, 1, 0}));
  model.node_count = 1;
  try {
    (void)run(model, 2, constant_table(1e-3, 0.0));
    FAIL() << "expected a logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string{e.what()}.find("not compiled"), std::string::npos)
        << e.what();
  }
  // A program compiled from another body is no program of this one.
  model.program = pevpm::compile(pevpm::parse_model("serial time = 0.5\n"));
  EXPECT_THROW((void)run(model, 2, constant_table(1e-3, 0.0)),
               std::logic_error);
  model.program = pevpm::compile(model);
  EXPECT_DOUBLE_EQ(run(model, 2, constant_table(1e-3, 0.0)).makespan, 0.5);
}

TEST(VmOperandCache, BuilderIndexesLikeTheParser) {
  // A model is indexed once its body is complete: the operand that reads
  // the induction variable stays uncached, the invariant one is cached.
  const pevpm::Model parsed = pevpm::parse_model(
      "loop 3 as i {\n serial time = 0.1 * i\n serial time = 0.5\n}\n");
  // enter, serial, serial, next
  const pevpm::Program& program = parsed.program;
  EXPECT_EQ(program.cached_operands(), 2);
  EXPECT_GE(count_cache(program, 0), 0);
  EXPECT_EQ(serial_cache(program, 1), -1);
  EXPECT_GE(serial_cache(program, 2), 0);
  EXPECT_NE(serial_cache(program, 2), count_cache(program, 0));
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(VmMemory, RingAt4096ProcessesStaysSmall) {
  // Scoreboard state must grow with the pairs that carry messages (4096
  // here), not with P^2 (16.7 M pairs).
  const char* text = R"(
loop 2 {
  message send size = 64 to = (procnum + 1) % numprocs
  message recv size = 64 from = (procnum + numprocs - 1) % numprocs
}
)";
  const auto model = pevpm::parse_model(text);
  const auto table = constant_table(1e-3, 1e-4);
  const long before = peak_rss_kb();
  const auto result = run(model, 4096, table);
  const long grown_kb = peak_rss_kb() - before;
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(result.messages, 2u * 4096u);
  EXPECT_LT(grown_kb, 64L * 1024) << "peak RSS grew by " << grown_kb << " KiB";
}

/// Spread (non-constant) delivery and sender distributions at several
/// contention levels and two sizes, so golden runs exercise random draws,
/// size interpolation and the scoreboard's contention count.
DistributionTable spread_table() {
  DistributionTable table;
  for (const int level : {2, 8, 32, 64}) {
    stats::Histogram oneway{1e-6};
    stats::Histogram sender{1e-6};
    for (int i = 0; i < 40; ++i) {
      oneway.add((60.0 + level + (i * 37 % 40)) * 1e-6);
      sender.add((10.0 + (i * 13 % 20)) * 1e-6);
    }
    const stats::EmpiricalDistribution d_oneway{oneway};
    const stats::EmpiricalDistribution d_sender{sender};
    table.insert(OpKind::kPtpOneWay, net::Bytes{64}, level, d_oneway);
    table.insert(OpKind::kPtpOneWay, net::Bytes{1 << 16}, level,
                 d_oneway.scaled(4.0));
    table.insert(OpKind::kPtpSender, net::Bytes{64}, level, d_sender);
    table.insert(OpKind::kPtpSender, net::Bytes{1 << 16}, level,
                 d_sender.scaled(3.0));
  }
  return table;
}

/// FNV-1a over every blocked_by_directive entry (rank, directive id and
/// the loss's IEEE-754 bits), in rank then directive order.
std::uint64_t loss_digest(const pevpm::SimulationResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::size_t rank = 0; rank < result.processes.size(); ++rank) {
    for (const auto& [directive, loss] :
         result.processes[rank].blocked_by_directive) {
      mix(rank);
      mix(static_cast<std::uint64_t>(directive));
      mix(std::bit_cast<std::uint64_t>(loss));
    }
  }
  return h;
}

std::size_t loss_entries(const pevpm::SimulationResult& result) {
  std::size_t n = 0;
  for (const auto& proc : result.processes) n += proc.blocked_by_directive.size();
  return n;
}

/// The paper's Figure 5 Jacobi annotations, five iterations.
constexpr const char* kJacobiFig5 = R"(
// PEVPM Param xsize = 256
// PEVPM Loop iterations = 5
// PEVPM {
// PEVPM Runon c1 = procnum%2 == 0
// PEVPM &     c2 = procnum%2 != 0
// PEVPM {
// PEVPM Runon c1 = procnum != 0
// PEVPM {
// PEVPM Message type = MPI_Send & size = xsize*4 & from = procnum & to = procnum-1
// PEVPM }
// PEVPM Runon c1 = procnum != numprocs-1
// PEVPM {
// PEVPM Message type = MPI_Send & size = xsize*4 & from = procnum & to = procnum+1
// PEVPM Message type = MPI_Recv & size = xsize*4 & from = procnum+1 & to = procnum
// PEVPM }
// PEVPM Runon c1 = procnum != 0
// PEVPM {
// PEVPM Message type = MPI_Recv & size = xsize*4 & from = procnum-1 & to = procnum
// PEVPM }
// PEVPM }
// PEVPM {
// PEVPM Runon c1 = procnum != numprocs-1
// PEVPM {
// PEVPM Message type = MPI_Recv & size = xsize*4 & from = procnum+1 & to = procnum
// PEVPM }
// PEVPM Message type = MPI_Recv & size = xsize*4 & from = procnum-1 & to = procnum
// PEVPM Message type = MPI_Send & size = xsize*4 & from = procnum & to = procnum-1
// PEVPM Runon c1 = procnum != numprocs-1
// PEVPM {
// PEVPM Message type = MPI_Send & size = xsize*4 & from = procnum & to = procnum+1
// PEVPM }
// PEVPM }
// PEVPM Serial on perseus time = 3.24/numprocs
// PEVPM }
)";

/// Counts the operands of `program` and those without a cache slot.
void count_operands(const pevpm::Program& program, int& operands,
                    int& uncached) {
  for (const pevpm::Instruction& in : program.instructions()) {
    const auto exprs = pevpm::operands(in);
    for (std::size_t i = 0; i < exprs.size(); ++i) {
      if (exprs[i] == nullptr) continue;
      ++operands;
      if (in.cache[i] < 0) ++uncached;
    }
  }
}

TEST(VmOperandCache, EveryJacobiOperandIsInvariant) {
  // The Figure 5 operands read only procnum, numprocs and xsize.
  const auto model = pevpm::parse_annotated_source(kJacobiFig5, "jacobi");
  int operands = 0;
  int uncached = 0;
  count_operands(model.program, operands, uncached);
  EXPECT_EQ(operands, 25);
  EXPECT_EQ(uncached, 0);
  EXPECT_EQ(model.program.cached_operands(), operands);
}

// Golden values recorded before the evaluator moved to slot-indexed
// symbols and the pooled scoreboard: the same model, table and seed must
// give the same bits, i.e. the same results in the same RNG draw order.
TEST(VmGolden, JacobiFigure5At64Processes) {
  const auto model = pevpm::parse_annotated_source(kJacobiFig5, "jacobi");
  const auto table = spread_table();
  pevpm::DeliverySampler sampler{table, {}, 1234};
  const auto result = pevpm::simulate(model, 64, {}, sampler);
  ASSERT_FALSE(result.deadlocked);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.makespan),
            0x3fd095b997888050ULL);
  EXPECT_EQ(result.messages, 630u);
  EXPECT_EQ(result.sweep_phases, 672u);
  EXPECT_EQ(result.match_phases, 10u);
  EXPECT_EQ(loss_entries(result), 126u);
  EXPECT_EQ(loss_digest(result), 0xab4019359ff0fe95ULL);
}

TEST(VmGolden, NonblockingInductionAndCollectives) {
  const char* text = R"(
param block = 2048
loop 3 as it {
  loop numprocs - 1 as k {
    message isend size = block + 64 * it to = (procnum + k + 1) % numprocs handle = s
    message irecv size = block + 64 * it from = (procnum - k - 1 + numprocs) % numprocs handle = r
    serial time = 0.0001 * (k + 1) * (procnum + 1)
    wait r
    wait s
  }
  runon procnum == it {
    message send size = 64 to = (procnum + 1) % numprocs
  } else {
    runon procnum == (it + 1) % numprocs {
      message recv size = 64 from = it
    }
  }
  allreduce size = 8
}
barrier
)";
  const auto model = pevpm::parse_model(text, "golden");
  const auto table = spread_table();
  pevpm::DeliverySampler sampler{table, {}, 99};
  const auto result = pevpm::simulate(model, 5, {}, sampler);
  ASSERT_FALSE(result.deadlocked);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.makespan),
            0x3f9207bee97bccf8ULL);
  EXPECT_EQ(result.messages, 63u);
  EXPECT_EQ(result.sweep_phases, 100u);
  EXPECT_EQ(result.match_phases, 19u);
  // (rank, directive id, blocked-seconds bits) for every entry.
  const std::vector<std::tuple<int, int, std::uint64_t>> expected{
      {0, 4, 0x3f5e1f5927b1a8d9ULL},
      {0, 11, 0x3f884ff1ce19d4c8ULL},
      {0, 13, 0x3f30764262a82380ULL},
      {1, 4, 0x3f4f791fe96c04c8ULL},
      {1, 8, 0x3ef87924633e3100ULL},
      {1, 11, 0x3f83f502784d01f8ULL},
      {1, 13, 0x3f348f820338d300ULL},
      {2, 4, 0x3f399c8f6a7301edULL},
      {2, 8, 0x3eea2a5b2a7b7c00ULL},
      {2, 11, 0x3f7dd64e04fdf994ULL},
      {2, 13, 0x3f33669181f3a440ULL},
      {3, 4, 0x3f432b6e360502cdULL},
      {3, 8, 0x3ef90c91024a8400ULL},
      {3, 11, 0x3f70814c1ea4d97eULL},
      {3, 13, 0x3f33019dd3a5d440ULL},
      {4, 4, 0x3f3a45a36f51df54ULL},
      {4, 11, 0x3f5958f03636d424ULL},
      {4, 13, 0x3f2da5d2e1359580ULL}};
  std::vector<std::tuple<int, int, std::uint64_t>> losses;
  for (std::size_t rank = 0; rank < result.processes.size(); ++rank) {
    for (const auto& [directive, loss] :
         result.processes[rank].blocked_by_directive) {
      losses.emplace_back(static_cast<int>(rank), directive,
                          std::bit_cast<std::uint64_t>(loss));
    }
  }
  EXPECT_EQ(losses, expected);
}

TEST(VmGolden, FlattenedControlFlow) {
  // Control flow the instruction program must reproduce: a runon whose
  // then-body is empty, a loop entered with count 0 (its induction
  // variable stays unbound, so `z` still reads the param), nested
  // induction loops re-entered (the inner one restarts at 0), a collective
  // in a loop in a runon, and a deadlock inside a nested runon.
  const char* text = R"(
param w = 0.00002
param z = 7
loop 2 as outer {
  runon procnum % 2 == 0 {
  } else {
    message send size = 64 + 32 * outer to = procnum - 1
    serial time = w * (procnum + 1)
  }
  runon procnum % 2 == 0 {
    message recv size = 64 + 32 * outer from = procnum + 1
  }
  loop outer as z {
    serial time = w
  }
  serial time = w * z
  loop 2 as i {
    loop 3 as j {
      message isend size = 128 * (j + 1) to = (procnum + i + j + 1) % numprocs handle = s
      message irecv size = 128 * (j + 1) from = (procnum - i - j - 1 + 2 * numprocs) % numprocs handle = r
      serial time = w * (i + 1) * (j + 1)
      wait r
      wait s
    }
  }
  runon numprocs > 1 {
    loop 2 as c {
      allreduce size = 8 * (c + 1)
      serial time = w * procnum
    }
  }
}
runon procnum % 3 == 0 {
  runon procnum > 0 {
    message recv size = 8 from = procnum - 1
  }
}
)";
  const auto model = pevpm::parse_model(text, "flat");
  const auto table = spread_table();
  pevpm::DeliverySampler sampler{table, {}, 2027};
  const auto result = pevpm::simulate(model, 6, {}, sampler);
  ASSERT_TRUE(result.deadlocked);
  EXPECT_EQ(result.deadlocked_processes, std::vector<int>{3});
  EXPECT_EQ(result.deadlocked_directives, std::vector<int>{21});
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.makespan), 0x3f775d096216971bULL);
  EXPECT_EQ(result.messages, 78u);
  EXPECT_EQ(result.sweep_phases, 115u);
  EXPECT_EQ(result.match_phases, 19u);
  // (rank, directive id, blocked-seconds bits) for every entry.
  const std::vector<std::tuple<int, int, std::uint64_t>> expected{
      {0, 4, 0x3f23e681799f7050ULL},
      {0, 12, 0x3f5981e495a47507ULL},
      {0, 16, 0x3f65d36b2491a1f7ULL},
      {1, 12, 0x3f58cd8546c7d100ULL},
      {1, 16, 0x3f655cc5fe714bebULL},
      {2, 4, 0x3f280d8788f4c940ULL},
      {2, 12, 0x3f592e21339efaefULL},
      {2, 16, 0x3f6474fda06cc103ULL},
      {3, 12, 0x3f5713a04ee90cc2ULL},
      {3, 16, 0x3f6530858c95692aULL},
      {4, 4, 0x3f3feda2dd9bcfb4ULL},
      {4, 12, 0x3f56d43a2e1c040aULL},
      {4, 16, 0x3f630b27900495c9ULL},
      {5, 12, 0x3f564f4e8d3febecULL},
      {5, 16, 0x3f6282550964cbddULL}};
  std::vector<std::tuple<int, int, std::uint64_t>> losses;
  for (std::size_t rank = 0; rank < result.processes.size(); ++rank) {
    for (const auto& [directive, loss] :
         result.processes[rank].blocked_by_directive) {
      losses.emplace_back(static_cast<int>(rank), directive,
                          std::bit_cast<std::uint64_t>(loss));
    }
  }
  EXPECT_EQ(losses, expected);
}

/// kJacobiFig5 run for `iterations` iterations instead of five.
std::string jacobi_iterations(int iterations) {
  std::string text = kJacobiFig5;
  const std::string five = "Loop iterations = 5";
  text.replace(text.find(five), five.size(),
               "Loop iterations = " + std::to_string(iterations));
  return text;
}

TEST(VmStreamLookups, JacobiLooksUpEachStreamOncePerProcess) {
  // Every Jacobi peer is a cached operand, so the hashed lookups are one
  // per (process, peer operand) however long the model runs.
  const auto table = spread_table();
  const auto lookups = [&](int iterations) {
    const auto model =
        pevpm::parse_annotated_source(jacobi_iterations(iterations), "j");
    pevpm::DeliverySampler sampler{table, {}, 1234};
    const auto result = pevpm::simulate(model, 64, {}, sampler);
    EXPECT_FALSE(result.deadlocked);
    EXPECT_EQ(result.messages, 126u * static_cast<unsigned>(iterations));
    return result.stream_lookups;
  };
  const std::uint64_t at10 = lookups(10);
  EXPECT_EQ(lookups(100), at10);
  EXPECT_LE(at10, 4u * 64u);
  // 62 interior processes name four peers, the two edge processes two.
  EXPECT_EQ(at10, 62u * 4u + 2u * 2u);
}

TEST(VmStreamLookups, UncachedPeersLookUpOncePerSendAndPostedReceive) {
  // Six sends and six receives, each peer reading the induction variable.
  const char* text = R"(
loop numprocs - 1 as k {
  message send size = 100 to = (procnum + k + 1) % numprocs
  message recv size = 100 from = (procnum + numprocs - k - 1) % numprocs
}
)";
  const auto model = pevpm::parse_model(text);
  const auto result =
      run(model, 3, constant_table(kStreamOneWay, kStreamSender));
  EXPECT_EQ(result.messages, 6u);
  EXPECT_EQ(result.stream_lookups, 12u);
}

TEST(Scoreboard, FifoClaimAndOutstandingCount) {
  pevpm::Scoreboard board;
  const std::uint32_t s01 = board.stream_of(0, 1);
  const auto m1 = board.add(s01, net::Bytes{100}, 0.0, 1);
  const auto m2 = board.add(s01, net::Bytes{200}, 0.1, 2);
  EXPECT_EQ(board.outstanding(), 2);
  const auto c1 = board.claim(s01);
  EXPECT_EQ(c1->id, m1->id);
  const auto c2 = board.claim(s01);
  EXPECT_EQ(c2->id, m2->id);
  EXPECT_EQ(board.claim(s01), nullptr);
  board.consume(c1);
  EXPECT_EQ(board.outstanding(), 1);
  board.consume(c2);
  EXPECT_EQ(board.outstanding(), 0);
  EXPECT_EQ(board.total_messages(), 2u);
}

TEST(Scoreboard, UnassignedDrainsOnce) {
  pevpm::Scoreboard board;
  board.add(board.stream_of(0, 1), net::Bytes{100}, 0.0, 1);
  std::vector<pevpm::MessageRef> unassigned;
  board.take_unassigned(unassigned);
  EXPECT_EQ(unassigned.size(), 1u);
  board.take_unassigned(unassigned);
  EXPECT_TRUE(unassigned.empty());
}

TEST(Scoreboard, ArrivalFloorMonotone) {
  // A message sampled at time 0 settles at its stream's floor, so it
  // reads the floor.
  pevpm::Scoreboard board;
  const std::uint32_t s01 = board.stream_of(0, 1);
  const std::uint32_t s10 = board.stream_of(1, 0);
  const auto at = [&](std::uint32_t stream, double sampled) {
    return board.settle_arrival(
        board.add(stream, net::Bytes{100}, 0.0, 1), sampled);
  };
  EXPECT_DOUBLE_EQ(at(s01, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(at(s01, 5.0), 5.0);
  // An earlier arrival must not lower the floor; it is held back to it.
  EXPECT_DOUBLE_EQ(at(s01, 3.0), 5.0);
  EXPECT_DOUBLE_EQ(at(s01, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(at(s10, 0.0), 0.0);
}

TEST(Scoreboard, StreamOfFindsOneRecordPerPairAndCountsLookups) {
  // Enough pairs to grow the hash index several times; every index found
  // before a rehash still names its pair after it.
  pevpm::Scoreboard board;
  std::vector<std::uint32_t> first;
  for (int src = 0; src < 20; ++src) {
    for (int dst = 0; dst < 5; ++dst) {
      first.push_back(board.stream_of(src, dst));
    }
  }
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], i);
  }
  EXPECT_EQ(board.stream_of(7, 3), first[7 * 5 + 3]);
  EXPECT_NE(board.stream_of(3, 7), first[7 * 5 + 3]);
  EXPECT_EQ(board.stream_lookups(), first.size() + 2);
}

TEST(VmLosses, EqualLossesRankByDirectiveId) {
  // 20 directives with one loss between them: past 16 elements the
  // library's sort is not stable, so only the tie-break fixes the order.
  pevpm::SimulationResult result;
  result.processes.resize(2);
  for (int directive = 40; directive > 0; directive -= 2) {
    result.processes[0].blocked_by_directive[directive] = 0.25;
    result.processes[1].blocked_by_directive[directive] = 0.25;
  }
  result.processes[1].blocked_by_directive[7] = 0.75;
  const auto top = result.top_losses(25);
  ASSERT_EQ(top.size(), 21u);
  EXPECT_EQ(top[0], std::make_pair(7, 0.75));
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_EQ(top[i].first, 2 * static_cast<int>(i)) << "position " << i;
    EXPECT_EQ(top[i].second, 0.5);
  }
}

/// `body` with each directive id that `ids` names replaced.
pevpm::Body with_ids(const pevpm::Body& body, const std::map<int, int>& ids) {
  pevpm::Body out;
  for (const pevpm::NodePtr& node : body) {
    pevpm::Node copy = *node;
    if (auto* runon = std::get_if<pevpm::RunonNode>(&copy.data)) {
      runon->then_body = with_ids(runon->then_body, ids);
      runon->else_body = with_ids(runon->else_body, ids);
    } else if (auto* loop = std::get_if<pevpm::LoopNode>(&copy.data)) {
      loop->body = with_ids(loop->body, ids);
    }
    if (const auto it = ids.find(copy.id); it != ids.end()) {
      copy.id = it->second;
    }
    out.push_back(std::make_shared<const pevpm::Node>(std::move(copy)));
  }
  return out;
}

TEST(VmLossSlots, RepeatedZeroAndSparseIdsMatchTheLossMaps) {
  // A hand-built model whose blocking directives carry ids 0, 1000000 and
  // 3 twice (a receive and a collective): each distinct id is one dense
  // loss slot, and the loss maps are the ones a map per process and lane
  // produced, bit for bit (recorded on that implementation).
  const pevpm::Model parsed = pevpm::parse_model(R"(
runon procnum % 2 == 0 {
  serial time = 0.0001 * (procnum + 1)
  message send size = 1024 to = procnum + 1
  message recv size = 1024 from = procnum + 1
  message irecv size = 64 from = procnum + 1 handle = h
  serial time = 0.00005
  wait h
} else {
  message recv size = 1024 from = procnum - 1
  serial time = 0.0002
  message send size = 1024 to = procnum - 1
  message send size = 64 to = procnum - 1
}
loop 2 {
  allreduce size = 8
}
)");
  std::vector<int> blocking;
  for (const pevpm::Instruction& in : parsed.program.instructions()) {
    if (in.op == pevpm::Opcode::kRecv || in.op == pevpm::Opcode::kWait ||
        in.op == pevpm::Opcode::kCollective) {
      blocking.push_back(in.id);
    }
  }
  ASSERT_EQ(blocking.size(), 4u);
  pevpm::Model model = parsed;
  model.body = with_ids(parsed.body, {{blocking[0], 0},
                                      {blocking[1], 1000000},
                                      {blocking[2], 3},
                                      {blocking[3], 3}});
  model.program = pevpm::compile(model);
  // One slot per distinct id: the sparse id sizes nothing.
  EXPECT_EQ(model.program.loss_ids(), (std::vector<int>{0, 3, 1000000}));

  const DistributionTable table = spread_table();
  pevpm::SamplerCells cells{table, nullptr};
  const std::uint64_t seeds[] = {1, 2, 3};
  pevpm::DeliverySampler sampler{cells, {}, seeds};
  const std::vector<pevpm::SimulationResult> results =
      pevpm::simulate_lanes(model, 4, {}, sampler);
  std::vector<std::tuple<int, int, int, std::uint64_t>> losses;
  for (std::size_t lane = 0; lane < results.size(); ++lane) {
    const auto& processes = results[lane].processes;
    for (std::size_t rank = 0; rank < processes.size(); ++rank) {
      for (const auto& [directive, loss] :
           processes[rank].blocked_by_directive) {
        losses.emplace_back(static_cast<int>(lane), static_cast<int>(rank),
                            directive, std::bit_cast<std::uint64_t>(loss));
      }
    }
  }
  // (lane, rank, directive id, loss bits)
  const std::vector<std::tuple<int, int, int, std::uint64_t>> expected = {
      {0, 0, 0, 0x3f394088cf94e95bULL},
      {0, 0, 3, 0x3f5282b505318e70ULL},
      {0, 0, 1000000, 0x3ef168c5428e89e0ULL},
      {0, 1, 3, 0x3f570281b62102d4ULL},
      {0, 2, 0, 0x3f42e969b34e214eULL},
      {0, 2, 3, 0x3f47bbd8e1499103ULL},
      {0, 2, 1000000, 0x3ef0c22766094ba0ULL},
      {0, 3, 3, 0x3f570ce8882a23c1ULL},
      {1, 0, 0, 0x3f35784506f779d4ULL},
      {1, 0, 3, 0x3f533822d13b9abeULL},
      {1, 0, 1000000, 0x3ef657837113a040ULL},
      {1, 1, 3, 0x3f563386d15c7242ULL},
      {1, 2, 0, 0x3f424fb3397093f6ULL},
      {1, 2, 3, 0x3f46cb9e30c25dbeULL},
      {1, 2, 1000000, 0x3ee74c7d6fecfbc0ULL},
      {1, 3, 3, 0x3f5670d399a7bd6aULL},
      {2, 0, 0, 0x3f4338693ed76fcdULL},
      {2, 0, 3, 0x3f46d49a4619ae72ULL},
      {2, 0, 1000000, 0x3ee6df5e8869a200ULL},
      {2, 1, 3, 0x3f536afd8128ad3eULL},
      {2, 2, 0, 0x3f3883617d417d8fULL},
      {2, 2, 3, 0x3f47cab1d9dce825ULL},
      {2, 2, 1000000, 0x3ef7b0805f0a40e0ULL},
      {2, 3, 3, 0x3f54021b80948f98ULL}};
  EXPECT_EQ(losses, expected);
}

TEST(VmLossSlots, NegativeIdleTimeAddsNoEntry) {
  // A hand-made table may hold a negative local cost. A late receive then
  // idles a negative time: it counts in `blocked`, but only positive idle
  // time makes a loss entry, so the receive's slot stays empty.
  const auto model = pevpm::parse_model(R"(
runon procnum == 0 {
  message send size = 100 to = 1
} else {
  serial time = 1.0
  message recv size = 100 from = 0
}
)");
  const auto result = run(model, 2, constant_table(10e-3, -1e-6));
  EXPECT_NEAR(result.processes[1].blocked, -1e-6, 1e-12);
  EXPECT_TRUE(result.processes[1].blocked_by_directive.empty());
  EXPECT_TRUE(result.processes[0].blocked_by_directive.empty());
}

TEST(Predict, ReplicationsSummarise) {
  const char* text = R"(
runon procnum == 0 {
  message send size = 100 to = 1
} else {
  message recv size = 100 from = 0
}
)";
  const auto model = pevpm::parse_model(text);
  const auto table = constant_table(5e-3, 1e-3);
  pevpm::PredictOptions opts;
  opts.replications = 6;
  const auto prediction = pevpm::predict(model, 2, {}, table, opts);
  EXPECT_EQ(prediction.makespan.count(), 6u);
  EXPECT_NEAR(prediction.seconds(), 5e-3, 1e-9);
  EXPECT_FALSE(prediction.deadlocked);
}

TEST(Predict, SpeedupsComputedAgainstSingleProcess) {
  const auto model =
      pevpm::parse_model("loop 4 {\n serial time = 1.0 / numprocs\n}\n");
  const auto table = constant_table(1e-3, 0.0);
  pevpm::PredictOptions opts;
  opts.replications = 2;
  const auto points =
      pevpm::predict_speedups(model, {2, 4}, {}, table, opts);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_NEAR(points[0].speedup, 2.0, 1e-6);
  EXPECT_NEAR(points[1].speedup, 4.0, 1e-6);
}

TEST(Sampler, FixedContentionIgnoresScoreboard) {
  DistributionTable table;
  table.insert(OpKind::kPtpOneWay, net::Bytes{100}, 1,
               stats::EmpiricalDistribution::constant(1e-3));
  table.insert(OpKind::kPtpOneWay, net::Bytes{100}, 32,
               stats::EmpiricalDistribution::constant(9e-3));
  pevpm::SamplerOptions opts;
  opts.mode = pevpm::PredictionMode::kAverage;
  opts.contention = pevpm::ContentionSource::kFixed;
  opts.fixed_contention = 1;
  pevpm::DeliverySampler fixed{table, opts, 1};
  EXPECT_NEAR(fixed.delivery_seconds(net::Bytes{100}, 32), 1e-3, 1e-9);
  opts.contention = pevpm::ContentionSource::kScoreboard;
  pevpm::DeliverySampler scoreboard{table, opts, 1};
  EXPECT_NEAR(scoreboard.delivery_seconds(net::Bytes{100}, 32), 9e-3, 1e-9);
}

TEST(Sampler, FallbackSenderCostWhenTableLacksEntries) {
  DistributionTable table;
  table.insert(OpKind::kPtpOneWay, net::Bytes{100}, 1,
               stats::EmpiricalDistribution::constant(1e-3));
  pevpm::DeliverySampler sampler{table, {}, 1};
  EXPECT_DOUBLE_EQ(sampler.sender_seconds(net::Bytes{100}, 1), 25e-6);
}

TEST(Sampler, MissingOneWayTableThrows) {
  DistributionTable table;
  pevpm::DeliverySampler sampler{table, {}, 1};
  EXPECT_THROW((void)sampler.delivery_seconds(net::Bytes{100}, 1), std::runtime_error);
}

}  // namespace
