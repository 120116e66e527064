// Model construction: the directive-language parser and the Figure-5
// annotated-source extractor.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <variant>

#include "core/model.h"
#include "core/parse.h"
#include "core/vm.h"
#include "mpibench/table.h"
#include "program_layout.h"

namespace {

using pevpm::LoopNode;
using pevpm::MessageNode;
using pevpm::Model;
using pevpm::MsgOp;
using pevpm::RunonNode;
using pevpm::SerialNode;

TEST(ParseModel, FullProgramRoundTrips) {
  const char* text = R"(
# Jacobi-like exchange
param xsize = 256
loop 100 {
  runon procnum % 2 == 0 {
    runon procnum != 0 {
      message send size = xsize * 4 to = procnum - 1
    }
    message recv size = xsize * 4 from = procnum + 1
  } else {
    message recv size = xsize * 4 from = procnum - 1
    message send size = xsize * 4 to = procnum - 1
  }
  serial time = 3.24 / numprocs
}
)";
  const Model m = pevpm::parse_model(text, "jacobi");
  ASSERT_EQ(m.body.size(), 1u);
  EXPECT_DOUBLE_EQ(m.parameters.at("xsize"), 256.0);
  // The pretty-printed model must itself parse to the same structure,
  // compile to the same program and run to the same bits.
  const Model again = pevpm::parse_model(m.str(), "jacobi");
  EXPECT_EQ(again.str(), m.str());
  EXPECT_EQ(testlayout::layout(again.program), testlayout::layout(m.program));
  mpibench::DistributionTable table;
  for (const auto kind : {mpibench::OpKind::kPtpOneWay,
                          mpibench::OpKind::kPtpSender}) {
    table.insert(kind, net::Bytes{0}, 1,
                 stats::EmpiricalDistribution::constant(1e-4));
    table.insert(kind, net::Bytes{1 << 20}, 1,
                 stats::EmpiricalDistribution::constant(3e-3));
  }
  const auto makespan_bits = [&table](const Model& model) {
    pevpm::DeliverySampler sampler{table, {}, 7};
    return std::bit_cast<std::uint64_t>(
        pevpm::simulate(model, 6, {}, sampler).makespan);
  };
  EXPECT_EQ(makespan_bits(again), makespan_bits(m));
}

TEST(ParseModel, NonblockingAndWait) {
  const char* text = R"(
message isend size = 1024 to = procnum + 1 handle = h1
message irecv size = 1024 from = procnum + 1 handle = h2
serial time = 0.001
wait h1
wait handle = h2
)";
  const Model m = pevpm::parse_model(text);
  ASSERT_EQ(m.body.size(), 5u);
  const auto* isend = std::get_if<MessageNode>(&m.body[0]->data);
  ASSERT_NE(isend, nullptr);
  EXPECT_EQ(isend->op, MsgOp::kIsend);
  EXPECT_EQ(isend->handle, "h1");
  const auto* wait = std::get_if<pevpm::WaitNode>(&m.body[4]->data);
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->handle, "h2");
}

TEST(ParseModel, LoopCountAliases) {
  EXPECT_NO_THROW((void)pevpm::parse_model("loop iterations = 5 {\n serial time = 1\n}\n"));
  EXPECT_NO_THROW((void)pevpm::parse_model("loop count = 5 {\n serial time = 1\n}\n"));
  EXPECT_NO_THROW((void)pevpm::parse_model("loop 5 {\n serial time = 1\n}\n"));
}

TEST(ParseModel, ReportsErrorsWithLineNumbers) {
  try {
    (void)pevpm::parse_model("loop 3 {\n  bogus directive\n}\n");
    FAIL() << "expected ParseError";
  } catch (const pevpm::ParseError& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos);
  }
  EXPECT_THROW((void)pevpm::parse_model("loop 3 {\n serial time = 1\n"),
               pevpm::ParseError);
  EXPECT_THROW((void)pevpm::parse_model("}\n"), pevpm::ParseError);
  EXPECT_THROW((void)pevpm::parse_model("message send size = 4\n"),
               pevpm::ParseError);
  EXPECT_THROW(
      (void)pevpm::parse_model("message isend size = 4 to = 1\n"),
      pevpm::ParseError);
}

/// `depth` nested `loop 1 {` blocks around one Serial directive.
std::string nested_loops(int depth) {
  std::string text;
  for (int i = 0; i < depth; ++i) text += "loop 1 {\n";
  text += "serial time = 1\n";
  for (int i = 0; i < depth; ++i) text += "}\n";
  return text;
}

/// `depth` nested runons (each with an else) around one Serial directive.
std::string nested_runons(int depth) {
  std::string text;
  for (int i = 0; i < depth; ++i) text += "runon procnum >= 0 {\n";
  text += "serial time = 1\n";
  for (int i = 0; i < depth; ++i) text += "} else {\n}\n";
  return text;
}

/// The ParseError message parsing `text` raises (empty if none).
std::string model_parse_error(const std::string& text) {
  try {
    (void)pevpm::parse_model(text);
  } catch (const pevpm::ParseError& e) {
    return e.what();
  }
  return {};
}

TEST(ParseModelDepth, AcceptsTheLimitAndRejectsOneBlockMore) {
  constexpr int kLimit = pevpm::kMaxModelDepth;
  for (const auto& nest : {nested_loops, nested_runons}) {
    const Model model = pevpm::parse_model(nest(kLimit));
    EXPECT_EQ(model.node_count, kLimit + 1);
    EXPECT_FALSE(model.str().empty());
    // The opening line of the 1001st block is named.
    const std::string what = model_parse_error(nest(kLimit + 1));
    EXPECT_NE(what.find("line 1001: blocks nested deeper than 1000"),
              std::string::npos)
        << what;
  }
  EXPECT_NE(model_parse_error(nested_loops(50000)).find("nested deeper"),
            std::string::npos);
}

TEST(ParseModelDepth, AnElifChainCountsOneLevelPerCondition) {
  // A Runon of k conditions nests k runon nodes.
  const auto runon = [](int conditions) {
    std::string text = "// PEVPM Loop iterations = 1\n// PEVPM {\n";
    text += "// PEVPM Runon c0 = procnum == 0\n";
    for (int i = 1; i < conditions; ++i) {
      text += "// PEVPM & c" + std::to_string(i) + " = procnum == " +
              std::to_string(i) + "\n";
    }
    for (int i = 0; i < conditions; ++i) {
      text += "// PEVPM {\n// PEVPM Serial on x time = 1\n// PEVPM }\n";
    }
    return text + "// PEVPM }\n";
  };
  EXPECT_NO_THROW((void)pevpm::parse_annotated_source(runon(999)));
  EXPECT_THROW((void)pevpm::parse_annotated_source(runon(1000)),
               pevpm::ParseError);
}

TEST(ParseModelDepth, DeepExpressionsNameTheirLine) {
  std::string sum = "1";
  for (int i = 0; i < 300000; ++i) sum += "+1";
  const std::string what =
      model_parse_error("serial time = 1\nserial time = " + sum + "\n");
  EXPECT_EQ(what.rfind("PEVPM model, line 2: ", 0), 0u) << what;
  EXPECT_NE(what.find("nested deeper than 1000"), std::string::npos) << what;
  EXPECT_EQ(
      model_parse_error("serial time = " + std::string(1000, '-') + "1\n"),
      "");
}

// The paper's Figure 5, lightly abridged: the annotated Jacobi skeleton.
constexpr const char* kFigure5 = R"(
int i, j, k, procnum, numprocs;
// PEVPM Loop iterations = 1000
// PEVPM {
  for (i = 0; i < iterations; i++){
// PEVPM Runon c1 = procnum%2 == 0
// PEVPM &     c2 = procnum%2 != 0
// PEVPM {
    if (procnum%2 == 0){
// PEVPM Runon c1 = procnum != 0
// PEVPM {
      if (procnum != 0){
// PEVPM Message type = MPI_Send
// PEVPM &       size = xsize*4
// PEVPM &       from = procnum
// PEVPM &       to = procnum-1
        MPI_Send(...);
      }
// PEVPM }
// PEVPM Message type = MPI_Recv
// PEVPM &       size = xsize*4
// PEVPM &       from = procnum+1
// PEVPM &       to = procnum
      MPI_Recv(...);
// PEVPM }
// PEVPM {
    } else {
// PEVPM Message type = MPI_Recv
// PEVPM &       size = xsize*4
// PEVPM &       from = procnum-1
// PEVPM &       to = procnum
      MPI_Recv(...);
// PEVPM Message type = MPI_Send
// PEVPM &       size = xsize*4
// PEVPM &       from = procnum
// PEVPM &       to = procnum-1
      MPI_Send(...);
    }
// PEVPM }
// PEVPM Serial on perseus time = 3.24/numprocs
    compute();
// PEVPM }
)";

TEST(ParseAnnotations, ExtractsFigure5Structure) {
  pevpm::Model m = pevpm::parse_annotated_source(kFigure5, "fig5");
  m.parameters["xsize"] = 256.0;
  ASSERT_EQ(m.body.size(), 1u);
  const auto* loop = std::get_if<LoopNode>(&m.body[0]->data);
  ASSERT_NE(loop, nullptr);
  pevpm::Env env{m.variables.size()};
  m.variables.bind(env, m.parameters);
  EXPECT_DOUBLE_EQ(loop->count->eval(env), 1000.0);
  // Loop body: the two-condition Runon chain plus the Serial directive.
  ASSERT_EQ(loop->body.size(), 2u);
  const auto* chain = std::get_if<RunonNode>(&loop->body[0]->data);
  ASSERT_NE(chain, nullptr);
  // Even branch: a nested Runon (procnum != 0) plus a Recv.
  ASSERT_EQ(chain->then_body.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<RunonNode>(chain->then_body[0]->data));
  // The else side is the c2 Runon with the odd branch.
  ASSERT_EQ(chain->else_body.size(), 1u);
  const auto* odd = std::get_if<RunonNode>(&chain->else_body[0]->data);
  ASSERT_NE(odd, nullptr);
  EXPECT_EQ(odd->then_body.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<SerialNode>(loop->body[1]->data));
}

TEST(ParseAnnotations, MessageDirectionFollowsType) {
  const char* source = R"(
// PEVPM Message type = MPI_Send & size = 100 & from = procnum & to = 1
// PEVPM Message type = MPI_Recv & size = 100 & from = 0 & to = procnum
)";
  const Model m = pevpm::parse_annotated_source(source);
  ASSERT_EQ(m.body.size(), 2u);
  const auto* send = std::get_if<MessageNode>(&m.body[0]->data);
  const auto* recv = std::get_if<MessageNode>(&m.body[1]->data);
  ASSERT_NE(send, nullptr);
  ASSERT_NE(recv, nullptr);
  EXPECT_EQ(send->op, MsgOp::kSend);
  EXPECT_DOUBLE_EQ(send->peer->eval(pevpm::Env{}), 1.0);  // "to" operand
  EXPECT_EQ(recv->op, MsgOp::kRecv);
  EXPECT_DOUBLE_EQ(recv->peer->eval(pevpm::Env{}), 0.0);  // "from" operand
}

TEST(ParseAnnotations, RejectsGarbage) {
  EXPECT_THROW((void)pevpm::parse_annotated_source("// PEVPM Frobnicate x\n"),
               pevpm::ParseError);
  EXPECT_THROW((void)pevpm::parse_annotated_source("// PEVPM & size = 4\n"),
               pevpm::ParseError);
  EXPECT_THROW((void)pevpm::parse_annotated_source("// PEVPM }\n"),
               pevpm::ParseError);
  EXPECT_THROW((void)pevpm::parse_annotated_source(
                   "// PEVPM Message type = MPI_Bcast & size = 4 & to = 1\n"),
               pevpm::ParseError);
}

TEST(ParseAnnotations, IgnoresOrdinaryCode) {
  const Model m = pevpm::parse_annotated_source(
      "int main() { /* no annotations at all */ }\n");
  EXPECT_TRUE(m.body.empty());
}

}  // namespace
