// PEVPM model representation: the directive AST and its compiled program.
//
// The paper's performance directives (Figure 5) compose the computation and
// communication structure of a message-passing program:
//
//   Serial   — a serial computation segment with a (symbolic) duration
//   Message  — a point-to-point transfer (MPI_Send / MPI_Recv / MPI_Isend /
//              MPI_Irecv) with symbolic size and endpoints
//   Wait     — completion of the most recent nonblocking operation with a
//              matching handle name
//   Runon    — guard: the body only executes on processes satisfying a
//              condition, with optional else-branch
//   Loop     — repetition with a symbolic trip count
//
// All operands are symbolic expressions over `procnum`, `numprocs` and any
// user parameters, so one model re-evaluates across machine sizes. Every
// variable, loop induction variable and handle name is resolved to a slot
// of the model's symbol tables when the model is built, so evaluation
// never looks a name up.
//
// A model is compiled once, when it is built: `compile` turns the tree
// into a `Program`, one flat vector of instructions with jump targets
// that every Vm of the model runs (every replication, every pevpmd
// slice). An operand that reads no loop induction variable has one value
// per process for a whole run, since only loops write a process's
// variables once it has started; compile gives each such operand a dense
// slot in a per-process operand cache, so the Vm evaluates it once per
// process and reads the cache after that. Each distinct directive id a
// process can block at gets a dense loss slot, so the Vm keeps blocked
// time per slot in a flat array. The tree stays for printing
// (`str()`) and for the instructions to point into.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/expr.h"

namespace pevpm {

struct Node;
using NodePtr = std::shared_ptr<const Node>;
using Body = std::vector<NodePtr>;

enum class MsgOp { kSend, kRecv, kIsend, kIrecv };

[[nodiscard]] std::string to_string(MsgOp op);

struct SerialNode {
  ExprPtr seconds;            ///< duration of the serial segment
  std::string label;          ///< optional annotation for loss attribution
};

struct MessageNode {
  MsgOp op = MsgOp::kSend;
  ExprPtr size;               ///< bytes
  ExprPtr peer;               ///< destination (sends) / source (recvs)
  std::string handle;         ///< nonblocking ops: name matched by Wait
  int handle_slot = -1;       ///< Model::handles slot; -1 without a handle
};

struct WaitNode {
  std::string handle;         ///< which outstanding request to complete
  int handle_slot = -1;       ///< Model::handles slot; -1 for an empty name
};

enum class CollOp { kBarrier, kBcast, kReduce, kAllreduce, kAlltoall };

[[nodiscard]] std::string to_string(CollOp op);

/// A collective operation over all processes. Every process must execute
/// the same sequence of collectives (MPI semantics); the VM synchronises
/// arrivals and samples per-process completion times from the collective
/// distribution tables (or a log-tree synthesis from point-to-point data).
struct CollectiveNode {
  CollOp op = CollOp::kBarrier;
  ExprPtr size;               ///< payload bytes (null for barrier)
  ExprPtr root;               ///< root rank where applicable (may be null)
};

struct RunonNode {
  ExprPtr condition;
  Body then_body;
  Body else_body;             ///< may be empty
};

struct LoopNode {
  ExprPtr count;
  Body body;
  /// Optional induction variable, bound to 0 .. count-1 in the body
  /// ("loop numprocs - 1 as round { ... }").
  std::string var;
  int var_slot = -1;          ///< Model::variables slot; -1 without a var
};

struct Node {
  std::variant<SerialNode, MessageNode, WaitNode, RunonNode, LoopNode,
               CollectiveNode>
      data;
  int id = 0;                 ///< stable directive id (loss attribution)
  int line = 0;               ///< source line when parsed from text
};

/// One instruction of a compiled program. A runon is a branch (plus a jump
/// over its else-body when it has one), a loop an enter/next pair around
/// its body.
enum class Opcode : std::uint8_t {
  kSerial,
  kSend,
  kIsend,
  kRecv,
  kIrecv,
  kWait,
  kCollective,
  kBranch,     ///< runon: evaluate the condition, not taken -> target
  kJump,       ///< end of a then-body with an else-body -> target
  kLoopEnter,  ///< evaluate the count; a loop that never runs -> target
  kLoopNext,   ///< another iteration -> target (the body's first pc)
};

struct Instruction {
  Opcode op = Opcode::kSerial;
  int id = 0;                 ///< directive id (loss attribution)
  std::uint32_t target = 0;   ///< branch, jump and loop targets
  /// Operand cache slot of each of `operands(*this)`; -1 when the operand
  /// is evaluated each time or absent.
  std::array<int, 2> cache{-1, -1};
  /// kRecv, kWait and kCollective (the instructions a process blocks at):
  /// the loss slot of `id`, its index in Program::loss_ids(). 0 elsewhere.
  std::uint32_t loss = 0;
  union {
    const SerialNode* serial = nullptr;
    const MessageNode* message;
    const WaitNode* wait;
    const CollectiveNode* collective;
    const RunonNode* runon;   ///< kBranch and kJump
    const LoopNode* loop;     ///< kLoopEnter and kLoopNext
  };
};
static_assert(sizeof(Instruction) <= 32, "two instructions per cache line");

/// The operand expressions of `in`, null when absent: kSerial {seconds};
/// messages {size, peer}; kCollective {size, root}; kBranch {condition};
/// kLoopEnter {count}; the rest none.
[[nodiscard]] std::array<const Expr*, 2> operands(const Instruction& in);

struct Model;

/// A model's directive tree compiled to one flat instruction vector. It is
/// immutable once `compile` returns, so every Vm of the model reads the
/// same Program, from any thread.
class Program {
 public:
  [[nodiscard]] const std::vector<Instruction>& instructions() const noexcept {
    return code_;
  }
  /// Operand cache entries per process.
  [[nodiscard]] int cached_operands() const noexcept { return cached_; }
  /// The distinct directive ids of the instructions a process blocks at,
  /// ascending: loss slot i attributes blocked time to loss_ids()[i].
  [[nodiscard]] const std::vector<int>& loss_ids() const noexcept {
    return loss_ids_;
  }
  /// The body it was compiled from; it owns the nodes the instructions
  /// point into.
  [[nodiscard]] const Body& source() const noexcept { return source_; }

 private:
  friend Program compile(const Model& model);

  Body source_;
  std::vector<Instruction> code_;
  int cached_ = 0;
  std::vector<int> loss_ids_;
};

/// A complete model: the program body plus default parameter bindings.
/// `numprocs` and `procnum` are bound by the evaluator; everything else the
/// expressions reference must appear in `parameters` or be supplied at
/// prediction time. The body's slots index `variables` and `handles`, so a
/// body only runs with the tables it was built against, and `program` is
/// the body compiled: the Vm runs only a model whose program was compiled
/// from its current body.
struct Model {
  Body body;
  Bindings parameters;
  SymbolTable variables;      ///< names the expressions read
  SymbolTable handles;        ///< nonblocking handle names
  std::string name;
  int node_count = 0;         ///< total directives, for reporting
  Program program;            ///< compile(*this)

  /// Pretty-prints the directive program.
  [[nodiscard]] std::string str() const;
};

/// Compiles `model.body` against `model.variables`. An operand gets an
/// operand cache slot when it reads no variable any loop of the model
/// binds, and each distinct directive id of a blocking instruction a dense
/// loss slot. Both model parsers call it once the body is complete; a model
/// built by hand must too (`model.program = compile(model)`).
[[nodiscard]] Program compile(const Model& model);

}  // namespace pevpm
