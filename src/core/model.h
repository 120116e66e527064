// PEVPM model representation: the directive AST.
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
// An operand that reads no loop induction variable has one value per
// process for a whole run: only loops write a process's variables once it
// has started. When a model is built, each such operand gets a dense index
// (its `*_cache` field) into a per-process operand cache, so the Vm
// evaluates it once per process and reads the cache after that. An index
// of -1 means "evaluate every time": operands that read an induction
// variable, and any node built by hand.
#pragma once

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
  int seconds_cache = -1;     ///< operand cache index; -1 = no cache
};

struct MessageNode {
  MsgOp op = MsgOp::kSend;
  ExprPtr size;               ///< bytes
  ExprPtr peer;               ///< destination (sends) / source (recvs)
  std::string handle;         ///< nonblocking ops: name matched by Wait
  int handle_slot = -1;       ///< Model::handles slot; -1 without a handle
  int size_cache = -1;        ///< operand cache index; -1 = no cache
  int peer_cache = -1;        ///< operand cache index; -1 = no cache
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
  int size_cache = -1;        ///< operand cache index; -1 = no cache
  int root_cache = -1;        ///< operand cache index; -1 = no cache
};

struct RunonNode {
  ExprPtr condition;
  Body then_body;
  Body else_body;             ///< may be empty
  int condition_cache = -1;   ///< operand cache index; -1 = no cache
};

struct LoopNode {
  ExprPtr count;
  Body body;
  /// Optional induction variable, bound to 0 .. count-1 in the body
  /// ("loop numprocs - 1 as round { ... }").
  std::string var;
  int var_slot = -1;          ///< Model::variables slot; -1 without a var
  int count_cache = -1;       ///< operand cache index; -1 = no cache
};

struct Node {
  std::variant<SerialNode, MessageNode, WaitNode, RunonNode, LoopNode,
               CollectiveNode>
      data;
  int id = 0;                 ///< stable directive id (loss attribution)
  int line = 0;               ///< source line when parsed from text
};

/// A complete model: the program body plus default parameter bindings.
/// `numprocs` and `procnum` are bound by the evaluator; everything else the
/// expressions reference must appear in `parameters` or be supplied at
/// prediction time. The body's slots index `variables` and `handles`, and
/// its operand cache indexes run below `cached_operands`, so a body only
/// runs with the tables it was built against.
struct Model {
  Body body;
  Bindings parameters;
  SymbolTable variables;      ///< names the expressions read
  SymbolTable handles;        ///< nonblocking handle names
  std::string name;
  int node_count = 0;         ///< total directives, for reporting
  int cached_operands = 0;    ///< operand cache entries per process

  /// Pretty-prints the directive program.
  [[nodiscard]] std::string str() const;
};

/// Gives every loop-invariant operand of `model.body` (one that reads no
/// variable any loop of the model binds) a dense operand cache index and
/// sets `model.cached_operands`. Both model parsers call it once the body
/// is complete.
void index_cached_operands(Model& model);

}  // namespace pevpm
