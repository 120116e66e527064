#include "core/model.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace pevpm {

std::string to_string(MsgOp op) {
  switch (op) {
    case MsgOp::kSend: return "send";
    case MsgOp::kRecv: return "recv";
    case MsgOp::kIsend: return "isend";
    case MsgOp::kIrecv: return "irecv";
  }
  return "?";
}

std::string to_string(CollOp op) {
  switch (op) {
    case CollOp::kBarrier: return "barrier";
    case CollOp::kBcast: return "bcast";
    case CollOp::kReduce: return "reduce";
    case CollOp::kAllreduce: return "allreduce";
    case CollOp::kAlltoall: return "alltoall";
  }
  return "?";
}

namespace {

void print_body(std::ostringstream& os, const Body& body, int indent);

void print_node(std::ostringstream& os, const Node& node, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  if (const auto* serial = std::get_if<SerialNode>(&node.data)) {
    os << pad << "serial time = " << serial->seconds->str();
    if (!serial->label.empty()) os << "  # " << serial->label;
    os << '\n';
  } else if (const auto* msg = std::get_if<MessageNode>(&node.data)) {
    os << pad << "message " << to_string(msg->op)
       << " size = " << msg->size->str()
       << (msg->op == MsgOp::kSend || msg->op == MsgOp::kIsend ? " to = "
                                                               : " from = ")
       << msg->peer->str();
    if (!msg->handle.empty()) os << " handle = " << msg->handle;
    os << '\n';
  } else if (const auto* wait = std::get_if<WaitNode>(&node.data)) {
    os << pad << "wait handle = " << wait->handle << '\n';
  } else if (const auto* coll = std::get_if<CollectiveNode>(&node.data)) {
    os << pad << to_string(coll->op);
    if (coll->size) os << " size = " << coll->size->str();
    if (coll->root) os << " root = " << coll->root->str();
    os << '\n';
  } else if (const auto* runon = std::get_if<RunonNode>(&node.data)) {
    os << pad << "runon " << runon->condition->str() << " {\n";
    print_body(os, runon->then_body, indent + 1);
    if (!runon->else_body.empty()) {
      os << pad << "} else {\n";
      print_body(os, runon->else_body, indent + 1);
    }
    os << pad << "}\n";
  } else if (const auto* loop = std::get_if<LoopNode>(&node.data)) {
    os << pad << "loop " << loop->count->str();
    if (!loop->var.empty()) os << " as " << loop->var;
    os << " {\n";
    print_body(os, loop->body, indent + 1);
    os << pad << "}\n";
  }
}

void print_body(std::ostringstream& os, const Body& body, int indent) {
  for (const NodePtr& node : body) print_node(os, *node, indent);
}

/// Appends the instructions of `body` to `code`, leaving every operand
/// uncached.
void emit(const Body& body, std::vector<Instruction>& code) {
  const auto here = [&code] { return static_cast<std::uint32_t>(code.size()); };
  for (const NodePtr& node : body) {
    Instruction in;
    in.id = node->id;
    if (const auto* serial = std::get_if<SerialNode>(&node->data)) {
      in.serial = serial;
      code.push_back(in);
    } else if (const auto* msg = std::get_if<MessageNode>(&node->data)) {
      switch (msg->op) {
        case MsgOp::kSend: in.op = Opcode::kSend; break;
        case MsgOp::kIsend: in.op = Opcode::kIsend; break;
        case MsgOp::kRecv: in.op = Opcode::kRecv; break;
        case MsgOp::kIrecv: in.op = Opcode::kIrecv; break;
      }
      in.message = msg;
      code.push_back(in);
    } else if (const auto* wait = std::get_if<WaitNode>(&node->data)) {
      in.op = Opcode::kWait;
      in.wait = wait;
      code.push_back(in);
    } else if (const auto* coll = std::get_if<CollectiveNode>(&node->data)) {
      in.op = Opcode::kCollective;
      in.collective = coll;
      code.push_back(in);
    } else if (const auto* runon = std::get_if<RunonNode>(&node->data)) {
      // branch (not taken -> else), then-body, [jump -> end, else-body]
      const std::size_t branch = code.size();
      in.op = Opcode::kBranch;
      in.runon = runon;
      code.push_back(in);
      emit(runon->then_body, code);
      if (!runon->else_body.empty()) {
        const std::size_t jump = code.size();
        in.op = Opcode::kJump;
        code.push_back(in);
        code[branch].target = here();
        emit(runon->else_body, code);
        code[jump].target = here();
      } else {
        code[branch].target = here();
      }
    } else if (const auto* loop = std::get_if<LoopNode>(&node->data)) {
      // enter (no iterations -> end), body, next (again -> body)
      const std::size_t enter = code.size();
      in.op = Opcode::kLoopEnter;
      in.loop = loop;
      code.push_back(in);
      if (!loop->body.empty()) {
        emit(loop->body, code);
        in.op = Opcode::kLoopNext;
        in.target = static_cast<std::uint32_t>(enter + 1);
        code.push_back(in);
      }
      code[enter].target = here();
    }
  }
}

}  // namespace

std::array<const Expr*, 2> operands(const Instruction& in) {
  switch (in.op) {
    case Opcode::kSerial: return {in.serial->seconds.get(), nullptr};
    case Opcode::kSend:
    case Opcode::kIsend:
    case Opcode::kRecv:
    case Opcode::kIrecv:
      return {in.message->size.get(), in.message->peer.get()};
    case Opcode::kCollective:
      return {in.collective->size.get(), in.collective->root.get()};
    case Opcode::kBranch: return {in.runon->condition.get(), nullptr};
    case Opcode::kLoopEnter: return {in.loop->count.get(), nullptr};
    default: return {nullptr, nullptr};
  }
}

Program compile(const Model& model) {
  Program program;
  program.source_ = model.body;
  emit(model.body, program.code_);
  // Once a process has started, only loops write its variables, so an
  // operand that reads no slot a loop binds keeps one value per process.
  std::vector<char> loop_slots(model.variables.size(), 0);
  for (const Instruction& in : program.code_) {
    if (in.op == Opcode::kLoopEnter && in.loop->var_slot >= 0) {
      loop_slots[static_cast<std::size_t>(in.loop->var_slot)] = 1;
    }
  }
  std::vector<std::string> names;
  for (Instruction& in : program.code_) {
    const std::array<const Expr*, 2> exprs = operands(in);
    for (std::size_t i = 0; i < exprs.size(); ++i) {
      if (exprs[i] == nullptr) continue;
      names.clear();
      exprs[i]->collect_vars(names);
      const bool variant =
          std::any_of(names.begin(), names.end(), [&](const std::string& n) {
            const int slot = model.variables.find(n);
            return slot >= 0 && loop_slots[static_cast<std::size_t>(slot)];
          });
      if (!variant) in.cache[i] = program.cached_++;
    }
  }
  const auto blocks = [](const Instruction& in) {
    return in.op == Opcode::kRecv || in.op == Opcode::kWait ||
           in.op == Opcode::kCollective;
  };
  std::set<int> distinct;
  for (const Instruction& in : program.code_) {
    if (blocks(in)) distinct.insert(in.id);
  }
  std::vector<int>& ids = program.loss_ids_;
  ids.assign(distinct.begin(), distinct.end());
  for (Instruction& in : program.code_) {
    if (!blocks(in)) continue;
    in.loss = static_cast<std::uint32_t>(
        std::lower_bound(ids.begin(), ids.end(), in.id) - ids.begin());
  }
  return program;
}

std::string Model::str() const {
  std::ostringstream os;
  if (!name.empty()) os << "# model: " << name << '\n';
  for (const auto& [key, value] : parameters) {
    os << "param " << key << " = " << value << '\n';
  }
  print_body(os, body, 0);
  return os.str();
}

}  // namespace pevpm
