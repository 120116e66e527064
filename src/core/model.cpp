#include "core/model.h"

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

/// Marks every variable slot a loop of `body` binds.
void mark_loop_slots(const Body& body, std::vector<char>& written) {
  for (const NodePtr& node : body) {
    if (const auto* loop = std::get_if<LoopNode>(&node->data)) {
      if (loop->var_slot >= 0) {
        written[static_cast<std::size_t>(loop->var_slot)] = 1;
      }
      mark_loop_slots(loop->body, written);
    } else if (const auto* runon = std::get_if<RunonNode>(&node->data)) {
      mark_loop_slots(runon->then_body, written);
      mark_loop_slots(runon->else_body, written);
    }
  }
}

/// Rebuilds a body with operand cache indexes (see index_cached_operands).
class OperandIndexer {
 public:
  OperandIndexer(const SymbolTable& variables, std::vector<char> loop_slots)
      : variables_{variables}, loop_slots_{std::move(loop_slots)} {}

  [[nodiscard]] Body index(const Body& body) {
    Body out;
    out.reserve(body.size());
    for (const NodePtr& node : body) out.push_back(index(*node));
    return out;
  }

  [[nodiscard]] int count() const noexcept { return next_; }

 private:
  [[nodiscard]] NodePtr index(const Node& node) {
    Node out = node;
    if (auto* serial = std::get_if<SerialNode>(&out.data)) {
      serial->seconds_cache = operand(serial->seconds);
    } else if (auto* msg = std::get_if<MessageNode>(&out.data)) {
      msg->size_cache = operand(msg->size);
      msg->peer_cache = operand(msg->peer);
    } else if (auto* coll = std::get_if<CollectiveNode>(&out.data)) {
      coll->size_cache = operand(coll->size);
      coll->root_cache = operand(coll->root);
    } else if (auto* runon = std::get_if<RunonNode>(&out.data)) {
      runon->condition_cache = operand(runon->condition);
      runon->then_body = index(runon->then_body);
      runon->else_body = index(runon->else_body);
    } else if (auto* loop = std::get_if<LoopNode>(&out.data)) {
      loop->count_cache = operand(loop->count);
      loop->body = index(loop->body);
    }
    return std::make_shared<const Node>(std::move(out));
  }

  /// A fresh cache index, or -1 when `expr` is absent or reads a slot
  /// some loop writes.
  [[nodiscard]] int operand(const ExprPtr& expr) {
    if (!expr) return -1;
    std::vector<std::string> names;
    expr->collect_vars(names);
    for (const std::string& name : names) {
      const int slot = variables_.find(name);
      if (slot >= 0 && loop_slots_[static_cast<std::size_t>(slot)] != 0) {
        return -1;
      }
    }
    return next_++;
  }

  const SymbolTable& variables_;
  std::vector<char> loop_slots_;
  int next_ = 0;
};

}  // namespace

void index_cached_operands(Model& model) {
  std::vector<char> loop_slots(model.variables.size(), 0);
  mark_loop_slots(model.body, loop_slots);
  OperandIndexer indexer{model.variables, std::move(loop_slots)};
  model.body = indexer.index(model.body);
  model.cached_operands = indexer.count();
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
