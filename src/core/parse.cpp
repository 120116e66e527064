#include "core/parse.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <vector>

namespace pevpm {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

bool starts_with_word(std::string_view s, std::string_view word) {
  if (s.substr(0, word.size()) != word) return false;
  if (s.size() == word.size()) return true;
  const char c = s[word.size()];
  return !(std::isalnum(static_cast<unsigned char>(c)) || c == '_');
}

/// Position of the first *assignment* '=' (not ==, !=, <=, >=), or npos.
std::size_t find_assign(std::string_view s) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '=') continue;
    if (i + 1 < s.size() && s[i + 1] == '=') {
      ++i;  // skip '=='
      continue;
    }
    if (i > 0 && (s[i - 1] == '=' || s[i - 1] == '!' || s[i - 1] == '<' ||
                  s[i - 1] == '>')) {
      continue;
    }
    return i;
  }
  return std::string_view::npos;
}

/// Splits on single '&' separators ('&&' stays inside expressions).
std::vector<std::string_view> split_amp(std::string_view s) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '&') continue;
    if (i + 1 < s.size() && s[i + 1] == '&') {
      ++i;
      continue;
    }
    if (i > 0 && s[i - 1] == '&') continue;
    parts.push_back(trim(s.substr(start, i - start)));
    start = i + 1;
  }
  parts.push_back(trim(s.substr(start)));
  return parts;
}

/// Shared block assembler for both parsers.
class Assembler {
 public:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError{"PEVPM model, line " + std::to_string(line_) + ": " +
                     what};
  }

  void set_line(int line) { line_ = line; }

  /// Parses an operand expression against the model's variable slots.
  [[nodiscard]] ExprPtr expr(std::string_view text) {
    try {
      return parse_expr(text, variables_);
    } catch (const ParseError& e) {
      fail(e.what());
    }
  }

  /// Folds a parameter definition against the parameters defined so far.
  [[nodiscard]] double fold(std::string_view text,
                            const Bindings& parameters) {
    const ExprPtr value = expr(text);
    Env env{variables_.size()};
    variables_.bind(env, parameters);
    return value->eval(env);
  }

  /// Handle slot for a nonblocking handle name (-1 for no name).
  [[nodiscard]] int handle(std::string_view name) {
    return name.empty() ? -1 : handles_.intern(name);
  }

  void append(Node node) {
    node.id = next_id_++;
    node.line = line_;
    target().push_back(std::make_shared<Node>(std::move(node)));
  }

  void push_loop(ExprPtr count, std::string var = {}) {
    settle_pending_runon();
    check_depth(1);
    Frame frame;
    frame.kind = Frame::Kind::kLoop;
    frame.loop_count = std::move(count);
    if (!var.empty()) frame.loop_slot = variables_.intern(var);
    frame.loop_var = std::move(var);
    frames_.push_back(std::move(frame));
  }

  void push_runon(std::vector<ExprPtr> conditions) {
    if (conditions.empty()) fail("runon needs at least one condition");
    settle_pending_runon();
    check_depth(conditions.size());
    Frame frame;
    frame.kind = Frame::Kind::kRunon;
    frame.conditions = std::move(conditions);
    frames_.push_back(std::move(frame));
  }

  void open_block() {
    if (frames_.empty()) fail("'{' without a preceding loop/runon");
    Frame& top = frames_.back();
    if (top.open) fail("'{' while a block is already open");
    if (top.kind == Frame::Kind::kLoop && !top.blocks.empty()) {
      fail("loop takes exactly one block");
    }
    // A runon may open one block per condition, plus one trailing else.
    if (top.kind == Frame::Kind::kRunon &&
        top.blocks.size() > top.conditions.size()) {
      fail("too many blocks for runon");
    }
    top.open = true;
  }

  void close_block() {
    // A completed runon sitting on top (its else never materialised) must
    // settle into the block we are about to close.
    settle_pending_runon();
    if (frames_.empty() || !frames_.back().open) {
      fail("'}' without an open block");
    }
    Frame& top = frames_.back();
    top.blocks.push_back(std::move(top.current));
    top.current.clear();
    top.open = false;
    if (top.kind == Frame::Kind::kRunon &&
        top.blocks.size() <= top.conditions.size()) {
      return;  // further condition blocks / an else may follow
    }
    finalize_top();
  }

  /// Runon only: the '}' has been seen and no else/next block follows.
  /// Called lazily: before appending anything else at this level and at
  /// end of input.
  void settle_pending_runon() {
    while (!frames_.empty() && !frames_.back().open &&
           frames_.back().kind == Frame::Kind::kRunon &&
           frames_.back().blocks.size() >= frames_.back().conditions.size()) {
      finalize_top();
    }
  }

  [[nodiscard]] bool top_is_settled_runon() const {
    return !frames_.empty() && !frames_.back().open &&
           frames_.back().kind == Frame::Kind::kRunon &&
           frames_.back().blocks.size() >= frames_.back().conditions.size();
  }

  /// For "} else {": validates that the runon on top may take an else
  /// block (the following open_block() call opens it).
  void open_else() {
    if (!top_is_settled_runon() ||
        frames_.back().blocks.size() != frames_.back().conditions.size()) {
      fail("'else' without a matching runon");
    }
  }

  [[nodiscard]] Model finish(std::string name, Bindings parameters) {
    settle_pending_runon();
    if (!frames_.empty()) fail("unclosed block at end of input");
    Model model;
    model.body = std::move(root_);
    model.parameters = std::move(parameters);
    model.variables = std::move(variables_);
    model.handles = std::move(handles_);
    model.name = std::move(name);
    model.node_count = next_id_ - 1;
    model.program = compile(model);
    return model;
  }

 private:
  struct Frame {
    enum class Kind { kLoop, kRunon } kind = Kind::kLoop;
    ExprPtr loop_count;
    std::vector<ExprPtr> conditions;
    std::vector<Body> blocks;
    Body current;
    bool open = false;
    std::string loop_var;
    int loop_slot = -1;
  };

  /// Fails when a block `levels` deeper than the open ones would nest
  /// deeper than kMaxModelDepth. A runon of k conditions is k levels: its
  /// elif chain nests k runon nodes.
  void check_depth(std::size_t levels) const {
    for (const Frame& frame : frames_) {
      levels += frame.kind == Frame::Kind::kLoop ? 1 : frame.conditions.size();
    }
    if (levels > static_cast<std::size_t>(kMaxModelDepth)) {
      fail("blocks nested deeper than " + std::to_string(kMaxModelDepth));
    }
  }

  Body& target() {
    // New directives settle any completed runon first (its else didn't
    // materialise), then go into the innermost open block.
    settle_pending_runon();
    return open_target();
  }

  /// Innermost open block without settling (used during finalisation).
  Body& open_target() {
    if (frames_.empty()) return root_;
    Frame& top = frames_.back();
    if (!top.open) fail("directive between blocks (expected '{')");
    return top.current;
  }

  void finalize_top() {
    Frame frame = std::move(frames_.back());
    frames_.pop_back();
    Node node;
    if (frame.kind == Frame::Kind::kLoop) {
      if (frame.blocks.size() != 1) fail("loop needs exactly one block");
      node.data = LoopNode{std::move(frame.loop_count),
                           std::move(frame.blocks[0]),
                           std::move(frame.loop_var), frame.loop_slot};
    } else {
      // Build the if / elif / else chain from the inside out.
      Body else_body;
      if (frame.blocks.size() > frame.conditions.size()) {
        else_body = std::move(frame.blocks.back());
        frame.blocks.pop_back();
      }
      for (std::size_t i = frame.conditions.size(); i-- > 1;) {
        Node chained;
        chained.data = RunonNode{frame.conditions[i],
                                 std::move(frame.blocks[i]),
                                 std::move(else_body)};
        chained.id = next_id_++;
        chained.line = line_;
        else_body.clear();
        else_body.push_back(std::make_shared<Node>(std::move(chained)));
      }
      node.data = RunonNode{frame.conditions[0], std::move(frame.blocks[0]),
                            std::move(else_body)};
    }
    node.id = next_id_++;
    node.line = line_;
    // Append without settling: settle_pending_runon drives this call, and
    // any frame below us is necessarily open.
    open_target().push_back(std::make_shared<Node>(std::move(node)));
  }

  Body root_;
  std::vector<Frame> frames_;
  SymbolTable variables_;
  SymbolTable handles_;
  int next_id_ = 1;
  int line_ = 0;
};

/// Parses "key = expr" segments of a message directive line.
struct KeyedExprs {
  std::map<std::string, std::string, std::less<>> values;

  [[nodiscard]] ExprPtr expr(std::string_view key, Assembler& asmr) const {
    const auto it = values.find(key);
    if (it == values.end()) {
      asmr.fail("missing '" + std::string{key} + " =' operand");
    }
    return asmr.expr(it->second);
  }
  [[nodiscard]] bool has(std::string_view key) const {
    return values.count(std::string{key}) > 0;
  }
  [[nodiscard]] std::string text(std::string_view key) const {
    const auto it = values.find(key);
    return it == values.end() ? std::string{} : it->second;
  }
};

/// Extracts "key = value" runs from a directive tail. Keys are the known
/// operand names; values run until the next known key or end of line.
KeyedExprs parse_keys(std::string_view tail, const Assembler& asmr) {
  static constexpr std::string_view kKeys[] = {
      "size", "to", "from", "handle", "tag", "time", "type", "iterations",
      "count", "root"};
  struct Hit {
    std::size_t pos;
    std::string_view key;
  };
  std::vector<Hit> hits;
  for (const std::string_view key : kKeys) {
    std::size_t search = 0;
    while (search < tail.size()) {
      const std::size_t pos = tail.find(key, search);
      if (pos == std::string_view::npos) break;
      const bool left_ok =
          pos == 0 || !(std::isalnum(static_cast<unsigned char>(
                            tail[pos - 1])) ||
                        tail[pos - 1] == '_');
      std::size_t after = pos + key.size();
      while (after < tail.size() &&
             std::isspace(static_cast<unsigned char>(tail[after]))) {
        ++after;
      }
      const bool right_ok = after < tail.size() && tail[after] == '=' &&
                            (after + 1 >= tail.size() || tail[after + 1] != '=');
      if (left_ok && right_ok) {
        hits.push_back(Hit{pos, key});
        break;
      }
      search = pos + 1;
    }
  }
  std::sort(hits.begin(), hits.end(),
            [](const Hit& a, const Hit& b) { return a.pos < b.pos; });
  KeyedExprs out;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const std::size_t value_begin = tail.find('=', hits[i].pos) + 1;
    const std::size_t value_end =
        i + 1 < hits.size() ? hits[i + 1].pos : tail.size();
    if (value_end < value_begin) asmr.fail("malformed operand list");
    std::string_view value =
        trim(tail.substr(value_begin, value_end - value_begin));
    // Annotation operands are joined by single '&' separators; strip one.
    if (!value.empty() && value.back() == '&' &&
        (value.size() < 2 || value[value.size() - 2] != '&')) {
      value = trim(value.substr(0, value.size() - 1));
    }
    out.values[std::string{hits[i].key}] = std::string{value};
  }
  return out;
}

}  // namespace

Model parse_model(std::string_view text, std::string name) {
  Assembler asmr;
  Bindings parameters;
  std::istringstream is{std::string{text}};
  std::string raw;
  int lineno = 0;
  while (std::getline(is, raw)) {
    ++lineno;
    asmr.set_line(lineno);
    std::string_view line{raw};
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;

    // Brace-only / else forms first.
    if (line == "}") {
      asmr.close_block();
      continue;
    }
    if (line == "} else {") {
      asmr.close_block();
      asmr.open_else();
      asmr.open_block();
      continue;
    }
    bool opens_block = false;
    if (line.back() == '{') {
      opens_block = true;
      line = trim(line.substr(0, line.size() - 1));
    }

    if (starts_with_word(line, "param")) {
      std::string_view tail = trim(line.substr(5));
      const std::size_t eq = find_assign(tail);
      if (eq == std::string_view::npos) asmr.fail("param needs 'name = value'");
      const std::string pname{trim(tail.substr(0, eq))};
      parameters[pname] = asmr.fold(trim(tail.substr(eq + 1)), parameters);
    } else if (starts_with_word(line, "loop")) {
      std::string_view tail = trim(line.substr(4));
      if (starts_with_word(tail, "iterations") ||
          starts_with_word(tail, "count")) {
        const std::size_t eq = find_assign(tail);
        if (eq == std::string_view::npos) asmr.fail("loop needs a count");
        tail = trim(tail.substr(eq + 1));
      }
      // Optional induction variable: "loop <expr> as <name>".
      std::string var;
      const std::size_t as_pos = tail.rfind(" as ");
      if (as_pos != std::string_view::npos) {
        const std::string_view candidate = trim(tail.substr(as_pos + 4));
        const bool is_ident =
            !candidate.empty() &&
            std::all_of(candidate.begin(), candidate.end(), [](char c) {
              return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
            }) &&
            !std::isdigit(static_cast<unsigned char>(candidate.front()));
        if (is_ident) {
          var = std::string{candidate};
          tail = trim(tail.substr(0, as_pos));
        }
      }
      asmr.push_loop(asmr.expr(tail), std::move(var));
    } else if (starts_with_word(line, "runon")) {
      asmr.push_runon({asmr.expr(trim(line.substr(5)))});
    } else if (starts_with_word(line, "serial")) {
      std::string_view tail = trim(line.substr(6));
      if (starts_with_word(tail, "time")) {
        const std::size_t eq = find_assign(tail);
        if (eq == std::string_view::npos) asmr.fail("serial needs 'time ='");
        tail = trim(tail.substr(eq + 1));
      }
      asmr.append(Node{SerialNode{asmr.expr(tail), {}}, 0, 0});
    } else if (starts_with_word(line, "message")) {
      std::string_view tail = trim(line.substr(7));
      MsgOp op{};
      if (starts_with_word(tail, "send")) {
        op = MsgOp::kSend;
        tail = trim(tail.substr(4));
      } else if (starts_with_word(tail, "recv")) {
        op = MsgOp::kRecv;
        tail = trim(tail.substr(4));
      } else if (starts_with_word(tail, "isend")) {
        op = MsgOp::kIsend;
        tail = trim(tail.substr(5));
      } else if (starts_with_word(tail, "irecv")) {
        op = MsgOp::kIrecv;
        tail = trim(tail.substr(5));
      } else {
        asmr.fail("message needs send/recv/isend/irecv");
      }
      const KeyedExprs keys = parse_keys(tail, asmr);
      const bool sending = op == MsgOp::kSend || op == MsgOp::kIsend;
      MessageNode node;
      node.op = op;
      node.size = keys.expr("size", asmr);
      node.peer = keys.expr(sending ? "to" : "from", asmr);
      node.handle = keys.text("handle");
      if ((op == MsgOp::kIsend || op == MsgOp::kIrecv) &&
          node.handle.empty()) {
        asmr.fail("nonblocking message needs 'handle ='");
      }
      node.handle_slot = asmr.handle(node.handle);
      asmr.append(Node{std::move(node), 0, 0});
    } else if (starts_with_word(line, "barrier")) {
      asmr.append(Node{CollectiveNode{CollOp::kBarrier, nullptr, nullptr}, 0,
                       0});
    } else if (starts_with_word(line, "bcast") ||
               starts_with_word(line, "reduce") ||
               starts_with_word(line, "allreduce") ||
               starts_with_word(line, "alltoall")) {
      CollOp op = CollOp::kBcast;
      std::size_t skip = 5;
      if (starts_with_word(line, "reduce")) {
        op = CollOp::kReduce;
        skip = 6;
      } else if (starts_with_word(line, "allreduce")) {
        op = CollOp::kAllreduce;
        skip = 9;
      } else if (starts_with_word(line, "alltoall")) {
        op = CollOp::kAlltoall;
        skip = 8;
      }
      const KeyedExprs keys = parse_keys(line.substr(skip), asmr);
      CollectiveNode node;
      node.op = op;
      node.size = keys.expr("size", asmr);
      node.root = keys.has("root") ? asmr.expr(keys.text("root")) : nullptr;
      asmr.append(Node{std::move(node), 0, 0});
    } else if (starts_with_word(line, "wait")) {
      std::string_view tail = trim(line.substr(4));
      if (starts_with_word(tail, "handle")) {
        const std::size_t eq = find_assign(tail);
        if (eq == std::string_view::npos) asmr.fail("wait needs a handle");
        tail = trim(tail.substr(eq + 1));
      }
      if (tail.empty()) asmr.fail("wait needs a handle name");
      asmr.append(Node{WaitNode{std::string{tail}, asmr.handle(tail)}, 0, 0});
    } else {
      asmr.fail("unrecognised directive '" + std::string{line} + "'");
    }
    if (opens_block) asmr.open_block();
  }
  return asmr.finish(std::move(name), std::move(parameters));
}

Model parse_annotated_source(std::string_view source, std::string name) {
  Assembler asmr;
  Bindings parameters;
  // Collect "// PEVPM" payloads, folding "&" continuations into the
  // directive they extend.
  struct Directive {
    std::string text;
    int line = 0;
  };
  std::vector<Directive> directives;
  {
    std::istringstream is{std::string{source}};
    std::string raw;
    int lineno = 0;
    while (std::getline(is, raw)) {
      ++lineno;
      const std::size_t marker = raw.find("// PEVPM");
      if (marker == std::string::npos) continue;
      std::string_view payload = trim(std::string_view{raw}.substr(marker + 8));
      if (payload.empty()) continue;
      if (payload.front() == '&') {
        if (directives.empty()) {
          throw ParseError{"PEVPM annotation, line " + std::to_string(lineno) +
                           ": continuation without a directive"};
        }
        directives.back().text += " & ";
        directives.back().text += std::string{trim(payload.substr(1))};
      } else {
        directives.push_back(Directive{std::string{payload}, lineno});
      }
    }
  }

  for (const Directive& directive : directives) {
    asmr.set_line(directive.line);
    std::string_view text{directive.text};
    if (text == "{") {
      asmr.open_block();
      continue;
    }
    if (text == "}") {
      asmr.close_block();
      continue;
    }
    if (starts_with_word(text, "Loop")) {
      const KeyedExprs keys = parse_keys(text.substr(4), asmr);
      if (keys.has("iterations")) {
        asmr.push_loop(keys.expr("iterations", asmr));
      } else if (keys.has("count")) {
        asmr.push_loop(keys.expr("count", asmr));
      } else {
        asmr.fail("Loop needs 'iterations ='");
      }
    } else if (starts_with_word(text, "Runon")) {
      // "Runon c1 = expr & c2 = expr ...": one condition per segment.
      std::vector<ExprPtr> conditions;
      for (const std::string_view segment : split_amp(text.substr(5))) {
        const std::size_t eq = find_assign(segment);
        if (eq == std::string_view::npos) {
          asmr.fail("Runon condition needs 'cN = expr'");
        }
        conditions.push_back(asmr.expr(trim(segment.substr(eq + 1))));
      }
      asmr.push_runon(std::move(conditions));
    } else if (starts_with_word(text, "Message")) {
      const KeyedExprs keys = parse_keys(text.substr(7), asmr);
      const std::string type = keys.text("type");
      MessageNode node;
      if (type == "MPI_Send") {
        node.op = MsgOp::kSend;
      } else if (type == "MPI_Recv") {
        node.op = MsgOp::kRecv;
      } else if (type == "MPI_Isend") {
        node.op = MsgOp::kIsend;
      } else if (type == "MPI_Irecv") {
        node.op = MsgOp::kIrecv;
      } else {
        asmr.fail("Message type '" + type + "' not supported");
      }
      node.size = keys.expr("size", asmr);
      const bool sending =
          node.op == MsgOp::kSend || node.op == MsgOp::kIsend;
      node.peer = keys.expr(sending ? "to" : "from", asmr);
      if (node.op == MsgOp::kIsend || node.op == MsgOp::kIrecv) {
        node.handle = keys.has("handle")
                          ? keys.text("handle")
                          : "h" + std::to_string(directive.line);
        node.handle_slot = asmr.handle(node.handle);
      }
      asmr.append(Node{std::move(node), 0, 0});
    } else if (starts_with_word(text, "Serial")) {
      // "Serial on <machine> time = expr" — the machine tag is advisory.
      const KeyedExprs keys = parse_keys(text, asmr);
      asmr.append(Node{SerialNode{keys.expr("time", asmr), {}}, 0, 0});
    } else if (starts_with_word(text, "Wait")) {
      const KeyedExprs keys = parse_keys(text, asmr);
      const std::string handle = keys.text("handle");
      asmr.append(Node{WaitNode{handle, asmr.handle(handle)}, 0, 0});
    } else if (starts_with_word(text, "Param")) {
      const std::string_view tail = trim(text.substr(5));
      const std::size_t eq = find_assign(tail);
      if (eq == std::string_view::npos) asmr.fail("Param needs 'name = value'");
      const std::string pname{trim(tail.substr(0, eq))};
      parameters[pname] = asmr.fold(trim(tail.substr(eq + 1)), parameters);
    } else {
      asmr.fail("unrecognised annotation '" + std::string{text} + "'");
    }
  }
  return asmr.finish(std::move(name), std::move(parameters));
}

}  // namespace pevpm
