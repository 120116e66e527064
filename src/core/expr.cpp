#include "core/expr.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace pevpm {
namespace {

[[nodiscard]] bool is_integral(double v) noexcept {
  return std::floor(v) == v && std::fabs(v) < 9.007199254740992e15;
}

class Constant final : public Expr {
 public:
  explicit Constant(double value) : value_{value} {}
  double eval(const Env&) const override { return value_; }
  std::string str() const override {
    std::ostringstream os;
    os << value_;
    return os.str();
  }
  void collect_vars(std::vector<std::string>&) const override {}

 private:
  double value_;
};

class Variable final : public Expr {
 public:
  Variable(std::string name, int slot) : name_{std::move(name)}, slot_{slot} {}
  double eval(const Env& env) const override {
    if (!env.bound(slot_)) {
      throw ModelError{"unbound PEVPM variable '" + name_ + "'"};
    }
    return env.value(slot_);
  }
  std::string str() const override { return name_; }
  void collect_vars(std::vector<std::string>& out) const override {
    out.push_back(name_);
  }

 private:
  std::string name_;
  int slot_;
};

enum class Op {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

std::string_view op_str(Op op) {
  switch (op) {
    case Op::kAdd: return "+";
    case Op::kSub: return "-";
    case Op::kMul: return "*";
    case Op::kDiv: return "/";
    case Op::kMod: return "%";
    case Op::kEq: return "==";
    case Op::kNe: return "!=";
    case Op::kLt: return "<";
    case Op::kLe: return "<=";
    case Op::kGt: return ">";
    case Op::kGe: return ">=";
    case Op::kAnd: return "&&";
    case Op::kOr: return "||";
  }
  return "?";
}

class Binary final : public Expr {
 public:
  Binary(Op op, ExprPtr lhs, ExprPtr rhs)
      : op_{op}, lhs_{std::move(lhs)}, rhs_{std::move(rhs)} {}

  double eval(const Env& env) const override {
    const double a = lhs_->eval(env);
    // Short-circuit logic first.
    if (op_ == Op::kAnd) return (a != 0.0 && rhs_->eval(env) != 0.0) ? 1 : 0;
    if (op_ == Op::kOr) return (a != 0.0 || rhs_->eval(env) != 0.0) ? 1 : 0;
    const double b = rhs_->eval(env);
    switch (op_) {
      case Op::kAdd: return a + b;
      case Op::kSub: return a - b;
      case Op::kMul: return a * b;
      case Op::kDiv:
        if (b == 0.0) throw ModelError{"PEVPM expression: division by zero"};
        // Division is always real: time expressions like "1/numprocs" must
        // not truncate. Rank/size contexts truncate at checked_int instead.
        return a / b;
      case Op::kMod: {
        if (b == 0.0) throw ModelError{"PEVPM expression: modulo by zero"};
        if (is_integral(a) && is_integral(b)) {
          return static_cast<double>(static_cast<long long>(a) %
                                     static_cast<long long>(b));
        }
        return std::fmod(a, b);
      }
      case Op::kEq: return a == b ? 1 : 0;
      case Op::kNe: return a != b ? 1 : 0;
      case Op::kLt: return a < b ? 1 : 0;
      case Op::kLe: return a <= b ? 1 : 0;
      case Op::kGt: return a > b ? 1 : 0;
      case Op::kGe: return a >= b ? 1 : 0;
      case Op::kAnd:
      case Op::kOr: break;  // handled above
    }
    return 0.0;
  }

  std::string str() const override {
    std::ostringstream os;
    os << '(' << lhs_->str() << ' ' << op_str(op_) << ' ' << rhs_->str()
       << ')';
    return os.str();
  }

  void collect_vars(std::vector<std::string>& out) const override {
    lhs_->collect_vars(out);
    rhs_->collect_vars(out);
  }

 private:
  Op op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class Unary final : public Expr {
 public:
  Unary(char op, ExprPtr arg) : op_{op}, arg_{std::move(arg)} {}
  double eval(const Env& env) const override {
    const double v = arg_->eval(env);
    return op_ == '-' ? -v : (v == 0.0 ? 1.0 : 0.0);
  }
  std::string str() const override {
    std::string out{op_};  // not `string + string`: see Parser::fail_depth
    out += arg_->str();
    return out;
  }
  void collect_vars(std::vector<std::string>& out) const override {
    arg_->collect_vars(out);
  }

 private:
  char op_;
  ExprPtr arg_;
};

class Parser {
 public:
  Parser(std::string_view text, SymbolTable& symbols)
      : text_{text}, symbols_{symbols} {}

  ExprPtr parse() {
    ExprPtr expr = parse_or();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return expr;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    // Quote a long expression by its head only: a rejected model may be
    // megabytes of text.
    constexpr std::size_t kQuoted = 80;
    std::string message =
        "expression error at offset " + std::to_string(pos_) + " in '";
    message += text_.substr(0, kQuoted);
    if (text_.size() > kQuoted) message += "...";
    message += "': ";
    message += what;
    throw ParseError{message};
  }

  [[noreturn]] void fail_depth() const {
    // A literal message: gcc's -fanalyzer (the CI deep-analysis sweep)
    // misreads std::string concatenation on these paths.
    static_assert(kMaxModelDepth == 1000);
    throw ParseError{"expression nested deeper than 1000"};
  }

  /// `lhs op rhs`, where `lhs` is the subexpression parsed last and
  /// `operand` parses `rhs`.
  ExprPtr binary(Op op, ExprPtr lhs, ExprPtr (Parser::*operand)()) {
    const int lhs_depth = depth_;
    ExprPtr rhs = (this->*operand)();
    depth_ = std::max(lhs_depth, depth_) + 1;
    if (depth_ > kMaxModelDepth) fail_depth();
    return std::make_shared<Binary>(op, std::move(lhs), std::move(rhs));
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(
                                      text_[pos_]))) {
      ++pos_;
    }
  }

  bool eat(std::string_view token) {
    skip_ws();
    if (text_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    while (eat("||")) lhs = binary(Op::kOr, lhs, &Parser::parse_and);
    return lhs;
  }

  ExprPtr parse_and() {
    ExprPtr lhs = parse_cmp();
    while (eat("&&")) lhs = binary(Op::kAnd, lhs, &Parser::parse_cmp);
    return lhs;
  }

  ExprPtr parse_cmp() {
    ExprPtr lhs = parse_add();
    if (eat("==")) return binary(Op::kEq, lhs, &Parser::parse_add);
    if (eat("!=")) return binary(Op::kNe, lhs, &Parser::parse_add);
    if (eat("<=")) return binary(Op::kLe, lhs, &Parser::parse_add);
    if (eat(">=")) return binary(Op::kGe, lhs, &Parser::parse_add);
    if (peek() == '<' && text_.substr(pos_, 2) != "<<") {
      ++pos_;
      return binary(Op::kLt, lhs, &Parser::parse_add);
    }
    if (peek() == '>' && text_.substr(pos_, 2) != ">>") {
      ++pos_;
      return binary(Op::kGt, lhs, &Parser::parse_add);
    }
    return lhs;
  }

  ExprPtr parse_add() {
    ExprPtr lhs = parse_mul();
    for (;;) {
      if (eat("+")) {
        lhs = binary(Op::kAdd, lhs, &Parser::parse_mul);
      } else if (peek() == '-') {
        ++pos_;
        lhs = binary(Op::kSub, lhs, &Parser::parse_mul);
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_mul() {
    ExprPtr lhs = parse_unary();
    for (;;) {
      if (eat("*")) {
        lhs = binary(Op::kMul, lhs, &Parser::parse_unary);
      } else if (eat("/")) {
        lhs = binary(Op::kDiv, lhs, &Parser::parse_unary);
      } else if (eat("%")) {
        lhs = binary(Op::kMod, lhs, &Parser::parse_unary);
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_unary() {
    char op = peek();
    if (op == '!' && text_.substr(pos_, 2) == "!=") op = '\0';
    if (op != '-' && op != '!') return parse_primary();
    ++pos_;
    if (++open_ > kMaxModelDepth) fail_depth();
    ExprPtr arg = parse_unary();
    --open_;
    if (++depth_ > kMaxModelDepth) fail_depth();
    return std::make_shared<Unary>(op, std::move(arg));
  }

  ExprPtr parse_primary() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of expression");
    const char c = text_[pos_];
    if (c == '(') {
      ++pos_;
      if (++open_ > kMaxModelDepth) fail_depth();
      ExprPtr inner = parse_or();
      --open_;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ')') fail("expected ')'");
      ++pos_;
      if (++depth_ > kMaxModelDepth) fail_depth();
      return inner;
    }
    depth_ = 0;
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
      const char* begin = text_.data() + pos_;
      char* end = nullptr;
      const double value = std::strtod(begin, &end);
      if (end == begin) fail("bad number");
      pos_ += static_cast<std::size_t>(end - begin);
      return std::make_shared<Constant>(value);
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      const std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      return variable(std::string{text_.substr(start, pos_ - start)},
                      symbols_);
    }
    fail(std::string{"unexpected character '"} + c + "'");
  }

  std::string_view text_;
  SymbolTable& symbols_;
  std::size_t pos_ = 0;
  /// Depth (see kMaxModelDepth) of the subexpression parsed last.
  int depth_ = 0;
  /// Parentheses and unary operators being parsed: the parser's own
  /// recursion stops where the depth limit would.
  int open_ = 0;
};

}  // namespace

int SymbolTable::intern(std::string_view name) {
  if (const int slot = find(name); slot >= 0) return slot;
  const int slot = static_cast<int>(slots_.size());
  slots_.emplace(name, slot);
  return slot;
}

int SymbolTable::find(std::string_view name) const {
  const auto it = slots_.find(name);
  return it == slots_.end() ? -1 : it->second;
}

void SymbolTable::bind(Env& env, const Bindings& bindings) const {
  for (const auto& [name, value] : bindings) {
    if (const int slot = find(name); slot >= 0) env.bind(slot, value);
  }
}

ExprPtr parse_expr(std::string_view text, SymbolTable& symbols) {
  return Parser{text, symbols}.parse();
}

ExprPtr constant(double value) { return std::make_shared<Constant>(value); }

ExprPtr variable(std::string name, SymbolTable& symbols) {
  const int slot = symbols.intern(name);
  return std::make_shared<Variable>(std::move(name), slot);
}

namespace detail {

void throw_out_of_range(const Expr& expr, double value, const char* what,
                        const char* why) {
  std::ostringstream os;
  os << what << " evaluates to " << value << ", which is not " << why << " ("
     << expr.str() << ")";
  throw ModelError{os.str()};
}

}  // namespace detail

}  // namespace pevpm
