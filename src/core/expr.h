// Symbolic expressions for PEVPM models.
//
// The paper stresses that PEVPM models retain machine and program
// parameters (procnum, numprocs, problem sizes...) *symbolically*, so one
// model can be re-evaluated for many machine configurations. Directive
// operands (loop counts, message sizes, Runon guards, Serial times) are
// therefore expressions over named variables, parsed once and evaluated
// against a binding environment per virtual process.
//
// Names are resolved when an expression is parsed, not when it runs: each
// variable takes a dense slot in the SymbolTable of the model it belongs
// to, and evaluation reads that slot of a flat Env. Named Bindings are
// turned into an Env once per evaluation context (SymbolTable::bind).
//
// Grammar (C-like precedence):
//   or     := and ('||' and)*
//   and    := cmp ('&&' cmp)*
//   cmp    := add (('=='|'!='|'<='|'>='|'<'|'>') add)?
//   add    := mul (('+'|'-') mul)*
//   mul    := unary (('*'|'/'|'%') unary)*
//   unary  := ('-'|'!') unary | primary
//   primary:= number | identifier | '(' or ')'
// Comparisons and logic yield 0/1. '%' and '/' on integral operands use
// integer semantics (like the C snippets the annotations sit beside).
#pragma once

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pevpm {

/// Named variable values (model parameters, overrides). Values are
/// doubles; integer contexts truncate.
using Bindings = std::map<std::string, double, std::less<>>;

/// Slot-indexed variable values for one evaluation context: a value and a
/// bound flag per SymbolTable slot. Slots past the end read as unbound.
class Env {
 public:
  Env() = default;
  explicit Env(std::size_t slots) : values_(slots, 0.0), bound_(slots, 0) {}

  void bind(int slot, double value) {
    values_[static_cast<std::size_t>(slot)] = value;
    bound_[static_cast<std::size_t>(slot)] = 1;
  }
  [[nodiscard]] bool bound(int slot) const noexcept {
    return static_cast<std::size_t>(slot) < bound_.size() &&
           bound_[static_cast<std::size_t>(slot)] != 0;
  }
  [[nodiscard]] double value(int slot) const noexcept {
    return values_[static_cast<std::size_t>(slot)];
  }

 private:
  std::vector<double> values_;
  std::vector<unsigned char> bound_;
};

/// Dense name -> slot map of one model. Slots are handed out in first-use
/// order; a model keeps one table for the variables its expressions read
/// and one for its nonblocking handle names.
class SymbolTable {
 public:
  /// Slot of `name`, adding it on first use.
  int intern(std::string_view name);
  /// Slot of `name`, or -1 when nothing interned it.
  [[nodiscard]] int find(std::string_view name) const;
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  /// Binds every name of `bindings` that has a slot here.
  void bind(Env& env, const Bindings& bindings) const;

 private:
  std::map<std::string, int, std::less<>> slots_;
};

class Expr {
 public:
  virtual ~Expr() = default;
  [[nodiscard]] virtual double eval(const Env& env) const = 0;
  /// Round-trippable textual form (for model dumps).
  [[nodiscard]] virtual std::string str() const = 0;
  /// Names of all variables referenced (for validation/documentation).
  virtual void collect_vars(std::vector<std::string>& out) const = 0;
};

using ExprPtr = std::shared_ptr<const Expr>;

/// Deepest nesting a parsed model may hold: within one expression, the
/// operators and parentheses on any path from the whole expression to a
/// number or name (`1+1+1` and `-(1)` are 2 deep); within a model body,
/// the loops and runon branches around any directive. Both trees are
/// walked recursively (evaluation, printing, compiling,
/// destruction), so the parsers refuse anything deeper with a ParseError.
inline constexpr int kMaxModelDepth = 1000;

/// Parses an expression, interning its variable names into `symbols`.
/// Throws ParseError with position info on failure, including for an
/// expression nested deeper than kMaxModelDepth.
[[nodiscard]] ExprPtr parse_expr(std::string_view text, SymbolTable& symbols);

/// Convenience: constant / variable leaf constructors for the builder API.
[[nodiscard]] ExprPtr constant(double value);
[[nodiscard]] ExprPtr variable(std::string name, SymbolTable& symbols);

class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Raised for malformed models (negative sizes, self-messages, peers out of
/// range, Wait on an unknown handle...) and for operands that cannot be
/// evaluated (an unbound variable, division or modulo by zero). Deadlock is
/// NOT an exception: it is a legitimate analysis result, reported in
/// SimulationResult.
class ModelError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {
/// Raises the ModelError of checked_int and checked_finite: operand `what`
/// evaluates to `value`, which is not `why`.
[[noreturn]] void throw_out_of_range(const Expr& expr, double value,
                                     const char* what, const char* why);
}  // namespace detail

// The two checks below run on every operand use of a replication, so they
// are defined here to inline; only their error path is out of line.

/// Truncates toward zero the value `expr` evaluated to, for counts, ranks
/// and sizes. A value that is not finite or does not fit a `long` raises a
/// ModelError naming `what` (the directive operand, e.g. "loop count"),
/// the value and the expression.
[[nodiscard]] inline long checked_int(double value, const Expr& expr,
                                      const char* what) {
  // Truncation is defined only for values whose integral part fits a long
  // (the comparisons are false for NaN). -LONG_MIN is a power of two, so
  // it converts to double exactly.
  constexpr double kLimit =
      -static_cast<double>(std::numeric_limits<long>::min());
  if (!(value >= -kLimit && value < kLimit)) {
    detail::throw_out_of_range(expr, value, what, "an integer in range");
  }
  return static_cast<long>(value);
}

/// Passes through the value of an operand that must be finite (a Serial
/// time); NaN or an infinity raises a ModelError naming `what` and the
/// value.
[[nodiscard]] inline double checked_finite(double value, const Expr& expr,
                                           const char* what) {
  if (!std::isfinite(value)) {
    detail::throw_out_of_range(expr, value, what, "finite");
  }
  return value;
}

}  // namespace pevpm
