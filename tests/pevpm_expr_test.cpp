// The PEVPM symbolic expression language.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/expr.h"

namespace {

/// Binds `bindings` through the expression's own symbol table, the way
/// the VM builds each process's environment.
pevpm::Env env_for(const pevpm::SymbolTable& symbols,
                   const pevpm::Bindings& bindings) {
  pevpm::Env env{symbols.size()};
  symbols.bind(env, bindings);
  return env;
}

double ev(const char* text, const pevpm::Bindings& bindings = {}) {
  pevpm::SymbolTable symbols;
  const auto expr = pevpm::parse_expr(text, symbols);
  return expr->eval(env_for(symbols, bindings));
}

long ev_int(const char* text) {
  pevpm::SymbolTable symbols;
  const auto expr = pevpm::parse_expr(text, symbols);
  return pevpm::checked_int(expr->eval(pevpm::Env{}), *expr, "test value");
}

TEST(Expr, ArithmeticPrecedence) {
  EXPECT_DOUBLE_EQ(ev("2 + 3 * 4"), 14.0);
  EXPECT_DOUBLE_EQ(ev("(2 + 3) * 4"), 20.0);
  EXPECT_DOUBLE_EQ(ev("2 - 3 - 4"), -5.0);
  EXPECT_DOUBLE_EQ(ev("-2 * 3"), -6.0);
  EXPECT_DOUBLE_EQ(ev("2.5 * 4"), 10.0);
}

TEST(Expr, DivisionIsRealModuloIsIntegral) {
  // Division never truncates ("1/numprocs" is a time expression); rank and
  // size contexts truncate via checked_int instead.
  EXPECT_DOUBLE_EQ(ev("7 / 2"), 3.5);
  EXPECT_DOUBLE_EQ(ev("1 / 4"), 0.25);
  EXPECT_EQ(ev_int("7 / 2"), 3);
  EXPECT_DOUBLE_EQ(ev("7 % 3"), 1.0);
  EXPECT_DOUBLE_EQ(ev("7.5 % 2"), 1.5);  // fmod for non-integral operands
}

TEST(Expr, Comparisons) {
  EXPECT_DOUBLE_EQ(ev("3 == 3"), 1.0);
  EXPECT_DOUBLE_EQ(ev("3 != 3"), 0.0);
  EXPECT_DOUBLE_EQ(ev("2 < 3"), 1.0);
  EXPECT_DOUBLE_EQ(ev("3 <= 3"), 1.0);
  EXPECT_DOUBLE_EQ(ev("2 > 3"), 0.0);
  EXPECT_DOUBLE_EQ(ev("3 >= 4"), 0.0);
}

TEST(Expr, LogicShortCircuits) {
  EXPECT_DOUBLE_EQ(ev("1 && 0"), 0.0);
  EXPECT_DOUBLE_EQ(ev("1 || 0"), 1.0);
  EXPECT_DOUBLE_EQ(ev("!0"), 1.0);
  EXPECT_DOUBLE_EQ(ev("!3"), 0.0);
  // Short-circuit: the div-by-zero on the right must never evaluate.
  EXPECT_DOUBLE_EQ(ev("0 && 1 / 0"), 0.0);
  EXPECT_DOUBLE_EQ(ev("1 || 1 / 0"), 1.0);
}

TEST(Expr, VariablesFromEnvironment) {
  pevpm::Bindings env{{"procnum", 3.0}, {"numprocs", 8.0}};
  EXPECT_DOUBLE_EQ(ev("procnum % 2 == 1", env), 1.0);
  EXPECT_DOUBLE_EQ(ev("procnum != numprocs - 1", env), 1.0);
  EXPECT_DOUBLE_EQ(ev("3.24 / numprocs", env), 0.405);
}

TEST(Expr, UnboundVariableThrows) {
  EXPECT_THROW(ev("bogus + 1"), std::runtime_error);
  // A binding for some other name leaves the slot unbound.
  EXPECT_THROW(ev("bogus + 1", {{"other", 1.0}}), std::runtime_error);
}

TEST(Expr, NamesShareOneSlotPerTable) {
  pevpm::SymbolTable symbols;
  const auto a = pevpm::parse_expr("x * 2 + y", symbols);
  const auto b = pevpm::parse_expr("y - x", symbols);
  EXPECT_EQ(symbols.size(), 2u);
  EXPECT_EQ(symbols.find("x"), 0);
  EXPECT_EQ(symbols.find("y"), 1);
  EXPECT_EQ(symbols.find("z"), -1);
  const pevpm::Env env = env_for(symbols, {{"x", 3.0}, {"y", 10.0}, {"z", 7.0}});
  EXPECT_DOUBLE_EQ(a->eval(env), 16.0);
  EXPECT_DOUBLE_EQ(b->eval(env), 7.0);
}

TEST(Expr, DivisionByZeroThrows) {
  EXPECT_THROW(ev("1 / 0"), std::runtime_error);
  EXPECT_THROW(ev("1 % 0"), std::runtime_error);
}

TEST(Expr, ParseErrorsCarryContext) {
  pevpm::SymbolTable symbols;
  EXPECT_THROW((void)pevpm::parse_expr("2 +", symbols), pevpm::ParseError);
  EXPECT_THROW((void)pevpm::parse_expr("(1 + 2", symbols), pevpm::ParseError);
  EXPECT_THROW((void)pevpm::parse_expr("1 ; 2", symbols), pevpm::ParseError);
  EXPECT_THROW((void)pevpm::parse_expr("", symbols), pevpm::ParseError);
}

/// Sums of `depth + 1` ones: `depth` left-nested additions.
std::string sum_chain(int depth) {
  std::string text = "1";
  for (int i = 0; i < depth; ++i) text += "+1";
  return text;
}

std::string parenthesised(int depth, const std::string& inner = "1") {
  return std::string(static_cast<std::size_t>(depth), '(') + inner +
         std::string(static_cast<std::size_t>(depth), ')');
}

std::string negated(int depth) {
  return std::string(static_cast<std::size_t>(depth), '-') + "1";
}

/// The ParseError message parsing `text` raises (empty if none).
std::string parse_error(const std::string& text) {
  pevpm::SymbolTable symbols;
  try {
    (void)pevpm::parse_expr(text, symbols);
  } catch (const pevpm::ParseError& e) {
    return e.what();
  }
  return {};
}

TEST(ExprDepth, AcceptsTheLimitAndRejectsOneLevelMore) {
  constexpr int kLimit = pevpm::kMaxModelDepth;
  static_assert(kLimit == 1000);
  EXPECT_DOUBLE_EQ(ev(sum_chain(kLimit).c_str()), kLimit + 1.0);
  EXPECT_DOUBLE_EQ(ev(parenthesised(kLimit).c_str()), 1.0);
  EXPECT_DOUBLE_EQ(ev(negated(kLimit).c_str()), 1.0);
  EXPECT_DOUBLE_EQ(
      ev(parenthesised(1, sum_chain(kLimit - 1)).c_str()), kLimit + 0.0);
  for (const std::string& text :
       {sum_chain(kLimit + 1), parenthesised(kLimit + 1), negated(kLimit + 1),
        parenthesised(1, sum_chain(kLimit)), "-" + sum_chain(kLimit)}) {
    const std::string what = parse_error(text);
    EXPECT_NE(what.find("nested deeper than 1000"), std::string::npos)
        << what;
  }
}

TEST(ExprDepth, RejectsVeryDeepInputWithoutRecursingIntoIt) {
  // Each of these overflowed the stack before the parser bounded depth.
  for (const std::string& text :
       {sum_chain(300000), negated(300000), parenthesised(20000)}) {
    const std::string what = parse_error(text);
    EXPECT_NE(what.find("nested deeper than 1000"), std::string::npos)
        << what.substr(0, 200);
    // The message quotes the expression's head, not megabytes of it.
    EXPECT_LT(what.size(), 200u);
  }
}

TEST(Expr, StrRoundTripsThroughParser) {
  pevpm::SymbolTable symbols;
  const auto e =
      pevpm::parse_expr("(procnum % 2 == 0) && procnum != 0", symbols);
  const auto again = pevpm::parse_expr(e->str(), symbols);
  pevpm::Env env = env_for(symbols, {{"procnum", 4.0}});
  EXPECT_DOUBLE_EQ(e->eval(env), again->eval(env));
  env = env_for(symbols, {{"procnum", 0.0}});
  EXPECT_DOUBLE_EQ(e->eval(env), again->eval(env));
}

TEST(Expr, CollectVarsFindsAllNames) {
  pevpm::SymbolTable symbols;
  const auto e = pevpm::parse_expr("xsize * 4 + procnum - procnum", symbols);
  std::vector<std::string> vars;
  e->collect_vars(vars);
  EXPECT_EQ(vars.size(), 3u);
  EXPECT_EQ(vars[0], "xsize");
  EXPECT_EQ(vars[1], "procnum");
}

TEST(Expr, BuilderLeaves) {
  const auto c = pevpm::constant(2.5);
  EXPECT_DOUBLE_EQ(c->eval(pevpm::Env{}), 2.5);
  pevpm::SymbolTable symbols;
  const auto v = pevpm::variable("n", symbols);
  EXPECT_DOUBLE_EQ(v->eval(env_for(symbols, {{"n", 9.0}})), 9.0);
}

TEST(Expr, EvalIntTruncates) {
  EXPECT_EQ(ev_int("7.9"), 7);
  EXPECT_EQ(ev_int("-7.9"), -7);
}

TEST(Expr, EvalIntRejectsValuesOutsideLong) {
  EXPECT_EQ(ev_int("-9223372036854775808"), std::numeric_limits<long>::min());
  EXPECT_THROW((void)ev_int("9223372036854775808"), pevpm::ModelError);
  EXPECT_THROW((void)ev_int("1e30"), pevpm::ModelError);
  EXPECT_THROW((void)ev_int("-1e308 * 10"), pevpm::ModelError);
  EXPECT_THROW((void)ev_int("1e308 * 10 - 1e308 * 10"), pevpm::ModelError);
  try {
    (void)ev_int("1e30");
    FAIL() << "expected a ModelError";
  } catch (const pevpm::ModelError& e) {
    EXPECT_STREQ(e.what(),
                 "test value evaluates to 1e+30, which is not an integer in "
                 "range (1e+30)");
  }
}

}  // namespace
