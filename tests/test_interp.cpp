// MiniPy tests: lexer, parser, and — critically — semantic equivalence
// between the tree-walking interpreter and the bytecode VM on a
// parameterized corpus of programs.  The two engines are the paper's
// CPython/PyPy stand-ins and must agree exactly.
#include <gtest/gtest.h>

#include "analysis/analysis.h"
#include "interp/compiler.h"
#include "interp/lexer.h"
#include "interp/parser.h"
#include "interp/treewalk.h"
#include "interp/vm.h"

namespace mrs {
namespace minipy {
namespace {

// ---- Lexer -----------------------------------------------------------------

TEST(Lexer, IndentDedentStructure) {
  auto tokens = Tokenize("if x:\n    y = 1\nz = 2\n");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  std::vector<TokenType> kinds;
  for (const Token& t : *tokens) kinds.push_back(t.type);
  // if NAME : NEWLINE INDENT NAME = INT NEWLINE DEDENT NAME = INT NEWLINE EOF
  EXPECT_EQ(kinds[0], TokenType::kIf);
  EXPECT_EQ(kinds[3], TokenType::kNewline);
  EXPECT_EQ(kinds[4], TokenType::kIndent);
  EXPECT_EQ(kinds[9], TokenType::kDedent);
  EXPECT_EQ(kinds.back(), TokenType::kEof);
}

TEST(Lexer, NumbersIntAndFloat) {
  auto tokens = Tokenize("x = 42\ny = 3.5\nz = 1e3\nw = 2.\n");
  ASSERT_TRUE(tokens.ok());
  std::vector<const Token*> nums;
  for (const Token& t : *tokens) {
    if (t.type == TokenType::kInt || t.type == TokenType::kFloat) {
      nums.push_back(&t);
    }
  }
  ASSERT_EQ(nums.size(), 4u);
  EXPECT_EQ(nums[0]->type, TokenType::kInt);
  EXPECT_EQ(nums[0]->int_value, 42);
  EXPECT_EQ(nums[1]->type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ(nums[1]->float_value, 3.5);
  EXPECT_EQ(nums[2]->type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ(nums[2]->float_value, 1000.0);
  EXPECT_EQ(nums[3]->type, TokenType::kFloat);
}

TEST(Lexer, CommentsAndBlankLinesSkipped) {
  auto tokens = Tokenize("# header\n\nx = 1  # trailing\n\n");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kName);
}

TEST(Lexer, StringEscapes) {
  auto tokens = Tokenize("s = 'a\\n\\t\\'b'\n");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[2].text, "a\n\t'b");
}

TEST(Lexer, ParenContinuationJoinsLines) {
  auto tokens = Tokenize("x = (1 +\n     2)\n");
  ASSERT_TRUE(tokens.ok());
  int newlines = 0;
  for (const Token& t : *tokens) {
    if (t.type == TokenType::kNewline) ++newlines;
  }
  EXPECT_EQ(newlines, 1);
}

TEST(Lexer, RejectsInconsistentDedent) {
  EXPECT_FALSE(Tokenize("if x:\n        y = 1\n   z = 2\n").ok());
}

TEST(Lexer, TwoCharOperators) {
  auto tokens = Tokenize("a // b ** c <= d != e\n");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenType> ops;
  for (const Token& t : *tokens) {
    switch (t.type) {
      case TokenType::kSlashSlash:
      case TokenType::kStarStar:
      case TokenType::kLessEq:
      case TokenType::kNotEq:
        ops.push_back(t.type);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(ops.size(), 4u);
}

// ---- Parser ----------------------------------------------------------------

TEST(Parser, PrecedenceAndAssociativity) {
  // 2 + 3 * 4 == 14; 2 ** 3 ** 2 == 512 (right associative).
  TreeWalker walker;
  ASSERT_TRUE(walker.LoadSource("a = 2 + 3 * 4\nb = 2 ** 3 ** 2\n").ok());
  EXPECT_EQ(walker.GetGlobal("a").value().AsInt(), 14);
  EXPECT_EQ(walker.GetGlobal("b").value().AsInt(), 512);
}

TEST(Parser, RejectsSyntaxErrors) {
  EXPECT_FALSE(Parse("def f(:\n    pass\n").ok());
  EXPECT_FALSE(Parse("x = \n").ok());
  EXPECT_FALSE(Parse("if x\n    pass\n").ok());
  EXPECT_FALSE(Parse("1 +\n").ok());
  EXPECT_FALSE(Parse("x = [1, 2\n").ok());
}

TEST(Parser, RejectsEmptyBlock) {
  EXPECT_FALSE(Parse("if x:\npass\n").ok());
}

// Each of these once overflowed the stack: the parser recursed once per
// level.  Past its depth cap each is a parse error naming the line, both
// from Parse and from the submit-time gate.
TEST(Parser, NestingPastTheDepthCapIsAnErrorNotACrash) {
  constexpr int kLevels = 100000;
  std::string power = "x = 1";
  for (int i = 0; i < kLevels; ++i) power += "**1";
  const std::vector<std::string> sources = {
      "x = " + std::string(kLevels, '('),
      "x = " + std::string(kLevels, '-') + "1\n",
      power + "\n",
  };
  for (const std::string& source : sources) {
    Result<std::shared_ptr<Module>> parsed = Parse(source);
    ASSERT_FALSE(parsed.ok()) << source.substr(0, 12);
    EXPECT_NE(parsed.status().message().find("line 1: expression nested"),
              std::string::npos)
        << parsed.status().ToString();
    analysis::AnalysisResult analyzed = analysis::AnalyzeKernelSource(source);
    EXPECT_FALSE(analyzed.ok());
    ASSERT_FALSE(analyzed.diagnostics.empty());
    EXPECT_EQ(analyzed.diagnostics[0].severity, analysis::Severity::kError);
    EXPECT_EQ(analyzed.diagnostics[0].span.line, 1);
  }
}

// A left-associative chain is folded by a loop, so Parse never recursed on
// it, but it returned a tree as deep as the chain was long, and the
// recursive passes after it overflowed the stack at 100k terms.  Each
// folded operator now counts against the depth cap.
TEST(Parser, LongOperatorChainIsAnErrorNotACrash) {
  std::string chain = "1";
  for (int i = 0; i < 100000; ++i) chain += "+1";
  const std::string source =
      "def map(key, value):\n    emit(key, " + chain + ")\n";
  Result<std::shared_ptr<Module>> parsed = Parse(source);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 2: expression nested"),
            std::string::npos)
      << parsed.status().ToString();
  analysis::AnalysisResult analyzed = analysis::AnalyzeKernelSource(source);
  EXPECT_FALSE(analyzed.ok());
  ASSERT_FALSE(analyzed.diagnostics.empty());
  EXPECT_EQ(analyzed.diagnostics[0].severity, analysis::Severity::kError);
  EXPECT_EQ(analyzed.diagnostics[0].span.line, 2);
}

TEST(Parser, TwoHundredTermChainStillParsesAndRuns) {
  std::string chain = "1";
  for (int i = 1; i < 200; ++i) chain += i % 2 ? "+2" : "-1";
  TreeWalker walker;
  ASSERT_TRUE(walker.LoadSource("x = " + chain + "\n").ok());
  EXPECT_EQ(walker.GetGlobal("x").value().AsInt(), 1 + 100 * 2 - 99);
  // A chain as the right operand of another chain's first fold sinks
  // under every later fold; the cap counts that too.
  std::string nested = "x = 1 + (" + chain + ")";
  for (int i = 0; i < 100; ++i) nested += "+1";
  EXPECT_FALSE(Parse(nested + "\n").ok());
}

TEST(Parser, HundredDeepExpressionsStillParse) {
  std::string power = "x = 1";
  for (int i = 0; i < 100; ++i) power += "**1";
  const std::vector<std::string> sources = {
      "x = " + std::string(100, '(') + "1" + std::string(100, ')') + "\n",
      "x = " + std::string(100, '-') + "1\n",
      "x = " + std::string(50, '-') + std::string(50, '(') + "not 1" +
          std::string(50, ')') + "\n",
      power + "\n",
  };
  for (const std::string& source : sources) {
    Result<std::shared_ptr<Module>> parsed = Parse(source);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  }
}

// ---- Engine equivalence (parameterized program corpus) -----------------------

struct ProgramCase {
  const char* name;
  const char* source;
  const char* function;
  std::vector<int64_t> int_args;
  const char* expected_repr;  // Repr() of the result
};

const ProgramCase kCases[] = {
    {"arith", "def f(a, b):\n    return a * b + a - b\n", "f", {7, 3}, "25"},
    {"true_division", "def f(a, b):\n    return a / b\n", "f", {7, 2}, "3.5"},
    {"floor_division_negative",
     "def f(a, b):\n    return a // b\n", "f", {-7, 2}, "-4"},
    {"modulo_sign_of_divisor",
     "def f(a, b):\n    return a % b\n", "f", {-7, 3}, "2"},
    {"while_sum",
     "def f(n):\n    s = 0\n    i = 1\n    while i <= n:\n        s = s + i\n"
     "        i = i + 1\n    return s\n",
     "f", {100}, "5050"},
    {"if_elif_else",
     "def f(n):\n    if n < 0:\n        return -1\n    elif n == 0:\n"
     "        return 0\n    else:\n        return 1\n",
     "f", {-5}, "-1"},
    {"recursion_fib",
     "def fib(n):\n    if n < 2:\n        return n\n"
     "    return fib(n - 1) + fib(n - 2)\n",
     "fib", {15}, "610"},
    {"mutual_recursion",
     "def is_even(n):\n    if n == 0:\n        return True\n"
     "    return is_odd(n - 1)\n"
     "def is_odd(n):\n    if n == 0:\n        return False\n"
     "    return is_even(n - 1)\n",
     "is_even", {10}, "True"},
    {"break_continue",
     "def f(n):\n    s = 0\n    i = 0\n    while True:\n        i = i + 1\n"
     "        if i > n:\n            break\n        if i % 2 == 0:\n"
     "            continue\n        s = s + i\n    return s\n",
     "f", {10}, "25"},
    {"for_range",
     "def f(n):\n    s = 0\n    for i in range(n):\n        s = s + i\n"
     "    return s\n",
     "f", {10}, "45"},
    {"for_break",
     "def f(n):\n    s = 0\n    for i in range(n):\n        if i == 5:\n"
     "            break\n        s = s + i\n    return s\n",
     "f", {100}, "10"},
    {"lists",
     "def f(n):\n    xs = []\n    for i in range(n):\n        append(xs, i * i)\n"
     "    return xs[2] + xs[n - 1] + len(xs)\n",
     "f", {5}, "25"},
    {"list_index_assignment",
     "def f(n):\n    xs = [0, 0, 0]\n    xs[1] = n\n    xs[2] = xs[1] * 2\n"
     "    return xs[0] + xs[1] + xs[2]\n",
     "f", {7}, "21"},
    {"negative_index",
     "def f(n):\n    xs = [1, 2, n]\n    return xs[-1] + xs[-3]\n",
     "f", {30}, "31"},
    {"short_circuit_and_or",
     "def f(n):\n    a = n > 0 and 100 // n\n    b = n == 0 or n * 2\n"
     "    return a + b\n",
     "f", {5}, "30"},
    {"not_operator", "def f(n):\n    return not n == 3\n", "f", {3}, "False"},
    {"aug_assign",
     "def f(n):\n    x = n\n    x += 3\n    x *= 2\n    x -= 1\n    return x\n",
     "f", {5}, "15"},
    {"builtins_numeric",
     "def f(n):\n    return abs(0 - n) + int(3.9) + min(n, 2) + max(n, 9)\n",
     "f", {4}, "18"},
    {"float_loop",
     "def f(n):\n    v = 0.0\n    fstep = 1.0 / n\n    i = 0\n"
     "    while i < n:\n        v = v + fstep\n        i = i + 1\n"
     "    return v > 0.99 and v < 1.01\n",
     "f", {1000}, "True"},
    {"pow_int", "def f(a, b):\n    return a ** b\n", "f", {3, 7}, "2187"},
    {"globals_readable",
     "base = 10\ndef f(n):\n    return base + n\n", "f", {5}, "15"},
    {"string_ops",
     "def f(n):\n    s = 'ab' + 'c'\n    return len(s) + n\n", "f", {1}, "4"},
    {"nested_loops",
     "def f(n):\n    total = 0\n    i = 0\n    while i < n:\n        j = 0\n"
     "        while j < n:\n            total = total + 1\n"
     "            j = j + 1\n        i = i + 1\n    return total\n",
     "f", {9}, "81"},
    {"range_with_step",
     "def f(n):\n    s = 0\n    for i in range(0, n, 3):\n        s = s + i\n"
     "    return s\n",
     "f", {10}, "18"},
    {"range_negative_step",
     "def f(n):\n    s = 0\n    for i in range(n, 0, -1):\n        s = s + i\n"
     "    return s\n",
     "f", {4}, "10"},
    {"string_concat_loop",
     "def f(n):\n    s = ''\n    i = 0\n    while i < n:\n        s = s + 'ab'\n"
     "        i = i + 1\n    return len(s)\n",
     "f", {6}, "12"},
    {"list_concat", "def f(n):\n    return len([1, 2] + [n, n, n])\n", "f",
     {9}, "5"},
    {"min_max_of_list",
     "def f(n):\n    xs = [5, n, 3]\n    return min(xs) * 100 + max(xs)\n",
     "f", {8}, "308"},
    {"truthiness_of_containers",
     "def f(n):\n    e = []\n    s = ''\n    if e or s or n:\n"
     "        return 1\n    return 0\n",
     "f", {0}, "0"},
    {"chained_calls",
     "def add(a, b):\n    return a + b\n"
     "def f(n):\n    return add(add(n, 1), add(n, 2))\n",
     "f", {10}, "23"},
    {"float_floor_and_mod",
     "def f(a, b):\n    return (a // b) * 1000 + int((a % b) * 10)\n", "f",
     {7, 2}, "3010"},
    {"deeply_nested_if",
     "def f(n):\n    if n > 0:\n        if n > 10:\n            if n > 100:\n"
     "                return 3\n            return 2\n        return 1\n"
     "    return 0\n",
     "f", {50}, "2"},
    {"while_else_free_accumulate",
     "def f(n):\n    acc = [0]\n    i = 0\n    while i < n:\n"
     "        acc[0] = acc[0] + i * i\n        i += 1\n    return acc[0]\n",
     "f", {5}, "30"},
};

class EngineEquivalence : public ::testing::TestWithParam<size_t> {};

TEST_P(EngineEquivalence, TreeWalkAndVmAgree) {
  const ProgramCase& c = kCases[GetParam()];
  std::vector<PyValue> args;
  for (int64_t a : c.int_args) args.push_back(PyValue(a));

  TreeWalker walker;
  ASSERT_TRUE(walker.LoadSource(c.source).ok()) << c.name;
  auto tw = walker.Call(c.function, args);
  ASSERT_TRUE(tw.ok()) << c.name << ": " << tw.status().ToString();

  Vm vm;
  ASSERT_TRUE(vm.LoadSource(c.source).ok()) << c.name;
  auto bc = vm.Call(c.function, args);
  ASSERT_TRUE(bc.ok()) << c.name << ": " << bc.status().ToString();

  EXPECT_EQ(tw->Repr(), c.expected_repr) << c.name;
  EXPECT_EQ(bc->Repr(), c.expected_repr) << c.name;
  EXPECT_TRUE(PyEquals(*tw, *bc)) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, EngineEquivalence,
    ::testing::Range<size_t>(0, std::size(kCases)),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return kCases[info.param].name;
    });

// ---- Error behaviour -----------------------------------------------------------

TEST(Engines, DivisionByZeroIsError) {
  const char* src = "def f(n):\n    return 1 // n\n";
  TreeWalker walker;
  ASSERT_TRUE(walker.LoadSource(src).ok());
  EXPECT_FALSE(walker.Call("f", {PyValue(int64_t{0})}).ok());
  Vm vm;
  ASSERT_TRUE(vm.LoadSource(src).ok());
  EXPECT_FALSE(vm.Call("f", {PyValue(int64_t{0})}).ok());
}

TEST(Engines, IndexOutOfRangeIsError) {
  const char* src = "def f(i):\n    xs = [1, 2]\n    return xs[i]\n";
  TreeWalker walker;
  ASSERT_TRUE(walker.LoadSource(src).ok());
  EXPECT_FALSE(walker.Call("f", {PyValue(int64_t{5})}).ok());
  Vm vm;
  ASSERT_TRUE(vm.LoadSource(src).ok());
  EXPECT_FALSE(vm.Call("f", {PyValue(int64_t{5})}).ok());
}

TEST(Engines, UndefinedNameIsError) {
  TreeWalker walker;
  ASSERT_TRUE(walker.LoadSource("def f():\n    return ghost\n").ok());
  EXPECT_FALSE(walker.Call("f", {}).ok());
}

TEST(Engines, WrongArityIsError) {
  const char* src = "def f(a, b):\n    return a\n";
  TreeWalker walker;
  ASSERT_TRUE(walker.LoadSource(src).ok());
  EXPECT_FALSE(walker.Call("f", {PyValue(int64_t{1})}).ok());
  Vm vm;
  ASSERT_TRUE(vm.LoadSource(src).ok());
  EXPECT_FALSE(vm.Call("f", {PyValue(int64_t{1})}).ok());
}

TEST(Engines, CallUnknownFunctionIsError) {
  TreeWalker walker;
  ASSERT_TRUE(walker.LoadSource("x = 1\n").ok());
  EXPECT_FALSE(walker.Call("nope", {}).ok());
  Vm vm;
  ASSERT_TRUE(vm.LoadSource("x = 1\n").ok());
  EXPECT_FALSE(vm.Call("nope", {}).ok());
}

TEST(Compiler, RejectsCallToUnknownNameAtCompileTime) {
  EXPECT_FALSE(CompileSource("def f():\n    return ghost_fn(1)\n").ok());
}

TEST(Engines, ModuleLevelAssignmentsVisible) {
  Vm vm;
  ASSERT_TRUE(vm.LoadSource("a = 2\nb = a * 21\n").ok());
  EXPECT_EQ(vm.GetGlobal("b").value().AsInt(), 42);
  TreeWalker walker;
  ASSERT_TRUE(walker.LoadSource("a = 2\nb = a * 21\n").ok());
  EXPECT_EQ(walker.GetGlobal("b").value().AsInt(), 42);
}

TEST(Engines, PythonLocalScopingRule) {
  // A name assigned in a function is local and does not leak out.
  const char* src =
      "g = 1\n"
      "def f():\n    g = 99\n    return g\n";
  Vm vm;
  ASSERT_TRUE(vm.LoadSource(src).ok());
  EXPECT_EQ(vm.Call("f", {}).value().AsInt(), 99);
  EXPECT_EQ(vm.GetGlobal("g").value().AsInt(), 1);
}

}  // namespace
}  // namespace minipy
}  // namespace mrs
