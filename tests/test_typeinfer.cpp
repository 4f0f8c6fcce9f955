// Type inference and the typed VM tier: lattice algebra, inferred
// signatures (call-site guards, int speculation, demotion), the shared
// definite-assignment entry rule, and — the adversarial core — a mutated
// fact-table corpus plus a seeded differential fuzzer proving TreeWalker,
// the generic VM, and the typed tier bit-identical (including every deopt
// path).
//
// The corpus protocol mirrors the bytecode-mutant one in
// test_analysis.cpp: a mutated table is either rejected by
// CheckTypeFacts (and the VM, which re-checks, falls back to
// generic-only) or it is accepted — in which case running through it
// must still produce exactly the generic results.  Either way the
// process survives and no wrong answer escapes.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "interp/compiler.h"
#include "interp/treewalk.h"
#include "interp/typefacts.h"
#include "interp/vm.h"
#include "obs/metrics.h"

namespace mrs {
namespace analysis {
namespace {

using minipy::CompiledModule;
using minipy::FunctionFacts;
using minipy::PyValue;
using minipy::TypeFactTable;
using minipy::ValueType;

AnalysisOptions PlainModule() {
  AnalysisOptions options;
  options.kernel_profile = false;  // plain functions, not a map/reduce kernel
  return options;
}

/// Analyzes `source` as a plain module and requires a checkable table.
AnalysisResult AnalyzeOrDie(const std::string& source) {
  AnalysisResult result = AnalyzeKernelSource(source, PlainModule());
  EXPECT_TRUE(result.ok()) << source;
  EXPECT_NE(result.module, nullptr);
  if (result.module) {
    EXPECT_NE(result.module->type_facts, nullptr);
  }
  return result;
}

int64_t Delta(const std::map<std::string, int64_t>& before,
              const std::string& name) {
  auto after = obs::Registry::Instance().CounterValues();
  auto b = before.find(name);
  auto a = after.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

const InferredSignature* FindSig(const AnalysisResult& result,
                                 const std::string& name) {
  for (const InferredSignature& sig : result.signatures) {
    if (sig.name == name) return &sig;
  }
  return nullptr;
}

// ---- Lattice algebra ---------------------------------------------------

TEST(TypeLattice, JoinIsFlatAndCommutative) {
  using minipy::JoinType;
  const ValueType all[] = {ValueType::kBottom, ValueType::kNone,
                           ValueType::kBool,   ValueType::kInt,
                           ValueType::kFloat,  ValueType::kStr,
                           ValueType::kList,   ValueType::kTop};
  for (ValueType a : all) {
    EXPECT_EQ(JoinType(a, a), a);
    EXPECT_EQ(JoinType(a, ValueType::kBottom), a);
    EXPECT_EQ(JoinType(a, ValueType::kTop), ValueType::kTop);
    for (ValueType b : all) {
      EXPECT_EQ(JoinType(a, b), JoinType(b, a));
      // The join is the least upper bound: both operands are below it.
      EXPECT_TRUE(minipy::TypeLe(a, JoinType(a, b)));
    }
  }
  // Distinct concrete types have no common concrete bound (flat lattice).
  EXPECT_EQ(JoinType(ValueType::kInt, ValueType::kFloat), ValueType::kTop);
  EXPECT_EQ(JoinType(ValueType::kStr, ValueType::kList), ValueType::kTop);
}

// ---- Definite assignment (the shared entry rule) -----------------------

TEST(DefiniteAssignment, LoopCarriedLocalsAreNeverReadUnassigned) {
  auto module = minipy::CompileSource(
      "def f(n):\n"
      "    i = 0\n"
      "    while i < n:\n"
      "        x = i * 2\n"
      "        i = i + x\n"
      "    return i\n");
  ASSERT_TRUE(module.ok());
  int fi = (*module)->FunctionIndex("f");
  ASSERT_GE(fi, 0);
  const minipy::CompiledFunction& fn = (*module)->functions[fi];
  std::vector<bool> maybe = minipy::LocalsReadBeforeAssign(fn);
  ASSERT_EQ(maybe.size(), static_cast<size_t>(fn.num_locals));
  for (size_t slot = 0; slot < maybe.size(); ++slot) {
    EXPECT_FALSE(maybe[slot]) << "local '" << fn.local_names[slot]
                              << "' is assigned on every path to a read";
  }
}

TEST(DefiniteAssignment, ConditionallyAssignedLocalIsFlagged) {
  auto module = minipy::CompileSource(
      "def g(n):\n"
      "    if n > 0:\n"
      "        y = 1\n"
      "    return y\n");
  ASSERT_TRUE(module.ok());
  int fi = (*module)->FunctionIndex("g");
  ASSERT_GE(fi, 0);
  const minipy::CompiledFunction& fn = (*module)->functions[fi];
  std::vector<bool> maybe = minipy::LocalsReadBeforeAssign(fn);
  bool found_y = false;
  for (size_t slot = 0; slot < fn.local_names.size(); ++slot) {
    if (fn.local_names[slot] == "y") {
      found_y = true;
      EXPECT_TRUE(maybe[slot]) << "'y' can be read unassigned when n <= 0";
    }
  }
  EXPECT_TRUE(found_y);
}

// ---- Inferred signatures ------------------------------------------------

TEST(Signatures, CallSitesPinTheGuardExactly) {
  AnalysisResult result = AnalyzeOrDie(
      "def mul(a, b):\n"
      "    return a * b\n"
      "def use():\n"
      "    return mul(2, 3) + mul(4, 5)\n");
  const InferredSignature* mul = FindSig(result, "mul");
  ASSERT_NE(mul, nullptr);
  ASSERT_EQ(mul->params.size(), 2u);
  // Every static call site passes int literals, so the guard is pinned
  // by evidence and nothing about it is speculative.
  EXPECT_EQ(mul->params[0], ValueType::kInt);
  EXPECT_EQ(mul->params[1], ValueType::kInt);
  EXPECT_EQ(mul->ret, ValueType::kInt);
  EXPECT_FALSE(mul->speculative);
}

TEST(Signatures, HostCalledFunctionsSpeculateInt) {
  AnalysisResult result = AnalyzeOrDie(
      "def add(a, b):\n"
      "    return a + b\n");
  const InferredSignature* add = FindSig(result, "add");
  ASSERT_NE(add, nullptr);
  ASSERT_EQ(add->params.size(), 2u);
  EXPECT_EQ(add->params[0], ValueType::kInt);
  EXPECT_EQ(add->params[1], ValueType::kInt);
  EXPECT_EQ(add->ret, ValueType::kInt);
  EXPECT_TRUE(add->speculative);
}

TEST(Signatures, WrongSpeculationIsDemotedNotShippedAsUnreachable) {
  // Int speculation on a list-taking function makes the whole body a
  // guaranteed TypeError; the demotion loop must widen the guard to any
  // rather than publish a signature with an unreachable return.
  AnalysisResult result = AnalyzeOrDie(
      "def first(xs):\n"
      "    return xs[0] + len(xs)\n");
  const InferredSignature* first = FindSig(result, "first");
  ASSERT_NE(first, nullptr);
  ASSERT_EQ(first->params.size(), 1u);
  EXPECT_EQ(first->params[0], ValueType::kTop);
  EXPECT_FALSE(first->speculative);
  EXPECT_NE(first->ret, ValueType::kBottom);
}

TEST(Signatures, GlobalsAreTypedFromTopLevelStores) {
  AnalysisResult result = AnalyzeOrDie(
      "scale = 2.5\n"
      "def f(x):\n"
      "    return x * scale\n");
  const InferredSignature* f = FindSig(result, "f");
  ASSERT_NE(f, nullptr);
  // x speculated int, scale proven float at the guard: int * float = float.
  EXPECT_EQ(f->ret, ValueType::kFloat);

  int fi = result.module->FunctionIndex("f");
  ASSERT_GE(fi, 0);
  const FunctionFacts& facts = result.module->type_facts->functions[fi];
  ASSERT_EQ(facts.global_reads.size(), 1u);
  EXPECT_EQ(facts.global_reads[0].second, ValueType::kFloat);

  // And the float-global guard is good enough for the typed tier.
  minipy::Vm typed;
  ASSERT_TRUE(typed.LoadModule(result.module).ok());
  EXPECT_TRUE(typed.HasTypedFunction("f"));
  minipy::Vm generic;
  generic.set_typed_tier_enabled(false);
  ASSERT_TRUE(generic.LoadModule(result.module).ok());
  auto a = typed.Call("f", {PyValue(int64_t{4})});
  auto b = generic.Call("f", {PyValue(int64_t{4})});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->Repr(), b->Repr());
  EXPECT_EQ(a->Repr(), "10.0");
}

// ---- The mutated fact-table corpus -------------------------------------

struct MutantStats {
  int mutants = 0;
  int rejected = 0;
};

/// Runs one mutated table through the full consume path.  The table is
/// either rejected (checker says no; the VM must then count the
/// rejection and run generic-only) or accepted — and then executing
/// through it must reproduce `expected` exactly (a lying-but-checkable
/// table can only ever cause deopts, never wrong answers).
void RunTableMutant(const std::shared_ptr<CompiledModule>& base,
                    const TypeFactTable& mutant,
                    const std::vector<PyValue>& args,
                    const std::string& expected, MutantStats* stats) {
  ++stats->mutants;
  bool checker_ok = minipy::CheckTypeFacts(*base, mutant).ok();
  if (!checker_ok) ++stats->rejected;

  auto module = std::make_shared<CompiledModule>(*base);
  module->type_facts = std::make_shared<TypeFactTable>(mutant);
  auto before = obs::Registry::Instance().CounterValues();
  minipy::Vm vm;
  ASSERT_TRUE(vm.LoadModule(module).ok())
      << "a bad table must never fail the load — generic-only fallback";
  if (!checker_ok) {
    EXPECT_GE(Delta(before, "mrs.vm.type_facts_rejected"), 1);
    EXPECT_FALSE(vm.HasTypedFunction("f"));
  }
  auto got = vm.Call("f", args);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->Repr(), expected);
}

TEST(TypeFactsMutants, MutatedTablesAreRejectedNotCrashed) {
  AnalysisResult result = AnalyzeOrDie(
      "offset = 3\n"
      "def helper(x):\n"
      "    return x * 2 + offset\n"
      "def f(a, b):\n"
      "    s = 0\n"
      "    i = 0\n"
      "    while i < a:\n"
      "        s = s + helper(i) + b\n"
      "        i = i + 1\n"
      "    return s\n");
  std::shared_ptr<CompiledModule> base = result.module;
  const TypeFactTable& good = *base->type_facts;
  ASSERT_TRUE(minipy::CheckTypeFacts(*base, good).ok());

  const std::vector<PyValue> args = {PyValue(int64_t{6}), PyValue(int64_t{5})};
  minipy::Vm reference;
  reference.set_typed_tier_enabled(false);
  ASSERT_TRUE(reference.LoadModule(base).ok());
  auto expected = reference.Call("f", args);
  ASSERT_TRUE(expected.ok());
  const std::string want = expected->Repr();

  MutantStats stats;
  auto run = [&](const TypeFactTable& mutant) {
    RunTableMutant(base, mutant, args, want, &stats);
  };

  const ValueType kFlips[] = {ValueType::kStr, ValueType::kList,
                              ValueType::kBottom};
  for (size_t fi = 0; fi < good.functions.size(); ++fi) {
    const FunctionFacts& facts = good.functions[fi];
    // Per-slot row corruption: every reachable row, every slot, flipped
    // to types the flow cannot actually produce there.
    for (size_t pc = 0; pc < facts.rows.size(); ++pc) {
      if (!facts.rows[pc].reachable) continue;
      for (size_t slot = 0; slot < facts.rows[pc].locals.size(); ++slot) {
        for (ValueType flip : kFlips) {
          if (facts.rows[pc].locals[slot] == flip) continue;
          TypeFactTable m = good;
          m.functions[fi].rows[pc].locals[slot] = flip;
          run(m);
        }
      }
      for (size_t slot = 0; slot < facts.rows[pc].stack.size(); ++slot) {
        TypeFactTable m = good;
        m.functions[fi].rows[pc].stack[slot] = ValueType::kStr;
        run(m);
      }
    }
    // Guard and shape corruption.
    {
      TypeFactTable m = good;
      m.functions[fi].ret = ValueType::kBottom;  // "never returns"
      run(m);
    }
    {
      TypeFactTable m = good;
      m.functions[fi].ret = ValueType::kStr;
      run(m);
    }
    {
      TypeFactTable m = good;
      m.functions[fi].params.push_back(ValueType::kInt);  // arity lie
      run(m);
    }
    if (!facts.params.empty()) {
      TypeFactTable m = good;
      m.functions[fi].params.pop_back();
      run(m);
      m = good;
      m.functions[fi].params[0] = ValueType::kStr;  // different guard
      run(m);
    }
    {
      TypeFactTable m = good;
      m.functions[fi].global_reads.push_back({999, ValueType::kInt});
      run(m);
    }
    if (!facts.global_reads.empty()) {
      TypeFactTable m = good;
      m.functions[fi].global_reads[0].second = ValueType::kStr;
      run(m);
      m = good;
      m.functions[fi].global_reads.clear();  // drop the guard the rows use
      run(m);
    }
    if (!facts.rows.empty()) {
      TypeFactTable m = good;
      m.functions[fi].rows.resize(facts.rows.size() / 2);  // truncated
      run(m);
      m = good;
      m.functions[fi].rows[0] = minipy::TypeRow{};  // entry "unreachable"
      run(m);
    }
  }
  {
    TypeFactTable m = good;
    m.functions.pop_back();  // table/function-count mismatch
    run(m);
  }
  {
    TypeFactTable m = good;
    m.functions.emplace_back();
    run(m);
  }

  EXPECT_GT(stats.mutants, 100) << "corpus unexpectedly small";
  EXPECT_GT(stats.rejected * 2, stats.mutants)
      << stats.rejected << "/" << stats.mutants << " rejected";
}

// ---- The typed tier end to end -----------------------------------------

TEST(TypedTier, GuardFailureDeoptsAndStaysCorrect) {
  AnalysisResult result = AnalyzeOrDie(
      "def add(a, b):\n"
      "    return a + b\n");
  minipy::Vm vm;
  ASSERT_TRUE(vm.LoadModule(result.module).ok());
  ASSERT_TRUE(vm.HasTypedFunction("add"));

  auto before = obs::Registry::Instance().CounterValues();
  auto ints = vm.Call("add", {PyValue(int64_t{2}), PyValue(int64_t{3})});
  ASSERT_TRUE(ints.ok());
  EXPECT_EQ(ints->Repr(), "5");
  EXPECT_GE(Delta(before, "mrs.vm.typed_calls"), 1);
  EXPECT_EQ(Delta(before, "mrs.vm.deopts"), 0);

  // The guard speculated (int, int); float arguments must deopt to the
  // generic loop and still produce the exact Python answer.
  before = obs::Registry::Instance().CounterValues();
  auto floats = vm.Call("add", {PyValue(2.5), PyValue(3.25)});
  ASSERT_TRUE(floats.ok());
  EXPECT_EQ(floats->Repr(), "5.75");
  EXPECT_GE(Delta(before, "mrs.vm.deopts"), 1);

  // Deopt is per-call, not a permanent tier exit: ints are fast again.
  before = obs::Registry::Instance().CounterValues();
  auto again = vm.Call("add", {PyValue(int64_t{40}), PyValue(int64_t{2})});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Repr(), "42");
  EXPECT_GE(Delta(before, "mrs.vm.typed_calls"), 1);
  EXPECT_EQ(Delta(before, "mrs.vm.deopts"), 0);
}

TEST(TypedTier, EnvAndSetterDisableTheTier) {
  AnalysisResult result = AnalyzeOrDie(
      "def add(a, b):\n"
      "    return a + b\n");
  minipy::Vm vm;
  vm.set_typed_tier_enabled(false);
  ASSERT_TRUE(vm.LoadModule(result.module).ok());
  EXPECT_FALSE(vm.HasTypedFunction("add"));
  auto got = vm.Call("add", {PyValue(int64_t{2}), PyValue(int64_t{3})});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->Repr(), "5");
}

// ---- Integer edges: one outcome on every engine ------------------------

/// Calls `f(args)` on the tree-walker, the generic VM and the typed tier,
/// requires all three to succeed with one Repr(), and returns it.  With
/// `typed` false, `f` may stay generic on the typed VM (the tier runs no
/// builtin calls).
std::string ReprOnEveryEngine(const std::string& src,
                              const std::vector<PyValue>& args,
                              bool typed = true) {
  SCOPED_TRACE(src);
  minipy::TreeWalker walker;
  EXPECT_TRUE(walker.LoadSource(src).ok());
  minipy::Vm generic;
  generic.set_typed_tier_enabled(false);
  EXPECT_TRUE(generic.LoadSource(src).ok());
  AnalysisResult analyzed = AnalyzeOrDie(src);
  minipy::Vm typed_vm;
  EXPECT_TRUE(typed_vm.LoadModule(analyzed.module).ok());
  if (typed) EXPECT_TRUE(typed_vm.HasTypedFunction("f"));
  auto tw = walker.Call("f", args);
  auto gv = generic.Call("f", args);
  auto tv = typed_vm.Call("f", args);
  if (!tw.ok() || !gv.ok() || !tv.ok()) {
    ADD_FAILURE() << tw.status().ToString() << " / " << gv.status().ToString()
                  << " / " << tv.status().ToString();
    return "";
  }
  EXPECT_EQ(tw->Repr(), gv->Repr());
  EXPECT_EQ(gv->Repr(), tv->Repr());
  return tw->Repr();
}

TEST(IntegerEdges, Int64MinFloorDivAndModByMinusOneWrapOnEveryEngine) {
  // 0 - x - x with x = 2^62 is INT64_MIN, reached without overflow.  The
  // quotient by -1 overflows int64 and wraps; a native division would
  // trap (SIGFPE) and kill the process.
  const PyValue x(int64_t{1} << 62);
  const PyValue minus_one(int64_t{-1});
  const std::string int64_min = "-9223372036854775808";
  // Divisor written in the source.
  EXPECT_EQ(ReprOnEveryEngine(
                "def f(x):\n    return (0 - x - x) // (0 - 1)\n", {x}),
            int64_min);
  EXPECT_EQ(ReprOnEveryEngine(
                "def f(x):\n    return (0 - x - x) % (0 - 1)\n", {x}),
            "0");
  EXPECT_EQ(
      ReprOnEveryEngine("def f(x):\n    return (0 - x - x) // -1\n", {x}),
      int64_min);
  EXPECT_EQ(
      ReprOnEveryEngine("def f(x):\n    return (0 - x - x) % -1\n", {x}),
      "0");
  // Divisor passed as an argument.
  EXPECT_EQ(ReprOnEveryEngine("def f(x, d):\n    return (0 - x - x) // d\n",
                              {x, minus_one}),
            int64_min);
  EXPECT_EQ(ReprOnEveryEngine("def f(x, d):\n    return (0 - x - x) % d\n",
                              {x, minus_one}),
            "0");
}

TEST(IntegerEdges, OverflowWrapsOnEveryEngine) {
  // Each overflow once was undefined behaviour; it now wraps modulo 2^64
  // on every engine.  The operands come as literals (the typed tier's
  // immediate forms) and as arguments (its register forms).  INT64_MIN
  // has no literal, so the source spells it -9223372036854775807 - 1.
  const PyValue max(std::numeric_limits<int64_t>::max());
  const PyValue min(std::numeric_limits<int64_t>::min());
  const PyValue one(int64_t{1});
  const PyValue minus_one(int64_t{-1});
  const std::string kMax = "9223372036854775807";
  const std::string kMin = "-9223372036854775808";
  struct Case {
    std::string body;  // of `def f(x, y)`
    std::vector<PyValue> args;
    std::string expected;
    bool typed = true;  // false: a builtin call keeps `f` generic
  };
  const Case cases[] = {
      // INT64_MAX + 1
      {"9223372036854775807 + 1", {one, one}, kMin},
      {"x + 1", {max, one}, kMin},
      {"x + y", {max, one}, kMin},
      // INT64_MIN - 1
      {"-9223372036854775807 - 1 - 1", {one, one}, kMax},
      {"x - 1", {min, one}, kMax},
      {"x - y", {min, one}, kMax},
      {"0 - x - 2", {max, one}, kMax},
      // INT64_MIN * -1, and 2^62 * 2
      {"(-9223372036854775807 - 1) * -1", {one, one}, kMin},
      {"x * y", {min, minus_one}, kMin},
      {"x * 2", {PyValue(int64_t{1} << 62), one}, kMin},
      // -INT64_MIN
      {"-(-9223372036854775807 - 1)", {one, one}, kMin},
      {"-x", {min, one}, kMin},
      {"0 - x", {min, one}, kMin},
      // abs(INT64_MIN)
      {"abs(-9223372036854775807 - 1)", {one, one}, kMin, false},
      {"abs(x)", {min, one}, kMin, false},
      // range stops at its last element instead of stepping past the end
      {"len(range(x - 3, x, 2))", {max, one}, "2", false},
      {"len(range(x + 3, x, -2))", {min, one}, "2", false},
      {"len(range(0, x, x - 1))", {max, one}, "2", false},
  };
  for (const Case& c : cases) {
    const std::string src = "def f(x, y):\n    return " + c.body + "\n";
    EXPECT_EQ(ReprOnEveryEngine(src, c.args, c.typed), c.expected);
  }
  // `**` multiplies through the same wrap; only ApplyBinary evaluates it.
  auto pow = minipy::ApplyBinary(minipy::BinOp::kPow, PyValue(int64_t{2}),
                                 PyValue(int64_t{63}));
  ASSERT_TRUE(pow.ok());
  EXPECT_EQ(pow->Repr(), kMin);
}

TEST(IntegerEdges, IntsBeyondTwoTo53CompareExactlyOnEveryEngine) {
  // 2^53 + 1 rounds to 2^53 as a double, so only an integer compare
  // tells them apart.
  const PyValue x(int64_t{1} << 53);
  EXPECT_EQ(ReprOnEveryEngine("def f(x):\n    return (x + 1) > x\n", {x}),
            "True");
  EXPECT_EQ(ReprOnEveryEngine("def f(x):\n    return (x + 1) <= x\n", {x}),
            "False");
}

/// What `f(x)` gives on the tree-walker, the generic VM and the typed VM,
/// which must agree: its Repr(), or "error: " and the error message
/// without the engine's location prefix ("line N: " or "in f: ").
std::string OutcomeOnEveryEngine(const std::string& src, const PyValue& x) {
  SCOPED_TRACE(src);
  minipy::TreeWalker walker;
  EXPECT_TRUE(walker.LoadSource(src).ok());
  minipy::Vm generic;
  generic.set_typed_tier_enabled(false);
  EXPECT_TRUE(generic.LoadSource(src).ok());
  AnalysisResult analyzed = AnalyzeOrDie(src);
  minipy::Vm typed_vm;
  EXPECT_TRUE(typed_vm.LoadModule(analyzed.module).ok());
  auto outcome = [](const Result<PyValue>& r) -> std::string {
    if (r.ok()) return r->Repr();
    const std::string& message = r.status().message();
    size_t prefix = message.find(": ");
    return "error: " + (prefix == std::string::npos
                            ? message
                            : message.substr(prefix + 2));
  };
  std::string tw = outcome(walker.Call("f", {x}));
  EXPECT_EQ(outcome(generic.Call("f", {x})), tw);
  EXPECT_EQ(outcome(typed_vm.Call("f", {x})), tw);
  return tw;
}

TEST(IntegerEdges, FloatToIntIsCheckedOnEveryEngine) {
  // A float outside int64, an infinity or a NaN once went through an
  // undefined cast: int(1e300) and int(-1e300) both read INT64_MIN, and
  // range(1e19) was empty.  Each is now one named error, and an in-range
  // float still truncates toward zero.
  const PyValue inf(std::numeric_limits<double>::infinity());
  const PyValue one(int64_t{1});
  struct Case {
    std::string body;  // of `def f(x)`
    PyValue x;
    std::string expected;
  };
  const std::string kError = "error: cannot convert float ";
  const Case cases[] = {
      {"return int(1e300)", one, kError + "1e+300 to int"},
      {"return int(-1e300)", one, kError + "-1e+300 to int"},
      {"return int(1e300 * 1e300)", one, kError + "inf to int"},
      {"return int(x - x)", inf, kError + "nan to int"},
      {"return len(range(1e19))", one, kError + "1e+19 to int"},
      {"xs = [1, 2]\n    return xs[1e300]", one, kError + "1e+300 to int"},
      {"xs = [1, 2]\n    xs[1e300] = 3\n    return xs", one,
       kError + "1e+300 to int"},
      {"return int(9223372036854775808.0)", one,
       kError + "9.22337203685e+18 to int"},
      {"return int(-9223372036854775808.0)", one, "-9223372036854775808"},
      {"return int(2.9)", one, "2"},
      {"return int(-2.9)", one, "-2"},
      {"return int(-9.2e18)", one, "-9200000000000000000"},
      {"xs = [1, 2]\n    return xs[1.9]", one, "2"},
  };
  for (const Case& c : cases) {
    const std::string src = "def f(x):\n    " + c.body + "\n";
    EXPECT_EQ(OutcomeOnEveryEngine(src, c.x), c.expected);
  }
}

// ---- Differential fuzz: treewalk vs generic VM vs typed tier ------------

/// Deterministic split-mix style generator; no global randomness so every
/// failure reproduces from its seed alone.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint32_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(state >> 33);
  }
  uint32_t Below(uint32_t n) { return Next() % n; }
};

std::string Leaf(Rng& rng) {
  switch (rng.Below(6)) {
    case 0: return "a";
    case 1: return "b";
    case 2: return "i";
    case 3: return std::to_string(rng.Below(9) + 1);
    case 4:
      return std::to_string(rng.Below(9)) + "." +
             std::to_string(rng.Below(10));
    default: return std::to_string(rng.Below(20));
  }
}

/// Random arithmetic over a, b, i and small literals.  Divisor operands
/// take the form (r * r + 1), which is >= 1 for every int and float, so
/// no generated program can divide by zero — the three engines are then
/// compared on values, not on error strings.
std::string Expr(Rng& rng, int depth) {
  if (depth == 0) return Leaf(rng);
  static const char* kOps[] = {"+", "-", "*", "//", "%", "/"};
  const char* op = kOps[rng.Below(6)];
  std::string lhs = Expr(rng, depth - 1);
  if (op[0] == '/' || op[0] == '%') {
    std::string r = Leaf(rng);
    return "(" + lhs + " " + op + " (" + r + " * " + r + " + 1))";
  }
  return "(" + lhs + " " + op + " " + Expr(rng, depth - 1) + ")";
}

std::string FuzzProgram(Rng& rng) {
  std::string src = "def f(a, b):\n";
  src += "    s = ";
  src += rng.Below(2) ? "0" : "0.0";
  src += "\n    i = 0\n";
  src += "    while i < 8:\n";
  if (rng.Below(2)) {
    src += "        if i % 2 == 0:\n";
    src += "            s = s + " + Expr(rng, 2) + "\n";
    src += "        else:\n";
    src += "            s = s - " + Expr(rng, 2) + "\n";
  } else {
    src += "        s = s + " + Expr(rng, 2) + "\n";
  }
  src += "        i = i + 1\n";
  src += "    return s\n";
  return src;
}

TEST(DifferentialFuzz, AllThreeTiersAgreeBitForBitIncludingDeopts) {
  const PyValue int64_min(std::numeric_limits<int64_t>::min());
  const PyValue two_to_62(int64_t{1} << 62);
  const std::vector<std::vector<PyValue>> arg_sets = {
      {PyValue(int64_t{3}), PyValue(int64_t{7})},
      {PyValue(int64_t{-5}), PyValue(int64_t{9})},
      // Floats where the guard speculated ints: the typed tier must
      // deopt and the deopted path must still match bit for bit.
      {PyValue(2.5), PyValue(4.0)},
      {PyValue(int64_t{11}), PyValue(0.125)},
      // Integer edges: int + - * overflow here and wraps on every tier.
      {int64_min, PyValue(int64_t{-1})},
      {two_to_62, int64_min},
      {PyValue(int64_t{-1}), two_to_62},
  };

  int typed_functions = 0;
  auto before = obs::Registry::Instance().CounterValues();
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const std::string src = FuzzProgram(rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + src);

    minipy::TreeWalker walker;
    ASSERT_TRUE(walker.LoadSource(src).ok());

    minipy::Vm generic;
    generic.set_typed_tier_enabled(false);
    ASSERT_TRUE(generic.LoadSource(src).ok());

    AnalysisResult analyzed = AnalyzeKernelSource(src, PlainModule());
    ASSERT_TRUE(analyzed.ok());
    ASSERT_NE(analyzed.module, nullptr);
    minipy::Vm typed;
    ASSERT_TRUE(typed.LoadModule(analyzed.module).ok());
    if (typed.HasTypedFunction("f")) ++typed_functions;

    for (const std::vector<PyValue>& args : arg_sets) {
      auto tw = walker.Call("f", args);
      auto gv = generic.Call("f", args);
      auto tv = typed.Call("f", args);
      ASSERT_EQ(tw.ok(), gv.ok());
      ASSERT_EQ(gv.ok(), tv.ok());
      if (!tw.ok()) continue;  // divisors are nonzero by construction
      EXPECT_EQ(tw->Repr(), gv->Repr());
      EXPECT_EQ(gv->Repr(), tv->Repr());
    }
  }
  // The fuzz run must actually have exercised the tier, both fast paths
  // and guard failures — otherwise the equality above proves nothing.
  EXPECT_GT(typed_functions, 0);
  EXPECT_GT(Delta(before, "mrs.vm.typed_calls"), 0);
  EXPECT_GT(Delta(before, "mrs.vm.deopts"), 0);
}

}  // namespace
}  // namespace analysis
}  // namespace mrs
