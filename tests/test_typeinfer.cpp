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
  const std::vector<std::vector<PyValue>> arg_sets = {
      {PyValue(int64_t{3}), PyValue(int64_t{7})},
      {PyValue(int64_t{-5}), PyValue(int64_t{9})},
      // Floats where the guard speculated ints: the typed tier must
      // deopt and the deopted path must still match bit for bit.
      {PyValue(2.5), PyValue(4.0)},
      {PyValue(int64_t{11}), PyValue(0.125)},
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
