// mrs::analysis tests: golden-file diagnostics, the mutated-frame
// verifier corpus, submit-time rejection equivalence across runners, and
// MiniPy kernel execution end to end.
//
// Golden files live in tests/analysis_cases/.  Each case declares its
// expected diagnostics in comment headers:
//
//   # expect: MPY102 @5            (error at line 5)
//   # expect: MPY201 @7 warning
//   # expect: none                 (must produce no diagnostics)
//
// so a case file is self-describing: the source and its verdict travel
// together, and adding a case never touches this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "analysis/kernel_program.h"
#include "interp/compiler.h"
#include "interp/verifier.h"
#include "interp/vm.h"
#include "obs/metrics.h"
#include "rt/mrs_main.h"

namespace mrs {
namespace analysis {
namespace {

namespace fs = std::filesystem;
using minipy::CompiledFunction;
using minipy::CompiledModule;
using minipy::Instruction;
using minipy::Op;

std::string ReadAll(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---- Golden-file diagnostics -------------------------------------------

struct Expectation {
  std::string code;
  int line = 0;
  Severity severity = Severity::kError;
};

// Parses every "# expect:" header of a case file.  Returns true if the
// file declared "# expect: none" (explicitly clean).
bool ParseExpectations(const std::string& source,
                       std::vector<Expectation>* out) {
  bool explicitly_clean = false;
  std::istringstream lines(source);
  std::string line;
  while (std::getline(lines, line)) {
    const std::string kPrefix = "# expect:";
    if (line.rfind(kPrefix, 0) != 0) continue;
    std::istringstream fields(line.substr(kPrefix.size()));
    std::string code;
    fields >> code;
    if (code == "none") {
      explicitly_clean = true;
      continue;
    }
    Expectation e;
    e.code = code;
    std::string at, sev;
    fields >> at >> sev;
    if (at.empty() || at[0] != '@') {
      ADD_FAILURE() << "bad expect header: " << line;
      continue;
    }
    e.line = std::stoi(at.substr(1));
    if (sev == "warning") e.severity = Severity::kWarning;
    out->push_back(e);
  }
  return explicitly_clean;
}

std::string Render(const std::string& code, int line, Severity sev) {
  return code + "@" + std::to_string(line) +
         (sev == Severity::kWarning ? " (warning)" : "");
}

TEST(AnalysisGolden, EveryCaseMatchesItsDeclaredDiagnostics) {
  fs::path dir = MRS_ANALYSIS_CASES_DIR;
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  int cases = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".mpy") continue;
    ++cases;
    SCOPED_TRACE(entry.path().filename().string());
    std::string source = ReadAll(entry.path());
    std::vector<Expectation> expected;
    bool clean = ParseExpectations(source, &expected);
    ASSERT_TRUE(clean || !expected.empty())
        << "case has no '# expect:' header";

    AnalysisResult result = AnalyzeKernelSource(source);
    std::vector<std::string> got, want;
    for (const Diagnostic& d : result.diagnostics) {
      got.push_back(Render(d.code, d.span.line, d.severity));
    }
    for (const Expectation& e : expected) {
      want.push_back(Render(e.code, e.line, e.severity));
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);

    // Spans and the verified-module contract.
    for (const Diagnostic& d : result.diagnostics) {
      EXPECT_GE(d.span.line, 1) << d.code << ": diagnostics carry spans";
      EXPECT_FALSE(d.message.empty());
    }
    if (HasErrors(result.diagnostics)) {
      EXPECT_EQ(result.module, nullptr)
          << "a rejected kernel must not produce executable code";
    } else {
      ASSERT_NE(result.module, nullptr);
      EXPECT_TRUE(result.module->verified);
    }
  }
  EXPECT_GE(cases, 15) << "golden corpus went missing?";
}

TEST(AnalysisGolden, CheckedInExampleKernelsAreClean) {
  fs::path dir = MRS_EXAMPLE_KERNELS_DIR;
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  int kernels = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".mpy") continue;
    ++kernels;
    SCOPED_TRACE(entry.path().filename().string());
    AnalysisResult result = AnalyzeKernelSource(ReadAll(entry.path()));
    EXPECT_TRUE(result.diagnostics.empty());
    ASSERT_NE(result.module, nullptr);
    EXPECT_TRUE(result.module->verified);
  }
  EXPECT_GE(kernels, 3);
}

TEST(Analysis, WarningsAloneDoNotReject) {
  AnalysisResult result = AnalyzeKernelSource(
      "def map(key, value):\n"
      "    print(value)\n"
      "    emit(key, value)\n"
      "def reduce(key, values):\n"
      "    emit(len(values))\n");
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].code, "MPY403");
  EXPECT_TRUE(result.ok());
  EXPECT_NE(result.module, nullptr);
  EXPECT_EQ(DiagnosticsToStatus(result.diagnostics, "k.mpy"), Status::Ok());
}

TEST(Analysis, RejectionStatusListsEveryErrorWithSpan) {
  AnalysisResult result = AnalyzeKernelSource(
      "def map(key, value):\n"
      "    emit(key, bogus)\n"
      "def reduce(values):\n"
      "    emit(len(values))\n");
  Status status = DiagnosticsToStatus(result.diagnostics, "k.mpy");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("MPY101"), std::string::npos);
  EXPECT_NE(status.message().find("MPY302"), std::string::npos);
  EXPECT_NE(status.message().find("k.mpy:2:"), std::string::npos);
}

// ---- Mutated-frame corpus ----------------------------------------------
//
// Protocol: take a verified module, apply one mutation, and require that
// either (a) the verifier reports it, or (b) the frame is still
// well-formed — in which case loading and running it must not crash.
// Either way the process survives; a mutant is never stamped verified.

std::shared_ptr<CompiledModule> CompilePiKernel() {
  std::string source = ReadAll(fs::path(MRS_EXAMPLE_KERNELS_DIR) / "pi.mpy");
  minipy::CompileOptions options;
  options.host_functions = {"emit"};
  auto module = minipy::CompileSource(source, options);
  EXPECT_TRUE(module.ok()) << module.status().message();
  return *module;
}

// Deep copy (CompiledModule is plain data).
std::shared_ptr<CompiledModule> Clone(const CompiledModule& m) {
  return std::make_shared<CompiledModule>(m);
}

// Runs one mutant through the protocol; returns true if rejected.
bool RunMutant(std::shared_ptr<CompiledModule> mutant) {
  EXPECT_FALSE(mutant->verified);
  std::vector<minipy::VerifyIssue> issues =
      VerifyCompiledModule(*mutant, {"emit"});
  if (!issues.empty()) {
    for (const minipy::VerifyIssue& issue : issues) {
      EXPECT_EQ(issue.code.rfind("MBC5", 0), 0u) << issue.ToString();
    }
    return true;
  }
  // Verifier says well-formed: the mutation must be harmless to execute.
  minipy::Vm vm;
  vm.RegisterHost("emit",
                  [](std::vector<minipy::PyValue>&) {
                    return minipy::PyValue();
                  });
  Status loaded = vm.LoadModule(mutant);
  if (!loaded.ok()) return true;  // e.g. a mutated global table
  (void)vm.Call("map", {minipy::PyValue(int64_t{0}),
                        minipy::PyValue(int64_t{8})});
  return false;
}

TEST(BytecodeVerifier, MutatedFrameCorpusIsRejectedNotCrashed) {
  std::shared_ptr<CompiledModule> base = CompilePiKernel();
  ASSERT_NE(base, nullptr);
  base->verified = false;  // mutants start unverified

  int mutants = 0, rejected = 0;
  auto run = [&](std::shared_ptr<CompiledModule> m) {
    ++mutants;
    if (RunMutant(std::move(m))) ++rejected;
  };

  // Every function × every instruction × a battery of field corruptions.
  // functions_index == -1 addresses the top-level frame.
  int num_fns = static_cast<int>(base->functions.size());
  for (int f = -1; f < num_fns; ++f) {
    const CompiledFunction& fn =
        f < 0 ? base->top_level : base->functions[static_cast<size_t>(f)];
    for (size_t pc = 0; pc < fn.code.size(); ++pc) {
      struct FieldMutation {
        const char* what;
        void (*apply)(Instruction&);
      };
      static const FieldMutation kMutations[] = {
          {"bad opcode", [](Instruction& i) { i.op = static_cast<Op>(0xEE); }},
          {"huge a", [](Instruction& i) { i.a = 1 << 28; }},
          {"negative a", [](Instruction& i) { i.a = -7; }},
          {"huge b", [](Instruction& i) { i.b = 1 << 28; }},
          {"negative b", [](Instruction& i) { i.b = -3; }},
      };
      for (const FieldMutation& mutation : kMutations) {
        std::shared_ptr<CompiledModule> m = Clone(*base);
        CompiledFunction& target =
            f < 0 ? m->top_level : m->functions[static_cast<size_t>(f)];
        SCOPED_TRACE(std::string(mutation.what) + " in " + target.name +
                     " at pc " + std::to_string(pc));
        mutation.apply(target.code[pc]);
        run(std::move(m));
      }
    }
    // Structural mutations per function.
    for (int variant = 0; variant < 4; ++variant) {
      std::shared_ptr<CompiledModule> m = Clone(*base);
      CompiledFunction& target =
          f < 0 ? m->top_level : m->functions[static_cast<size_t>(f)];
      SCOPED_TRACE("structural variant " + std::to_string(variant) + " in " +
                   target.name);
      switch (variant) {
        case 0: target.num_params = -1; break;
        case 1: target.num_locals = -2; break;
        case 2: target.num_params = target.num_locals + 5; break;
        case 3:
          if (target.code.empty()) continue;
          target.code.pop_back();  // truncated frame
          break;
      }
      run(std::move(m));
    }
  }
  // Module-level corruption: constants and global tables emptied.
  {
    std::shared_ptr<CompiledModule> m = Clone(*base);
    for (CompiledFunction& fn : m->functions) fn.constants.clear();
    run(std::move(m));
  }
  {
    std::shared_ptr<CompiledModule> m = Clone(*base);
    m->global_names.clear();
    run(std::move(m));
  }

  EXPECT_GT(mutants, 100) << "corpus unexpectedly small";
  // Most corruptions must be caught statically; the rest hit unused
  // operand fields (e.g. `b` on a non-call op) and were proved harmless
  // by executing them above.  Reaching this line at all means no mutant
  // crashed the process.
  EXPECT_GT(rejected * 2, mutants)
      << rejected << "/" << mutants << " rejected";
}

TEST(BytecodeVerifier, EmptyFunctionIsRejectedByName) {
  std::shared_ptr<CompiledModule> m = CompilePiKernel();
  ASSERT_NE(m, nullptr);
  ASSERT_FALSE(m->functions.empty());
  m->verified = false;
  m->functions[0].code.clear();
  std::vector<minipy::VerifyIssue> issues = VerifyCompiledModule(*m, {"emit"});
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].code, "MBC508");
  EXPECT_EQ(issues[0].function, m->functions[0].name);
  m->top_level.code.clear();
  Status status = minipy::VerifyAndMark(*m, {"emit"});
  EXPECT_NE(status.message().find("MBC508"), std::string::npos);
  EXPECT_FALSE(m->verified);
}

TEST(BytecodeVerifier, UnverifiedModuleIsRefusedByTheVm) {
  std::shared_ptr<CompiledModule> m = CompilePiKernel();
  ASSERT_NE(m, nullptr);
  m->verified = false;
  // Stack underflow at entry: kReturn pops from an empty operand stack.
  ASSERT_FALSE(m->top_level.code.empty());
  m->top_level.code[0] = {Op::kReturn, 0, 0};
  minipy::Vm vm;
  vm.RegisterHost("emit", [](std::vector<minipy::PyValue>&) {
    return minipy::PyValue();
  });
  Status status = vm.LoadModule(m);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("MBC"), std::string::npos);
  EXPECT_FALSE(m->verified);
}

// ---- Submit-time rejection equivalence ---------------------------------
//
// The acceptance bar: a kernel with an undefined variable and a
// wrong-arity reduce is rejected at submit with the identical diagnostic
// on every runner, with zero tasks dispatched anywhere.

constexpr char kBadKernel[] =
    "def map(key, value):\n"
    "    emit(key, bogus)\n"
    "\n"
    "def reduce(values):\n"
    "    emit(len(values))\n";

class BadKernelHarness : public MiniPyProgram {
 public:
  BadKernelHarness() : MiniPyProgram(kBadKernel, "bad.mpy") {}

  Status Run(Job& job) override {
    std::vector<KeyValue> records;
    for (int i = 0; i < 8; ++i) {
      records.push_back({Value(int64_t{i}), Value(int64_t{i})});
    }
    DataSetPtr input = job.LocalData(std::move(records), /*num_splits=*/4);
    DataSetPtr mapped = job.MapData(input);
    DataSetPtr reduced = job.ReduceData(mapped);
    return job.Collect(reduced).status();
  }
};

const char* const kTaskCounters[] = {
    "mrs.serial.tasks",          "mrs.mock.tasks",
    "mrs.thread.tasks",          "mrs.master.tasks_assigned",
    "mrs.slave.tasks_executed",
};

TEST(SubmitRejection, IdenticalDiagnosticOnEveryRunnerZeroTasks) {
  const std::vector<std::string> impls = {"serial", "mockparallel", "thread",
                                          "masterslave"};
  std::map<std::string, std::string> message_by_impl;
  for (const std::string& impl : impls) {
    SCOPED_TRACE(impl);
    std::map<std::string, int64_t> before =
        obs::Registry::Instance().CounterValues();

    BadKernelHarness program;
    RunConfig config;
    config.impl = impl;
    config.num_slaves = 2;
    Status status = RunProgram(
        [] { return std::unique_ptr<MapReduce>(new BadKernelHarness()); },
        &program, config);

    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("MPY101"), std::string::npos);
    EXPECT_NE(status.message().find("MPY302"), std::string::npos);
    EXPECT_NE(status.message().find("bad.mpy:2:"), std::string::npos);
    message_by_impl[impl] = status.message();

    std::map<std::string, int64_t> after =
        obs::Registry::Instance().CounterValues();
    for (const char* counter : kTaskCounters) {
      EXPECT_EQ(after[counter], before[counter])
          << counter << " moved: tasks were dispatched for a rejected job";
    }
  }
  for (const std::string& impl : impls) {
    EXPECT_EQ(message_by_impl[impl], message_by_impl["serial"])
        << impl << " reports a different diagnostic than serial";
  }
}

// ---- Kernel execution (the accept path) --------------------------------

TEST(MiniPyProgram, PiKernelRunsAndMatchesDirectCount) {
  auto program_or = MiniPyProgram::FromFile(
      (fs::path(MRS_EXAMPLE_KERNELS_DIR) / "pi.mpy").string());
  ASSERT_TRUE(program_or.ok()) << program_or.status().message();
  MiniPyProgram& kernel = **program_or;
  ASSERT_TRUE(kernel.analysis().ok());

  struct Harness : MapReduce {
    MiniPyProgram* kernel;
    std::vector<KeyValue> result;
    void Map(const Value& key, const Value& value,
             const Emitter& emit) override {
      kernel->Map(key, value, emit);
    }
    void Reduce(const Value& key, const ValueList& values,
                const ValueEmitter& emit) override {
      kernel->Reduce(key, values, emit);
    }
    Status Run(Job& job) override {
      std::vector<KeyValue> tasks;
      for (int t = 0; t < 4; ++t) {
        // (task_index, [start, count]) — the pi kernel's input contract.
        tasks.push_back({Value(int64_t{t}),
                         Value(ValueList{Value(int64_t{t * 500}),
                                         Value(int64_t{500})})});
      }
      DataSetPtr input = job.LocalData(std::move(tasks), /*num_splits=*/4);
      DataSetPtr reduced = job.ReduceData(job.MapData(input));
      MRS_ASSIGN_OR_RETURN(result, job.Collect(reduced));
      return Status::Ok();
    }
  };

  Harness harness;
  harness.kernel = &kernel;
  RunConfig config;
  config.impl = "thread";
  config.num_workers = 4;
  Status status = RunProgram(
      [] { return std::unique_ptr<MapReduce>(new MapReduce()); }, &harness,
      config);
  ASSERT_EQ(status, Status::Ok());

  int64_t inside = 0, total = 0;
  for (const KeyValue& kv : harness.result) {
    if (kv.key.AsString() == "inside") inside += kv.value.AsInt();
    if (kv.key.AsString() == "total") total += kv.value.AsInt();
  }
  EXPECT_EQ(total, 4 * 500);
  // ~pi/4 of Halton points land inside the unit quarter circle.
  double ratio = static_cast<double>(inside) / static_cast<double>(total);
  EXPECT_GT(ratio, 0.70);
  EXPECT_LT(ratio, 0.87);
}

TEST(MiniPyProgram, KernelCombineIsUsedWhenDefined) {
  auto program_or = MiniPyProgram::FromFile(
      (fs::path(MRS_EXAMPLE_KERNELS_DIR) / "histogram.mpy").string());
  ASSERT_TRUE(program_or.ok()) << program_or.status().message();
  EXPECT_TRUE((*program_or)->HasKernelCombine());

  auto pi_or = MiniPyProgram::FromFile(
      (fs::path(MRS_EXAMPLE_KERNELS_DIR) / "pi.mpy").string());
  ASSERT_TRUE(pi_or.ok());
  EXPECT_FALSE((*pi_or)->HasKernelCombine());
}

TEST(MiniPyProgram, AnalysisMetricsAreCounted) {
  std::map<std::string, int64_t> before =
      obs::Registry::Instance().CounterValues();
  AnalysisResult bad = AnalyzeKernelSource("def map(key, value):\n    x\n");
  EXPECT_FALSE(bad.ok());
  AnalysisResult good = AnalyzeKernelSource(
      "def map(key, value):\n"
      "    emit(key, value)\n"
      "def reduce(key, values):\n"
      "    emit(len(values))\n");
  EXPECT_TRUE(good.ok());
  std::map<std::string, int64_t> after =
      obs::Registry::Instance().CounterValues();
  EXPECT_EQ(after["mrs.analysis.runs"] - before["mrs.analysis.runs"], 2);
  EXPECT_EQ(after["mrs.analysis.rejects"] - before["mrs.analysis.rejects"], 1);
  EXPECT_GE(after["mrs.analysis.errors"] - before["mrs.analysis.errors"], 1);
}

}  // namespace
}  // namespace analysis
}  // namespace mrs
