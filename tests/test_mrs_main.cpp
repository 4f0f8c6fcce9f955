// Tests for the mrs::Main entry point: option dispatch, implementation
// selection, error paths, and the PiEstimator program's cross-
// implementation equivalence (including Bypass).
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "fs/file_io.h"
#include "halton/pi_program.h"
#include "rt/mrs_main.h"
#include "ser/record.h"

namespace mrs {
namespace {

class Recorder : public MapReduce {
 public:
  static inline std::string last_impl_run;
  static inline int64_t last_seed = -1;

  Status Run(Job& job) override {
    last_impl_run = job.runner().name();
    last_seed = static_cast<int64_t>(seed());
    return Status::Ok();
  }
  Status Bypass() override {
    last_impl_run = "bypass";
    return Status::Ok();
  }
};

int RunWithArgs(std::vector<std::string> args) {
  std::vector<const char*> argv = {"recorder"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return RunMain([] { return std::unique_ptr<MapReduce>(new Recorder()); },
                 static_cast<int>(argv.size()), argv.data());
}

TEST(MrsMain, DefaultIsSerial) {
  EXPECT_EQ(RunWithArgs({}), 0);
  EXPECT_EQ(Recorder::last_impl_run, "serial");
}

TEST(MrsMain, SelectsImplementations) {
  EXPECT_EQ(RunWithArgs({"-I", "mockparallel"}), 0);
  EXPECT_EQ(Recorder::last_impl_run, "mockparallel");
  EXPECT_EQ(RunWithArgs({"-I", "bypass"}), 0);
  EXPECT_EQ(Recorder::last_impl_run, "bypass");
  EXPECT_EQ(RunWithArgs({"-I", "masterslave", "-N", "1"}), 0);
  EXPECT_EQ(Recorder::last_impl_run, "masterslave");
}

TEST(MrsMain, SeedOptionReachesProgram) {
  EXPECT_EQ(RunWithArgs({"--mrs-seed", "777"}), 0);
  EXPECT_EQ(Recorder::last_seed, 777);
}

TEST(MrsMain, UnknownImplementationFails) {
  EXPECT_NE(RunWithArgs({"-I", "quantum"}), 0);
}

TEST(MrsMain, UnknownOptionFails) {
  EXPECT_NE(RunWithArgs({"--frobnicate"}), 0);
}

TEST(MrsMain, SlaveWithoutMasterFails) {
  EXPECT_NE(RunWithArgs({"-I", "slave"}), 0);
}

TEST(MrsMain, HelpExitsCleanly) {
  EXPECT_EQ(RunWithArgs({"--help"}), 0);
}

// Records the split count a reduce gets when it asks for the default.
class SplitCounter : public MapReduce {
 public:
  int reduce_splits = 0;

  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    emit(key, value);
  }
  Status Run(Job& job) override {
    DataSetPtr input = job.LocalData(LinesToRecords("a\nb\nc\nd\n"));
    DataSetPtr reduced = job.ReduceData(job.MapData(input));
    reduce_splits = reduced->num_splits();
    return job.Collect(reduced).status();
  }
};

TEST(MrsMain, RunProgramTakesParallelismFromItsConfig) {
  for (const char* impl :
       {"serial", "mockparallel", "thread", "masterslave"}) {
    SplitCounter program;
    ASSERT_TRUE(program.Init(Options()).ok());
    RunConfig config;
    config.impl = impl;
    config.num_slaves = 3;
    config.tasks_per_slave = 1;
    Status status = RunProgram(
        [] { return std::unique_ptr<MapReduce>(new SplitCounter()); },
        &program, config);
    ASSERT_TRUE(status.ok()) << impl << ": " << status.ToString();
    EXPECT_EQ(program.reduce_splits, 3) << impl;
  }
}

// ---- PiEstimator equivalence (per engine, per implementation) ----------

struct PiCase {
  const char* impl;
  PiEngine engine;
};

// The implementation is a std::string, not a const char*: inside a tuple
// gtest prints a char pointer with its address, and ctest names each case
// after that printout, so the name would change from run to run.
class PiEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, PiEngine>> {};

TEST_P(PiEquivalence, MatchesBypassExactly) {
  const auto& [impl, engine] = GetParam();
  const int64_t samples = 20000;

  PiEstimatorProgram reference;
  reference.samples = samples;
  reference.tasks = 5;
  reference.engine = engine;
  ASSERT_TRUE(reference.Init(Options()).ok());
  ASSERT_TRUE(reference.Bypass().ok());

  PiEstimatorProgram program;
  program.samples = samples;
  program.tasks = 5;
  program.engine = engine;
  ASSERT_TRUE(program.Init(Options()).ok());
  RunConfig config;
  config.impl = impl;
  config.num_slaves = 2;
  Status status = RunProgram(
      [&]() -> std::unique_ptr<MapReduce> {
        auto p = std::make_unique<PiEstimatorProgram>();
        p->samples = samples;
        p->tasks = 5;
        p->engine = engine;
        return p;
      },
      &program, config);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(program.inside, reference.inside);
  EXPECT_DOUBLE_EQ(program.estimate, reference.estimate);
  EXPECT_NEAR(program.estimate, 3.14159, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    ImplsAndEngines, PiEquivalence,
    ::testing::Combine(::testing::Values(std::string("serial"),
                                         std::string("mockparallel"),
                                         std::string("masterslave")),
                       ::testing::Values(PiEngine::kNative, PiEngine::kVm)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, PiEngine>>&
           info) {
      return std::get<0>(info.param) + "_" +
             std::string(PiEngineName(std::get<1>(info.param)));
    });

}  // namespace
}  // namespace mrs
