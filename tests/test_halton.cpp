// Tests for Halton sequences and the π kernels across all three
// "language" engines (native / VM / tree-walk).
#include <gtest/gtest.h>

#include <cmath>

#include "halton/halton.h"
#include "halton/pi_kernel.h"
#include "halton/pi_program.h"
#include "rt/mrs_main.h"

namespace mrs {
namespace {

TEST(Halton, RadicalInverseBase2KnownValues) {
  // Base 2 sequence: 0, 1/2, 1/4, 3/4, 1/8, 5/8, ...
  EXPECT_DOUBLE_EQ(HaltonSequence::RadicalInverse(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(HaltonSequence::RadicalInverse(2, 1), 0.5);
  EXPECT_DOUBLE_EQ(HaltonSequence::RadicalInverse(2, 2), 0.25);
  EXPECT_DOUBLE_EQ(HaltonSequence::RadicalInverse(2, 3), 0.75);
  EXPECT_DOUBLE_EQ(HaltonSequence::RadicalInverse(2, 4), 0.125);
}

TEST(Halton, RadicalInverseBase3KnownValues) {
  // Base 3: 0, 1/3, 2/3, 1/9, 4/9, 7/9, ...
  EXPECT_DOUBLE_EQ(HaltonSequence::RadicalInverse(3, 1), 1.0 / 3);
  EXPECT_DOUBLE_EQ(HaltonSequence::RadicalInverse(3, 2), 2.0 / 3);
  EXPECT_DOUBLE_EQ(HaltonSequence::RadicalInverse(3, 3), 1.0 / 9);
  EXPECT_DOUBLE_EQ(HaltonSequence::RadicalInverse(3, 5), 7.0 / 9);
}

class HaltonIncrementalProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(HaltonIncrementalProperty, MatchesDirectComputation) {
  uint32_t base = GetParam();
  HaltonSequence seq(base);
  for (uint64_t i = 1; i <= 5000; ++i) {
    double incremental = seq.Next();
    double direct = HaltonSequence::RadicalInverse(base, i);
    ASSERT_NEAR(incremental, direct, 1e-12)
        << "base=" << base << " index=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Bases, HaltonIncrementalProperty,
                         ::testing::Values(2u, 3u, 5u, 7u));

TEST(Halton, StartIndexSeeking) {
  HaltonSequence from_start(2, 0);
  for (int i = 0; i < 100; ++i) from_start.Next();
  HaltonSequence seeked(2, 100);
  EXPECT_DOUBLE_EQ(from_start.value(), seeked.value());
  EXPECT_DOUBLE_EQ(from_start.Next(), seeked.Next());
}

TEST(Halton, ValuesStayInUnitInterval) {
  HaltonSequence seq(3);
  for (int i = 0; i < 10000; ++i) {
    double v = seq.Next();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Halton, LowDiscrepancyBeatsGridExpectation) {
  // In any prefix, the count of points below 0.5 should be very close to
  // half — much closer than random sampling would guarantee.
  HaltonSequence seq(2);
  int below = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (seq.Next() < 0.5) ++below;
  }
  EXPECT_NEAR(below, n / 2, 2);
}

TEST(Pi, NativeEstimateConverges) {
  uint64_t inside = CountInsideNative(0, 100000);
  double pi = EstimatePi(inside, 100000);
  EXPECT_NEAR(pi, M_PI, 0.01);
}

TEST(Pi, EstimateHandlesZeroSamples) {
  EXPECT_DOUBLE_EQ(EstimatePi(0, 0), 0.0);
}

TEST(Pi, CountIsAdditiveOverRanges) {
  // Splitting the sample range across tasks must not change the total —
  // this is what makes the MapReduce decomposition correct.
  uint64_t whole = CountInsideNative(0, 20000);
  uint64_t parts = CountInsideNative(0, 5000) + CountInsideNative(5000, 5000) +
                   CountInsideNative(10000, 10000);
  EXPECT_EQ(whole, parts);
}

class PiEngines : public ::testing::TestWithParam<PiEngine> {};

TEST_P(PiEngines, KernelCountsMatchNativeClosely) {
  auto kernel = PiKernel::Create(GetParam());
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  const uint64_t count = 3000;
  auto counted = (*kernel)->CountInside(0, count);
  ASSERT_TRUE(counted.ok()) << counted.status().ToString();
  uint64_t native = CountInsideNative(0, count);
  // Engines may differ by floating-point hair on boundary points only.
  EXPECT_NEAR(static_cast<double>(*counted), static_cast<double>(native), 2.0);
}

TEST_P(PiEngines, RangeSplitAdditivity) {
  auto kernel = PiKernel::Create(GetParam());
  ASSERT_TRUE(kernel.ok());
  auto whole = (*kernel)->CountInside(0, 2000);
  auto a = (*kernel)->CountInside(0, 1000);
  auto b = (*kernel)->CountInside(1000, 1000);
  ASSERT_TRUE(whole.ok() && a.ok() && b.ok());
  EXPECT_EQ(*whole, *a + *b);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, PiEngines,
                         ::testing::Values(PiEngine::kNative, PiEngine::kVm,
                                           PiEngine::kTreeWalk),
                         [](const ::testing::TestParamInfo<PiEngine>& info) {
                           return std::string(PiEngineName(info.param));
                         });

TEST(PiEngines, VmAndTreeWalkAgreeExactly) {
  // Both MiniPy engines run the identical source, so they must agree to
  // the bit, not just approximately.
  auto vm = PiKernel::Create(PiEngine::kVm);
  auto tw = PiKernel::Create(PiEngine::kTreeWalk);
  ASSERT_TRUE(vm.ok() && tw.ok());
  EXPECT_EQ((*vm)->CountInside(123, 4000).value(),
            (*tw)->CountInside(123, 4000).value());
}

TEST(PiEngines, ParseNames) {
  EXPECT_EQ(ParsePiEngine("native").value(), PiEngine::kNative);
  EXPECT_EQ(ParsePiEngine("c").value(), PiEngine::kNative);
  EXPECT_EQ(ParsePiEngine("pypy").value(), PiEngine::kVm);
  EXPECT_EQ(ParsePiEngine("python").value(), PiEngine::kTreeWalk);
  EXPECT_FALSE(ParsePiEngine("fortran").ok());
}

std::unique_ptr<MapReduce> TreeWalkPiProgram() {
  auto p = std::make_unique<PiEstimatorProgram>();
  p->samples = 8000;
  p->tasks = 8;
  p->engine = PiEngine::kTreeWalk;
  return p;
}

TEST(PiEstimatorProgram, TreeWalkOnThreadRunnerMatchesBypass) {
  // Worker threads cache one kernel per engine, and the tree-walk engine
  // is the last slot of that cache.
  std::unique_ptr<MapReduce> bypass = TreeWalkPiProgram();
  ASSERT_TRUE(bypass->Bypass().ok());
  std::unique_ptr<MapReduce> program = TreeWalkPiProgram();
  ASSERT_TRUE(program->Init(Options()).ok());
  RunConfig config;
  config.impl = "thread";
  config.num_workers = 4;
  ASSERT_TRUE(RunProgram(TreeWalkPiProgram, program.get(), config).ok());
  auto& want = static_cast<PiEstimatorProgram&>(*bypass);
  auto& got = static_cast<PiEstimatorProgram&>(*program);
  EXPECT_GT(want.inside, 0);
  EXPECT_EQ(got.inside, want.inside);
  EXPECT_EQ(got.estimate, want.estimate);
}

}  // namespace
}  // namespace mrs
