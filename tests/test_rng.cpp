// Tests for the from-scratch MT19937-64 and the Mrs independent-stream
// API, including the published reference vectors.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "rng/mt19937_64.h"
#include "rng/streams.h"

namespace mrs {
namespace {

TEST(MT19937_64, ReferenceVectorsInitByArray) {
  // From Nishimura & Matsumoto's mt19937-64.out.txt: init_by_array64 with
  // {0x12345, 0x23456, 0x34567, 0x45678}; first ten outputs.
  const uint64_t keys[] = {0x12345ull, 0x23456ull, 0x34567ull, 0x45678ull};
  MT19937_64 rng{std::span<const uint64_t>(keys, 4)};
  const uint64_t expected[10] = {
      7266447313870364031ull,  4946485549665804864ull,
      16945909448695747420ull, 16394063075524226720ull,
      4873882236456199058ull,  14877448043947020171ull,
      6740343660852211943ull,  13857871200353263164ull,
      5249110015610582907ull,  10205081126064480383ull,
  };
  for (uint64_t e : expected) {
    EXPECT_EQ(rng.NextU64(), e);
  }
}

TEST(MT19937_64, ScalarSeedDeterministic) {
  MT19937_64 a(12345);
  MT19937_64 b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(MT19937_64, DifferentSeedsDiverge) {
  MT19937_64 a(1);
  MT19937_64 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(MT19937_64, NextDoubleInHalfOpenUnitInterval) {
  MT19937_64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(MT19937_64, NextDoubleMeanNearHalf) {
  MT19937_64 rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(MT19937_64, NextBoundedUnbiasedRange) {
  MT19937_64 rng(3);
  int histogram[7] = {0};
  const int n = 70000;
  for (int i = 0; i < n; ++i) {
    uint64_t v = rng.NextBounded(7);
    ASSERT_LT(v, 7u);
    ++histogram[v];
  }
  for (int count : histogram) {
    EXPECT_NEAR(count, n / 7, n / 70);  // within 10%
  }
}

TEST(MT19937_64, NextBoundedEdgeCases) {
  MT19937_64 rng(3);
  EXPECT_EQ(rng.NextBounded(0), 0u);
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(MT19937_64, NextBoundedReferenceDraws) {
  // The first eight draws from seed 5489 for each bound, captured from
  // the generator as it stands, so a rewrite that changes any draw shows.
  // Bound 62 is DistSort's alphabet; at 2^63 + 1 nearly half of the raw
  // outputs fall below the rejection threshold.
  struct Case {
    uint64_t bound;
    uint64_t draws[8];
  };
  const Case cases[] = {
      {62, {50, 36, 16, 6, 44, 56, 7, 18}},
      {7, {1, 1, 1, 1, 6, 4, 5, 4}},
      {(uint64_t{1} << 40) + 1,
       {124389245325ull, 857039433634ull, 784555993452ull, 194561620672ull,
        776144646618ull, 816319154988ull, 347471538628ull, 537383146251ull}},
      {(uint64_t{1} << 63) + 1,
       {5290912749423341221ull, 3886198244663121911ull,
        8239566610293658513ull, 380798952397740747ull,
        1125843532234925598ull, 809001653344390858ull,
        404273494887510059ull, 6586913264234311823ull}},
  };
  for (const Case& c : cases) {
    MT19937_64 rng(5489);
    for (uint64_t expected : c.draws) {
      EXPECT_EQ(rng.NextBounded(c.bound), expected) << "bound " << c.bound;
    }
  }
}

// ---- Block refill against the scalar reference -------------------------

/// The generator as the reference mt19937-64.c draws it: one `%`-indexed
/// twist over the whole state when it is used up, and tempering per draw.
/// It starts from a freshly seeded generator's state, so it checks the
/// draw path only; `ReferenceVectorsInitByArray` pins the seeding.
class ScalarReference {
 public:
  explicit ScalarReference(const MT19937_64& seeded) : mt_(seeded.state()) {}

  uint64_t NextU64() {
    if (mti_ >= kNN) Twist();
    uint64_t x = mt_[mti_++];
    x ^= (x >> 29) & 0x5555555555555555ull;
    x ^= (x << 17) & 0x71D67FFFEDA60000ull;
    x ^= (x << 37) & 0xFFF7EEE000000000ull;
    x ^= x >> 43;
    return x;
  }

  const std::array<uint64_t, MT19937_64::kStateSize>& state() const {
    return mt_;
  }

  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0);
  }

  uint64_t NextBounded(uint64_t bound) {
    if (bound <= 1) return 0;
    uint64_t threshold = (~bound + 1) % bound;
    while (true) {
      uint64_t r = NextU64();
      if (r >= threshold) return r % bound;
    }
  }

  double NextGaussian() {
    if (has_gauss_) {
      has_gauss_ = false;
      return gauss_;
    }
    double u1 = 0.0;
    do {
      u1 = NextDouble();
    } while (u1 <= 0.0);
    double u2 = NextDouble();
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    gauss_ = r * std::sin(theta);
    has_gauss_ = true;
    return r * std::cos(theta);
  }

 private:
  static constexpr int kNN = MT19937_64::kStateSize;

  void Twist() {
    for (int i = 0; i < kNN; ++i) {
      uint64_t x = (mt_[i] & 0xFFFFFFFF80000000ull) |
                   (mt_[(i + 1) % kNN] & 0x7FFFFFFFull);
      mt_[i] = mt_[(i + 156) % kNN] ^ (x >> 1) ^
               ((x & 1) ? 0xB5026F5AA96619E9ull : 0ull);
    }
    mti_ = 0;
  }

  std::array<uint64_t, kNN> mt_;
  int mti_ = kNN;
  bool has_gauss_ = false;
  double gauss_ = 0.0;
};

/// Three scalar seeds and two key sets, one of them longer than the state.
std::vector<MT19937_64> SeededGenerators() {
  std::vector<MT19937_64> out = {MT19937_64(5489), MT19937_64(0),
                                 MT19937_64(~0ull)};
  const uint64_t keys[] = {0x12345ull, 0x23456ull, 0x34567ull, 0x45678ull};
  out.emplace_back(std::span<const uint64_t>(keys, 4));
  std::vector<uint64_t> long_keys(400);
  for (size_t i = 0; i < long_keys.size(); ++i) {
    long_keys[i] = i * 0x9E3779B97F4A7C15ull;
  }
  out.emplace_back(std::span<const uint64_t>(long_keys));
  return out;
}

// Enough draws to cross four refills and land five words into a fifth.
constexpr int kBlockDraws = 4 * MT19937_64::kStateSize + 5;

TEST(MT19937_64, BlockRefillMatchesScalarReference) {
  for (MT19937_64& rng : SeededGenerators()) {
    ScalarReference ref(rng);
    for (int i = 0; i < kBlockDraws; ++i) {
      ASSERT_EQ(rng.NextU64(), ref.NextU64()) << "draw " << i;
    }
    EXPECT_EQ(rng.state(), ref.state());  // the untempered state too
  }
}

TEST(MT19937_64, DoubleAndGaussianMatchScalarReference) {
  for (MT19937_64& rng : SeededGenerators()) {
    MT19937_64 copy = rng;
    ScalarReference ref(rng);
    ScalarReference ref_copy(rng);
    for (int i = 0; i < kBlockDraws; ++i) {
      ASSERT_EQ(rng.NextDouble(), ref.NextDouble()) << "draw " << i;
      ASSERT_EQ(copy.NextGaussian(), ref_copy.NextGaussian()) << "draw " << i;
    }
  }
}

template <uint64_t kBound>
uint64_t ConstantBoundDraw(MT19937_64& rng) {
  return rng.NextBounded(kBound);
}

template <uint64_t kBound>
void ExpectRuntimeBoundMatchesConstant() {
  SCOPED_TRACE(kBound);
  volatile uint64_t hidden = kBound;  // a bound the compiler cannot see
  for (MT19937_64& constant : SeededGenerators()) {
    MT19937_64 runtime = constant;
    ScalarReference ref(constant);
    for (int i = 0; i < kBlockDraws; ++i) {
      const uint64_t expected = ref.NextBounded(kBound);
      ASSERT_EQ(ConstantBoundDraw<kBound>(constant), expected) << "draw " << i;
      ASSERT_EQ(runtime.NextBounded(hidden), expected) << "draw " << i;
    }
  }
}

TEST(MT19937_64, NextBoundedRuntimeBoundMatchesConstantBound) {
  ExpectRuntimeBoundMatchesConstant<2>();
  ExpectRuntimeBoundMatchesConstant<7>();
  ExpectRuntimeBoundMatchesConstant<62>();
  ExpectRuntimeBoundMatchesConstant<(uint64_t{1} << 32) + 1>();
  ExpectRuntimeBoundMatchesConstant<(uint64_t{1} << 63) + 1>();
  ExpectRuntimeBoundMatchesConstant<~uint64_t{0}>();
}

TEST(MT19937_64, CopyMidBlockContinuesIdentically) {
  MT19937_64 rng(5489);
  for (int i = 0; i < MT19937_64::kStateSize / 2 + 3; ++i) rng.NextU64();
  rng.NextGaussian();  // leaves the second variate cached in the copy
  MT19937_64 copy = rng;
  EXPECT_EQ(copy.NextGaussian(), rng.NextGaussian());
  for (int i = 0; i < kBlockDraws; ++i) {
    ASSERT_EQ(copy.NextU64(), rng.NextU64()) << "draw " << i;
  }
}

TEST(MT19937_64, GaussianMomentsRoughlyStandard) {
  MT19937_64 rng(17);
  const int n = 200000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(MT19937_64, WorksWithStdShuffleInterface) {
  static_assert(MT19937_64::min() == 0);
  static_assert(MT19937_64::max() == ~0ull);
  MT19937_64 rng(5);
  EXPECT_NE(rng(), rng());
}

// ---- RandomStreams (the Mrs random(...) API) ---------------------------

TEST(RandomStreams, SameArgsSameStream) {
  RandomStreams streams(42);
  MT19937_64 a = streams(1, 2, 3);
  MT19937_64 b = streams(1, 2, 3);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RandomStreams, DifferentArgsIndependentStreams) {
  RandomStreams streams(42);
  MT19937_64 a = streams(1, 2, 3);
  MT19937_64 b = streams(1, 2, 4);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(RandomStreams, TupleLengthMatters) {
  // (1) and (1, 0) must be distinct streams.
  RandomStreams streams(42);
  MT19937_64 a = streams(uint64_t{1});
  MT19937_64 b = streams(uint64_t{1}, uint64_t{0});
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(RandomStreams, ProgramSeedMatters) {
  RandomStreams s1(1);
  RandomStreams s2(2);
  EXPECT_NE(s1(7, 7).NextU64(), s2(7, 7).NextU64());
}

TEST(RandomStreams, EmptyTupleWorks) {
  RandomStreams streams(42);
  MT19937_64 a = streams();
  MT19937_64 b = streams();
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RandomStreams, ManyArgumentsSupported) {
  // The paper: "the random method can accept around 300 arguments".
  RandomStreams streams(42);
  std::vector<uint64_t> args(300);
  for (size_t i = 0; i < args.size(); ++i) args[i] = i * 1234567ull;
  MT19937_64 a = streams.Get(args);
  args[299] += 1;
  MT19937_64 b = streams.Get(args);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(RandomStreams, StreamsPairwiseDistinctOverGrid) {
  RandomStreams streams(42);
  std::set<uint64_t> firsts;
  for (uint64_t op = 0; op < 8; ++op) {
    for (uint64_t task = 0; task < 32; ++task) {
      firsts.insert(streams(op, task).NextU64());
    }
  }
  EXPECT_EQ(firsts.size(), 8u * 32u);
}

}  // namespace
}  // namespace mrs
