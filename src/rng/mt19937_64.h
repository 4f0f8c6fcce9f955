// MT19937-64 implemented from scratch (Matsumoto & Nishimura / Nishimura's
// 64-bit variant), including the reference array-seeding routine
// `init_by_array64`.
//
// Mrs exposes a `random(a, b, c, ...)` method that derives an *independent*
// generator from a tuple of integers (paper §IV-A): because the Mersenne
// Twister's internal state is 312×64 bits, around 300 distinct 64-bit
// arguments can be absorbed losslessly by array seeding, which is exactly
// the mechanism reproduced here (see rng/streams.h).
//
// Draws come a block at a time: `Refill` advances all 312 state words and
// tempers them into `out_` in one pass, so a draw is one load.  The words
// drawn are the reference generator's, in its order.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace mrs {

class MT19937_64 {
 public:
  static constexpr int kStateSize = 312;           // NN
  static constexpr uint64_t kDefaultSeed = 5489ull;

  /// Seed with a single 64-bit value (reference init_genrand64).
  explicit MT19937_64(uint64_t seed = kDefaultSeed) { SeedScalar(seed); }

  /// Seed with an array of 64-bit keys (reference init_by_array64).  Tuples
  /// that differ in any element, or in length, produce different states.
  explicit MT19937_64(std::span<const uint64_t> keys) { SeedByArray(keys); }

  void SeedScalar(uint64_t seed);
  void SeedByArray(std::span<const uint64_t> keys);

  /// Next uniform 64-bit integer.
  uint64_t NextU64() {
    if (pos_ >= kStateSize) Refill();
    return out_[pos_++];
  }

  /// Uniform double in [0, 1) with 53-bit resolution (genrand64_real2).
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0); }

  /// Uniform integer in [0, bound) via rejection sampling (unbiased).
  /// Inline, so a constant bound folds the threshold and the modulo.
  uint64_t NextBounded(uint64_t bound) {
    if (bound <= 1) return 0;
    // Rejection sampling over the top `bound`-aligned range.
    const uint64_t threshold = (~bound + 1) % bound;  // = 2^64 mod bound
    while (true) {
      const uint64_t r = NextU64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  /// Standard normal via Box-Muller (caches the second variate).
  double NextGaussian();

  // UniformRandomBitGenerator interface, so std::shuffle etc. work.
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return NextU64(); }

  /// Expose raw state for equality checks in tests.
  const std::array<uint64_t, kStateSize>& state() const { return mt_; }

 private:
  /// Advances all kStateSize state words by the recurrence and tempers
  /// each new word into `out_`.
  void Refill();

  std::array<uint64_t, kStateSize> mt_{};   // untempered state
  std::array<uint64_t, kStateSize> out_{};  // tempered draws of the block
  int pos_ = kStateSize;                    // next draw; kStateSize = used up
  bool has_gauss_ = false;
  double gauss_ = 0.0;
};

}  // namespace mrs
