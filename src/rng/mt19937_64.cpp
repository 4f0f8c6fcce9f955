#include "rng/mt19937_64.h"

#include <cmath>

namespace mrs {

namespace {
constexpr int kNN = MT19937_64::kStateSize;
constexpr int kMM = 156;
constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
constexpr uint64_t kUpperMask = 0xFFFFFFFF80000000ull;  // most significant 33 bits
constexpr uint64_t kLowerMask = 0x7FFFFFFFull;          // least significant 31 bits

uint64_t Temper(uint64_t x) {
  x ^= (x >> 29) & 0x5555555555555555ull;
  x ^= (x << 17) & 0x71D67FFFEDA60000ull;
  x ^= (x << 37) & 0xFFF7EEE000000000ull;
  return x ^ (x >> 43);
}

/// One step of the recurrence: the new word from words i, i+1 and i+MM.
/// `-(x & 1)` is all ones for odd x, so the mask picks kMatrixA unbranched.
uint64_t Twist(uint64_t upper, uint64_t lower, uint64_t far) {
  const uint64_t x = (upper & kUpperMask) | (lower & kLowerMask);
  return far ^ (x >> 1) ^ (-(x & 1) & kMatrixA);
}

}  // namespace

void MT19937_64::SeedScalar(uint64_t seed) {
  mt_[0] = seed;
  for (int i = 1; i < kNN; ++i) {
    mt_[i] = 6364136223846793005ull * (mt_[i - 1] ^ (mt_[i - 1] >> 62)) +
             static_cast<uint64_t>(i);
  }
  pos_ = kNN;
  has_gauss_ = false;
}

void MT19937_64::SeedByArray(std::span<const uint64_t> keys) {
  SeedScalar(19650218ull);
  size_t i = 1, j = 0;
  size_t k = (static_cast<size_t>(kNN) > keys.size()) ? static_cast<size_t>(kNN)
                                                      : keys.size();
  for (; k != 0; --k) {
    mt_[i] = (mt_[i] ^ ((mt_[i - 1] ^ (mt_[i - 1] >> 62)) * 3935559000370003845ull)) +
             (keys.empty() ? 0 : keys[j]) + static_cast<uint64_t>(j);
    ++i;
    ++j;
    if (i >= static_cast<size_t>(kNN)) {
      mt_[0] = mt_[kNN - 1];
      i = 1;
    }
    if (j >= keys.size()) j = 0;
    if (keys.empty()) j = 0;
  }
  for (k = kNN - 1; k != 0; --k) {
    mt_[i] = (mt_[i] ^ ((mt_[i - 1] ^ (mt_[i - 1] >> 62)) * 2862933555777941757ull)) -
             static_cast<uint64_t>(i);
    ++i;
    if (i >= static_cast<size_t>(kNN)) {
      mt_[0] = mt_[kNN - 1];
      i = 1;
    }
  }
  mt_[0] = 1ull << 63;  // MSB is 1, assuring a non-zero initial array
  pos_ = kNN;
  has_gauss_ = false;
}

void MT19937_64::Refill() {
  // Three ranges, as in the reference mt19937-64.c, so no index wraps: the
  // word MM ahead is still old below NN-MM and already new above it, and
  // the last word pairs with the new word 0.
  int i = 0;
  for (; i < kNN - kMM; ++i) mt_[i] = Twist(mt_[i], mt_[i + 1], mt_[i + kMM]);
  for (; i < kNN - 1; ++i) {
    mt_[i] = Twist(mt_[i], mt_[i + 1], mt_[i + kMM - kNN]);
  }
  mt_[kNN - 1] = Twist(mt_[kNN - 1], mt_[0], mt_[kMM - 1]);
  for (i = 0; i < kNN; ++i) out_[i] = Temper(mt_[i]);
  pos_ = 0;
}

double MT19937_64::NextGaussian() {
  if (has_gauss_) {
    has_gauss_ = false;
    return gauss_;
  }
  // Box-Muller with rejection of u1 == 0.
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

}  // namespace mrs
