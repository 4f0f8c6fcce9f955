// Hashing used by the default MapReduce partitioner, the independent
// random-stream derivation and payload checksums.  FNV-1a for short keys;
// XXH64 for bulk payloads; SplitMix64 as a cheap integer mixer; a 64-bit
// Murmur-style finalizer for combining streams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mrs {

inline constexpr uint64_t kFnv1a64Basis = 0xcbf29ce484222325ull;

/// FNV-1a 64-bit over arbitrary bytes.  This is the default partitioner
/// hash: deterministic across runs (unlike std::hash), so task partitioning
/// is reproducible — a requirement for the serial/mock/parallel equivalence
/// invariant.  Passing a previous result as `h` continues the hash over a
/// longer input fed in pieces.
constexpr uint64_t Fnv1a64(std::string_view data, uint64_t h = kFnv1a64Basis) {
  for (char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// XXH64 (the 64-bit xxHash) with seed 0, fed incrementally: any split of
/// the input into Update calls gives the same Digest as one call over all
/// of it.  It consumes 32 bytes per step in four independent lanes,
/// several times the speed of byte-at-a-time FNV-1a, which is why bulk
/// payload checksums use it.  Not the partitioner hash: that stays
/// Fnv1a64, so partitioning and output never depend on this.
class Xxh64 {
 public:
  Xxh64();

  void Update(std::string_view data);

  /// Hash of everything fed so far; further Updates may follow.
  uint64_t Digest() const;

 private:
  static constexpr size_t kStripe = 32;

  uint64_t lanes_[4];
  uint64_t total_ = 0;
  unsigned char pending_[kStripe] = {};  // a partial stripe awaiting bytes
  size_t pending_size_ = 0;
};

/// One-shot XXH64 (seed 0).
inline uint64_t Xxh64Hash(std::string_view data) {
  Xxh64 h;
  h.Update(data);
  return h.Digest();
}

/// SplitMix64: bijective 64-bit mixer; good avalanche, one multiply chain.
constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Murmur3 fmix64 finalizer.
constexpr uint64_t Fmix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

/// Order-dependent combiner (boost-style but 64-bit).
constexpr uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return seed ^ (Fmix64(v) + 0x9e3779b97f4a7c15ull + (seed << 12) + (seed >> 4));
}

}  // namespace mrs
