// XXH64 with seed 0, written from the public xxHash specification ("XXH64
// algorithm description").  All arithmetic is on uint64_t, so overflow
// wraps as the specification requires.
#include "common/hash.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace mrs {

namespace {

constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kPrime3 = 0x165667b19e3779f9ull;
constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;
constexpr uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

// Little-endian loads through memcpy: no alignment or aliasing assumption.
uint64_t Load64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

uint32_t Load32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  return std::rotl(acc, 31) * kPrime1;
}

uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  acc ^= Round(0, lane);
  return acc * kPrime1 + kPrime4;
}

/// Feed every whole 32-byte stripe of [p, p + n) to the four lanes;
/// returns the bytes consumed.
size_t ConsumeStripes(uint64_t lanes[4], const unsigned char* p, size_t n) {
  uint64_t v1 = lanes[0], v2 = lanes[1], v3 = lanes[2], v4 = lanes[3];
  size_t done = 0;
  for (; n - done >= 32; done += 32) {
    v1 = Round(v1, Load64(p + done));
    v2 = Round(v2, Load64(p + done + 8));
    v3 = Round(v3, Load64(p + done + 16));
    v4 = Round(v4, Load64(p + done + 24));
  }
  lanes[0] = v1;
  lanes[1] = v2;
  lanes[2] = v3;
  lanes[3] = v4;
  return done;
}

}  // namespace

// The specification's lane initialisation with seed 0.
Xxh64::Xxh64() : lanes_{kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1} {}

void Xxh64::Update(std::string_view data) {
  if (data.empty()) return;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  total_ += n;
  if (pending_size_ > 0) {
    size_t take = std::min(kStripe - pending_size_, n);
    std::memcpy(pending_ + pending_size_, p, take);
    pending_size_ += take;
    p += take;
    n -= take;
    if (pending_size_ < kStripe) return;
    ConsumeStripes(lanes_, pending_, kStripe);
    pending_size_ = 0;
  }
  size_t done = ConsumeStripes(lanes_, p, n);
  std::memcpy(pending_, p + done, n - done);
  pending_size_ = n - done;
}

uint64_t Xxh64::Digest() const {
  uint64_t h;
  if (total_ >= kStripe) {
    h = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
        std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
    for (uint64_t lane : lanes_) h = MergeRound(h, lane);
  } else {
    h = kPrime5;  // seed 0 + PRIME64_5
  }
  h += total_;
  // The pending bytes are the input's last total_ % 32.
  const unsigned char* p = pending_;
  size_t n = pending_size_;
  for (; n >= 8; p += 8, n -= 8) {
    h ^= Round(0, Load64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (n >= 4) {
    h ^= static_cast<uint64_t>(Load32(p)) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
    n -= 4;
  }
  for (; n > 0; ++p, --n) {
    h ^= static_cast<uint64_t>(*p) * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace mrs
