#include "rng/rng.h"

#include "rng/keyed.h"
#include "util/check.h"

namespace bitpush {
namespace {

uint64_t RotateLeft(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  // SplitMix64 expansion: word k is the step from seed + k * gamma.
  uint64_t sm = seed;
  for (uint64_t& word : state_) {
    word = Mix(sm);
    sm += kSplitMixGamma;
  }
}

uint64_t Rng::NextUint64() {
  const uint64_t result = RotateLeft(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotateLeft(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // Top 53 bits give a uniform dyadic rational in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  BITPUSH_CHECK_GT(bound, 0u);
  // Rejection sampling over the largest multiple of `bound` that fits.
  const uint64_t threshold = -bound % bound;  // (2^64 - bound) mod bound
  while (true) {
    const uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

int Rng::NextBit() { return static_cast<int>(NextUint64() >> 63); }

Rng Rng::Fork() { return Rng(NextUint64()); }

}  // namespace bitpush
