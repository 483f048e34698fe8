// Stateless keyed randomness: a coin as a pure function of its key.
//
// The sequential Rng gives a draw that depends on how many draws came
// before it. Decisions that must not depend on processing order — a
// client's own coins (dropout, value selection, randomized-response flip),
// injected faults, retry backoff jitter, shard seeds — instead hash their
// identifying key through a SplitMix64 finalizer chain:
//
//   h = Mix(seed ^ Mix(a));  h = Mix(h ^ b);  h = Mix(h ^ c)
//
// so a draw is the same whether it is taken first, last, twice, or on
// another thread. Mix is the SplitMix64 output function (Steele, Lea &
// Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014),
// the same mixer Rng uses to expand its seed.

#ifndef BITPUSH_RNG_KEYED_H_
#define BITPUSH_RNG_KEYED_H_

#include <cstdint>

namespace bitpush {

// The SplitMix64 increment (2^64 / golden ratio).
inline constexpr uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

// One SplitMix64 step from state `x`: the finalizer applied to
// x + kSplitMixGamma.
constexpr uint64_t Mix(uint64_t x) {
  x += kSplitMixGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// 64 keyed bits from (seed, a).
constexpr uint64_t KeyedHash(uint64_t seed, uint64_t a) {
  return Mix(seed ^ Mix(a));
}

// 64 keyed bits from (seed, a, b, c).
constexpr uint64_t KeyedHash(uint64_t seed, uint64_t a, uint64_t b,
                             uint64_t c) {
  return Mix(Mix(KeyedHash(seed, a) ^ b) ^ c);
}

// A uniform double in [0, 1) with 53 keyed bits, the keyed counterpart of
// Rng::NextDouble.
constexpr double KeyedUniform(uint64_t seed, uint64_t a, uint64_t b,
                              uint64_t c) {
  return static_cast<double>(KeyedHash(seed, a, b, c) >> 11) * 0x1.0p-53;
}

}  // namespace bitpush

#endif  // BITPUSH_RNG_KEYED_H_
