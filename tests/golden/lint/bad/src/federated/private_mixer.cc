// Bad: a private copy of the SplitMix64 mixer outside src/rng/. Each of
// the three constants sits on its own line, so the determinism check must
// report exactly three findings here. Naming 0x9e3779b97f4a7c15 in a
// comment is not a finding.
#include <cstdint>

namespace fixture {

uint64_t PrivateMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace fixture
