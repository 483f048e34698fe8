// Waived: a kernel that draws, with a reasoned waiver on the draw line.
#include <cstdint>

namespace bitpush::kernels {

uint64_t SeedProbe(Rng& rng, uint64_t word) {
  // bitpush-lint: allow(determinism-flow): self-test probe compiled out of release kernels
  return word ^ rng.NextUint64();
}

}  // namespace bitpush::kernels
