#include "ldp/randomized_response.h"

#include <cmath>
#include <limits>
#include <vector>

#include "kernels/kernels.h"
#include "util/check.h"

namespace bitpush {

RandomizedResponse::RandomizedResponse(double epsilon, double p, bool enabled)
    : epsilon_(epsilon), p_(p), enabled_(enabled) {}

RandomizedResponse::RandomizedResponse(double epsilon)
    : RandomizedResponse(epsilon, std::exp(epsilon) / (1.0 + std::exp(epsilon)),
                         /*enabled=*/true) {
  BITPUSH_CHECK_GT(epsilon, 0.0);
}

RandomizedResponse RandomizedResponse::Disabled() {
  return RandomizedResponse(std::numeric_limits<double>::infinity(), 1.0,
                            /*enabled=*/false);
}

RandomizedResponse RandomizedResponse::FromEpsilon(double epsilon) {
  if (epsilon <= 0.0) return Disabled();
  return RandomizedResponse(epsilon);
}

int RandomizedResponse::Apply(int bit, Rng& rng) const {
  BITPUSH_CHECK(bit == 0 || bit == 1);
  if (!enabled_) return bit;
  return rng.NextBernoulli(p_) ? bit : 1 - bit;
}

int RandomizedResponse::Apply(int bit, double uniform) const {
  BITPUSH_CHECK(bit == 0 || bit == 1);
  if (!enabled_) return bit;
  return uniform < p_ ? bit : 1 - bit;
}

void RandomizedResponse::ApplyToWords(uint64_t* words, const uint64_t* gate,
                                      int64_t n_bits, Rng& rng) const {
  BITPUSH_CHECK(words != nullptr);
  BITPUSH_CHECK_GE(n_bits, 0);
  if (!enabled_ || n_bits == 0) return;
  const int64_t n_words = kernels::WordsForBits(n_bits);
  std::vector<uint64_t> mask(static_cast<size_t>(n_words));
  kernels::FillBernoulliWords(flip_probability(), n_bits, rng, mask.data());
  const kernels::KernelOps& ops = kernels::ActiveKernel();
  if (gate == nullptr) {
    ops.xor_words(words, mask.data(), n_words);
  } else {
    ops.xor_masked_words(words, mask.data(), gate, n_words);
  }
}

double RandomizedResponse::Unbias(double reported) const {
  if (!enabled_) return reported;
  return (reported - (1.0 - p_)) / (2.0 * p_ - 1.0);
}

double RandomizedResponse::ReportVariance() const {
  if (!enabled_) return 0.0;
  const double q = 2.0 * p_ - 1.0;
  return p_ * (1.0 - p_) / (q * q);
}

}  // namespace bitpush
