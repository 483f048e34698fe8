#include "ldp/memoization.h"

#include "rng/keyed.h"
#include "util/check.h"

namespace bitpush {
namespace {

// Purpose key of the permanent coin ("PERM"), keeping it apart from any
// other coin keyed by the same client secret.
constexpr uint64_t kPermanentCoin = 0x5045524dULL;

}  // namespace

MemoizedResponder::MemoizedResponder(double permanent_epsilon,
                                     double instantaneous_epsilon,
                                     uint64_t client_secret)
    : permanent_(RandomizedResponse::FromEpsilon(permanent_epsilon)),
      instantaneous_(RandomizedResponse::FromEpsilon(instantaneous_epsilon)),
      client_secret_(client_secret) {
  BITPUSH_CHECK(permanent_.enabled())
      << "memoization without a permanent layer is plain RR";
}

int MemoizedResponder::PermanentBit(int64_t value_id, int bit_index,
                                    int true_bit) const {
  BITPUSH_CHECK(true_bit == 0 || true_bit == 1);
  // The permanent draw is a keyed coin of (secret, value, bit index):
  // re-deriving it in any round yields the same noisy bit, so nothing new
  // leaks on repetition.
  return permanent_.Apply(true_bit,
                          KeyedUniform(client_secret_, value_id,
                                       static_cast<uint64_t>(bit_index),
                                       kPermanentCoin));
}

int MemoizedResponder::Report(int64_t value_id, int bit_index, int true_bit,
                              Rng& rng) const {
  return instantaneous_.Apply(PermanentBit(value_id, bit_index, true_bit),
                              rng);
}

double MemoizedResponder::EffectiveTruthProbability() const {
  const double p1 = permanent_.truth_probability();
  const double p2 = instantaneous_.truth_probability();
  return p1 * p2 + (1.0 - p1) * (1.0 - p2);
}

double MemoizedResponder::Unbias(double reported_mean) const {
  const double p = EffectiveTruthProbability();
  return (reported_mean - (1.0 - p)) / (2.0 * p - 1.0);
}

double MemoizedResponder::LongitudinalEpsilonBound() const {
  return permanent_.epsilon();
}

}  // namespace bitpush
