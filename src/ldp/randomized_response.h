// Binary randomized response (Warner 1965), the building block that gives
// bit-pushing its epsilon-LDP guarantee (Section 3.3): a private bit y is
// reported truthfully with probability p = exp(eps) / (1 + exp(eps)) and
// flipped otherwise; the server unbiases a report r as (r - (1-p)) / (2p-1).

#ifndef BITPUSH_LDP_RANDOMIZED_RESPONSE_H_
#define BITPUSH_LDP_RANDOMIZED_RESPONSE_H_

#include <cstdint>

#include "rng/rng.h"

namespace bitpush {

class RandomizedResponse {
 public:
  // Creates an epsilon-LDP randomized response; `epsilon` must be > 0.
  explicit RandomizedResponse(double epsilon);

  // A pass-through instance (p = 1, no noise, Unbias is the identity).
  // Used when the protocol runs without a DP guarantee.
  static RandomizedResponse Disabled();

  // Creates from epsilon, treating epsilon <= 0 as Disabled(). This matches
  // the convention used by the protocol configs ("epsilon = 0 turns DP
  // off").
  static RandomizedResponse FromEpsilon(double epsilon);

  // Perturbs one bit (bit must be 0 or 1).
  int Apply(int bit, Rng& rng) const;

  // Perturbs one bit with a caller-supplied coin `uniform` in [0, 1) — a
  // keyed draw (rng/keyed.h) — keeping the bit iff uniform < p.
  int Apply(int bit, double uniform) const;

  // Draws one keep/flip decision, consuming exactly the randomness Apply
  // consumes for one report (none when disabled). Returns true when the
  // report should be flipped. Lets columnar callers reproduce the
  // per-report stream bit-for-bit: drawing DrawFlip in report order and
  // XOR-ing the resulting mask is identical to calling Apply per report.
  bool DrawFlip(Rng& rng) const {
    return enabled_ && !rng.NextBernoulli(p_);
  }

  // Bulk form of Apply over a packed bit vector (layout of
  // src/kernels/kernels.h): flips each of the n_bits bits of `words`
  // independently with probability flip_probability(), restricted to
  // positions whose `gate` bit is set (pass nullptr to flip every
  // position). The flip mask is drawn from `rng` by
  // kernels::FillBernoulliWords, so the outcome does not depend on the
  // dispatched kernel. No-op (and no rng consumption) when disabled.
  void ApplyToWords(uint64_t* words, const uint64_t* gate, int64_t n_bits,
                    Rng& rng) const;

  // Probability a reported bit is flipped: 1 - p = 1 / (1 + e^eps), in
  // (0, 1/2] when enabled; 0.0 when disabled.
  double flip_probability() const { return enabled_ ? 1.0 - p_ : 0.0; }

  // Unbiases a reported bit — or, by linearity, a mean of reported bits.
  double Unbias(double reported) const;

  bool enabled() const { return enabled_; }
  double epsilon() const { return epsilon_; }
  // Probability of reporting the bit truthfully.
  double truth_probability() const { return p_; }

  // Variance of one unbiased report around the true bit:
  // p(1-p)/(2p-1)^2 = exp(eps)/(exp(eps)-1)^2, independent of the bit value
  // (Section 3.3). Zero when disabled.
  double ReportVariance() const;

 private:
  RandomizedResponse(double epsilon, double p, bool enabled);

  double epsilon_;
  double p_;
  bool enabled_;
};

}  // namespace bitpush

#endif  // BITPUSH_LDP_RANDOMIZED_RESPONSE_H_
