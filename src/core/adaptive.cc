#include "core/adaptive.h"

#include <algorithm>
#include <cmath>

#include "core/bit_probabilities.h"
#include "util/check.h"

namespace bitpush {

int64_t Round1CohortSize(int64_t n, double delta) {
  const int64_t n1 =
      static_cast<int64_t>(std::llround(delta * static_cast<double>(n)));
  return std::clamp<int64_t>(n1, 1, n - 1);
}

std::vector<double> LearnRound2Probabilities(
    const BitHistogram& round1, const std::vector<double>& round1_probabilities,
    const AdaptiveConfig& config) {
  const RandomizedResponse rr =
      RandomizedResponse::FromEpsilon(config.epsilon);
  const std::vector<double> round1_means = round1.UnbiasedMeans(rr);
  const std::vector<bool> round1_keep =
      ComputeSquashMask(round1_means, round1.totals(), rr, config.squash);
  return AdaptiveProbabilitiesMasked(round1_means, round1_keep, config.alpha,
                                     round1_probabilities);
}

AdaptiveEstimate FinishAdaptive(const BitHistogram& round1,
                                const BitHistogram& round2,
                                const AdaptiveConfig& config) {
  const RandomizedResponse rr =
      RandomizedResponse::FromEpsilon(config.epsilon);
  AdaptiveEstimate result;
  std::vector<int64_t> final_counts;
  if (config.caching) {
    BitHistogram pooled = round1;
    pooled.Merge(round2);
    result.final_means = pooled.UnbiasedMeans(rr);
    final_counts = pooled.totals();
  } else {
    // Round-2-only estimate; bits the learned allocation skipped fall back
    // to their round-1 means (the only information available for them).
    std::vector<bool> observed;
    result.final_means = round2.UnbiasedMeans(rr, &observed);
    final_counts = round2.totals();
    const std::vector<double> round1_means = round1.UnbiasedMeans(rr);
    for (size_t j = 0; j < result.final_means.size(); ++j) {
      if (!observed[j]) {
        result.final_means[j] = round1_means[j];
        final_counts[j] = round1.totals()[j];
      }
    }
  }
  result.kept = ComputeSquashMask(result.final_means, final_counts, rr,
                                  config.squash);
  result.estimate_codeword =
      RecombineBitMeans(result.final_means, result.kept);
  result.variance_bound =
      PluginVariance(final_counts, result.final_means, rr, result.kept);
  return result;
}

AdaptiveResult RunAdaptiveBitPushing(const std::vector<uint64_t>& codewords,
                                     const AdaptiveConfig& config, Rng& rng) {
  BITPUSH_CHECK_GE(config.bits, 1);
  BITPUSH_CHECK_GT(config.delta, 0.0);
  BITPUSH_CHECK_LT(config.delta, 1.0);
  BITPUSH_CHECK_GE(codewords.size(), 2u);

  const int64_t n1 = Round1CohortSize(
      static_cast<int64_t>(codewords.size()), config.delta);

  // Round 1: input-independent geometric probe over a delta fraction.
  AdaptiveResult result;
  result.round1_probabilities =
      GeometricProbabilities(config.bits, config.gamma);
  BitPushingConfig round1_config{
      .probabilities = result.round1_probabilities,
      .epsilon = config.epsilon,
      .bits_per_client = config.bits_per_client,
      .central_randomness = config.central_randomness};
  const std::vector<uint64_t> cohort1(codewords.begin(),
                                      codewords.begin() + n1);
  result.round1 = RunBasicBitPushing(cohort1, round1_config, rng);

  // Learn the round-2 allocation from the probe.
  result.round2_probabilities = LearnRound2Probabilities(
      result.round1.histogram, result.round1_probabilities, config);

  // Round 2 over the remaining clients.
  BitPushingConfig round2_config{
      .probabilities = result.round2_probabilities,
      .epsilon = config.epsilon,
      .bits_per_client = config.bits_per_client,
      .central_randomness = config.central_randomness};
  const std::vector<uint64_t> cohort2(codewords.begin() + n1,
                                      codewords.end());
  result.round2 = RunBasicBitPushing(cohort2, round2_config, rng);

  static_cast<AdaptiveEstimate&>(result) =
      FinishAdaptive(result.round1.histogram, result.round2.histogram, config);
  return result;
}

}  // namespace bitpush
