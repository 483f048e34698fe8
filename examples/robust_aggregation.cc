// Robustness walkthrough (Sections 4.3 and 5): the same query run against
// (a) a flaky fleet with heavy dropout, (b) a partially adversarial fleet
// under local vs central randomness, and (c) a too-small eligible cohort
// that must abort for privacy.

#include <cstdio>
#include <vector>

#include "core/bit_probabilities.h"
#include "data/census.h"
#include "federated/round.h"
#include "federated/server.h"
#include "rng/rng.h"

namespace {

using bitpush::Client;
using bitpush::ClientConfig;
using bitpush::FixedPointCodec;
using bitpush::Rng;

}  // namespace

int main() {
  Rng rng(5);
  const bitpush::Dataset ages = bitpush::CensusAges(20000, rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  std::printf("true mean age: %.2f\n\n", ages.truth().mean);

  // (a) Heavy dropout: 70% of devices are offline at any moment.
  {
    ClientConfig flaky;
    flaky.dropout_probability = 0.7;
    const std::vector<Client> clients =
        bitpush::MakePopulation(ages.values(), flaky);
    bitpush::FederatedQueryConfig query;
    query.adaptive.bits = codec.bits();
    query.auto_adjust_dropout = true;
    const bitpush::FederatedQueryResult result =
        bitpush::RunFederatedMeanQuery(clients, codec, query, nullptr, rng);
    std::printf("(a) 70%% dropout: %lld/%lld responded, estimate %.2f\n",
                static_cast<long long>(result.round1.responded +
                                       result.round2.responded),
                static_cast<long long>(result.round1.contacted +
                                       result.round2.contacted),
                result.estimate);
  }

  // (b) Poisoning: 5% adversaries aim 1s at the top bit of a 16-bit
  // domain. Local randomness lets them pick the bit; central does not.
  {
    const FixedPointCodec wide = FixedPointCodec::Integer(16);
    std::vector<Client> clients =
        bitpush::MakePopulation(ages.values(), ClientConfig{});
    ClientConfig adversarial;
    adversarial.adversary = bitpush::AdversaryMode::kTopBitOne;
    for (size_t i = 0; i < clients.size() / 20; ++i) {
      clients[i] = Client(static_cast<int64_t>(i), {ages.values()[i]},
                          adversarial);
    }
    std::vector<int64_t> cohort;
    for (size_t i = 0; i < clients.size(); ++i) {
      cohort.push_back(static_cast<int64_t>(i));
    }
    const bitpush::AggregationServer server(wide);
    for (const bool central : {false, true}) {
      bitpush::RoundConfig config;
      config.probabilities = bitpush::GeometricProbabilities(16, 0.5);
      config.central_randomness = central;
      const bitpush::RoundOutcome outcome =
          server.RunRound(clients, cohort, config, nullptr,
                          rng.NextUint64(), rng);
      std::printf("(b) 5%% adversaries, %s randomness: estimate %.2f\n",
                  central ? "central" : "local  ",
                  server.EstimateMean(outcome.histogram, 0.0));
    }
  }

  // (c) Selective query below the minimum cohort: abort, reveal nothing.
  {
    const std::vector<Client> clients =
        bitpush::MakePopulation(ages.values(), ClientConfig{});
    bitpush::FederatedQueryConfig query;
    query.adaptive.bits = codec.bits();
    query.cohort.min_cohort_size = 100000;  // more than we have
    const bitpush::FederatedQueryResult result =
        bitpush::RunFederatedMeanQuery(clients, codec, query, nullptr, rng);
    std::printf("(c) cohort below minimum: %s, %lld messages sent\n",
                result.aborted ? "aborted" : "ran",
                static_cast<long long>(result.comm.requests_sent));
  }
  return 0;
}
