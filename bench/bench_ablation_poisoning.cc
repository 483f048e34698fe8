// Ablation: poisoning robustness (Section 5). Adversarial clients try to
// bias the mean upward by reporting 1 on the most significant bit. Under
// local randomness they can *choose* that bit; under central randomness
// the server picks, and the attack collapses to flipping whatever bit was
// assigned. Expected: local-randomness bias grows with the adversary
// fraction by orders of magnitude more than central.

#include <cstdint>
#include <vector>

#include "bench/bench_common.h"
#include "core/bit_probabilities.h"
#include "data/census.h"
#include "federated/server.h"
#include "stats/welford.h"
#include "util/flags.h"
#include "util/table.h"

namespace bitpush {
namespace {

int Main(int argc, char** argv) {
  int64_t n = 10000;
  int64_t reps = 20;
  int64_t bits = 16;
  int64_t seed = 20240408;
  FlagSet flags;
  bench::BenchOutput output(&flags, "ablation_poisoning");
  flags.AddInt64("n", &n, "number of clients");
  flags.AddInt64("reps", &reps, "repetitions per point");
  flags.AddInt64("bits", &bits, "bit depth b");
  flags.AddInt64("seed", &seed, "base seed");
  flags.Parse(argc, argv);

  output.Header("Ablation: poisoning, local vs central randomness",
                     "census ages + top-bit adversaries",
                     "n=" + std::to_string(n) + " bits=" +
                         std::to_string(bits) + " reps=" +
                         std::to_string(reps));

  Rng data_rng(static_cast<uint64_t>(seed));
  const Dataset data = CensusAges(n, data_rng);
  const FixedPointCodec codec =
      FixedPointCodec::Integer(static_cast<int>(bits));

  Table table({"adversary_frac", "randomness", "bias", "bias/true_mean"});
  for (const double fraction : std::vector<double>{0.0, 0.01, 0.05, 0.10}) {
    std::vector<Client> clients =
        MakePopulation(data.values(), ClientConfig{});
    ClientConfig adversarial;
    adversarial.adversary = AdversaryMode::kTopBitOne;
    const auto num_adversaries =
        static_cast<size_t>(fraction * static_cast<double>(n));
    for (size_t i = 0; i < num_adversaries; ++i) {
      clients[i] = Client(static_cast<int64_t>(i),
                          {data.values()[i]}, adversarial);
    }
    std::vector<int64_t> cohort;
    for (int64_t i = 0; i < n; ++i) cohort.push_back(i);

    const AggregationServer server(codec);
    for (const bool central : {false, true}) {
      RoundConfig config;
      // Uniform allocation exposes the full leverage of choosing the top
      // bit: under central randomness a poisoned report lands on a random
      // bit (expected weight (2^b - 1)/b), under local randomness always
      // on the 2^{b-1} bit.
      config.probabilities = UniformProbabilities(static_cast<int>(bits));
      config.central_randomness = central;
      Welford acc;
      Rng rng(static_cast<uint64_t>(seed) + 1);
      for (int64_t rep = 0; rep < reps; ++rep) {
        const RoundOutcome outcome =
            server.RunRound(clients, cohort, config, nullptr,
                            rng.NextUint64(), rng);
        acc.Add(server.EstimateMean(outcome.histogram, 0.0) -
                data.truth().mean);
      }
      table.NewRow()
          .AddDouble(fraction, 3)
          .AddCell(central ? "central" : "local")
          .AddDouble(acc.mean(), 4)
          .AddDouble(acc.mean() / data.truth().mean, 4);
    }
  }
  output.AddTable(table);
  return output.Finish();
}

}  // namespace
}  // namespace bitpush

int main(int argc, char** argv) { return bitpush::Main(argc, argv); }
