// Paper-level invariants stated as bitprop properties (ROADMAP item 2).
//
// Each TEST below is one universal statement from the paper — estimator
// unbiasedness under randomized response, variance-bound monotonicity in n
// and bit depth, exact fixed-point round-trips, secure-agg mask
// cancellation, privacy-meter budget conservation, order-free client
// coins — checked over a seeded random domain instead of a hand-picked
// grid. Cases embed every seed they need (e.g. the Monte-Carlo trial seed
// for the RR confidence interval), so properties stay pure functions of the
// generated value and a printed BITPROP_SEED replays generation, failure,
// and shrink exactly.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bit_probabilities.h"
#include "core/fixed_point.h"
#include "core/privacy_meter.h"
#include "federated/client.h"
#include "federated/faults.h"
#include "federated/secure_agg.h"
#include "federated/server.h"
#include "ldp/randomized_response.h"
#include "prop/bitprop.h"
#include "rng/rng.h"
#include "util/bytes.h"

namespace bitpush {
namespace {

using ::bitpush::prop::CheckOptions;
using ::bitpush::prop::CheckProperty;
using ::bitpush::prop::Domain;

// ---------------------------------------------------------------------------
// Fixed-point encode/decode round-trip and quantization-error bound
// (Section 3.1 / 4.3: clipping plus rounding to the nearest of 2^b levels).

struct RangeCodecCase {
  int64_t bits = 1;
  double low = 0.0;
  double span = 1.0;
  // Position of x relative to [low, high], deliberately overshooting both
  // ends ([-0.25, 1.25] of the span) so clipping is part of the property.
  double frac = 0.0;

  double x() const { return low + (frac * 1.5 - 0.25) * span; }
};

Domain<RangeCodecCase> RangeCodecDomain() {
  Domain<RangeCodecCase> domain;
  domain.generate = [](Rng& rng) {
    RangeCodecCase c;
    c.bits = 1 + static_cast<int64_t>(rng.NextBelow(kMaxBits));
    c.low = -100.0 + 200.0 * rng.NextDouble();
    c.span = 1e-3 + 200.0 * rng.NextDouble();
    c.frac = rng.NextDouble();
    return c;
  };
  domain.shrink = [](const RangeCodecCase& c) {
    std::vector<RangeCodecCase> out;
    for (int64_t bits : {int64_t{1}, c.bits / 2, c.bits - 1}) {
      if (bits >= 1 && bits < c.bits) {
        RangeCodecCase smaller = c;
        smaller.bits = bits;
        out.push_back(smaller);
      }
    }
    if (c.low != 0.0) {
      RangeCodecCase smaller = c;
      smaller.low = 0.0;
      out.push_back(smaller);
    }
    for (double frac : {0.5, c.frac / 2.0}) {
      if (frac < c.frac) {
        RangeCodecCase smaller = c;
        smaller.frac = frac;
        out.push_back(smaller);
      }
    }
    return out;
  };
  domain.describe = [](const RangeCodecCase& c) {
    std::ostringstream out;
    out.precision(17);
    out << "{bits=" << c.bits << " low=" << c.low << " span=" << c.span
        << " x=" << c.x() << "}";
    return out.str();
  };
  return domain;
}

TEST(PropInvariantsTest, FixedPointRoundTripWithinHalfResolution) {
  CheckProperty<RangeCodecCase>(
      "fixed-point round-trip stays within resolution/2 of the clipped input",
      RangeCodecDomain(),
      [](const RangeCodecCase& c) -> std::optional<std::string> {
        const FixedPointCodec codec(static_cast<int>(c.bits), c.low,
                                    c.low + c.span);
        const double x = c.x();
        const uint64_t code = codec.Encode(x);
        if (code > codec.max_codeword()) {
          return "Encode produced a codeword above max_codeword";
        }
        const double clipped = std::clamp(x, codec.low(), codec.high());
        const double decoded = codec.Decode(static_cast<double>(code));
        const double tolerance = codec.resolution() / 2.0 + 1e-7;
        if (std::abs(decoded - clipped) > tolerance) {
          std::ostringstream out;
          out.precision(17);
          out << "quantization error " << std::abs(decoded - clipped)
              << " exceeds resolution/2 = " << codec.resolution() / 2.0;
          return out.str();
        }
        return std::nullopt;
      });
}

struct IntegerCodecCase {
  int64_t bits = 1;
  uint64_t raw = 0;  // reduced mod (max_codeword + 1) by the property

  uint64_t value() const {
    const FixedPointCodec codec = FixedPointCodec::Integer(
        static_cast<int>(bits));
    return raw % (codec.max_codeword() + 1);
  }
};

Domain<IntegerCodecCase> IntegerCodecDomain() {
  Domain<IntegerCodecCase> domain;
  domain.generate = [](Rng& rng) {
    IntegerCodecCase c;
    c.bits = 1 + static_cast<int64_t>(rng.NextBelow(kMaxBits));
    c.raw = rng.NextUint64();
    return c;
  };
  domain.shrink = [](const IntegerCodecCase& c) {
    std::vector<IntegerCodecCase> out;
    for (int64_t bits : {int64_t{1}, c.bits / 2, c.bits - 1}) {
      if (bits >= 1 && bits < c.bits) {
        IntegerCodecCase smaller = c;
        smaller.bits = bits;
        out.push_back(smaller);
      }
    }
    for (uint64_t raw : {uint64_t{0}, c.raw / 2}) {
      if (raw < c.raw) {
        IntegerCodecCase smaller = c;
        smaller.raw = raw;
        out.push_back(smaller);
      }
    }
    return out;
  };
  domain.describe = [](const IntegerCodecCase& c) {
    std::ostringstream out;
    out << "{bits=" << c.bits << " value=" << c.value() << "}";
    return out.str();
  };
  return domain;
}

TEST(PropInvariantsTest, FixedPointIntegerRoundTripAndBitRecombineExact) {
  CheckProperty<IntegerCodecCase>(
      "integer codewords round-trip exactly and recombine from their bits",
      IntegerCodecDomain(),
      [](const IntegerCodecCase& c) -> std::optional<std::string> {
        const FixedPointCodec codec =
            FixedPointCodec::Integer(static_cast<int>(c.bits));
        const uint64_t v = c.value();
        if (codec.Encode(static_cast<double>(v)) != v) {
          return "Encode(v) != v for an in-domain integer";
        }
        const double decoded = codec.Decode(static_cast<double>(v));
        if (decoded != static_cast<double>(v)) {
          return "Decode(v) != v for an in-domain integer";
        }
        double recombined = 0.0;
        for (int j = 0; j < codec.bits(); ++j) {
          recombined += std::exp2(j) * FixedPointCodec::Bit(v, j);
        }
        if (recombined != static_cast<double>(v)) {
          return "sum_j 2^j * Bit(v, j) != v";
        }
        return std::nullopt;
      });
}

// ---------------------------------------------------------------------------
// Randomized response: the unbiasing identity, exactly and empirically
// within a confidence interval (Section 3.3).

struct RrCase {
  double epsilon = 1.0;
  int64_t bit = 0;
  uint64_t trial_seed = 0;  // seed of the Monte-Carlo trials, part of the case
};

Domain<RrCase> RrDomain() {
  Domain<RrCase> domain;
  domain.generate = [](Rng& rng) {
    RrCase c;
    c.epsilon = 0.05 + 7.95 * rng.NextDouble();
    c.bit = static_cast<int64_t>(rng.NextBit());
    c.trial_seed = rng.NextUint64();
    return c;
  };
  domain.shrink = [](const RrCase& c) {
    std::vector<RrCase> out;
    if (c.bit == 1) {
      RrCase smaller = c;
      smaller.bit = 0;
      out.push_back(smaller);
    }
    for (double epsilon : {1.0, c.epsilon / 2.0}) {
      if (epsilon >= 0.05 && epsilon < c.epsilon) {
        RrCase smaller = c;
        smaller.epsilon = epsilon;
        out.push_back(smaller);
      }
    }
    return out;
  };
  domain.describe = [](const RrCase& c) {
    std::ostringstream out;
    out.precision(17);
    out << "{epsilon=" << c.epsilon << " bit=" << c.bit
        << " trial_seed=" << c.trial_seed << "}";
    return out.str();
  };
  return domain;
}

TEST(PropInvariantsTest, RrUnbiasingIdentityIsExactOnExpectations) {
  CheckProperty<RrCase>(
      "Unbias maps the exact report expectation back to the true bit",
      RrDomain(), [](const RrCase& c) -> std::optional<std::string> {
        const RandomizedResponse rr(c.epsilon);
        const double p = rr.truth_probability();
        // E[report | bit] = bit ? p : 1 - p; Unbias must invert it.
        const double expectation =
            c.bit == 1 ? p : 1.0 - p;
        const double unbiased = rr.Unbias(expectation);
        if (std::abs(unbiased - static_cast<double>(c.bit)) > 1e-9) {
          std::ostringstream out;
          out.precision(17);
          out << "Unbias(E[report]) = " << unbiased << ", want " << c.bit;
          return out.str();
        }
        return std::nullopt;
      });
}

TEST(PropInvariantsTest, RrUnbiasedEstimatorWithinConfidenceInterval) {
  CheckOptions options;
  options.iterations = 100;        // 100 cases x 20k trials: still fast
  options.max_iterations = 20000;  // bound the long mode for this MC suite
  CheckProperty<RrCase>(
      "the unbiased RR mean lands within 6 standard errors of the true bit",
      RrDomain(),
      [](const RrCase& c) -> std::optional<std::string> {
        const RandomizedResponse rr(c.epsilon);
        Rng trials(c.trial_seed);
        const int kTrials = 20000;
        double sum = 0.0;
        for (int i = 0; i < kTrials; ++i) {
          sum += rr.Unbias(static_cast<double>(
              rr.Apply(static_cast<int>(c.bit), trials)));
        }
        const double mean = sum / kTrials;
        const double se = std::sqrt(rr.ReportVariance() / kTrials);
        const double slack = 6.0 * se + 1e-9;
        if (std::abs(mean - static_cast<double>(c.bit)) > slack) {
          std::ostringstream out;
          out.precision(17);
          out << "unbiased mean " << mean << " misses bit " << c.bit
              << " by more than 6 SE (" << slack << ")";
          return out.str();
        }
        return std::nullopt;
      },
      options);
}

// ---------------------------------------------------------------------------
// Variance-bound monotonicity (Lemma 3.1 plug-in): decreasing in n,
// non-decreasing in bit depth for the geometric allocation family.

struct VarianceCase {
  std::vector<double> means;  // length = bits + 1; last entry is the extra bit
  double gamma = 1.0;
  int64_t n = 1;
  int64_t extra_n = 1;
};

Domain<VarianceCase> VarianceDomain() {
  Domain<VarianceCase> domain;
  domain.generate = [](Rng& rng) {
    VarianceCase c;
    const size_t bits = 1 + static_cast<size_t>(rng.NextBelow(30));
    c.means.resize(bits + 1);
    for (double& m : c.means) m = rng.NextDouble();
    c.gamma = 2.0 * rng.NextDouble();
    c.n = 1 + static_cast<int64_t>(rng.NextBelow(1000000));
    c.extra_n = 1 + static_cast<int64_t>(rng.NextBelow(1000000));
    return c;
  };
  domain.shrink = [](const VarianceCase& c) {
    std::vector<VarianceCase> out;
    if (c.means.size() > 2) {
      VarianceCase smaller = c;
      smaller.means.resize(std::max<size_t>(2, c.means.size() / 2));
      out.push_back(smaller);
    }
    for (size_t i = 0; i < c.means.size(); ++i) {
      if (c.means[i] != 0.0) {
        VarianceCase smaller = c;
        smaller.means[i] = 0.0;
        out.push_back(smaller);
      }
    }
    if (c.n > 1) {
      VarianceCase smaller = c;
      smaller.n = std::max<int64_t>(1, c.n / 2);
      out.push_back(smaller);
    }
    return out;
  };
  domain.describe = [](const VarianceCase& c) {
    std::ostringstream out;
    out.precision(17);
    out << "{bits=" << c.means.size() - 1 << " gamma=" << c.gamma
        << " n=" << c.n << " extra_n=" << c.extra_n << " means=[";
    for (size_t i = 0; i < c.means.size(); ++i) {
      if (i > 0) out << ", ";
      out << c.means[i];
    }
    out << "]}";
    return out.str();
  };
  return domain;
}

TEST(PropInvariantsTest, VarianceBoundScalesInverselyWithN) {
  CheckProperty<VarianceCase>(
      "the Lemma 3.1 bound decreases in n and scales exactly as 1/n",
      VarianceDomain(),
      [](const VarianceCase& c) -> std::optional<std::string> {
        const int bits = static_cast<int>(c.means.size()) - 1;
        const std::vector<double> prefix(c.means.begin(),
                                         c.means.end() - 1);
        const std::vector<double> p = GeometricProbabilities(bits, c.gamma);
        const double at_n = VarianceBound(prefix, p, static_cast<double>(c.n));
        const double at_more = VarianceBound(
            prefix, p, static_cast<double>(c.n + c.extra_n));
        if (at_more > at_n * (1.0 + 1e-12) + 1e-12) {
          return "bound increased when n grew";
        }
        // Exact 1/n scaling: n * bound(n) is constant in n.
        const double lhs = static_cast<double>(c.n) * at_n;
        const double rhs = static_cast<double>(c.n + c.extra_n) * at_more;
        if (std::abs(lhs - rhs) > 1e-9 * std::max(1.0, std::abs(lhs))) {
          return "n * bound(n) is not constant in n";
        }
        return std::nullopt;
      });
}

TEST(PropInvariantsTest, VarianceBoundMonotoneInBitDepth) {
  CheckProperty<VarianceCase>(
      "adding a bit never lowers the geometric-allocation variance bound",
      VarianceDomain(),
      [](const VarianceCase& c) -> std::optional<std::string> {
        const int bits = static_cast<int>(c.means.size()) - 1;
        const std::vector<double> prefix(c.means.begin(),
                                         c.means.end() - 1);
        const double shallow = VarianceBound(
            prefix, GeometricProbabilities(bits, c.gamma),
            static_cast<double>(c.n));
        const double deep = VarianceBound(
            c.means, GeometricProbabilities(bits + 1, c.gamma),
            static_cast<double>(c.n));
        // Every term grows (the normalizer gains the new bit's weight, so
        // every p_j shrinks) and the new term is non-negative.
        if (deep < shallow * (1.0 - 1e-12) - 1e-9) {
          std::ostringstream out;
          out.precision(17);
          out << "bound fell from " << shallow << " to " << deep
              << " when bit depth grew";
          return out.str();
        }
        return std::nullopt;
      });
}

// ---------------------------------------------------------------------------
// Secure aggregation: pairwise masks cancel exactly (Section 3.3).

struct SecureAggCase {
  uint64_t session_seed = 0;
  std::vector<uint64_t> values;
};

Domain<SecureAggCase> SecureAggDomain() {
  Domain<SecureAggCase> domain;
  domain.generate = [](Rng& rng) {
    SecureAggCase c;
    c.session_seed = rng.NextUint64();
    const size_t n = 1 + static_cast<size_t>(rng.NextBelow(64));
    c.values.resize(n);
    for (uint64_t& v : c.values) v = rng.NextUint64();
    return c;
  };
  domain.shrink = [](const SecureAggCase& c) {
    std::vector<SecureAggCase> out;
    if (c.values.size() > 1) {
      SecureAggCase smaller = c;
      smaller.values.resize(std::max<size_t>(1, c.values.size() / 2));
      out.push_back(smaller);
    }
    for (size_t i = 0; i < c.values.size(); ++i) {
      if (c.values[i] != 0) {
        SecureAggCase smaller = c;
        smaller.values[i] = 0;
        out.push_back(smaller);
      }
    }
    return out;
  };
  domain.describe = [](const SecureAggCase& c) {
    std::ostringstream out;
    out << "{seed=" << c.session_seed << " n=" << c.values.size() << "}";
    return out.str();
  };
  return domain;
}

TEST(PropInvariantsTest, SecureAggMasksCancelToExactSum) {
  CheckProperty<SecureAggCase>(
      "masked submissions sum to the exact plaintext sum mod 2^64",
      SecureAggDomain(),
      [](const SecureAggCase& c) -> std::optional<std::string> {
        Rng rng(c.session_seed);
        SecureAggregator agg(static_cast<int64_t>(c.values.size()), rng);
        uint64_t expected = 0;
        for (size_t i = 0; i < c.values.size(); ++i) {
          agg.Submit(agg.Mask(static_cast<int64_t>(i), c.values[i]));
          expected += c.values[i];  // Z_{2^64} wraparound is the protocol's ring
        }
        if (!agg.complete()) return "aggregator not complete after all submits";
        if (agg.Sum() != expected) {
          std::ostringstream out;
          out << "recovered sum " << agg.Sum() << " != plaintext sum "
              << expected;
          return out.str();
        }
        return std::nullopt;
      });
}

// ---------------------------------------------------------------------------
// Privacy meter: budget conservation under random charge/deny sequences,
// checked against an independent reference model of the §1.1 caps, plus
// canonical serialization round-trip. The ledger is an open-addressing
// table, so the client ids come from families that stress it: a few small
// ids, dense and strided runs, multiples of 2^20 of both signs, the int64
// extremes, and (in growth cases) enough distinct clients to make the
// table double several times while value ids interleave.

struct ChargeOp {
  int64_t client = 0;
  int64_t value = 0;
  int64_t epsilon_selector = 0;  // index into kEpsilonChoices

  double epsilon() const {
    static constexpr double kInf = std::numeric_limits<double>::infinity();
    const double choices[] = {0.0, 0.25, 0.5, 1.0,
                              2.0, -1.0, kInf, std::nan("")};
    return choices[epsilon_selector];
  }
};

// Selectors 0..4 are valid epsilons; 5..7 are denied before any ledger
// row exists.
constexpr uint64_t kValidEpsilonChoices = 5;
constexpr uint64_t kEpsilonChoices = 8;

enum class MeterIdFamily { kSmall, kDense, kStrided, kPow2x20, kExtremes };
constexpr uint64_t kMeterIdFamilies = 5;

// The k-th client id of a family (k >= 0). Distinct k give distinct ids.
int64_t MeterClientId(MeterIdFamily family, int64_t k) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  switch (family) {
    case MeterIdFamily::kSmall:
    case MeterIdFamily::kDense:
      return k;
    case MeterIdFamily::kStrided:
      return 64 * k;
    case MeterIdFamily::kPow2x20:
      // 0, -2^20, 2^20, -2^21, 2^21, ...
      return (k % 2 == 0 ? 1 : -1) * ((k + 1) / 2) * (int64_t{1} << 20);
    case MeterIdFamily::kExtremes: {
      const int64_t fixed[] = {kMin, kMax, -1, 0, kMin + 1, kMax - 1};
      if (k < 6) return fixed[k];
      // Then alternately climbing from INT64_MIN and falling from INT64_MAX.
      const int64_t step = (k - 6) / 2 + 2;
      return k % 2 == 0 ? kMin + step : kMax - step;
    }
  }
  return k;
}

struct MeterCase {
  int64_t max_bits_per_value = 1;
  int64_t max_bits_per_client = 1;
  double max_epsilon_per_client = 1.0;
  std::vector<ChargeOp> ops;
};

// The ledger starts at 16 rows and doubles when an insert would pass load
// 1/2, so 65 distinct charged clients force at least three doublings.
constexpr int64_t kGrowthMinClients = 65;

Domain<MeterCase> MeterDomain() {
  Domain<MeterCase> domain;
  domain.generate = [](Rng& rng) {
    MeterCase c;
    c.max_bits_per_value = 1 + static_cast<int64_t>(rng.NextBelow(3));
    c.max_bits_per_client = 1 + static_cast<int64_t>(rng.NextBelow(16));
    const double epsilon_caps[] = {0.5, 1.0, 4.0,
                                   std::numeric_limits<double>::infinity()};
    c.max_epsilon_per_client = epsilon_caps[rng.NextBelow(4)];
    const auto family =
        static_cast<MeterIdFamily>(rng.NextBelow(kMeterIdFamilies));
    const bool growth = rng.NextBelow(4) == 0;
    int64_t clients = 4;
    if (growth) {
      clients = kGrowthMinClients + static_cast<int64_t>(rng.NextBelow(100));
    } else if (family != MeterIdFamily::kSmall) {
      clients = 1 + static_cast<int64_t>(rng.NextBelow(48));
    }
    const size_t n =
        growth ? static_cast<size_t>(2 * clients) +
                     static_cast<size_t>(rng.NextBelow(
                         static_cast<uint64_t>(clients)))
               : 1 + static_cast<size_t>(rng.NextBelow(64));
    c.ops.resize(n);
    for (size_t i = 0; i < n; ++i) {
      ChargeOp& op = c.ops[i];
      // Growth cases first charge every client once with a valid epsilon,
      // so each one takes a row; value ids interleave throughout.
      const bool first_pass = growth && static_cast<int64_t>(i) < clients;
      const int64_t k =
          first_pass ? static_cast<int64_t>(i)
                     : static_cast<int64_t>(
                           rng.NextBelow(static_cast<uint64_t>(clients)));
      op.client = MeterClientId(family, k);
      op.value = static_cast<int64_t>(rng.NextBelow(6));
      op.epsilon_selector = static_cast<int64_t>(rng.NextBelow(
          first_pass ? kValidEpsilonChoices : kEpsilonChoices));
    }
    return c;
  };
  domain.shrink = [](const MeterCase& c) {
    std::vector<MeterCase> out;
    if (c.ops.size() > 1) {
      MeterCase smaller = c;
      smaller.ops.resize(c.ops.size() / 2);
      out.push_back(smaller);
    }
    for (size_t i = 0; i < c.ops.size(); ++i) {
      MeterCase smaller = c;
      smaller.ops.erase(smaller.ops.begin() + static_cast<ptrdiff_t>(i));
      out.push_back(smaller);
    }
    return out;
  };
  domain.describe = [](const MeterCase& c) {
    std::ostringstream out;
    out << "{caps: value=" << c.max_bits_per_value
        << " client=" << c.max_bits_per_client
        << " epsilon=" << c.max_epsilon_per_client << "; ops=[";
    for (size_t i = 0; i < c.ops.size(); ++i) {
      if (i > 0) out << " ";
      out << "(" << c.ops[i].client << "," << c.ops[i].value << ","
          << c.ops[i].epsilon() << ")";
    }
    out << "]}";
    return out.str();
  };
  return domain;
}

// Reference model of TryChargeBit: the documented cap semantics, written
// independently of core/privacy_meter.cc so the two can disagree.
struct MeterModel {
  explicit MeterModel(const MeterPolicy& policy) : policy(policy) {}

  bool Charge(int64_t client, int64_t value, double epsilon) {
    if (!std::isfinite(epsilon) || epsilon < 0.0) {
      ++denied;
      return false;
    }
    const int64_t value_bits = bits_per_value[{client, value}];
    const int64_t client_bits = bits_per_client[client];
    const double client_epsilon = epsilon_per_client[client];
    if (value_bits + 1 > policy.max_bits_per_value ||
        client_bits + 1 > policy.max_bits_per_client ||
        client_epsilon + epsilon > policy.max_epsilon_per_client) {
      ++denied;
      return false;
    }
    bits_per_value[{client, value}] = value_bits + 1;
    bits_per_client[client] = client_bits + 1;
    epsilon_per_client[client] = client_epsilon + epsilon;
    total_bits += 1;
    total_epsilon += epsilon;
    return true;
  }

  MeterPolicy policy;
  std::map<std::pair<int64_t, int64_t>, int64_t> bits_per_value;
  std::map<int64_t, int64_t> bits_per_client;
  std::map<int64_t, double> epsilon_per_client;
  int64_t total_bits = 0;
  double total_epsilon = 0.0;
  int64_t denied = 0;
};

// Snapshot malformations DecodeFrom must reject. Each keeps every sum
// consistent, so the duplicate itself is the only defect.
enum class LedgerDefect {
  kNone,
  kDuplicateClient,        // one client entry listed twice
  kDuplicateZeroValue,     // a never-charged value listed twice, zero bits
  kZeroCopyOfChargedValue  // a charged value listed again with zero bits
};

// The canonical snapshot encoding of the model's ledger, written from the
// documented format (sorted ids, zero entries omitted) rather than by
// PrivacyMeter::EncodeTo, with `defect` planted. Returns false when the
// ledger has no client entry to plant a defect in.
bool EncodeModelLedger(const MeterModel& model, LedgerDefect defect,
                       std::vector<uint8_t>* out) {
  struct Entry {
    int64_t client = 0;
    int64_t bits = 0;
    double epsilon = 0.0;
    std::vector<std::pair<int64_t, int64_t>> values;
  };
  std::vector<Entry> entries;
  for (const auto& [client, bits] : model.bits_per_client) {
    const double epsilon = model.epsilon_per_client.at(client);
    if (bits == 0 && epsilon == 0.0) continue;
    Entry entry{client, bits, epsilon, {}};
    for (auto it = model.bits_per_value.lower_bound(
             {client, std::numeric_limits<int64_t>::min()});
         it != model.bits_per_value.end() && it->first.first == client;
         ++it) {
      if (it->second > 0) {
        entry.values.emplace_back(it->first.second, it->second);
      }
    }
    entries.push_back(std::move(entry));
  }
  int64_t total_bits = model.total_bits;
  if (defect != LedgerDefect::kNone) {
    if (entries.empty() || entries.front().values.empty()) return false;
    Entry& first = entries.front();
    switch (defect) {
      case LedgerDefect::kDuplicateClient:
        total_bits += first.bits;
        entries.push_back(first);
        break;
      case LedgerDefect::kDuplicateZeroValue:
        // Charged value ids are 0..5; 1000 never is.
        first.values.emplace_back(1000, 0);
        first.values.emplace_back(1000, 0);
        break;
      case LedgerDefect::kZeroCopyOfChargedValue:
        first.values.emplace_back(first.values.front().first, 0);
        break;
      case LedgerDefect::kNone:
        break;
    }
  }
  out->clear();
  bytes::PutInt64(model.policy.max_bits_per_value, out);
  bytes::PutInt64(model.policy.max_bits_per_client, out);
  bytes::PutDouble(model.policy.max_epsilon_per_client, out);
  bytes::PutInt64(total_bits, out);
  bytes::PutInt64(model.denied, out);
  bytes::PutUint32(static_cast<uint32_t>(entries.size()), out);
  for (const Entry& entry : entries) {
    bytes::PutInt64(entry.client, out);
    bytes::PutInt64(entry.bits, out);
    bytes::PutDouble(entry.epsilon, out);
    bytes::PutUint32(static_cast<uint32_t>(entry.values.size()), out);
    for (const auto& [value, bits] : entry.values) {
      bytes::PutInt64(value, out);
      bytes::PutInt64(bits, out);
    }
  }
  return true;
}

TEST(PropInvariantsTest, PrivacyMeterConservesBudgetAgainstReferenceModel) {
  CheckProperty<MeterCase>(
      "every charge decision, ledger total, and denial count matches the "
      "documented cap model, and no cap is ever exceeded",
      MeterDomain(),
      [](const MeterCase& c) -> std::optional<std::string> {
        MeterPolicy policy;
        policy.max_bits_per_value = c.max_bits_per_value;
        policy.max_bits_per_client = c.max_bits_per_client;
        policy.max_epsilon_per_client = c.max_epsilon_per_client;
        PrivacyMeter meter(policy);
        MeterModel model(policy);
        for (size_t i = 0; i < c.ops.size(); ++i) {
          const ChargeOp& op = c.ops[i];
          const bool granted =
              meter.TryChargeBit(op.client, op.value, op.epsilon());
          const bool expected = model.Charge(op.client, op.value,
                                             op.epsilon());
          if (granted != expected) {
            std::ostringstream out;
            out << "op " << i << ": meter " << (granted ? "granted" : "denied")
                << " but the model " << (expected ? "granted" : "denied");
            return out.str();
          }
        }
        if (meter.total_bits() != model.total_bits) {
          return "total_bits diverged from the model";
        }
        if (meter.denied_charges() != model.denied) {
          return "denied_charges diverged from the model";
        }
        // Conservation: the global total is exactly the sum of per-client
        // ledgers, and no ledger exceeds its cap.
        int64_t client_sum = 0;
        for (const auto& [client, bits] : model.bits_per_client) {
          if (meter.ClientBits(client) != bits) {
            return "a per-client bit ledger diverged from the model";
          }
          if (meter.ClientEpsilon(client) !=
              model.epsilon_per_client[client]) {
            return "a per-client epsilon ledger diverged from the model";
          }
          if (bits > c.max_bits_per_client) {
            return "a client exceeded max_bits_per_client";
          }
          client_sum += bits;
        }
        if (client_sum != meter.total_bits()) {
          return "per-client bits do not sum to total_bits";
        }
        for (const auto& [key, bits] : model.bits_per_value) {
          if (meter.ValueBits(key.first, key.second) != bits) {
            return "a per-value bit ledger diverged from the model";
          }
          if (bits > c.max_bits_per_value) {
            return "a (client, value) pair exceeded max_bits_per_value";
          }
        }
        return std::nullopt;
      });
}

TEST(PropInvariantsTest, PrivacyMeterSerializationRoundTripIsCanonical) {
  CheckProperty<MeterCase>(
      "EncodeTo equals the reference model's canonical ledger bytes; "
      "EncodeTo -> DecodeFrom -> EncodeTo reproduces them and an identical "
      "ledger; a duplicated client or value entry fails closed",
      MeterDomain(),
      [](const MeterCase& c) -> std::optional<std::string> {
        MeterPolicy policy;
        policy.max_bits_per_value = c.max_bits_per_value;
        policy.max_bits_per_client = c.max_bits_per_client;
        policy.max_epsilon_per_client = c.max_epsilon_per_client;
        PrivacyMeter meter(policy);
        MeterModel model(policy);
        for (const ChargeOp& op : c.ops) {
          meter.TryChargeBit(op.client, op.value, op.epsilon());
          model.Charge(op.client, op.value, op.epsilon());
        }
        std::vector<uint8_t> encoded;
        meter.EncodeTo(&encoded);
        std::vector<uint8_t> from_model;
        EncodeModelLedger(model, LedgerDefect::kNone, &from_model);
        if (encoded != from_model) {
          return "EncodeTo differs from the model's canonical ledger bytes";
        }
        PrivacyMeter decoded((MeterPolicy()));
        size_t offset = 0;
        if (!PrivacyMeter::DecodeFrom(encoded, &offset, &decoded)) {
          return "DecodeFrom rejected a meter's own encoding";
        }
        if (offset != encoded.size()) {
          return "DecodeFrom left trailing bytes unconsumed";
        }
        if (decoded.total_bits() != meter.total_bits() ||
            decoded.total_epsilon() != meter.total_epsilon()) {
          return "decoded ledger totals differ from the original";
        }
        for (const ChargeOp& op : c.ops) {
          if (decoded.ClientBits(op.client) != meter.ClientBits(op.client) ||
              decoded.ClientEpsilon(op.client) !=
                  meter.ClientEpsilon(op.client) ||
              decoded.ValueBits(op.client, op.value) !=
                  meter.ValueBits(op.client, op.value)) {
            return "a decoded per-client or per-value ledger differs";
          }
        }
        std::vector<uint8_t> re_encoded;
        decoded.EncodeTo(&re_encoded);
        if (re_encoded != encoded) {
          return "re-encoding the decoded meter produced different bytes";
        }
        for (const LedgerDefect defect :
             {LedgerDefect::kDuplicateClient, LedgerDefect::kDuplicateZeroValue,
              LedgerDefect::kZeroCopyOfChargedValue}) {
          std::vector<uint8_t> malformed;
          if (!EncodeModelLedger(model, defect, &malformed)) break;
          size_t bad_offset = 0;
          if (PrivacyMeter::DecodeFrom(malformed, &bad_offset, &decoded)) {
            return "DecodeFrom accepted a snapshot with a duplicate entry (" +
                   std::to_string(static_cast<int>(defect)) + ")";
          }
          if (bad_offset != 0) return "a rejected decode moved the offset";
        }
        std::vector<uint8_t> after_rejects;
        decoded.EncodeTo(&after_rejects);
        if (after_rejects != encoded) {
          return "a rejected decode modified the target meter";
        }
        return std::nullopt;
      });
}

// ---------------------------------------------------------------------------
// Round tally: every accepted report is tallied exactly once. RunRound
// writes accepted report k into bit-plane slot k; backfill and hedge
// clients come from the pool, so the planes are sized past the cohort and
// the unfilled slots must count nowhere — on the plaintext popcount path
// and on the secure-aggregation path alike.

struct RoundTallyCase {
  uint64_t data_seed = 0;   // client values
  uint64_t round_seed = 0;  // RunRound's rng
  uint64_t fault_seed = 0;
  int bits = 1;
  int64_t cohort = 1;
  int64_t pool = 1;
  FaultRates rates;
  double client_dropout = 0.0;
  bool finite_deadline = false;
  int64_t backfill_rounds = 0;
  int64_t retries = 0;
  bool hedge = false;
  bool finite_budget = false;
  bool central = true;
  bool secure = false;
  double epsilon = 0.0;
};

Domain<RoundTallyCase> RoundTallyDomain() {
  Domain<RoundTallyCase> domain;
  domain.generate = [](Rng& rng) {
    RoundTallyCase c;
    c.data_seed = rng.NextUint64();
    c.round_seed = rng.NextUint64();
    c.fault_seed = rng.NextUint64();
    c.bits = 1 + static_cast<int>(rng.NextBelow(8));
    c.cohort = 1 + static_cast<int64_t>(rng.NextBelow(150));
    c.pool = 1 + static_cast<int64_t>(rng.NextBelow(100));
    // Five rates of at most 0.19 each: the plan needs them to sum to <= 1.
    c.rates.mid_round_dropout = 0.19 * rng.NextDouble();
    c.rates.straggler = 0.19 * rng.NextDouble();
    c.rates.corrupt_message = 0.19 * rng.NextDouble();
    c.rates.truncate_message = 0.19 * rng.NextDouble();
    c.rates.round_boundary_crash = 0.19 * rng.NextDouble();
    c.client_dropout = 0.3 * rng.NextDouble();
    c.finite_deadline = rng.NextBit() == 1;
    c.backfill_rounds = static_cast<int64_t>(rng.NextBelow(4));
    c.retries = static_cast<int64_t>(rng.NextBelow(3));
    c.hedge = rng.NextBit() == 1;
    c.finite_budget = rng.NextBit() == 1;
    c.central = rng.NextBit() == 1;
    c.secure = rng.NextBit() == 1;
    c.epsilon = rng.NextBit() == 1 ? 0.0 : 0.5 + 3.5 * rng.NextDouble();
    return c;
  };
  domain.shrink = [](const RoundTallyCase& c) {
    std::vector<RoundTallyCase> out;
    if (c.cohort > 1) {
      RoundTallyCase smaller = c;
      smaller.cohort = c.cohort / 2;
      out.push_back(smaller);
    }
    if (c.pool > 1) {
      RoundTallyCase smaller = c;
      smaller.pool = c.pool / 2;
      out.push_back(smaller);
    }
    if (c.secure) {
      RoundTallyCase smaller = c;
      smaller.secure = false;
      out.push_back(smaller);
    }
    if (c.hedge) {
      RoundTallyCase smaller = c;
      smaller.hedge = false;
      out.push_back(smaller);
    }
    return out;
  };
  domain.describe = [](const RoundTallyCase& c) {
    std::ostringstream out;
    out << "{bits=" << c.bits << " cohort=" << c.cohort
        << " pool=" << c.pool << " backfill_rounds=" << c.backfill_rounds
        << " retries=" << c.retries << " hedge=" << c.hedge
        << " finite_budget=" << c.finite_budget
        << " finite_deadline=" << c.finite_deadline
        << " central=" << c.central << " secure=" << c.secure
        << " epsilon=" << c.epsilon << "}";
    return out.str();
  };
  return domain;
}

TEST(PropInvariantsTest, RoundTallyCountsEveryAcceptedReportOnce) {
  CheckProperty<RoundTallyCase>(
      "sum_j histogram.total(j) == responded == comm.reports_received and "
      "responded <= contacted, under faults, backfill and hedging",
      RoundTallyDomain(),
      [](const RoundTallyCase& c) -> std::optional<std::string> {
        Rng data_rng(c.data_seed);
        const uint64_t levels = uint64_t{1} << c.bits;
        std::vector<double> values(static_cast<size_t>(c.cohort + c.pool));
        for (double& v : values) {
          v = static_cast<double>(data_rng.NextBelow(levels));
        }
        ClientConfig client_config;
        client_config.dropout_probability = c.client_dropout;
        const std::vector<Client> clients =
            MakePopulation(values, client_config);
        std::vector<int64_t> cohort;
        for (int64_t i = 0; i < c.cohort; ++i) cohort.push_back(i);
        const FaultPlan plan(c.fault_seed, c.rates);

        RoundConfig config;
        config.probabilities = GeometricProbabilities(c.bits, 0.5);
        config.epsilon = c.epsilon;
        config.central_randomness = c.central;
        config.use_secure_aggregation = c.secure;
        config.round_id = 1;
        config.fault_plan = &plan;
        if (c.finite_deadline) config.fault_policy.report_deadline_minutes = 5;
        config.fault_policy.max_backfill_rounds = c.backfill_rounds;
        for (int64_t i = c.cohort; i < c.cohort + c.pool; ++i) {
          config.backfill_pool.push_back(i);
        }
        config.resilience.seed = c.fault_seed ^ 0x5EED;
        config.resilience.retry.max_retries_per_client = c.retries;
        config.resilience.hedge.enabled = c.hedge;
        config.resilience.hedge.trigger_budget_fraction = 0.5;
        // One contact per simulated minute, so a budget of about half the
        // cohort forces pre-emptive hedges partway through the round.
        config.resilience.latency.checkins_per_minute = 1.0;
        if (c.finite_budget) {
          config.resilience.budget.minutes =
              static_cast<double>(c.cohort) / 2.0 + 1.0;
        }

        const AggregationServer server(FixedPointCodec::Integer(c.bits));
        Rng rng(c.round_seed);
        const RoundOutcome outcome =
            server.RunRound(clients, cohort, config, nullptr,
                            rng.NextUint64(), rng);

        int64_t tallied = 0;
        for (int j = 0; j < c.bits; ++j) {
          tallied += outcome.histogram.total(j);
        }
        if (tallied != outcome.responded) {
          std::ostringstream out;
          out << "histogram holds " << tallied << " reports but "
              << outcome.responded << " responded";
          return out.str();
        }
        if (outcome.responded != outcome.comm.reports_received) {
          std::ostringstream out;
          out << outcome.responded << " responded but "
              << outcome.comm.reports_received << " reports received";
          return out.str();
        }
        if (outcome.responded > outcome.contacted) {
          std::ostringstream out;
          out << outcome.responded << " responded out of only "
              << outcome.contacted << " contacted";
          return out.str();
        }
        return std::nullopt;
      });
}

// ---------------------------------------------------------------------------
// Client coins are order-free. A client's dropout roll, value selection and
// randomized-response flip are keyed draws of (coin key, round, client,
// purpose), so the tally and the meter ledger of a set of (client, assigned
// bit) requests do not depend on the order the clients answer in, nor on
// how the requests are split into chunks and which chunk runs first — the
// contract that lets collection run in passes, on threads, or resume from
// state. A shared sequential Rng breaks it: permuting the requests hands
// each client another client's coins.

struct OrderFreeCase {
  uint64_t coin_key = 0;
  uint64_t data_seed = 0;   // client values
  uint64_t order_seed = 0;  // permutation, chunk count, chunk order
  int bits = 1;
  std::vector<std::pair<int64_t, int>> pairs;  // (client id, assigned bit)
  int64_t values_per_client = 1;
  double dropout = 0.0;
  double epsilon = 0.0;
  int64_t max_bits_per_client = 1;
  // The first `exhausted` clients spent their whole per-client budget on
  // earlier queries, so the meter denies them in this round.
  int64_t exhausted = 0;
};

Domain<OrderFreeCase> OrderFreeDomain() {
  Domain<OrderFreeCase> domain;
  domain.generate = [](Rng& rng) {
    OrderFreeCase c;
    c.coin_key = rng.NextUint64();
    c.data_seed = rng.NextUint64();
    c.order_seed = rng.NextUint64();
    c.bits = 1 + static_cast<int>(rng.NextBelow(8));
    const int64_t n = 1 + static_cast<int64_t>(rng.NextBelow(200));
    // Distinct, sparse client ids: one assignment per client per round.
    int64_t id = static_cast<int64_t>(rng.NextBelow(1000));
    for (int64_t i = 0; i < n; ++i) {
      id += 1 + static_cast<int64_t>(rng.NextBelow(50));
      c.pairs.emplace_back(id, static_cast<int>(rng.NextBelow(
                                   static_cast<uint64_t>(c.bits))));
    }
    c.values_per_client = 1 + static_cast<int64_t>(rng.NextBelow(4));
    c.dropout = rng.NextBit() == 1 ? 0.0 : 0.5 * rng.NextDouble();
    c.epsilon = rng.NextBit() == 1 ? 0.0 : 0.5 + 3.5 * rng.NextDouble();
    c.max_bits_per_client = 1 + static_cast<int64_t>(rng.NextBelow(3));
    c.exhausted = static_cast<int64_t>(
        rng.NextBelow(static_cast<uint64_t>(n) + 1));
    return c;
  };
  domain.shrink = [](const OrderFreeCase& c) {
    std::vector<OrderFreeCase> out;
    if (c.pairs.size() > 1) {
      OrderFreeCase smaller = c;
      smaller.pairs.resize(c.pairs.size() / 2);
      smaller.exhausted = std::min<int64_t>(
          c.exhausted, static_cast<int64_t>(smaller.pairs.size()));
      out.push_back(smaller);
    }
    if (c.exhausted > 0) {
      OrderFreeCase smaller = c;
      smaller.exhausted = 0;
      out.push_back(smaller);
    }
    if (c.values_per_client > 1) {
      OrderFreeCase smaller = c;
      smaller.values_per_client = 1;
      out.push_back(smaller);
    }
    return out;
  };
  domain.describe = [](const OrderFreeCase& c) {
    std::ostringstream out;
    out << "{pairs=" << c.pairs.size() << " bits=" << c.bits
        << " values_per_client=" << c.values_per_client
        << " dropout=" << c.dropout << " epsilon=" << c.epsilon
        << " max_bits_per_client=" << c.max_bits_per_client
        << " exhausted=" << c.exhausted << "}";
    return out.str();
  };
  return domain;
}

struct OrderFreeTally {
  BitHistogram histogram;
  std::vector<uint8_t> meter;
};

// Answers every request of `c` through Client::HandleRequest in `order`,
// cut into `chunks` contiguous chunks that run in `chunk_order`, each
// tallied into its own histogram and merged at the end.
OrderFreeTally RunOrderFree(const OrderFreeCase& c,
                            const std::vector<Client>& clients,
                            const std::vector<size_t>& order, size_t chunks,
                            const std::vector<size_t>& chunk_order) {
  constexpr int64_t kRoundId = 2;
  constexpr int64_t kValueId = 7;
  MeterPolicy policy;
  policy.max_bits_per_client = c.max_bits_per_client;
  PrivacyMeter meter(policy);
  for (int64_t i = 0; i < c.exhausted; ++i) {
    for (int64_t k = 0; k < c.max_bits_per_client; ++k) {
      meter.TryChargeBit(c.pairs[static_cast<size_t>(i)].first,
                         kValueId + 1 + k, c.epsilon);
    }
  }
  const FixedPointCodec codec = FixedPointCodec::Integer(c.bits);
  OrderFreeTally tally{BitHistogram(c.bits), {}};
  for (const size_t chunk : chunk_order) {
    BitHistogram part(c.bits);
    const size_t begin = chunk * order.size() / chunks;
    const size_t end = (chunk + 1) * order.size() / chunks;
    for (size_t k = begin; k < end; ++k) {
      const size_t i = order[k];
      const BitRequest request{kRoundId, kValueId, c.pairs[i].second,
                               c.epsilon};
      const std::optional<BitReport> report = clients[i].HandleRequest(
          request, codec, /*local_randomness=*/false, &meter, c.coin_key);
      if (report.has_value()) part.Add(request.bit_index, report->bit);
    }
    tally.histogram.Merge(part);
  }
  meter.EncodeTo(&tally.meter);
  return tally;
}

TEST(PropInvariantsTest, ClientCoinsAreOrderFree) {
  CheckProperty<OrderFreeCase>(
      "the histogram and the meter bytes of a set of (client, bit) requests "
      "are identical under any permutation and any chunked run order",
      OrderFreeDomain(),
      [](const OrderFreeCase& c) -> std::optional<std::string> {
        Rng data_rng(c.data_seed);
        ClientConfig config;
        config.dropout_probability = c.dropout;
        config.value_policy = ValuePolicy::kSampleOne;
        const uint64_t levels = uint64_t{1} << c.bits;
        std::vector<Client> clients;
        for (const auto& [id, bit] : c.pairs) {
          std::vector<double> values(static_cast<size_t>(c.values_per_client));
          for (double& v : values) {
            v = static_cast<double>(data_rng.NextBelow(levels));
          }
          clients.emplace_back(id, std::move(values), config);
        }
        const size_t n = c.pairs.size();
        std::vector<size_t> identity(n);
        for (size_t i = 0; i < n; ++i) identity[i] = i;
        const OrderFreeTally reference =
            RunOrderFree(c, clients, identity, 1, {0});

        Rng order_rng(c.order_seed);
        const auto shuffle = [&order_rng](std::vector<size_t>* v) {
          for (size_t i = v->size(); i > 1; --i) {
            std::swap((*v)[i - 1], (*v)[order_rng.NextBelow(i)]);
          }
        };
        for (int trial = 0; trial < 3; ++trial) {
          std::vector<size_t> order = identity;
          shuffle(&order);
          const size_t chunks =
              1 + order_rng.NextBelow(std::min<size_t>(n, 8));
          std::vector<size_t> chunk_order(chunks);
          for (size_t k = 0; k < chunks; ++k) chunk_order[k] = k;
          shuffle(&chunk_order);
          const OrderFreeTally run =
              RunOrderFree(c, clients, order, chunks, chunk_order);
          if (run.histogram.totals() != reference.histogram.totals() ||
              run.histogram.one_counts() !=
                  reference.histogram.one_counts()) {
            std::ostringstream out;
            out << "trial " << trial << " (" << chunks
                << " chunks): the histogram depends on the answer order";
            return out.str();
          }
          if (run.meter != reference.meter) {
            std::ostringstream out;
            out << "trial " << trial << " (" << chunks
                << " chunks): the meter bytes depend on the answer order";
            return out.str();
          }
        }
        return std::nullopt;
      });
}

}  // namespace
}  // namespace bitpush
