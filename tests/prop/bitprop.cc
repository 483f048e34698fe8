#include "prop/bitprop.h"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "rng/keyed.h"

namespace bitpush::prop {
namespace {

std::optional<uint64_t> EnvUint64(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 0);
  if (errno != 0 || end == raw || *end != '\0') return std::nullopt;
  return static_cast<uint64_t>(value);
}

RunConfig ParseRunConfig() {
  RunConfig config;
  config.pinned_seed = EnvUint64("BITPROP_SEED");
  if (const std::optional<uint64_t> base = EnvUint64("BITPROP_BASE_SEED");
      base.has_value()) {
    config.base_seed = *base;
  }
  if (const std::optional<uint64_t> iters = EnvUint64("BITPROP_ITERS");
      iters.has_value() && *iters > 0) {
    config.iterations_override = static_cast<int64_t>(
        std::min<uint64_t>(*iters, std::numeric_limits<int64_t>::max()));
  }
  return config;
}

}  // namespace

const RunConfig& GlobalRunConfig() {
  static const RunConfig config = ParseRunConfig();
  return config;
}

uint64_t CaseSeed(uint64_t base_seed, uint64_t iteration) {
  // SplitMix64 (rng/keyed.h), so a case seed is a well-scrambled pure
  // function of (base, i).
  return Mix(base_seed + Mix(iteration));
}

std::string FormatFailureReport(const std::string& name,
                                const CheckOutcome& outcome) {
  std::ostringstream out;
  out << "property '" << name << "' failed";
  if (outcome.failing_iteration >= 0) {
    out << " at iteration " << outcome.failing_iteration;
  } else {
    out << " (BITPROP_SEED reproduction)";
  }
  out << "\n  reproduce: BITPROP_SEED=" << outcome.failing_seed
      << "\n  original:  " << outcome.original << "\n  minimal ("
      << outcome.shrink_steps << " shrink steps): " << outcome.minimal
      << "\n  failure:   " << outcome.message;
  return out.str();
}

Domain<int64_t> InRange(int64_t lo, int64_t hi) {
  Domain<int64_t> domain;
  domain.generate = [lo, hi](Rng& rng) {
    return lo + static_cast<int64_t>(
                    rng.NextBelow(static_cast<uint64_t>(hi - lo) + 1));
  };
  domain.shrink = [lo](const int64_t& value) {
    std::vector<int64_t> candidates;
    if (value == lo) return candidates;
    candidates.push_back(lo);
    // Binary steps toward lo, finishing with value - 1 so a threshold
    // property lands exactly on its boundary.
    for (int64_t delta = (value - lo) / 2; delta > 1; delta /= 2) {
      candidates.push_back(lo + delta);
    }
    candidates.push_back(value - 1);
    return candidates;
  };
  domain.describe = [](const int64_t& value) { return std::to_string(value); };
  return domain;
}

Domain<double> InReal(double lo, double hi) {
  Domain<double> domain;
  domain.generate = [lo, hi](Rng& rng) {
    return lo + (hi - lo) * rng.NextDouble();
  };
  domain.shrink = [lo](const double& value) {
    std::vector<double> candidates;
    if (!(value > lo)) return candidates;
    candidates.push_back(lo);
    double step = (value - lo) / 2.0;
    for (int i = 0; i < 8 && step > 0.0; ++i, step /= 2.0) {
      candidates.push_back(lo + step);
    }
    return candidates;
  };
  domain.describe = [](const double& value) {
    std::ostringstream out;
    out.precision(17);
    out << value;
    return out.str();
  };
  return domain;
}

Domain<uint64_t> Below(uint64_t bound) {
  Domain<uint64_t> domain;
  domain.generate = [bound](Rng& rng) { return rng.NextBelow(bound); };
  domain.shrink = [](const uint64_t& value) {
    std::vector<uint64_t> candidates;
    if (value == 0) return candidates;
    candidates.push_back(0);
    for (uint64_t half = value / 2; half > 1; half /= 2) {
      candidates.push_back(half);
    }
    candidates.push_back(value - 1);
    return candidates;
  };
  domain.describe = [](const uint64_t& value) { return std::to_string(value); };
  return domain;
}

}  // namespace bitpush::prop
