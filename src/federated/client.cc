#include "federated/client.h"

#include "rng/keyed.h"
#include "stats/welford.h"
#include "util/check.h"

namespace bitpush {
namespace {

// Purpose keys separating a client's coins within one (query, round).
enum ClientCoin : uint64_t {
  kDropoutCoin = 1,
  kSelectCoin = 2,
  kFlipCoin = 3,
};

}  // namespace

Client::Client(int64_t id, std::vector<double> values, ClientConfig config)
    : Client(SingleValue{}, id, values.empty() ? 0.0 : values.front(),
             config) {
  BITPUSH_CHECK(!values.empty());
  more_values_.assign(values.begin() + 1, values.end());
}

Client::Client(SingleValue, int64_t id, double value,
               const ClientConfig& config)
    : id_(id), first_value_(value), config_(config) {
  BITPUSH_CHECK_GE(config_.dropout_probability, 0.0);
  BITPUSH_CHECK_LE(config_.dropout_probability, 1.0);
}

double Client::SelectValue(uint64_t coin_key, int64_t round_id) const {
  switch (config_.value_policy) {
    case ValuePolicy::kSampleOne: {
      if (more_values_.empty()) return first_value_;
      // Multiply-high maps the 64-bit coin onto [0, size) (Lemire 2019);
      // the bias is at most size / 2^64.
      const uint64_t coin = KeyedHash(coin_key, round_id, id_, kSelectCoin);
      const size_t pick = static_cast<size_t>(
          (static_cast<unsigned __int128>(coin) * (1 + more_values_.size())) >>
          64);
      return pick == 0 ? first_value_ : more_values_[pick - 1];
    }
    case ValuePolicy::kLocalMean: {
      Welford acc;
      acc.Add(first_value_);
      for (const double v : more_values_) acc.Add(v);
      return acc.mean();
    }
    case ValuePolicy::kFirstValue:
      return first_value_;
  }
  BITPUSH_CHECK(false) << "unreachable";
  return 0.0;
}

std::optional<BitReport> Client::HandleRequest(const BitRequest& request,
                                               const FixedPointCodec& codec,
                                               bool local_randomness,
                                               PrivacyMeter* meter,
                                               uint64_t coin_key) const {
  const int64_t round_id = request.round_id;
  if (config_.dropout_probability > 0.0 &&
      KeyedUniform(coin_key, round_id, id_, kDropoutCoin) <
          config_.dropout_probability) {
    return std::nullopt;
  }
  if (meter != nullptr &&
      !meter->TryChargeBit(id_, request.value_id,
                           request.rr_epsilon > 0 ? request.rr_epsilon
                                                  : 0.0)) {
    return std::nullopt;
  }

  const uint64_t codeword = codec.Encode(SelectValue(coin_key, round_id));
  const int true_bit = FixedPointCodec::Bit(codeword, request.bit_index);
  int reported_index = request.bit_index;
  const int raw_bit =
      PoisonedBit(config_.adversary, local_randomness, codec.bits() - 1,
                  request.bit_index, true_bit, &reported_index);
  const RandomizedResponse rr =
      RandomizedResponse::FromEpsilon(request.rr_epsilon);
  // Adversaries skip their own noise addition: they report exactly the bit
  // they want the server to see. Honest clients perturb.
  const int bit = config_.adversary == AdversaryMode::kHonest
                      ? rr.Apply(raw_bit, KeyedUniform(coin_key, round_id,
                                                       id_, kFlipCoin))
                      : raw_bit;
  return BitReport{id_, reported_index, bit};
}

std::vector<Client> MakePopulation(const std::vector<double>& values,
                                   const ClientConfig& config) {
  std::vector<Client> clients;
  clients.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    clients.push_back(
        Client(Client::SingleValue{}, static_cast<int64_t>(i), values[i],
               config));
  }
  return clients;
}

}  // namespace bitpush
