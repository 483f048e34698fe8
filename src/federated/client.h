// Simulated client device.
//
// A client holds one or more private values for a feature (Section 4.3:
// "for many features of interest, most clients hold several values"),
// selects the value to contribute per the configured semantics, and answers
// the server's bit requests — metering every disclosed private bit, and
// dropping out of rounds with a configured probability (the intermittent
// connectivity of Section 4.3).
//
// A client's coins are its own: the dropout roll, the value selection and
// the randomized-response flip are keyed draws (rng/keyed.h) of (query
// coin key, round id, client id, purpose). No coin depends on which other
// clients were asked before this one, so a round's outcome does not depend
// on collection order.

#ifndef BITPUSH_FEDERATED_CLIENT_H_
#define BITPUSH_FEDERATED_CLIENT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/fixed_point.h"
#include "core/privacy_meter.h"
#include "federated/poisoning.h"
#include "federated/report.h"
#include "ldp/randomized_response.h"

namespace bitpush {

// How a multi-value client reduces its local values to the single value it
// contributes (Section 4.3, "Aggregating multiple local values per
// feature").
enum class ValuePolicy {
  kSampleOne,   // uniform random local value (the deployed semantics)
  kLocalMean,   // mean of the local values
  kFirstValue,  // deterministic; degenerate single-value clients
};

struct ClientConfig {
  double dropout_probability = 0.0;
  ValuePolicy value_policy = ValuePolicy::kSampleOne;
  AdversaryMode adversary = AdversaryMode::kHonest;
};

class Client {
 public:
  // `values` must be non-empty.
  Client(int64_t id, std::vector<double> values, ClientConfig config);

  int64_t id() const { return id_; }
  const ClientConfig& config() const { return config_; }

  // The value this client contributes in round `round_id` of the query
  // keyed `coin_key`, under its policy. Only a multi-value kSampleOne
  // client draws a coin.
  double SelectValue(uint64_t coin_key, int64_t round_id) const;

  // Handles one bit request of the query keyed `coin_key`. Returns nullopt
  // when the client drops out of the round or its privacy meter refuses
  // the disclosure. `local_randomness` lets an adversary override the
  // server's bit index; honest clients report under the request's index.
  // `meter` may be null (no metering).
  std::optional<BitReport> HandleRequest(const BitRequest& request,
                                         const FixedPointCodec& codec,
                                         bool local_randomness,
                                         PrivacyMeter* meter,
                                         uint64_t coin_key) const;

 private:
  friend std::vector<Client> MakePopulation(const std::vector<double>& values,
                                            const ClientConfig& config);
  // A single-value client, built without a heap block. The tag keeps
  // this overload out of brace-initialized calls like Client(id, {v}, c).
  struct SingleValue {};
  Client(SingleValue, int64_t id, double value, const ClientConfig& config);

  // The first value sits inline, so a single-value client (every client a
  // population of scalars holds) is one flat object: a round touches it
  // with one fetch and no pointer chase. Only a multi-value client fills
  // `more_values_` with its second and later values.
  int64_t id_;
  double first_value_;
  std::vector<double> more_values_;
  ClientConfig config_;
};

// Builds one single-value client per element of `values`, ids 0..n-1.
std::vector<Client> MakePopulation(const std::vector<double>& values,
                                   const ClientConfig& config);

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_CLIENT_H_
