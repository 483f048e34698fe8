#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "federated/cohort.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

std::vector<Client> TestPopulation(int n) {
  std::vector<double> values;
  for (int i = 0; i < n; ++i) values.push_back(static_cast<double>(i));
  return MakePopulation(values, ClientConfig{});
}

TEST(CohortTest, SelectsEveryoneByDefault) {
  const std::vector<Client> clients = TestPopulation(10);
  Rng rng(1);
  bool below = true;
  const std::vector<int64_t> cohort =
      SelectCohort(clients, nullptr, CohortPolicy{}, rng, &below);
  EXPECT_FALSE(below);
  EXPECT_EQ(cohort.size(), 10u);
  const std::set<int64_t> unique(cohort.begin(), cohort.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(CohortTest, EligibilityFilterApplies) {
  const std::vector<Client> clients = TestPopulation(10);
  Rng rng(2);
  bool below = true;
  const std::vector<int64_t> cohort = SelectCohort(
      clients,
      [](const Client& c) {
        return c.SelectValue(/*coin_key=*/0, /*round_id=*/0) >= 5.0;
      },
      CohortPolicy{}, rng, &below);
  EXPECT_FALSE(below);
  EXPECT_EQ(cohort.size(), 5u);
  for (const int64_t i : cohort) EXPECT_GE(i, 5);
}

TEST(CohortTest, MinimumCohortSizeAborts) {
  // Section 4.3: selective queries must "enforce a minimum cohort size for
  // privacy".
  const std::vector<Client> clients = TestPopulation(10);
  Rng rng(3);
  CohortPolicy policy;
  policy.min_cohort_size = 8;
  bool below = false;
  const std::vector<int64_t> cohort = SelectCohort(
      clients,
      [](const Client& c) {
        return c.SelectValue(/*coin_key=*/0, /*round_id=*/0) < 5.0;
      },
      policy, rng, &below);
  EXPECT_TRUE(below);
  EXPECT_TRUE(cohort.empty());
}

TEST(CohortTest, MaxCohortTruncatesAfterShuffle) {
  const std::vector<Client> clients = TestPopulation(100);
  Rng rng(4);
  CohortPolicy policy;
  policy.max_cohort_size = 10;
  bool below = true;
  const std::vector<int64_t> cohort =
      SelectCohort(clients, nullptr, policy, rng, &below);
  EXPECT_EQ(cohort.size(), 10u);
  // Shuffled: overwhelmingly unlikely to be exactly the first ten ids.
  bool is_prefix = true;
  for (size_t i = 0; i < cohort.size(); ++i) {
    if (cohort[i] != static_cast<int64_t>(i)) is_prefix = false;
  }
  EXPECT_FALSE(is_prefix);
}

TEST(CohortTest, TruncationIsUnbiasedSubsample) {
  const std::vector<Client> clients = TestPopulation(100);
  CohortPolicy policy;
  policy.max_cohort_size = 10;
  std::vector<int64_t> appearances(100, 0);
  Rng rng(5);
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    bool below = true;
    for (const int64_t i : SelectCohort(clients, nullptr, policy, rng,
                                        &below)) {
      ++appearances[static_cast<size_t>(i)];
    }
  }
  // Each client appears with probability 0.1.
  for (const int64_t count : appearances) {
    EXPECT_NEAR(static_cast<double>(count) / trials, 0.1, 0.03);
  }
}

TEST(CohortDeathTest, InvalidPolicyAborts) {
  const std::vector<Client> clients = TestPopulation(3);
  Rng rng(6);
  CohortPolicy policy;
  policy.min_cohort_size = 0;
  bool below = false;
  EXPECT_DEATH(SelectCohort(clients, nullptr, policy, rng, &below),
               "BITPUSH_CHECK failed");
  EXPECT_DEATH(SelectCohort(clients, nullptr, CohortPolicy{}, rng, nullptr),
               "BITPUSH_CHECK failed");
}

}  // namespace
}  // namespace bitpush
