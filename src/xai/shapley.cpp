#include "xai/shapley.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/finite_check.h"

namespace mmhar::xai {

std::vector<double> exact_shapley(std::size_t num_players,
                                  const ValueFunction& value) {
  MMHAR_REQUIRE(num_players >= 1 && num_players <= 20,
                "exact Shapley limited to 1..20 players, got " << num_players);
  const std::size_t full = std::size_t{1} << num_players;

  // Cache all coalition values once: v is called 2^M times, not M * 2^M.
  std::vector<double> v(full);
  std::vector<bool> mask(num_players);
  for (std::size_t s = 0; s < full; ++s) {
    for (std::size_t i = 0; i < num_players; ++i)
      mask[i] = (s >> i) & std::size_t{1};
    v[s] = value(mask);
  }

  // Precompute the weighting function |S|!(M-|S|-1)!/M! by coalition size.
  std::vector<double> weight(num_players);
  {
    // log-factorials for numerical stability at larger M.
    std::vector<double> logfact(num_players + 1, 0.0);
    for (std::size_t i = 1; i <= num_players; ++i)
      logfact[i] = logfact[i - 1] + std::log(static_cast<double>(i));
    for (std::size_t s = 0; s < num_players; ++s) {
      weight[s] = std::exp(logfact[s] + logfact[num_players - s - 1] -
                           logfact[num_players]);
    }
  }

  std::vector<double> phi(num_players, 0.0);
  for (std::size_t s = 0; s < full; ++s) {
    for (std::size_t i = 0; i < num_players; ++i) {
      if ((s >> i) & std::size_t{1}) continue;  // i must be absent from S
      const std::size_t with_i = s | (std::size_t{1} << i);
      const std::size_t size_s =
          static_cast<std::size_t>(std::popcount(s));
      phi[i] += weight[size_s] * (v[with_i] - v[s]);
    }
  }
  // A non-finite coalition value silently corrupts every phi it touches;
  // the attack's frame ranking then becomes noise. Trip on both inputs and
  // outputs so the offending value function is identified.
  check_finite(std::span<const double>(v), "coalition-values",
               "exact_shapley");
  check_finite(std::span<const double>(phi), "shapley-phi", "exact_shapley");
  return phi;
}

std::vector<double> sampling_shapley(std::size_t num_players,
                                     const BatchValueFunction& value,
                                     std::size_t num_permutations, Rng& rng) {
  MMHAR_REQUIRE(num_players >= 1, "need at least one player");
  MMHAR_REQUIRE(num_permutations >= 1, "need at least one permutation");

  std::vector<double> phi(num_players, 0.0);
  std::vector<std::size_t> perm(num_players);
  for (std::size_t i = 0; i < num_players; ++i) perm[i] = i;

  // One antithetic pair: rows [0, M] grow the coalition along the
  // permutation from empty to full, rows [M + 1, 2M + 1] along its
  // reverse.
  const std::size_t rows_per_order = num_players + 1;
  std::vector<std::uint8_t> masks(2 * rows_per_order * num_players);
  std::vector<double> values(2 * rows_per_order);
  const auto fill_order = [&](std::size_t order, auto player_at) {
    MMHAR_CHECK(order < 2);
    std::uint8_t* row = masks.data() + order * rows_per_order * num_players;
    std::fill(row, row + num_players, std::uint8_t{0});
    for (std::size_t i = 0; i < num_players; ++i) {
      std::copy(row, row + num_players, row + num_players);
      row += num_players;
      row[player_at(i)] = 1;
    }
  };
  const auto accumulate_order = [&](std::size_t order, auto player_at) {
    MMHAR_CHECK(order < 2);
    const double* v = values.data() + order * rows_per_order;
    for (std::size_t i = 0; i < num_players; ++i)
      phi[player_at(i)] += v[i + 1] - v[i];
  };
  const auto forward = [&](std::size_t i) { return perm[i]; };
  const auto reverse = [&](std::size_t i) {
    return perm[num_players - 1 - i];
  };

  for (std::size_t n = 0; n < num_permutations; ++n) {
    rng.shuffle(perm);
    fill_order(0, forward);
    // Antithetic pair: the reversed permutation (variance reduction).
    fill_order(1, reverse);
    value(masks, values);
    accumulate_order(0, forward);
    accumulate_order(1, reverse);
  }

  const double inv = 1.0 / (2.0 * static_cast<double>(num_permutations));
  for (auto& p : phi) p *= inv;
  check_finite(std::span<const double>(phi), "shapley-phi",
               "sampling_shapley");
  return phi;
}

std::vector<double> sampling_shapley(std::size_t num_players,
                                     const ValueFunction& value,
                                     std::size_t num_permutations, Rng& rng) {
  std::vector<bool> mask(num_players);
  const BatchValueFunction batched = [&](std::span<const std::uint8_t> masks,
                                         std::span<double> values) {
    for (std::size_t r = 0; r < values.size(); ++r) {
      for (std::size_t i = 0; i < num_players; ++i)
        mask[i] = masks[r * num_players + i] != 0;
      values[r] = value(mask);
    }
  };
  return sampling_shapley(num_players, batched, num_permutations, rng);
}

std::vector<std::size_t> top_k_by_magnitude(const std::vector<double>& values,
                                            std::size_t k) {
  std::vector<std::size_t> idx(values.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  k = std::min(k, idx.size());
  std::stable_sort(idx.begin(), idx.end(),
                   [&values](std::size_t a, std::size_t b) {
                     return std::abs(values[a]) > std::abs(values[b]);
                   });
  idx.resize(k);
  return idx;
}

}  // namespace mmhar::xai
