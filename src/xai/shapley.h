// Shapley value computation over generic coalition value functions.
//
// Two estimators:
//  * `exact_shapley` — the exact Eq. 1 sum over all 2^M coalitions; used
//    as the oracle in tests (M <= 20).
//  * `sampling_shapley` — unbiased permutation sampling with antithetic
//    (forward + reversed) permutations. Each permutation contributes the
//    marginal gain of every player exactly once, so the efficiency
//    property  sum_i φ_i = v(full) − v(empty)  holds per permutation and
//    therefore for the final average as well.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/rng.h"

namespace mmhar::xai {

/// Coalition value oracle: mask[i] == true means player i is present.
using ValueFunction = std::function<double(const std::vector<bool>&)>;

/// Batched coalition oracle: `masks` holds values.size() coalitions of
/// num_players flags each, row-major (non-zero = present); write the value
/// of coalition r to values[r].
using BatchValueFunction = std::function<void(
    std::span<const std::uint8_t> masks, std::span<double> values)>;

/// Exact Shapley values (Eq. 1). Cost O(2^M * M); requires M <= 20.
std::vector<double> exact_shapley(std::size_t num_players,
                                  const ValueFunction& value);

/// Permutation-sampling Shapley estimate using `num_permutations`
/// antithetic pairs (so 2 * num_permutations permutations total). The
/// permutations do not depend on the values, so each pair's 2 * (M + 1)
/// coalitions go to `value` as one batch; the marginal gains are then
/// summed in permutation order.
std::vector<double> sampling_shapley(std::size_t num_players,
                                     const BatchValueFunction& value,
                                     std::size_t num_permutations, Rng& rng);

/// The same estimate over a one-coalition-at-a-time oracle.
std::vector<double> sampling_shapley(std::size_t num_players,
                                     const ValueFunction& value,
                                     std::size_t num_permutations, Rng& rng);

/// Indices of the k largest values by magnitude, in descending order of
/// |value| (stable on ties by lower index first).
std::vector<std::size_t> top_k_by_magnitude(const std::vector<double>& values,
                                            std::size_t k);

}  // namespace mmhar::xai
