// Deterministic random number generation.
//
// All stochastic components of the library (dataset generation, weight
// initialization, SHAP sampling, poisoning choices) draw from an explicitly
// plumbed `Rng` so that every experiment is reproducible from a single seed.
// `Rng::fork(tag)` derives statistically independent child streams, which
// lets parallel workers consume randomness without sharing state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/thread_annotations.h"

namespace mmhar {

class BinaryReader;
class BinaryWriter;

/// SplitMix64-seeded xoshiro256** generator with convenience samplers.
///
/// Not cryptographic; chosen for speed, tiny state, and good statistical
/// quality (passes BigCrush). Copyable value type.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Derive an independent child stream. Children with distinct tags (or
  /// from distinct parents) do not overlap in practice.
  Rng fork(std::uint64_t tag);

  /// Uniform 64-bit integer.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box–Muller (cached spare deviate).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// n normals as floats: out[i] == static_cast<float>(normal(mean,
  /// stddev)) for every i, bit for bit, and the generator ends in the
  /// state n such calls leave (spare and save() bytes included). Pairs
  /// are computed in vector double math; a pair whose float could differ
  /// from the scalar one (see kNormalsGuardTolerance) is recomputed with
  /// the scalar formula, and so are a spare held on entry and the last
  /// pair, whose spare the generator keeps.
  void normals_f32(float* out, std::size_t n, double mean,
                   double stddev) MMHAR_DETERMINISTIC;

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p);

  /// Sample k distinct indices from [0, n) without replacement.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// In-place Fisher–Yates shuffle of an index vector.
  void shuffle(std::vector<std::size_t>& v);

  /// Serialize the full generator state (stream position included), so a
  /// restored Rng continues bit-identically. Used by training checkpoints.
  void save(BinaryWriter& w) const;
  void load(BinaryReader& r);

 private:
  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

/// Relative error bound normals_f32's guard assumes for its vector
/// Box–Muller: |z_fast - z| <= kNormalsGuardTolerance * |z| for every lane
/// box_muller_pairs does not mark NaN, where z is the scalar normal()
/// value. The measured error is about 2^-50 (Rng.NormalsF32FastPathError).
inline constexpr double kNormalsGuardTolerance = 0x1p-40;

/// The unguarded vector Box–Muller behind normals_f32: for each pair of
/// uniforms (u1 in (0, 1), u2 in [0, 1)), c = r cos(2 pi u2) and
/// s = r sin(2 pi u2) with r = sqrt(-2 ln u1), to within the guard's
/// tolerance. Lanes whose cosine or sine is too close to zero for that
/// bound come out NaN in both c and s. n must be a multiple of 8.
void box_muller_pairs(const double* u1, const double* u2, std::size_t n,
                      double* c, double* s);

}  // namespace mmhar
