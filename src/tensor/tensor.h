// Dense row-major float tensor.
//
// `Tensor` is the single numeric container shared by the DSP pipeline
// (real heatmaps), the neural-network library (activations, weights,
// gradients), and the attack code (feature vectors). It is a value type:
// copying copies the buffer, moving steals it. Shapes are dynamic
// (rank 1..4 in practice). All indexing is bounds-checked in debug-ish
// paths via MMHAR_CHECK; hot loops use raw data() pointers.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/serialize.h"

namespace mmhar {

class Tensor {
 public:
  /// Empty (rank-0, zero elements) tensor.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::initializer_list<std::size_t> shape);

  /// Build from explicit data (size must match shape product).
  Tensor(std::vector<std::size_t> shape, std::vector<float> data);

  static Tensor zeros(std::vector<std::size_t> shape) {
    return Tensor(std::move(shape));
  }
  static Tensor full(std::vector<std::size_t> shape, float value);
  /// I.i.d. N(mean, stddev) entries.
  static Tensor randn(std::vector<std::size_t> shape, Rng& rng,
                      float mean = 0.0F, float stddev = 1.0F);
  /// I.i.d. U[lo, hi) entries.
  static Tensor rand_uniform(std::vector<std::size_t> shape, Rng& rng,
                             float lo, float hi);

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t size() const { return data_.size(); }
  std::size_t dim(std::size_t i) const {
    MMHAR_CHECK(i < shape_.size());
    return shape_[i];
  }

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return {data_.data(), data_.size()}; }
  std::span<const float> flat() const { return {data_.data(), data_.size()}; }

  float& operator[](std::size_t i) {
    MMHAR_CHECK(i < data_.size());
    return data_[i];
  }
  float operator[](std::size_t i) const {
    MMHAR_CHECK(i < data_.size());
    return data_[i];
  }

  /// Multi-dimensional accessors (rank-checked).
  float& at(std::size_t i);
  float at(std::size_t i) const;
  float& at(std::size_t i, std::size_t j);
  float at(std::size_t i, std::size_t j) const;
  float& at(std::size_t i, std::size_t j, std::size_t k);
  float at(std::size_t i, std::size_t j, std::size_t k) const;
  float& at(std::size_t i, std::size_t j, std::size_t k, std::size_t l);
  float at(std::size_t i, std::size_t j, std::size_t k, std::size_t l) const;

  /// Reinterpret with a new shape of identical element count.
  Tensor reshaped(std::vector<std::size_t> new_shape) const;

  /// Reinterpret in place (no copy) with a new shape of identical element
  /// count.
  void reshape(std::initializer_list<std::size_t> new_shape);
  void reshape(const std::vector<std::size_t>& new_shape);

  /// Re-shape a working tensor in place, reusing its buffer: storage only
  /// grows, so a layer that resizes its output to a previously seen shape
  /// allocates nothing. Element values are unspecified afterwards —
  /// callers overwrite every element or zero() first.
  void resize(std::initializer_list<std::size_t> shape);
  void resize(const std::vector<std::size_t>& shape);

  /// In-place fill.
  void fill(float value);
  /// Set all entries to zero (keeps shape).
  void zero() { fill(0.0F); }

  // ---- In-place arithmetic (shapes must match for tensor operands) ----
  Tensor& operator+=(const Tensor& rhs);
  Tensor& operator-=(const Tensor& rhs);
  Tensor& operator*=(float s);
  /// this += s * rhs (axpy).
  void add_scaled(const Tensor& rhs, float s);
  /// Hadamard product in place.
  void mul_elementwise(const Tensor& rhs);

  // ---- Reductions ----
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  /// Euclidean norm of the flattened tensor.
  float l2_norm() const;
  /// Index of maximum element (first on ties).
  std::size_t argmax() const;

  /// Euclidean distance between two same-shaped tensors.
  static float l2_distance(const Tensor& a, const Tensor& b);
  /// Dot product of flattened tensors.
  static float dot(const Tensor& a, const Tensor& b);

  // ---- Serialization ----
  void save(BinaryWriter& w) const;
  static Tensor load(BinaryReader& r);

  /// Human-readable "[2, 3, 4]" string.
  std::string shape_string() const;

 private:
  std::size_t flat_index(std::size_t i, std::size_t j) const {
    return i * shape_[1] + j;
  }

  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

/// Out-of-place arithmetic helpers.
Tensor operator+(Tensor lhs, const Tensor& rhs);
Tensor operator-(Tensor lhs, const Tensor& rhs);
Tensor operator*(Tensor lhs, float s);

}  // namespace mmhar
