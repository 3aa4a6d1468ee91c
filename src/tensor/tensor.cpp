#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace mmhar {
namespace {

template <typename Shape>
std::size_t product(const Shape& shape) {
  std::size_t n = 1;
  for (const auto d : shape) n *= d;
  return shape.size() == 0 ? 0 : n;
}

}  // namespace

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(product(shape_), 0.0F) {}

Tensor::Tensor(std::initializer_list<std::size_t> shape)
    : Tensor(std::vector<std::size_t>(shape)) {}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  MMHAR_REQUIRE(data_.size() == product(shape_),
                "data size " << data_.size() << " != shape product "
                             << product(shape_));
}

Tensor Tensor::full(std::vector<std::size_t> shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(std::vector<std::size_t> shape, Rng& rng, float mean,
                     float stddev) {
  Tensor t(std::move(shape));
  rng.normals_f32(t.data_.data(), t.data_.size(), mean, stddev);
  return t;
}

Tensor Tensor::rand_uniform(std::vector<std::size_t> shape, Rng& rng,
                            float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

float& Tensor::at(std::size_t i) {
  MMHAR_CHECK(rank() == 1 && i < shape_[0]);
  return data_[i];
}
float Tensor::at(std::size_t i) const {
  MMHAR_CHECK(rank() == 1 && i < shape_[0]);
  return data_[i];
}
float& Tensor::at(std::size_t i, std::size_t j) {
  MMHAR_CHECK(rank() == 2 && i < shape_[0] && j < shape_[1]);
  return data_[flat_index(i, j)];
}
float Tensor::at(std::size_t i, std::size_t j) const {
  MMHAR_CHECK(rank() == 2 && i < shape_[0] && j < shape_[1]);
  return data_[flat_index(i, j)];
}
float& Tensor::at(std::size_t i, std::size_t j, std::size_t k) {
  MMHAR_CHECK(rank() == 3 && i < shape_[0] && j < shape_[1] && k < shape_[2]);
  return data_[(i * shape_[1] + j) * shape_[2] + k];
}
float Tensor::at(std::size_t i, std::size_t j, std::size_t k) const {
  MMHAR_CHECK(rank() == 3 && i < shape_[0] && j < shape_[1] && k < shape_[2]);
  return data_[(i * shape_[1] + j) * shape_[2] + k];
}
float& Tensor::at(std::size_t i, std::size_t j, std::size_t k,
                  std::size_t l) {
  MMHAR_CHECK(rank() == 4 && i < shape_[0] && j < shape_[1] &&
              k < shape_[2] && l < shape_[3]);
  return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
}
float Tensor::at(std::size_t i, std::size_t j, std::size_t k,
                 std::size_t l) const {
  MMHAR_CHECK(rank() == 4 && i < shape_[0] && j < shape_[1] &&
              k < shape_[2] && l < shape_[3]);
  return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
}

Tensor Tensor::reshaped(std::vector<std::size_t> new_shape) const {
  MMHAR_REQUIRE(product(new_shape) == size(),
                "reshape " << shape_string() << " to incompatible size");
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.data_ = data_;
  return t;
}

void Tensor::reshape(std::initializer_list<std::size_t> new_shape) {
  MMHAR_REQUIRE(product(new_shape) == size(),
                "reshape " << shape_string() << " to incompatible size");
  shape_.assign(new_shape);
}

void Tensor::reshape(const std::vector<std::size_t>& new_shape) {
  MMHAR_REQUIRE(product(new_shape) == size(),
                "reshape " << shape_string() << " to incompatible size");
  shape_.assign(new_shape.begin(), new_shape.end());
}

void Tensor::resize(std::initializer_list<std::size_t> shape) {
  shape_.assign(shape);
  data_.resize(product(shape_));
}

void Tensor::resize(const std::vector<std::size_t>& shape) {
  shape_.assign(shape.begin(), shape.end());
  data_.resize(product(shape_));
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Tensor& Tensor::operator+=(const Tensor& rhs) {
  MMHAR_REQUIRE(same_shape(rhs), "shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& rhs) {
  MMHAR_REQUIRE(same_shape(rhs), "shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

void Tensor::add_scaled(const Tensor& rhs, float s) {
  MMHAR_REQUIRE(same_shape(rhs), "shape mismatch in add_scaled");
  for (std::size_t i = 0; i < data_.size(); ++i)
    data_[i] += s * rhs.data_[i];
}

void Tensor::mul_elementwise(const Tensor& rhs) {
  MMHAR_REQUIRE(same_shape(rhs), "shape mismatch in mul_elementwise");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= rhs.data_[i];
}

float Tensor::sum() const {
  double acc = 0.0;
  for (const auto v : data_) acc += v;
  return static_cast<float>(acc);
}

float Tensor::mean() const {
  MMHAR_CHECK(!data_.empty());
  return sum() / static_cast<float>(data_.size());
}

float Tensor::min() const {
  MMHAR_CHECK(!data_.empty());
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  MMHAR_CHECK(!data_.empty());
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::l2_norm() const {
  double acc = 0.0;
  for (const auto v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

std::size_t Tensor::argmax() const {
  MMHAR_CHECK(!data_.empty());
  return static_cast<std::size_t>(
      std::max_element(data_.begin(), data_.end()) - data_.begin());
}

float Tensor::l2_distance(const Tensor& a, const Tensor& b) {
  MMHAR_REQUIRE(a.same_shape(b), "shape mismatch in l2_distance");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    const double d = static_cast<double>(a.data_[i]) - b.data_[i];
    acc += d * d;
  }
  return static_cast<float>(std::sqrt(acc));
}

float Tensor::dot(const Tensor& a, const Tensor& b) {
  MMHAR_REQUIRE(a.size() == b.size(), "size mismatch in dot");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i)
    acc += static_cast<double>(a.data_[i]) * b.data_[i];
  return static_cast<float>(acc);
}

void Tensor::save(BinaryWriter& w) const {
  w.write_u32(0x544E5352);  // "RSNT" magic
  std::vector<std::uint64_t> shape64(shape_.begin(), shape_.end());
  w.write_u64_vec(shape64);
  w.write_f32_vec(data_);
}

Tensor Tensor::load(BinaryReader& r) {
  const auto magic = r.read_u32();
  if (magic != 0x544E5352) throw IoError("Tensor::load: bad magic");
  const auto shape64 = r.read_u64_vec();
  std::vector<std::size_t> shape(shape64.begin(), shape64.end());
  auto data = r.read_f32_vec();
  return Tensor(std::move(shape), std::move(data));
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape_[i];
  }
  os << "]";
  return os.str();
}

Tensor operator+(Tensor lhs, const Tensor& rhs) {
  lhs += rhs;
  return lhs;
}
Tensor operator-(Tensor lhs, const Tensor& rhs) {
  lhs -= rhs;
  return lhs;
}
Tensor operator*(Tensor lhs, float s) {
  lhs *= s;
  return lhs;
}

}  // namespace mmhar
