#include "nn/dense.h"

#include <cmath>

#include "tensor/gemm.h"

namespace mmhar::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features), out_(out_features) {
  MMHAR_REQUIRE(in_ > 0 && out_ > 0, "Dense dims must be positive");
  const float limit =
      std::sqrt(6.0F / static_cast<float>(in_features + out_features));
  weight_ = Tensor::rand_uniform({out_, in_}, rng, -limit, limit);
  bias_ = Tensor({out_});
  grad_weight_ = Tensor({out_, in_});
  grad_bias_ = Tensor({out_});
}

const Tensor& Dense::forward(const Tensor& input, bool /*training*/) {
  MMHAR_REQUIRE(input.rank() == 2 && input.dim(1) == in_,
                "Dense expects [B, " << in_ << "], got "
                                     << input.shape_string());
  input_ = input;
  const std::size_t batch = input.dim(0);
  output_.resize({batch, out_});
  // y = x * W^T
  sgemm_bt(batch, in_, out_, 1.0F, input.data(), weight_.data(), 0.0F,
           output_.data());
  MMHAR_CHECK(output_.size() == batch * out_);
  for (std::size_t b = 0; b < batch; ++b) {
    float* row = output_.data() + b * out_;
    for (std::size_t o = 0; o < out_; ++o) row[o] += bias_[o];
  }
  return output_;
}

const Tensor& Dense::backward(const Tensor& grad_output) {
  const std::size_t batch = input_.dim(0);
  MMHAR_REQUIRE(grad_output.rank() == 2 && grad_output.dim(0) == batch &&
                    grad_output.dim(1) == out_,
                "Dense backward shape mismatch");
  // gW += gy^T * x  ([out, in])
  sgemm_at(out_, batch, in_, 1.0F, grad_output.data(), input_.data(), 1.0F,
           grad_weight_.data());
  // gb += column sums of gy
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = grad_output.data() + b * out_;
    for (std::size_t o = 0; o < out_; ++o) grad_bias_[o] += row[o];
  }
  // gx = gy * W  ([B, in])
  grad_input_.resize({batch, in_});
  sgemm(batch, out_, in_, 1.0F, grad_output.data(), weight_.data(), 0.0F,
        grad_input_.data());
  return grad_input_;
}

}  // namespace mmhar::nn
