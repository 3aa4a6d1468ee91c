#include "nn/activation.h"

#include <cmath>

namespace mmhar::nn {

// Branch-free select: x for x > 0, else +0 — so -0, NaN and -inf all map
// to +0, and the output is > 0 exactly where the input was.
const Tensor& ReLU::forward(const Tensor& input, bool /*training*/) {
  output_.resize(input.shape());
  const float* in = input.data();
  float* out = output_.data();
  for (std::size_t i = 0; i < output_.size(); ++i) {
    const float v = in[i];
    out[i] = v > 0.0F ? v : 0.0F;
  }
  return output_;
}

// grad * mask with the 0/1 mask rebuilt from the output: the product is
// formed even where the mask is 0, so a NaN or inf gradient still yields
// NaN and a negative one -0.
const Tensor& ReLU::backward(const Tensor& grad_output) {
  MMHAR_REQUIRE(grad_output.same_shape(output_),
                "ReLU backward shape mismatch");
  grad_input_.resize(output_.shape());
  const float* g = grad_output.data();
  const float* out = output_.data();
  float* gin = grad_input_.data();
  for (std::size_t i = 0; i < grad_input_.size(); ++i)
    gin[i] = g[i] * (out[i] > 0.0F ? 1.0F : 0.0F);
  return grad_input_;
}

const Tensor& Tanh::forward(const Tensor& input, bool /*training*/) {
  output_ = input;
  for (auto& v : output_.flat()) v = std::tanh(v);
  return output_;
}

const Tensor& Tanh::backward(const Tensor& grad_output) {
  MMHAR_REQUIRE(grad_output.same_shape(output_),
                "Tanh backward shape mismatch");
  grad_input_ = grad_output;
  for (std::size_t i = 0; i < grad_input_.size(); ++i)
    grad_input_[i] *= 1.0F - output_[i] * output_[i];
  return grad_input_;
}

Dropout::Dropout(double p, Rng& rng) : p_(p), rng_(rng.fork(0xD70D)) {
  MMHAR_REQUIRE(p >= 0.0 && p < 1.0, "dropout p must be in [0, 1)");
}

const Tensor& Dropout::forward(const Tensor& input, bool training) {
  last_training_ = training;
  if (!training || p_ == 0.0) return input;
  mask_.resize(input.shape());
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p_));
  output_ = input;
  for (std::size_t i = 0; i < output_.size(); ++i) {
    if (rng_.bernoulli(p_)) {
      mask_[i] = 0.0F;
      output_[i] = 0.0F;
    } else {
      mask_[i] = keep_scale;
      output_[i] *= keep_scale;
    }
  }
  return output_;
}

const Tensor& Dropout::backward(const Tensor& grad_output) {
  if (!last_training_ || p_ == 0.0) return grad_output;
  grad_input_ = grad_output;
  grad_input_.mul_elementwise(mask_);
  return grad_input_;
}

}  // namespace mmhar::nn
