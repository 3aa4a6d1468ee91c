// Fully connected layer.
#pragma once

#include "nn/layer.h"

namespace mmhar::nn {

/// y = x W^T + b over [B, in] -> [B, out]. Weight layout [out, in],
/// Xavier-uniform initialization.
class Dense : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  const Tensor& forward(const Tensor& input, bool training) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> gradients() override {
    return {&grad_weight_, &grad_bias_};
  }
  std::string name() const override { return "Dense"; }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Tensor weight_;
  Tensor bias_;
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor input_;
  Tensor output_;
  Tensor grad_input_;
};

}  // namespace mmhar::nn
