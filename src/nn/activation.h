// Stateless activation layers and dropout.
#pragma once

#include "nn/layer.h"

namespace mmhar::nn {

class ReLU : public Layer {
 public:
  const Tensor& forward(const Tensor& input, bool training) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor output_;  // > 0 exactly where the input was: the backward mask
  Tensor grad_input_;
};

class Tanh : public Layer {
 public:
  const Tensor& forward(const Tensor& input, bool training) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::string name() const override { return "Tanh"; }

 private:
  Tensor output_;
  Tensor grad_input_;
};

/// Inverted dropout: activations scaled by 1/(1-p) at training time so
/// inference is a plain identity.
class Dropout : public Layer {
 public:
  Dropout(double p, Rng& rng);

  const Tensor& forward(const Tensor& input, bool training) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::string name() const override { return "Dropout"; }

 private:
  double p_;
  Rng rng_;
  Tensor mask_;
  Tensor output_;
  Tensor grad_input_;
  bool last_training_ = false;
};

}  // namespace mmhar::nn
