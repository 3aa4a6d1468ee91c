// LSTM over feature sequences with full backpropagation through time.
//
// Input  [B, T, D]  (batch, timesteps, feature dim)
// Output [B, H]     (hidden state after the last timestep) by default, or
//        [B, T, H]  (all hidden states) when `return_sequence` is set.
// Gate layout inside the fused weight matrices: [i; f; g; o] blocks of H
// rows each. The forget-gate bias is initialized to +1, the standard
// trick that stabilizes early training.
#pragma once

#include <vector>

#include "nn/layer.h"
#include "tensor/gemm.h"

namespace mmhar::nn {

class LSTM : public Layer {
 public:
  LSTM(std::size_t input_dim, std::size_t hidden_dim, Rng& rng,
       bool return_sequence = false);

  const Tensor& forward(const Tensor& input, bool training) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override {
    return {&w_x_, &w_h_, &bias_};
  }
  std::vector<Tensor*> gradients() override {
    return {&grad_w_x_, &grad_w_h_, &grad_bias_};
  }
  std::string name() const override { return "LSTM"; }

  std::size_t input_dim() const { return input_dim_; }
  std::size_t hidden_dim() const { return hidden_dim_; }

 private:
  std::size_t input_dim_;
  std::size_t hidden_dim_;
  bool return_sequence_;

  Tensor w_x_;   // [4H, D]
  Tensor w_h_;   // [4H, H]
  Tensor bias_;  // [4H]
  Tensor grad_w_x_;
  Tensor grad_w_h_;
  Tensor grad_bias_;

  // Per-forward caches, time-major ([t][b][...]): activations BPTT needs.
  std::size_t batch_ = 0;
  std::size_t steps_ = 0;
  std::vector<float> x_;        // x_t rows [T, B, D]
  std::vector<float> gates_;    // [T, B, 4H], post-nonlinearity
  std::vector<float> cells_;    // c_t [T, B, H]
  std::vector<float> hiddens_;  // h_t [T, B, H]
  std::vector<float> zero_state_;  // h_{-1} = c_{-1} = 0 [B, H]

  // Weights packed once per call: W_x^T / W_h^T for the forward gate
  // products, W_x / W_h for the backward dz products.
  PackedB wx_t_pack_;
  PackedB wh_t_pack_;
  PackedB wx_pack_;
  PackedB wh_pack_;

  // Grow-only working buffers.
  Tensor output_;
  Tensor grad_input_;
  std::vector<float> dh_;
  std::vector<float> dc_;
  std::vector<float> dz_;
  std::vector<float> dx_step_;
};

}  // namespace mmhar::nn
