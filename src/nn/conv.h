// 2-D convolution and max-pooling layers (im2col + GEMM formulation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "tensor/gemm.h"

namespace mmhar::nn {

/// Conv2D over [B, C_in, H, W] -> [B, C_out, H_out, W_out].
/// Weight layout: [C_out, C_in * K * K]; He-normal initialization.
class Conv2D : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t padding,
         Rng& rng);

  const Tensor& forward(const Tensor& input, bool training) override;
  const Tensor& backward(const Tensor& grad_output) override;
  /// Weight and bias gradients only: skips the W^T GEMM and col2im that
  /// form dLoss/dInput.
  void backward_params(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> gradients() override {
    return {&grad_weight_, &grad_bias_};
  }
  std::string name() const override { return "Conv2D"; }

  std::size_t out_size(std::size_t in) const {
    return (in + 2 * padding_ - kernel_) / stride_ + 1;
  }

 private:
  // Zero-bordered copy of one input image and the kernel taps' offsets in
  // it; see conv.cpp.
  void set_frame(std::size_t h, std::size_t w);
  void load_frame(const float* img);
  void im2col(float* col) const;
  // im2col^T of the framed image, written straight into the PackedB panels
  // of `col_t_` — the B operand of the weight-gradient GEMM.
  void pack_im2col_t();
  void col2im(const float* col, float* img);

  std::size_t in_channels_;
  std::size_t out_channels_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t padding_;

  Tensor weight_;
  Tensor bias_;
  Tensor grad_weight_;
  Tensor grad_bias_;

  // Forward cache.
  Tensor input_;
  std::size_t in_h_ = 0;
  std::size_t in_w_ = 0;

  // Grow-only working buffers.
  Tensor output_;
  Tensor grad_input_;
  PackedA weight_pack_;    // W, packed once per forward
  PackedA weight_t_pack_;  // W^T, packed once per backward
  PackedB col_t_;          // one image's im2col^T panels
  std::vector<float> col_;
  std::vector<float> frame_;  // one zero-bordered input image
  std::size_t frame_h_ = 0;
  std::size_t frame_w_ = 0;
  std::vector<std::uint32_t> tap_offset_;  // tap -> offset in frame_
  std::vector<float> bias_acc_;
};

/// Non-overlapping 2x2 max pooling.
class MaxPool2D : public Layer {
 public:
  explicit MaxPool2D(std::size_t window = 2);

  const Tensor& forward(const Tensor& input, bool training) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::string name() const override { return "MaxPool2D"; }

 private:
  std::size_t window_;
  std::vector<std::size_t> argmax_;  // flat input index per output cell
  std::vector<std::size_t> in_shape_;
  Tensor output_;
  Tensor grad_input_;
};

/// Collapse [B, C, H, W] -> [B, C*H*W].
class Flatten : public Layer {
 public:
  const Tensor& forward(const Tensor& input, bool training) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }

 private:
  std::vector<std::size_t> in_shape_;
  Tensor output_;
  Tensor grad_input_;
};

}  // namespace mmhar::nn
