#include "nn/conv.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "tensor/gemm.h"

namespace mmhar::nn {

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding) {
  MMHAR_REQUIRE(kernel >= 1 && stride >= 1, "bad conv geometry");
  const std::size_t fan_in = in_channels * kernel * kernel;
  const float stddev = std::sqrt(2.0F / static_cast<float>(fan_in));
  weight_ = Tensor::randn({out_channels, fan_in}, rng, 0.0F, stddev);
  bias_ = Tensor({out_channels});
  grad_weight_ = Tensor({out_channels, fan_in});
  grad_bias_ = Tensor({out_channels});
}

// The kernels read the input (and the input gradient is formed) through a
// copy framed by `padding_` zeros, so every kernel tap j = (channel, ky,
// kx) is a fixed offset from its receptive field's corner and no loop
// checks bounds; a tap in the padding reads the border's 0. Offsets are
// 32-bit so the per-field gather in pack_im2col_t vectorizes.
void Conv2D::set_frame(std::size_t h, std::size_t w) {
  frame_h_ = h + 2 * padding_;
  frame_w_ = w + 2 * padding_;
  MMHAR_REQUIRE(in_channels_ * frame_h_ * frame_w_ <= UINT32_MAX,
                "Conv2D input too large for 32-bit tap offsets");
  frame_.resize(in_channels_ * frame_h_ * frame_w_);
  tap_offset_.resize(in_channels_ * kernel_ * kernel_);
  std::size_t j = 0;
  for (std::size_t c = 0; c < in_channels_; ++c)
    for (std::size_t ky = 0; ky < kernel_; ++ky)
      for (std::size_t kx = 0; kx < kernel_; ++kx)
        tap_offset_[j++] =
            static_cast<std::uint32_t>((c * frame_h_ + ky) * frame_w_ + kx);
}

void Conv2D::load_frame(const float* img) {
  std::fill(frame_.begin(), frame_.end(), 0.0F);
  MMHAR_CHECK(frame_.size() == in_channels_ * frame_h_ * frame_w_);
  for (std::size_t c = 0; c < in_channels_; ++c)
    for (std::size_t y = 0; y < in_h_; ++y)
      std::copy(img + (c * in_h_ + y) * in_w_,
                img + (c * in_h_ + y + 1) * in_w_,
                frame_.data() + (c * frame_h_ + y + padding_) * frame_w_ +
                    padding_);
}

// col layout: [C_in*K*K, OH*OW] — row j holds tap j of every output cell.
void Conv2D::im2col(float* col) const {
  const std::size_t oh = out_size(in_h_);
  const std::size_t ow = out_size(in_w_);
  MMHAR_CHECK(frame_.size() == in_channels_ * frame_h_ * frame_w_);
  for (std::size_t j = 0; j < tap_offset_.size(); ++j) {
    float* out = col + j * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const float* src =
          frame_.data() + oy * stride_ * frame_w_ + tap_offset_[j];
      for (std::size_t ox = 0; ox < ow; ++ox)
        out[oy * ow + ox] = src[ox * stride_];
    }
  }
}

// Row p of the weight-gradient operand B = im2col^T is the receptive field
// of output cell p, one gather per panel slice.
void Conv2D::pack_im2col_t() {
  const std::size_t oh = out_size(in_h_);
  const std::size_t ow = out_size(in_w_);
  const std::size_t fan_in = tap_offset_.size();
  MMHAR_CHECK(col_t_.k == oh * ow && col_t_.n == fan_in);
  const std::uint32_t* const taps = tap_offset_.data();
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      const float* origin =
          frame_.data() + oy * stride_ * frame_w_ + ox * stride_;
      const std::size_t p = oy * ow + ox;
      for (std::size_t j0 = 0; j0 < fan_in; j0 += kPackedPanelWidth) {
        float* dst = col_t_.data.data() + packed_b_offset(col_t_, p, j0);
        const std::size_t lanes = std::min(kPackedPanelWidth, fan_in - j0);
        for (std::size_t lane = 0; lane < lanes; ++lane)
          dst[lane] = origin[taps[j0 + lane]];
      }
    }
  }
}

// Scatter-add `col` back onto the framed image in im2col's order — taps
// ascending, so each pixel sums its contributions in the same order —
// then write the image without its border to `img`.
void Conv2D::col2im(const float* col, float* img) {
  const std::size_t oh = out_size(in_h_);
  const std::size_t ow = out_size(in_w_);
  MMHAR_CHECK(frame_.size() == in_channels_ * frame_h_ * frame_w_);
  std::fill(frame_.begin(), frame_.end(), 0.0F);
  for (std::size_t j = 0; j < tap_offset_.size(); ++j) {
    const float* in = col + j * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      float* dst = frame_.data() + oy * stride_ * frame_w_ + tap_offset_[j];
      for (std::size_t ox = 0; ox < ow; ++ox)
        dst[ox * stride_] += in[oy * ow + ox];
    }
  }
  MMHAR_CHECK(frame_h_ == in_h_ + 2 * padding_ &&
              frame_w_ == in_w_ + 2 * padding_);
  for (std::size_t c = 0; c < in_channels_; ++c)
    for (std::size_t y = 0; y < in_h_; ++y) {
      const float* src =
          frame_.data() + (c * frame_h_ + y + padding_) * frame_w_ + padding_;
      std::copy(src, src + in_w_, img + (c * in_h_ + y) * in_w_);
    }
}

const Tensor& Conv2D::forward(const Tensor& input, bool /*training*/) {
  MMHAR_REQUIRE(input.rank() == 4 && input.dim(1) == in_channels_,
                "Conv2D expects [B, " << in_channels_ << ", H, W], got "
                                      << input.shape_string());
  input_ = input;
  in_h_ = input.dim(2);
  in_w_ = input.dim(3);
  const std::size_t batch = input.dim(0);
  const std::size_t oh = out_size(in_h_);
  const std::size_t ow = out_size(in_w_);
  const std::size_t fan_in = in_channels_ * kernel_ * kernel_;
  const std::size_t ocells = oh * ow;

  output_.resize({batch, out_channels_, oh, ow});
  col_.resize(fan_in * ocells);
  set_frame(in_h_, in_w_);
  // The weight matrix is replayed against every im2col'd image: pack it
  // into microkernel panels once and reuse across the batch.
  pack_a(out_channels_, fan_in, weight_.data(), weight_pack_);
  MMHAR_CHECK(input.size() == batch * in_channels_ * in_h_ * in_w_ &&
              output_.size() == batch * out_channels_ * ocells);
  for (std::size_t b = 0; b < batch; ++b) {
    load_frame(input.data() + b * in_channels_ * in_h_ * in_w_);
    im2col(col_.data());
    float* out = output_.data() + b * out_channels_ * ocells;
    sgemm_packed_a(weight_pack_, ocells, 1.0F, col_.data(), 0.0F, out);
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      const float bv = bias_[oc];
      float* plane = out + oc * ocells;
      for (std::size_t i = 0; i < ocells; ++i) plane[i] += bv;
    }
  }
  return output_;
}

void Conv2D::backward_params(const Tensor& grad_output) {
  const std::size_t batch = input_.dim(0);
  const std::size_t oh = out_size(in_h_);
  const std::size_t ow = out_size(in_w_);
  const std::size_t ocells = oh * ow;
  const std::size_t fan_in = in_channels_ * kernel_ * kernel_;
  MMHAR_REQUIRE(grad_output.rank() == 4 && grad_output.dim(0) == batch &&
                    grad_output.dim(1) == out_channels_ &&
                    grad_output.dim(2) == oh && grad_output.dim(3) == ow,
                "Conv2D backward shape mismatch");

  shape_packed_b(col_t_, ocells, fan_in);
  set_frame(in_h_, in_w_);
  bias_acc_.resize(out_channels_);
  float* const bias_acc = bias_acc_.data();
  MMHAR_CHECK(grad_output.size() == batch * out_channels_ * ocells &&
              input_.size() == batch * in_channels_ * in_h_ * in_w_);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* gout = grad_output.data() + b * out_channels_ * ocells;
    // Bias gradient: each channel's plane summed in index order, the
    // channels' chains interleaved so they overlap in the pipeline.
    std::fill(bias_acc, bias_acc + out_channels_, 0.0F);
    for (std::size_t i = 0; i < ocells; ++i)
      for (std::size_t oc = 0; oc < out_channels_; ++oc)
        bias_acc[oc] += gout[oc * ocells + i];
    for (std::size_t oc = 0; oc < out_channels_; ++oc)
      grad_bias_[oc] += bias_acc[oc];
    // Weight gradient: gW += gout[ocells layout] * col^T, with col^T's
    // panels gathered straight from the image.
    MMHAR_CHECK(input_.size() >= (b + 1) * in_channels_ * in_h_ * in_w_);
    load_frame(input_.data() + b * in_channels_ * in_h_ * in_w_);
    pack_im2col_t();
    sgemm_packed_b(out_channels_, 1.0F, gout, col_t_, 1.0F,
                   grad_weight_.data());
  }
}

const Tensor& Conv2D::backward(const Tensor& grad_output) {
  backward_params(grad_output);
  const std::size_t batch = input_.dim(0);
  const std::size_t ocells = out_size(in_h_) * out_size(in_w_);
  const std::size_t fan_in = in_channels_ * kernel_ * kernel_;

  // Input gradient: gcol = W^T * gout per image, then scatter with col2im.
  grad_input_.resize(input_.shape());
  col_.resize(fan_in * ocells);
  // W^T is likewise shared by every image's input-gradient product.
  pack_at(fan_in, out_channels_, weight_.data(), weight_t_pack_);
  MMHAR_CHECK(grad_output.size() == batch * out_channels_ * ocells &&
              grad_input_.size() == batch * in_channels_ * in_h_ * in_w_);
  for (std::size_t b = 0; b < batch; ++b) {
    sgemm_packed_a(weight_t_pack_, ocells, 1.0F,
                   grad_output.data() + b * out_channels_ * ocells, 0.0F,
                   col_.data());
    col2im(col_.data(),
           grad_input_.data() + b * in_channels_ * in_h_ * in_w_);
  }
  return grad_input_;
}

MaxPool2D::MaxPool2D(std::size_t window) : window_(window) {
  MMHAR_REQUIRE(window >= 2, "pool window must be >= 2");
}

const Tensor& MaxPool2D::forward(const Tensor& input, bool /*training*/) {
  MMHAR_REQUIRE(input.rank() == 4, "MaxPool2D expects [B, C, H, W]");
  const std::size_t batch = input.dim(0);
  const std::size_t ch = input.dim(1);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  MMHAR_REQUIRE(h % window_ == 0 && w % window_ == 0,
                "pool window must divide spatial dims");
  const std::size_t oh = h / window_;
  const std::size_t ow = w / window_;

  in_shape_ = input.shape();
  output_.resize({batch, ch, oh, ow});
  argmax_.resize(output_.size());

  MMHAR_CHECK(input.size() == batch * ch * h * w &&
              output_.size() == batch * ch * oh * ow);
  for (std::size_t bc = 0; bc < batch * ch; ++bc) {
    const float* plane = input.data() + bc * h * w;
    float* out = output_.data() + bc * oh * ow;
    std::size_t* arg = argmax_.data() + bc * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t dy = 0; dy < window_; ++dy) {
          for (std::size_t dx = 0; dx < window_; ++dx) {
            const std::size_t idx =
                (oy * window_ + dy) * w + ox * window_ + dx;
            if (plane[idx] > best) {
              best = plane[idx];
              best_idx = idx;
            }
          }
        }
        out[oy * ow + ox] = best;
        arg[oy * ow + ox] = bc * h * w + best_idx;
      }
    }
  }
  return output_;
}

const Tensor& MaxPool2D::backward(const Tensor& grad_output) {
  MMHAR_REQUIRE(grad_output.size() == argmax_.size(),
                "MaxPool2D backward shape mismatch");
  grad_input_.resize(in_shape_);
  grad_input_.zero();
  for (std::size_t i = 0; i < argmax_.size(); ++i)
    grad_input_[argmax_[i]] += grad_output[i];
  return grad_input_;
}

const Tensor& Flatten::forward(const Tensor& input, bool /*training*/) {
  MMHAR_REQUIRE(input.rank() >= 2, "Flatten expects batched input");
  in_shape_ = input.shape();
  std::size_t d = 1;
  for (std::size_t i = 1; i < in_shape_.size(); ++i) d *= in_shape_[i];
  output_ = input;
  output_.reshape({in_shape_[0], d});
  return output_;
}

const Tensor& Flatten::backward(const Tensor& grad_output) {
  grad_input_ = grad_output;
  grad_input_.reshape(in_shape_);
  return grad_input_;
}

}  // namespace mmhar::nn
