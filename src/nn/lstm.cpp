#include "nn/lstm.h"

#include <cmath>

#include "tensor/gemm.h"

namespace mmhar::nn {
namespace {

float sigmoidf(float x) { return 1.0F / (1.0F + std::exp(-x)); }

}  // namespace

LSTM::LSTM(std::size_t input_dim, std::size_t hidden_dim, Rng& rng,
           bool return_sequence)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      return_sequence_(return_sequence) {
  MMHAR_REQUIRE(input_dim > 0 && hidden_dim > 0, "LSTM dims must be positive");
  const float lim_x =
      std::sqrt(6.0F / static_cast<float>(input_dim + hidden_dim));
  const float lim_h = std::sqrt(6.0F / static_cast<float>(2 * hidden_dim));
  w_x_ = Tensor::rand_uniform({4 * hidden_dim, input_dim}, rng, -lim_x, lim_x);
  w_h_ = Tensor::rand_uniform({4 * hidden_dim, hidden_dim}, rng, -lim_h,
                              lim_h);
  bias_ = Tensor({4 * hidden_dim});
  // Forget-gate bias = 1.
  for (std::size_t i = hidden_dim; i < 2 * hidden_dim; ++i) bias_[i] = 1.0F;
  grad_w_x_ = Tensor({4 * hidden_dim, input_dim});
  grad_w_h_ = Tensor({4 * hidden_dim, hidden_dim});
  grad_bias_ = Tensor({4 * hidden_dim});
}

const Tensor& LSTM::forward(const Tensor& input, bool /*training*/) {
  MMHAR_REQUIRE(input.rank() == 3 && input.dim(1) > 0 &&
                    input.dim(2) == input_dim_,
                "LSTM expects [B, T, " << input_dim_ << "], got "
                                       << input.shape_string());
  const std::size_t batch = input.dim(0);
  const std::size_t steps = input.dim(1);
  const std::size_t d_dim = input_dim_;
  const std::size_t h_dim = hidden_dim_;
  const std::size_t g4 = 4 * h_dim;
  batch_ = batch;
  steps_ = steps;

  x_.resize(steps * batch * d_dim);
  gates_.resize(steps * batch * g4);
  cells_.resize(steps * batch * h_dim);
  hiddens_.resize(steps * batch * h_dim);
  zero_state_.assign(batch * h_dim, 0.0F);
  MMHAR_CHECK(input.size() == batch * steps * d_dim &&
              x_.size() == input.size());
  // Gather the x_t rows (strided by T*D per batch element) time-major.
  for (std::size_t t = 0; t < steps; ++t)
    for (std::size_t b = 0; b < batch; ++b) {
      const float* src = input.data() + (b * steps + t) * d_dim;
      std::copy(src, src + d_dim, x_.data() + (t * batch + b) * d_dim);
    }

  // z_t = x_t W_x^T for every step in one product — each output row's
  // arithmetic is independent of the other rows, so this equals one
  // product per step — then per step z_t += h_{t-1} W_h^T (run at t = 0
  // too, on the zero state) and z_t += b.
  pack_bt(d_dim, g4, w_x_.data(), wx_t_pack_);
  pack_bt(h_dim, g4, w_h_.data(), wh_t_pack_);
  sgemm_packed_b(steps * batch, 1.0F, x_.data(), wx_t_pack_, 0.0F,
                 gates_.data());
  for (std::size_t t = 0; t < steps; ++t) {
    MMHAR_CHECK(gates_.size() == steps * batch * g4 &&
                hiddens_.size() == steps * batch * h_dim &&
                cells_.size() == hiddens_.size());
    float* z = gates_.data() + t * batch * g4;
    float* c = cells_.data() + t * batch * h_dim;
    float* h = hiddens_.data() + t * batch * h_dim;
    const float* h_prev =
        t > 0 ? hiddens_.data() + (t - 1) * batch * h_dim : zero_state_.data();
    const float* c_prev =
        t > 0 ? cells_.data() + (t - 1) * batch * h_dim : zero_state_.data();
    sgemm_packed_b(batch, 1.0F, h_prev, wh_t_pack_, 1.0F, z);
    for (std::size_t b = 0; b < batch; ++b) {
      float* zr = z + b * g4;
      for (std::size_t j = 0; j < g4; ++j) zr[j] += bias_[j];
    }
    // Nonlinearities and state update.
    for (std::size_t b = 0; b < batch; ++b) {
      float* zr = z + b * g4;
      const float* cp = c_prev + b * h_dim;
      float* cr = c + b * h_dim;
      float* hr = h + b * h_dim;
      for (std::size_t j = 0; j < h_dim; ++j) {
        const float ig = sigmoidf(zr[j]);
        const float fg = sigmoidf(zr[h_dim + j]);
        const float gg = std::tanh(zr[2 * h_dim + j]);
        const float og = sigmoidf(zr[3 * h_dim + j]);
        zr[j] = ig;
        zr[h_dim + j] = fg;
        zr[2 * h_dim + j] = gg;
        zr[3 * h_dim + j] = og;
        cr[j] = fg * cp[j] + ig * gg;
        hr[j] = og * std::tanh(cr[j]);
      }
    }
  }

  MMHAR_CHECK(hiddens_.size() == steps * batch * h_dim);
  if (!return_sequence_) {
    output_.resize({batch, h_dim});
    const float* last = hiddens_.data() + (steps - 1) * batch * h_dim;
    std::copy(last, last + batch * h_dim, output_.data());
    return output_;
  }
  output_.resize({batch, steps, h_dim});
  MMHAR_CHECK(output_.size() == hiddens_.size());
  for (std::size_t t = 0; t < steps; ++t)
    for (std::size_t b = 0; b < batch; ++b) {
      const float* src = hiddens_.data() + (t * batch + b) * h_dim;
      std::copy(src, src + h_dim, output_.data() + (b * steps + t) * h_dim);
    }
  return output_;
}

namespace {

// out[rows x n] = dz[rows x k] * W[k x n], bit for bit as sgemm forms it:
// its single-row fast path for one row, else W's panels packed once per
// backward.
void times_weight(std::size_t rows, const float* dz, const Tensor& w,
                  const PackedB& w_pack, float* out) {
  if (rows == 1) {
    sgemm(1, w.dim(0), w.dim(1), 1.0F, dz, w.data(), 0.0F, out);
    return;
  }
  sgemm_packed_b(rows, 1.0F, dz, w_pack, 0.0F, out);
}

}  // namespace

const Tensor& LSTM::backward(const Tensor& grad_output) {
  const std::size_t batch = batch_;
  const std::size_t steps = steps_;
  const std::size_t d_dim = input_dim_;
  const std::size_t h_dim = hidden_dim_;
  const std::size_t g4 = 4 * h_dim;
  MMHAR_REQUIRE(steps > 0 && grad_output.size() ==
                                 batch * h_dim * (return_sequence_ ? steps : 1),
                "LSTM backward before forward, or shape mismatch");

  grad_input_.resize({batch, steps, d_dim});
  dh_.assign(batch * h_dim, 0.0F);
  dc_.assign(batch * h_dim, 0.0F);
  dz_.resize(batch * g4);
  dx_step_.resize(batch * d_dim);
  if (batch > 1) {
    pack_b(g4, d_dim, w_x_.data(), wx_pack_);
    pack_b(g4, h_dim, w_h_.data(), wh_pack_);
  }
  const float* gout = grad_output.data();

  for (std::size_t t = steps; t-- > 0;) {
    MMHAR_CHECK(gates_.size() == steps * batch * g4 &&
                cells_.size() == steps * batch * h_dim &&
                x_.size() == steps * batch * d_dim);
    const float* z = gates_.data() + t * batch * g4;
    const float* c = cells_.data() + t * batch * h_dim;
    const float* c_prev =
        t > 0 ? cells_.data() + (t - 1) * batch * h_dim : nullptr;
    const float* h_prev =
        t > 0 ? hiddens_.data() + (t - 1) * batch * h_dim : nullptr;
    float* dz = dz_.data();

    MMHAR_CHECK(dh_.size() == batch * h_dim && dc_.size() == dh_.size() &&
                dz_.size() == batch * g4);
    for (std::size_t b = 0; b < batch; ++b) {
      const float* zr = z + b * g4;
      const float* cr = c + b * h_dim;
      float* dhr = dh_.data() + b * h_dim;
      float* dcr = dc_.data() + b * h_dim;
      float* dzr = dz + b * g4;
      for (std::size_t j = 0; j < h_dim; ++j) {
        const float ig = zr[j];
        const float fg = zr[h_dim + j];
        const float gg = zr[2 * h_dim + j];
        const float og = zr[3 * h_dim + j];
        const float tc = std::tanh(cr[j]);
        // dh from the output: every step for sequence outputs, else the
        // last step only.
        const float gh = return_sequence_
                             ? gout[(b * steps + t) * h_dim + j]
                             : (t == steps - 1 ? gout[b * h_dim + j] : 0.0F);
        const float dh_total = dhr[j] + gh;
        const float dc_total = dcr[j] + dh_total * og * (1.0F - tc * tc);
        const float cp = c_prev != nullptr ? c_prev[b * h_dim + j] : 0.0F;
        dzr[j] = dc_total * gg * ig * (1.0F - ig);              // d i
        dzr[h_dim + j] = dc_total * cp * fg * (1.0F - fg);      // d f
        dzr[2 * h_dim + j] = dc_total * ig * (1.0F - gg * gg);  // d g
        dzr[3 * h_dim + j] = dh_total * tc * og * (1.0F - og);  // d o
        dcr[j] = dc_total * fg;  // carries to t-1
      }
    }

    // Parameter gradients.
    MMHAR_CHECK(x_.size() == steps * batch * d_dim);
    sgemm_at(g4, batch, d_dim, 1.0F, dz, x_.data() + t * batch * d_dim, 1.0F,
             grad_w_x_.data());
    if (h_prev != nullptr) {
      sgemm_at(g4, batch, h_dim, 1.0F, dz, h_prev, 1.0F, grad_w_h_.data());
    }
    for (std::size_t b = 0; b < batch; ++b) {
      const float* dzr = dz + b * g4;
      for (std::size_t j = 0; j < g4; ++j) grad_bias_[j] += dzr[j];
    }

    // Input gradient for this step.
    times_weight(batch, dz, w_x_, wx_pack_, dx_step_.data());
    MMHAR_CHECK(grad_input_.size() == batch * steps * d_dim);
    for (std::size_t b = 0; b < batch; ++b)
      std::copy(dx_step_.data() + b * d_dim,
                dx_step_.data() + (b + 1) * d_dim,
                grad_input_.data() + (b * steps + t) * d_dim);

    // dh for t-1: dz * W_h.
    if (t > 0) times_weight(batch, dz, w_h_, wh_pack_, dh_.data());
  }
  return grad_input_;
}

}  // namespace mmhar::nn
