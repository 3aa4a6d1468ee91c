#include "har/infer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace mmhar::har {
namespace {

// Conv geometry is fixed by the model architecture (model.cpp): conv1 is
// 5x5 stride 2 pad 2, conv2 is 3x3 stride 2 pad 1, pool is 2x2.
constexpr std::size_t kConv1Kernel = 5;
constexpr std::size_t kConv1Stride = 2;
constexpr std::size_t kConv1Pad = 2;
constexpr std::size_t kConv2Kernel = 3;
constexpr std::size_t kConv2Stride = 2;
constexpr std::size_t kConv2Pad = 1;
constexpr std::size_t kPool = 2;

constexpr std::size_t conv_out(std::size_t in, std::size_t kernel,
                               std::size_t stride, std::size_t pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

// Same as nn::LSTM's gate nonlinearity (lstm.cpp).
float sigmoidf(float x) { return 1.0F / (1.0F + std::exp(-x)); }

// Identical data movement to Conv2D::im2col (conv.cpp): col layout
// [C_in*K*K, OH*OW], zero outside the padded input.
void im2col(const float* img, std::size_t channels, std::size_t h,
            std::size_t w, std::size_t kernel, std::size_t stride,
            std::size_t pad, float* col) {
  const std::size_t oh = conv_out(h, kernel, stride, pad);
  const std::size_t ow = conv_out(w, kernel, stride, pad);
  const std::size_t ocells = oh * ow;
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    const float* plane = img + c * h * w;
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      for (std::size_t kx = 0; kx < kernel; ++kx, ++row) {
        float* out = col + row * ocells;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride + ky) -
              static_cast<std::ptrdiff_t>(pad);
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride + kx) -
                static_cast<std::ptrdiff_t>(pad);
            const bool inside =
                iy >= 0 && iy < static_cast<std::ptrdiff_t>(h) && ix >= 0 &&
                ix < static_cast<std::ptrdiff_t>(w);
            out[oy * ow + ox] =
                inside ? plane[static_cast<std::size_t>(iy) * w +
                               static_cast<std::size_t>(ix)]
                       : 0.0F;
          }
        }
      }
    }
  }
}

// One conv layer over N frames: per-frame im2col + prepacked-A GEMM +
// bias, then ReLU — the same kernel sequence Conv2D::forward + nn::ReLU
// runs, fused frame by frame (elementwise ops commute with the frame
// order, so values are unchanged).
void conv_relu(const PackedA& wpack, const float* bias, std::size_t channels,
               const float* in, std::size_t n_frames, std::size_t in_ch,
               std::size_t h, std::size_t w, std::size_t kernel,
               std::size_t stride, std::size_t pad, float* col, float* out) {
  const std::size_t oh = conv_out(h, kernel, stride, pad);
  const std::size_t ow = conv_out(w, kernel, stride, pad);
  const std::size_t ocells = oh * ow;
  for (std::size_t f = 0; f < n_frames; ++f) {
    im2col(in + f * in_ch * h * w, in_ch, h, w, kernel, stride, pad, col);
    float* dst = out + f * channels * ocells;
    sgemm_packed_a_serial(wpack, ocells, 1.0F, col, 0.0F, dst);
    for (std::size_t oc = 0; oc < channels; ++oc) {
      const float bv = bias[oc];
      float* plane = dst + oc * ocells;
      for (std::size_t i = 0; i < ocells; ++i) {
        const float v = plane[i] + bv;
        plane[i] = v > 0.0F ? v : 0.0F;
      }
    }
  }
}

// Grow-once scratch: a forward at a warmed batch size takes the size
// check, never the resize.
void grow(std::vector<float>& v, std::size_t need) {
  // mmhar-rtcheck: allow(alloc) — grow-once scratch, see above.
  if (v.size() < need) v.resize(need);
}

std::vector<float> copy_bias(const Tensor& t) {
  const std::span<const float> flat = t.flat();
  return std::vector<float>(flat.begin(), flat.end());
}

}  // namespace

InferencePlan build_inference_plan(HarModel& model) {
  InferencePlan plan;
  plan.config = model.config();
  const HarModelConfig& cfg = plan.config;

  plan.h1 = conv_out(cfg.height, kConv1Kernel, kConv1Stride, kConv1Pad);
  plan.w1 = conv_out(cfg.width, kConv1Kernel, kConv1Stride, kConv1Pad);
  plan.h2 = conv_out(plan.h1, kConv2Kernel, kConv2Stride, kConv2Pad);
  plan.w2 = conv_out(plan.w1, kConv2Kernel, kConv2Stride, kConv2Pad);
  plan.hp = plan.h2 / kPool;
  plan.wp = plan.w2 / kPool;
  plan.spatial = plan.hp * plan.wp * cfg.conv2_channels;

  // parameters() order is fixed by HarModel's construction: conv1 w/b,
  // conv2 w/b, feature Dense w/b, LSTM w_x/w_h/b, head w/b.
  const std::vector<Tensor*> params = model.parameters();
  MMHAR_REQUIRE(params.size() == 11,
                "build_inference_plan: unexpected parameter count "
                    << params.size());
  const std::size_t fan1 = 1 * kConv1Kernel * kConv1Kernel;
  const std::size_t fan2 = cfg.conv1_channels * kConv2Kernel * kConv2Kernel;
  const std::size_t g4 = 4 * cfg.lstm_hidden;
  const Tensor& c1w = *params[0];
  const Tensor& c2w = *params[2];
  const Tensor& fcw = *params[4];
  const Tensor& wx = *params[6];
  const Tensor& wh = *params[7];
  const Tensor& hw = *params[9];
  MMHAR_REQUIRE(c1w.size() == cfg.conv1_channels * fan1 &&
                    c2w.size() == cfg.conv2_channels * fan2 &&
                    fcw.size() == cfg.feature_dim * plan.spatial &&
                    wx.size() == g4 * cfg.feature_dim &&
                    wh.size() == g4 * cfg.lstm_hidden &&
                    hw.size() == cfg.num_classes * cfg.lstm_hidden,
                "build_inference_plan: weight shapes do not match config");

  plan.conv1_w = pack_a(cfg.conv1_channels, fan1, c1w.data());
  plan.conv1_b = copy_bias(*params[1]);
  plan.conv2_w = pack_a(cfg.conv2_channels, fan2, c2w.data());
  plan.conv2_b = copy_bias(*params[3]);
  plan.fc_w = pack_bt(plan.spatial, cfg.feature_dim, fcw.data());
  plan.fc_b = copy_bias(*params[5]);
  plan.lstm_wx = pack_bt(cfg.feature_dim, g4, wx.data());
  plan.lstm_wh = pack_bt(cfg.lstm_hidden, g4, wh.data());
  plan.lstm_b = copy_bias(*params[8]);
  plan.head_w = pack_bt(cfg.lstm_hidden, cfg.num_classes, hw.data());
  plan.head_b = copy_bias(*params[10]);
  return plan;
}

void InferenceScratch::reserve(const InferencePlan& plan,
                               std::size_t max_batch) {
  const std::size_t n = max_batch * plan.config.frames;
  reserve_features(plan, n);
  grow(feats, n * plan.config.feature_dim);
  reserve_classifier(plan, max_batch);
}

void InferenceScratch::reserve_features(const InferencePlan& plan,
                                        std::size_t max_frames) {
  const HarModelConfig& cfg = plan.config;
  const std::size_t fan1 = 1 * kConv1Kernel * kConv1Kernel;
  const std::size_t fan2 = cfg.conv1_channels * kConv2Kernel * kConv2Kernel;
  const std::size_t o1 = plan.h1 * plan.w1;
  const std::size_t o2 = plan.h2 * plan.w2;
  grow(col, std::max(fan1 * o1, fan2 * o2));
  grow(act1, max_frames * cfg.conv1_channels * o1);
  grow(act2, max_frames * cfg.conv2_channels * o2);
  grow(pooled, max_frames * plan.spatial);
}

void InferenceScratch::reserve_classifier(const InferencePlan& plan,
                                          std::size_t max_batch) {
  const HarModelConfig& cfg = plan.config;
  grow(x_step, max_batch * cfg.feature_dim);
  grow(z, max_batch * 4 * cfg.lstm_hidden);
  grow(h, max_batch * cfg.lstm_hidden);
  grow(c, max_batch * cfg.lstm_hidden);
}

void infer_forward(const InferencePlan& plan, InferenceScratch& scratch,
                   const float* input, std::size_t batch, float* logits) {
  MMHAR_REQUIRE(input != nullptr && logits != nullptr && batch > 0,
                "infer_forward: null buffers or empty batch");
  scratch.reserve(plan, batch);  // no-op once warmed
  // The per-frame CNN over the merged batch*time axis, exactly as
  // HarModel::forward runs it; its [b][t][F] rows are already the LSTM's
  // [batch, T, F] series.
  infer_frame_features(plan, scratch, input, batch * plan.config.frames,
                       scratch.feats.data());
  infer_classify_features(plan, scratch, scratch.feats.data(), batch, logits);
}

void infer_frame_features(const InferencePlan& plan, InferenceScratch& scratch,
                          const float* frames, std::size_t n,
                          float* features) {
  MMHAR_REQUIRE(frames != nullptr && features != nullptr && n > 0,
                "infer_frame_features: null buffers or no frames");
  scratch.reserve_features(plan, n);  // no-op once warmed
  const HarModelConfig& cfg = plan.config;
  const std::size_t o2 = plan.h2 * plan.w2;
  const std::size_t f_dim = cfg.feature_dim;

  float* const act1 = scratch.act1.data();
  float* const act2 = scratch.act2.data();
  conv_relu(plan.conv1_w, plan.conv1_b.data(), cfg.conv1_channels, frames, n,
            1, cfg.height, cfg.width, kConv1Kernel, kConv1Stride, kConv1Pad,
            scratch.col.data(), act1);
  conv_relu(plan.conv2_w, plan.conv2_b.data(), cfg.conv2_channels, act1, n,
            cfg.conv1_channels, plan.h1, plan.w1, kConv2Kernel, kConv2Stride,
            kConv2Pad, scratch.col.data(), act2);

  // 2x2 max pool, then the flatten is just the [n, spatial] view. Scan
  // order and the strict `>` tie-break match MaxPool2D::forward.
  float* const pooled = scratch.pooled.data();
  const std::size_t planes = n * cfg.conv2_channels;
  for (std::size_t bc = 0; bc < planes; ++bc) {
    const float* plane = act2 + bc * o2;
    float* out = pooled + bc * plan.hp * plan.wp;
    for (std::size_t oy = 0; oy < plan.hp; ++oy) {
      for (std::size_t ox = 0; ox < plan.wp; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        for (std::size_t dy = 0; dy < kPool; ++dy) {
          for (std::size_t dx = 0; dx < kPool; ++dx) {
            const float v =
                plane[(oy * kPool + dy) * plan.w2 + ox * kPool + dx];
            if (v > best) best = v;
          }
        }
        out[oy * plan.wp + ox] = best;
      }
    }
  }

  // Feature Dense + ReLU: y = x W^T + b over all n frames at once.
  sgemm_packed_b(n, 1.0F, pooled, plan.fc_w, 0.0F, features);
  const float* const fc_b = plan.fc_b.data();
  for (std::size_t r = 0; r < n; ++r) {
    float* row = features + r * f_dim;
    for (std::size_t j = 0; j < f_dim; ++j) {
      const float v = row[j] + fc_b[j];
      row[j] = v > 0.0F ? v : 0.0F;
    }
  }
}

void infer_classify_features(const InferencePlan& plan,
                             InferenceScratch& scratch, const float* features,
                             std::size_t batch, float* logits) {
  MMHAR_REQUIRE(features != nullptr && logits != nullptr && batch > 0,
                "infer_classify_features: null buffers or empty batch");
  scratch.reserve_classifier(plan, batch);  // no-op once warmed
  const HarModelConfig& cfg = plan.config;
  const std::size_t f_dim = cfg.feature_dim;
  const std::size_t h_dim = cfg.lstm_hidden;
  const std::size_t g4 = 4 * h_dim;

  // Gate math mirrors nn::LSTM::forward (in-place cell update reads the
  // previous value before overwriting it — same arithmetic).
  float* const x_step = scratch.x_step.data();
  float* const z = scratch.z.data();
  float* const hbuf = scratch.h.data();
  float* const cbuf = scratch.c.data();
  std::fill(hbuf, hbuf + batch * h_dim, 0.0F);
  std::fill(cbuf, cbuf + batch * h_dim, 0.0F);
  const float* const lstm_b = plan.lstm_b.data();
  for (std::size_t t = 0; t < cfg.frames; ++t) {
    for (std::size_t b = 0; b < batch; ++b) {
      const float* src = features + (b * cfg.frames + t) * f_dim;
      std::copy(src, src + f_dim, x_step + b * f_dim);
    }
    sgemm_packed_b(batch, 1.0F, x_step, plan.lstm_wx, 0.0F, z);
    sgemm_packed_b(batch, 1.0F, hbuf, plan.lstm_wh, 1.0F, z);
    for (std::size_t b = 0; b < batch; ++b) {
      float* zr = z + b * g4;
      for (std::size_t j = 0; j < g4; ++j) zr[j] += lstm_b[j];
    }
    for (std::size_t b = 0; b < batch; ++b) {
      const float* zr = z + b * g4;
      float* cr = cbuf + b * h_dim;
      float* hr = hbuf + b * h_dim;
      for (std::size_t j = 0; j < h_dim; ++j) {
        const float ig = sigmoidf(zr[j]);
        const float fg = sigmoidf(zr[h_dim + j]);
        const float gg = std::tanh(zr[2 * h_dim + j]);
        const float og = sigmoidf(zr[3 * h_dim + j]);
        const float cprev = cr[j];
        cr[j] = fg * cprev + ig * gg;
        hr[j] = og * std::tanh(cr[j]);
      }
    }
  }

  // Classifier head on the final hidden state.
  sgemm_packed_b(batch, 1.0F, hbuf, plan.head_w, 0.0F, logits);
  const float* const head_b = plan.head_b.data();
  for (std::size_t b = 0; b < batch; ++b) {
    float* row = logits + b * cfg.num_classes;
    for (std::size_t j = 0; j < cfg.num_classes; ++j) row[j] += head_b[j];
  }
}

}  // namespace mmhar::har
