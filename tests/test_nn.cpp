// Tests for the neural-network substrate: gradient checks against
// central finite differences for every layer, loss correctness, optimizer
// convergence on analytic problems, and (de)serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/alloc_count.h"
#include "har/model.h"
#include "nn/activation.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/gradcheck.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "tensor/gemm.h"

namespace mmhar::nn {
namespace {

constexpr float kGradTol = 2e-2F;  // relative, fp32 + fd epsilon

TEST(Dense, ForwardMatchesManualComputation) {
  Rng rng(1);
  Dense layer(2, 2, rng);
  // Overwrite weights with known values: W=[[1,2],[3,4]], b=[0.5, -0.5].
  Tensor& w = *layer.parameters()[0];
  w.at(0, 0) = 1;
  w.at(0, 1) = 2;
  w.at(1, 0) = 3;
  w.at(1, 1) = 4;
  Tensor& b = *layer.parameters()[1];
  b[0] = 0.5F;
  b[1] = -0.5F;
  Tensor x({1, 2}, {10, 20});
  const Tensor y = layer.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 10 * 1 + 20 * 2 + 0.5F);
  EXPECT_FLOAT_EQ(y.at(0, 1), 10 * 3 + 20 * 4 - 0.5F);
}

TEST(Dense, GradCheck) {
  Rng rng(2);
  Dense layer(7, 5, rng);
  const Tensor x = Tensor::randn({3, 7}, rng);
  const auto r = check_layer_gradients(layer, x, rng);
  EXPECT_LT(r.max_relative_error, kGradTol) << "checked " << r.checked;
}

TEST(ReLUAndTanh, GradCheck) {
  Rng rng(3);
  ReLU relu_layer;
  // Keep inputs away from the ReLU kink where the gradient is undefined.
  Tensor x = Tensor::randn({4, 6}, rng);
  for (auto& v : x.flat())
    if (std::abs(v) < 0.05F) v = 0.2F;
  const auto r = check_layer_gradients(relu_layer, x, rng);
  EXPECT_LT(r.max_relative_error, kGradTol);

  Tanh tanh_layer;
  const Tensor x2 = Tensor::randn({4, 6}, rng);
  const auto r2 = check_layer_gradients(tanh_layer, x2, rng, 1e-2F);
  EXPECT_LT(r2.max_relative_error, kGradTol);
}

TEST(Conv2D, OutputShapeAndGradCheck) {
  Rng rng(4);
  Conv2D conv(2, 3, 3, 2, 1, rng);
  const Tensor x = Tensor::randn({2, 2, 8, 8}, rng, 0.0F, 1.0F);
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 3, 4, 4}));
  const auto r = check_layer_gradients(conv, x, rng, 1e-2F, 60);
  EXPECT_LT(r.max_relative_error, kGradTol);
}

TEST(Conv2D, KernelLargerStride1Padding) {
  Rng rng(5);
  Conv2D conv(1, 2, 5, 1, 2, rng);
  const Tensor x = Tensor::randn({1, 1, 6, 6}, rng);
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 2, 6, 6}));
  const auto r = check_layer_gradients(conv, x, rng, 1e-2F, 60);
  EXPECT_LT(r.max_relative_error, kGradTol);
}

TEST(Conv2D, IdentityKernelReproducesInput) {
  Rng rng(6);
  Conv2D conv(1, 1, 1, 1, 0, rng);
  conv.parameters()[0]->at(0, 0) = 1.0F;  // 1x1 kernel = identity
  (*conv.parameters()[1])[0] = 0.0F;
  const Tensor x = Tensor::randn({1, 1, 5, 5}, rng);
  const Tensor y = conv.forward(x, false);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(y[i], x[i], 1e-6F);
}

// ---- Oracle: the per-image im2col conv paths ----
//
// Conv2D packs its weight-gradient operand straight from the input image
// and skips the input gradient on request. The reference below is the
// per-image formulation it replaced — forward im2col + prepacked-A GEMM,
// backward im2col + sgemm_bt for dW and W^T GEMM + col2im for dX — and
// every result must match it to the bit.

struct RefConv {
  std::size_t cin, cout, kernel, stride, pad;

  std::size_t out_size(std::size_t in) const {
    return (in + 2 * pad - kernel) / stride + 1;
  }

  void im2col(const float* img, std::size_t h, std::size_t w,
              float* col) const {
    const std::size_t oh = out_size(h);
    const std::size_t ow = out_size(w);
    std::size_t row = 0;
    for (std::size_t c = 0; c < cin; ++c)
      for (std::size_t ky = 0; ky < kernel; ++ky)
        for (std::size_t kx = 0; kx < kernel; ++kx, ++row)
          for (std::size_t oy = 0; oy < oh; ++oy)
            for (std::size_t ox = 0; ox < ow; ++ox) {
              const auto iy = static_cast<std::ptrdiff_t>(oy * stride + ky) -
                              static_cast<std::ptrdiff_t>(pad);
              const auto ix = static_cast<std::ptrdiff_t>(ox * stride + kx) -
                              static_cast<std::ptrdiff_t>(pad);
              const bool inside =
                  iy >= 0 && iy < static_cast<std::ptrdiff_t>(h) && ix >= 0 &&
                  ix < static_cast<std::ptrdiff_t>(w);
              col[row * oh * ow + oy * ow + ox] =
                  inside ? img[c * h * w + static_cast<std::size_t>(iy) * w +
                               static_cast<std::size_t>(ix)]
                         : 0.0F;
            }
  }

  void col2im(const float* col, std::size_t h, std::size_t w,
              float* img) const {
    const std::size_t oh = out_size(h);
    const std::size_t ow = out_size(w);
    std::size_t row = 0;
    for (std::size_t c = 0; c < cin; ++c)
      for (std::size_t ky = 0; ky < kernel; ++ky)
        for (std::size_t kx = 0; kx < kernel; ++kx, ++row)
          for (std::size_t oy = 0; oy < oh; ++oy)
            for (std::size_t ox = 0; ox < ow; ++ox) {
              const auto iy = static_cast<std::ptrdiff_t>(oy * stride + ky) -
                              static_cast<std::ptrdiff_t>(pad);
              const auto ix = static_cast<std::ptrdiff_t>(ox * stride + kx) -
                              static_cast<std::ptrdiff_t>(pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h) || ix < 0 ||
                  ix >= static_cast<std::ptrdiff_t>(w))
                continue;
              img[c * h * w + static_cast<std::size_t>(iy) * w +
                  static_cast<std::size_t>(ix)] +=
                  col[row * oh * ow + oy * ow + ox];
            }
  }

  Tensor forward(const Tensor& weight, const Tensor& bias,
                 const Tensor& x) const {
    const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
    const std::size_t ocells = out_size(h) * out_size(w);
    const std::size_t fan_in = cin * kernel * kernel;
    Tensor y({batch, cout, out_size(h), out_size(w)});
    std::vector<float> col(fan_in * ocells);
    const PackedA wpack = pack_a(cout, fan_in, weight.data());
    for (std::size_t b = 0; b < batch; ++b) {
      im2col(x.data() + b * cin * h * w, h, w, col.data());
      float* out = y.data() + b * cout * ocells;
      sgemm_packed_a(wpack, ocells, 1.0F, col.data(), 0.0F, out);
      for (std::size_t oc = 0; oc < cout; ++oc)
        for (std::size_t i = 0; i < ocells; ++i)
          out[oc * ocells + i] += bias[oc];
    }
    return y;
  }

  void backward(const Tensor& weight, const Tensor& x, const Tensor& gy,
                Tensor& gw, Tensor& gb, Tensor& gx) const {
    const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
    const std::size_t ocells = out_size(h) * out_size(w);
    const std::size_t fan_in = cin * kernel * kernel;
    gx = Tensor(x.shape());
    std::vector<float> col(fan_in * ocells);
    std::vector<float> gcol(fan_in * ocells);
    const PackedA wtpack = pack_at(fan_in, cout, weight.data());
    for (std::size_t b = 0; b < batch; ++b) {
      const float* gout = gy.data() + b * cout * ocells;
      for (std::size_t oc = 0; oc < cout; ++oc) {
        float acc = 0.0F;
        for (std::size_t i = 0; i < ocells; ++i) acc += gout[oc * ocells + i];
        gb[oc] += acc;
      }
      im2col(x.data() + b * cin * h * w, h, w, col.data());
      sgemm_bt(cout, ocells, fan_in, 1.0F, gout, col.data(), 1.0F, gw.data());
      sgemm_packed_a(wtpack, ocells, 1.0F, gout, 0.0F, gcol.data());
      col2im(gcol.data(), h, w, gx.data() + b * cin * h * w);
    }
  }
};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Conv2D, MatchesPerImageIm2colReference) {
  constexpr std::size_t kOut = 5;  // not a multiple of the 4-row tile
  std::size_t cases = 0;
  for (const std::size_t cin : {1u, 3u, 6u})
    for (const std::size_t kernel : {1u, 3u, 5u})
      for (const std::size_t stride : {1u, 2u})
        for (const std::size_t pad : {0u, 1u, 2u}) {
          SCOPED_TRACE("cin=" + std::to_string(cin) + " k=" +
                       std::to_string(kernel) + " s=" +
                       std::to_string(stride) + " p=" + std::to_string(pad));
          Rng rng(1000 + cases);
          Conv2D conv(cin, kOut, kernel, stride, pad, rng);
          const RefConv ref{cin, kOut, kernel, stride, pad};
          const Tensor& weight = *conv.parameters()[0];
          Tensor& bias = *conv.parameters()[1];
          bias = Tensor::randn({kOut}, rng);
          // Batch 7 then 1 on the same layer: grown, then shrunk, buffers.
          for (const std::size_t batch : {7u, 1u}) {
            const Tensor x = Tensor::randn({batch, cin, 12, 20}, rng);
            const Tensor& y = conv.forward(x, true);
            ASSERT_TRUE(same_bits(y, ref.forward(weight, bias, x)));
            const Tensor gy = Tensor::randn(y.shape(), rng);

            Tensor gw({kOut, cin * kernel * kernel});
            Tensor gb({kOut});
            Tensor gx;
            ref.backward(weight, x, gy, gw, gb, gx);

            conv.zero_gradients();
            const Tensor& gin = conv.backward(gy);
            EXPECT_TRUE(same_bits(gin, gx));
            EXPECT_TRUE(same_bits(*conv.gradients()[0], gw));
            EXPECT_TRUE(same_bits(*conv.gradients()[1], gb));

            // Parameter gradients alone, and accumulated over two calls.
            conv.zero_gradients();
            conv.backward_params(gy);
            EXPECT_TRUE(same_bits(*conv.gradients()[0], gw));
            EXPECT_TRUE(same_bits(*conv.gradients()[1], gb));
            ref.backward(weight, x, gy, gw, gb, gx);
            conv.backward_params(gy);
            EXPECT_TRUE(same_bits(*conv.gradients()[0], gw));
            EXPECT_TRUE(same_bits(*conv.gradients()[1], gb));
          }
          ++cases;
        }
  EXPECT_EQ(cases, 54u);
}

TEST(ReLU, MatchesMaskLoopOnSpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> specials{0.0F,    -0.0F,   nan,     -nan,
                                    inf,     -inf,    denorm,  -denorm,
                                    1e-39F,  -1e-39F, 1.5F,    -2.5F,
                                    3e38F,   -3e38F,  1e-45F,  -1e-45F};
  const std::size_t n = specials.size();
  // Every (input, upstream gradient) pair of special values.
  Tensor x({n * n});
  Tensor g({n * n});
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      x[i * n + j] = specials[i];
      g[i * n + j] = specials[j];
    }
  // The replaced loop: copy, then zero where !(x > 0) and record a mask.
  Tensor want_y = x;
  Tensor mask(x.shape());
  for (std::size_t i = 0; i < want_y.size(); ++i) {
    if (want_y[i] > 0.0F) {
      mask[i] = 1.0F;
    } else {
      want_y[i] = 0.0F;
    }
  }
  Tensor want_g = g;
  want_g.mul_elementwise(mask);

  ReLU relu;
  EXPECT_TRUE(same_bits(relu.forward(x, true), want_y));
  EXPECT_TRUE(same_bits(relu.backward(g), want_g));
}

TEST(MaxPool2D, ForwardAndRouting) {
  MaxPool2D pool(2);
  Tensor x({1, 1, 2, 4}, {1, 5, 2, 3,
                          4, 0, 9, 1});
  const Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(y[0], 5.0F);
  EXPECT_FLOAT_EQ(y[1], 9.0F);
  Tensor g({1, 1, 1, 2}, {1.0F, 2.0F});
  const Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[1], 1.0F);  // routed to the argmax (value 5)
  EXPECT_FLOAT_EQ(gx[6], 2.0F);  // routed to the argmax (value 9)
  EXPECT_FLOAT_EQ(gx[0], 0.0F);
}

TEST(MaxPool2D, GradCheck) {
  Rng rng(7);
  MaxPool2D pool(2);
  // Distinct values avoid argmax ties that break finite differences.
  Tensor x({1, 2, 4, 4});
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<float>(i % 7) + 0.13F * static_cast<float>(i);
  const auto r = check_layer_gradients(pool, x, rng);
  EXPECT_LT(r.max_relative_error, kGradTol);
}

TEST(Flatten, RoundTripsShape) {
  Flatten flatten;
  Rng rng(8);
  const Tensor x = Tensor::randn({2, 3, 4, 5}, rng);
  const Tensor y = flatten.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 60}));
  const Tensor gx = flatten.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(Dropout, InferenceIsIdentityTrainingScales) {
  Rng rng(9);
  Dropout drop(0.5, rng);
  const Tensor x = Tensor::full({1000}, 1.0F);
  const Tensor eval_out = drop.forward(x, false);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(eval_out[i], 1.0F);
  const Tensor train_out = drop.forward(x, true);
  std::size_t zeros = 0;
  for (const float v : train_out.flat()) {
    if (v == 0.0F) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(v, 2.0F);  // inverted dropout scale 1/(1-p)
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros), 500.0, 60.0);
  // Mean preserved in expectation.
  EXPECT_NEAR(train_out.mean(), 1.0F, 0.15F);
}

TEST(Sequential, ComposesAndExposesParameters) {
  Rng rng(10);
  Sequential net;
  net.emplace<Dense>(4, 8, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(8, 2, rng);
  EXPECT_EQ(net.num_layers(), 3u);
  EXPECT_EQ(net.parameters().size(), 4u);
  EXPECT_EQ(net.gradients().size(), 4u);
  const Tensor x = Tensor::randn({5, 4}, rng);
  const Tensor y = net.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{5, 2}));
  const auto r = check_layer_gradients(net, x, rng);
  EXPECT_LT(r.max_relative_error, kGradTol);
}

TEST(Sequential, SaveLoadRoundTrip) {
  Rng rng(11);
  Sequential a;
  a.emplace<Dense>(3, 4, rng);
  a.emplace<ReLU>();
  a.emplace<Dense>(4, 2, rng);
  Rng rng2(999);
  Sequential b;
  b.emplace<Dense>(3, 4, rng2);
  b.emplace<ReLU>();
  b.emplace<Dense>(4, 2, rng2);

  std::stringstream ss;
  {
    BinaryWriter w(ss);
    a.save(w);
  }
  BinaryReader r(ss);
  b.load(r);
  const Tensor x = Tensor::randn({2, 3}, rng);
  const Tensor ya = a.forward(x, false);
  const Tensor yb = b.forward(x, false);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(Loss, CrossEntropyValueAndGradient) {
  Tensor logits({2, 3}, {1.0F, 2.0F, 3.0F, 0.0F, 0.0F, 0.0F});
  const std::vector<std::size_t> labels{2, 0};
  const auto result = softmax_cross_entropy(logits, labels);
  // Manual: row0 p2 = e^3/(e+e^2+e^3); row1 p0 = 1/3.
  const double p2 = std::exp(3.0) / (std::exp(1.0) + std::exp(2.0) +
                                     std::exp(3.0));
  const double expected = (-std::log(p2) - std::log(1.0 / 3.0)) / 2.0;
  EXPECT_NEAR(result.loss, expected, 1e-5);
  // Gradient rows sum to zero (softmax - onehot).
  for (std::size_t b = 0; b < 2; ++b) {
    float sum = 0.0F;
    for (std::size_t c = 0; c < 3; ++c) sum += result.grad_logits.at(b, c);
    EXPECT_NEAR(sum, 0.0F, 1e-6F);
  }
  EXPECT_LT(result.grad_logits.at(0, 2), 0.0F);  // push true class up
}

TEST(Loss, GradMatchesFiniteDifference) {
  Rng rng(12);
  const Tensor logits = Tensor::randn({3, 4}, rng);
  const std::vector<std::size_t> labels{1, 3, 0};
  const auto result = softmax_cross_entropy(logits, labels);
  const auto fn = [&labels](const Tensor& x) {
    return softmax_cross_entropy(x, labels).loss;
  };
  const auto r =
      check_function_gradient(fn, logits, result.grad_logits, 1e-3F);
  EXPECT_LT(r.max_relative_error, kGradTol);
}

TEST(Loss, AccuracyCountsArgmaxMatches) {
  Tensor logits({3, 2}, {2, 1, 0, 3, 5, 4});
  EXPECT_FLOAT_EQ(accuracy(logits, {0, 1, 0}), 1.0F);
  EXPECT_NEAR(accuracy(logits, {1, 1, 0}), 2.0F / 3.0F, 1e-6F);
}

TEST(Optimizer, SgdConvergesOnQuadratic) {
  // Minimize ||x - c||^2 via gradient steps.
  Tensor x({3}, {5, -3, 2});
  const Tensor c({3}, {1, 1, 1});
  Tensor g({3});
  Sgd opt(0.1F, 0.0F);
  for (int i = 0; i < 200; ++i) {
    for (std::size_t j = 0; j < 3; ++j) g[j] = 2.0F * (x[j] - c[j]);
    opt.step({&x}, {&g});
  }
  for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(x[j], c[j], 1e-3F);
}

TEST(Optimizer, MomentumAcceleratesIllConditionedProblem) {
  const auto run = [](float momentum) {
    Tensor x({2}, {10.0F, 10.0F});
    Tensor g({2});
    Sgd opt(0.02F, momentum);
    for (int i = 0; i < 100; ++i) {
      g[0] = 2.0F * x[0];
      g[1] = 40.0F * x[1];  // condition number 20
      opt.step({&x}, {&g});
    }
    return std::abs(x[0]);
  };
  EXPECT_LT(run(0.9F), run(0.0F));
}

TEST(Optimizer, AdamConvergesAndIsScaleInvariant) {
  Tensor x({2}, {4.0F, 4.0F});
  Tensor g({2});
  Adam opt(0.1F);
  for (int i = 0; i < 300; ++i) {
    g[0] = 2.0F * x[0];
    g[1] = 2000.0F * x[1];  // vastly different gradient scales
    opt.step({&x}, {&g});
  }
  EXPECT_NEAR(x[0], 0.0F, 1e-2F);
  EXPECT_NEAR(x[1], 0.0F, 1e-2F);
}

TEST(Optimizer, WeightDecayShrinksParameters) {
  Tensor x({1}, {1.0F});
  Tensor g({1}, {0.0F});
  Sgd opt(0.1F, 0.0F, 0.5F);
  for (int i = 0; i < 10; ++i) opt.step({&x}, {&g});
  EXPECT_LT(x[0], 1.0F);
  EXPECT_GT(x[0], 0.0F);
}

TEST(Optimizer, GradientClippingBoundsNorm) {
  Tensor g1({2}, {30.0F, 40.0F});
  Tensor g2({1}, {0.0F});
  const float pre = clip_gradient_norm({&g1, &g2}, 5.0F);
  EXPECT_FLOAT_EQ(pre, 50.0F);
  double norm = 0.0;
  for (const float v : g1.flat()) norm += static_cast<double>(v) * v;
  EXPECT_NEAR(std::sqrt(norm), 5.0, 1e-4);
  // No-op when already small.
  Tensor g3({1}, {1.0F});
  clip_gradient_norm({&g3}, 5.0F);
  EXPECT_FLOAT_EQ(g3[0], 1.0F);
}

TEST(Training, TwoLayerNetLearnsXor) {
  Rng rng(13);
  Sequential net;
  net.emplace<Dense>(2, 8, rng);
  net.emplace<Tanh>();
  net.emplace<Dense>(8, 2, rng);
  Adam opt(0.05F);
  const Tensor x({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  const std::vector<std::size_t> y{0, 1, 1, 0};
  for (int epoch = 0; epoch < 300; ++epoch) {
    net.zero_gradients();
    const Tensor logits = net.forward(x, true);
    const auto loss = softmax_cross_entropy(logits, y);
    net.backward(loss.grad_logits);
    opt.step(net.parameters(), net.gradients());
  }
  const Tensor logits = net.forward(x, false);
  EXPECT_FLOAT_EQ(accuracy(logits, y), 1.0F);
}

// A warmed training step of the attack-point model reuses every
// activation, cache and gradient buffer: what it still allocates (shape
// vectors, the returned logits) stays far below one activation tensor.
TEST(Training, WarmedStepAllocationBudget) {
  har::HarModelConfig mc;
  mc.conv1_channels = 6;
  mc.conv2_channels = 12;
  mc.feature_dim = 48;
  mc.lstm_hidden = 48;
  har::HarModel model(mc);
  Rng rng(21);
  const Tensor batch = Tensor::rand_uniform(
      {8, mc.frames, mc.height, mc.width}, rng, 0.0F, 1.0F);
  const Tensor grad = Tensor::full({8, mc.num_classes}, 1.0F / 8.0F);
  const auto step = [&] {
    model.zero_gradients();
    (void)model.forward(batch, /*training=*/true);
    model.backward(grad);
  };
  step();
  step();
  const std::uint64_t before = alloc_bytes();
  step();
  const std::uint64_t bytes = alloc_bytes() - before;
  EXPECT_LT(bytes, 1u << 20) << bytes << " bytes allocated by a warmed step";
}

}  // namespace
}  // namespace mmhar::nn
