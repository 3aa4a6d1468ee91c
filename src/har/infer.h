// Zero-allocation micro-batched inference for the CNN-LSTM classifier.
//
// HarModel::forward is built for training: every layer caches
// activations for backward and re-packs its weights on every call (the
// weights change each optimizer step). The serving path needs neither,
// so inference is split into two pieces with a strict ownership
// boundary:
//
//  * `InferencePlan` — immutable after build_inference_plan(): the model's
//    weights snapshotted into pre-packed GEMM operand layouts (conv
//    weights as PackedA tiles, Dense/LSTM/head weights as PackedB panels)
//    plus copied biases and derived layer geometry. One plan is shared by
//    any number of concurrent consumers without synchronization.
//  * `InferenceScratch` — per-caller, grow-once working buffers for every
//    intermediate activation. After reserve() (or one warm-up call) a
//    forward performs zero heap allocations.
//
// infer_forward replicates HarModel::forward(…, training=false) operation
// for operation — same im2col layout, same GEMM kernels and reduction
// orders, same gate math — so its logits are bit-identical to the
// training model's for any micro-batch composition (no GEMM in this path
// has a batch-size-dependent fast path; every output row's arithmetic is
// independent of the other rows in the batch). It is two halves that run
// on their own too: infer_frame_features (the per-frame CNN, which SHAP,
// the Eq.-2 position scorer and the serving feature cache run) and
// infer_classify_features (the LSTM and head, which SHAP's coalition
// batches and the serving cycle run).
#pragma once

#include <cstddef>
#include <vector>

#include "common/thread_annotations.h"
#include "har/model.h"
#include "tensor/gemm.h"

namespace mmhar::har {

/// Immutable pre-packed weight snapshot plus derived geometry.
struct InferencePlan {
  HarModelConfig config;

  PackedA conv1_w;             ///< [c1, 1*5*5] in A-tile layout
  std::vector<float> conv1_b;
  PackedA conv2_w;             ///< [c2, c1*3*3] in A-tile layout
  std::vector<float> conv2_b;
  PackedB fc_w;                ///< feature Dense, packed from [F, spatial]
  std::vector<float> fc_b;
  PackedB lstm_wx;             ///< packed from W_x [4H, F]
  PackedB lstm_wh;             ///< packed from W_h [4H, H]
  std::vector<float> lstm_b;
  PackedB head_w;              ///< packed from [C, H]
  std::vector<float> head_b;

  // Layer geometry derived from config (conv1 -> conv2 -> 2x2 pool).
  std::size_t h1 = 0, w1 = 0;  ///< after conv1 (stride 2)
  std::size_t h2 = 0, w2 = 0;  ///< after conv2 (stride 2)
  std::size_t hp = 0, wp = 0;  ///< after pooling
  std::size_t spatial = 0;     ///< flattened CNN output, hp*wp*c2
};

/// Snapshot `model`'s weights into a plan. The plan is independent of the
/// model afterwards: training the model further does not change it.
InferencePlan build_inference_plan(HarModel& model);

/// Grow-once working buffers for the inference entry points. Safe to
/// reuse across calls from one thread; never shared between concurrent
/// callers. The CNN buffers cover the frames of one infer_frame_features
/// call (N = batch * T inside infer_forward).
struct InferenceScratch {
  std::vector<float> col;     ///< im2col panel for one frame
  std::vector<float> act1;    ///< conv1 output [N, c1, h1, w1]
  std::vector<float> act2;    ///< conv2 output [N, c2, h2, w2]
  std::vector<float> pooled;  ///< pool/flatten output [N, spatial]
  std::vector<float> feats;   ///< infer_forward's feature series [N, F]
  std::vector<float> x_step;  ///< LSTM input gather [K, F]
  std::vector<float> z;       ///< LSTM pre-activations [K, 4H]
  std::vector<float> h;       ///< LSTM hidden state [K, H]
  std::vector<float> c;       ///< LSTM cell state [K, H]

  /// Grow every buffer to the sizes `max_batch` samples need. Forwards of
  /// any batch <= max_batch then allocate nothing.
  void reserve(const InferencePlan& plan, std::size_t max_batch);

  /// Grow only the CNN buffers infer_frame_features uses, for calls of up
  /// to `max_frames` frames.
  void reserve_features(const InferencePlan& plan, std::size_t max_frames);

  /// Grow only the LSTM/head buffers infer_classify_features uses.
  void reserve_classifier(const InferencePlan& plan, std::size_t max_batch);
};

/// Micro-batched forward: input [batch, T, H, W] (flat, row-major) ->
/// logits [batch, C]; infer_frame_features over the batch*T frames, then
/// infer_classify_features. Runs entirely on the calling thread; zero heap
/// allocations once `scratch` covers `batch`. Bit-identical to
/// HarModel::forward(input, /*training=*/false) on the weights the plan
/// was built from.
void infer_forward(const InferencePlan& plan, InferenceScratch& scratch,
                   const float* input, std::size_t batch,
                   float* logits) MMHAR_REALTIME MMHAR_DETERMINISTIC;

/// Per-frame CNN feature extractor l_θ: frames [n, H, W] (flat,
/// row-major) -> features [n, F] (conv1, conv2, 2x2 pool, Dense + ReLU).
/// Each feature row depends only on its own frame, so any split of a frame
/// set into calls gives the same rows. Zero heap allocations once
/// `scratch` covers n frames (reserve_features). Bit-identical, row by
/// row, to HarModel::frame_features on the weights the plan was built
/// from.
void infer_frame_features(const InferencePlan& plan, InferenceScratch& scratch,
                          const float* frames, std::size_t n,
                          float* features) MMHAR_REALTIME MMHAR_DETERMINISTIC;

/// LSTM + head over an explicit feature series: features [batch, T, F]
/// (flat, row-major) -> logits [batch, C]. Zero heap allocations once
/// `scratch` covers `batch` (reserve_classifier). Bit-identical, row by
/// row, to HarModel::classify_features on the weights the plan was built
/// from, for any batch composition.
void infer_classify_features(const InferencePlan& plan,
                             InferenceScratch& scratch,
                             const float* features, std::size_t batch,
                             float* logits) MMHAR_REALTIME MMHAR_DETERMINISTIC;

}  // namespace mmhar::har
