#include "xai/frame_importance.h"

#include <cmath>

#include "common/logging.h"
#include "har/infer.h"
#include "tensor/ops.h"

namespace mmhar::xai {

FrameImportance::FrameImportance(har::HarModel& model, ShapConfig config)
    : model_(model), config_(config), rng_(config.seed) {}

std::vector<double> FrameImportance::shap_values(const Tensor& sample,
                                                 std::size_t target_class) {
  const auto& mc = model_.config();
  MMHAR_REQUIRE(sample.rank() == 3 && sample.dim(0) == mc.frames &&
                    sample.dim(1) == mc.height && sample.dim(2) == mc.width,
                "sample must be [T, H, W]");
  MMHAR_REQUIRE(target_class < mc.num_classes, "target class out of range");
  const std::size_t frames = mc.frames;
  const std::size_t feat = mc.feature_dim;

  // Extract per-frame CNN features once; coalitions only re-run the LSTM.
  // Both halves run on one inference plan (bit-identical per row to
  // HarModel::frame_features and HarModel::classify_features).
  const har::InferencePlan plan = har::build_inference_plan(model_);
  har::InferenceScratch scratch;
  Tensor features({frames, feat});
  har::infer_frame_features(plan, scratch, sample.data(), frames,
                            features.data());

  Tensor baseline({feat});
  if (config_.baseline == ShapBaseline::MeanFrame)
    baseline = mean_rows(features);

  // Each antithetic pair's coalitions run as one batch through the
  // inference LSTM + head, so scratch stays bounded by one pair.
  std::vector<float> series;
  Tensor logits;
  const BatchValueFunction value = [&](std::span<const std::uint8_t> masks,
                                       std::span<double> values) {
    const std::size_t rows = values.size();
    series.resize(rows * frames * feat);
    MMHAR_CHECK(masks.size() == rows * frames &&
                features.size() == frames * feat && baseline.size() == feat);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t t = 0; t < frames; ++t) {
        const float* src = masks[r * frames + t] != 0
                               ? features.data() + t * feat
                               : baseline.data();
        std::copy(src, src + feat, series.data() + (r * frames + t) * feat);
      }
    logits.resize({rows, mc.num_classes});
    har::infer_classify_features(plan, scratch, series.data(), rows,
                                 logits.data());
    const Tensor out =
        config_.use_probability ? softmax_rows(logits) : logits;
    for (std::size_t r = 0; r < rows; ++r)
      values[r] = static_cast<double>(out.at(r, target_class));
  };

  return sampling_shapley(frames, value, config_.num_permutations, rng_);
}

std::vector<double> FrameImportance::shap_values_predicted(
    const Tensor& sample) {
  return shap_values(sample, model_.predict(sample));
}

std::vector<std::size_t> FrameImportance::top_k_frames(
    const Tensor& sample, std::size_t target_class, std::size_t k) {
  return top_k_by_magnitude(shap_values(sample, target_class), k);
}

std::vector<double> FrameImportance::mean_abs_shap(
    const har::Dataset& dataset, const std::vector<std::size_t>& indices,
    std::size_t target_class) {
  MMHAR_REQUIRE(!indices.empty(), "mean_abs_shap over empty index set");
  std::vector<double> acc(model_.config().frames, 0.0);
  for (const std::size_t i : indices) {
    const auto phi = shap_values(dataset.sample(i).heatmaps, target_class);
    for (std::size_t t = 0; t < acc.size(); ++t) acc[t] += std::abs(phi[t]);
  }
  const double inv = 1.0 / static_cast<double>(indices.size());
  for (auto& v : acc) v *= inv;
  return acc;
}

std::vector<std::size_t> most_important_frame_histogram(
    har::HarModel& model, const har::Dataset& dataset,
    const ShapConfig& config, std::size_t max_samples) {
  FrameImportance importance(model, config);
  const std::size_t frames = model.config().frames;
  std::vector<std::size_t> histogram(frames, 0);
  const std::size_t n = max_samples == 0
                            ? dataset.size()
                            : std::min(max_samples, dataset.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = dataset.sample(i);
    const auto phi = importance.shap_values(s.heatmaps, s.label);
    const auto top = top_k_by_magnitude(phi, 1);
    ++histogram[top.front()];
    if ((i + 1) % 25 == 0)
      MMHAR_LOG(Debug) << "SHAP histogram " << i + 1 << "/" << n;
  }
  return histogram;
}

}  // namespace mmhar::xai
