#include "defense/trigger_detector.h"

#include <algorithm>

#include "common/logging.h"
#include "nn/activation.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace mmhar::defense {

TriggerDetector::TriggerDetector(const DetectorConfig& config)
    : config_(config) {
  MMHAR_REQUIRE(config.height % 8 == 0 && config.width % 8 == 0,
                "detector input dims must be divisible by 8");
  Rng rng(config.seed);
  net_.emplace<nn::Conv2D>(1, 8, 5, 2, 2, rng);
  net_.emplace<nn::ReLU>();
  net_.emplace<nn::Conv2D>(8, 8, 3, 2, 1, rng);
  net_.emplace<nn::ReLU>();
  net_.emplace<nn::MaxPool2D>(2);
  net_.emplace<nn::Flatten>();
  const std::size_t spatial = (config.height / 8) * (config.width / 8) * 8;
  net_.emplace<nn::Dense>(spatial, 32, rng);
  net_.emplace<nn::ReLU>();
  net_.emplace<nn::Dense>(32, 2, rng);
}

void TriggerDetector::train(const har::Dataset& clean,
                            const har::Dataset& triggered) {
  MMHAR_REQUIRE(!clean.empty() && !triggered.empty(),
                "need both clean and triggered training data");

  // Build a balanced per-frame example list: (dataset, sample, frame).
  struct Example {
    const har::Dataset* ds;
    std::size_t sample;
    std::size_t frame;
    std::size_t label;
  };
  std::vector<Example> examples;
  const std::size_t frames = clean.sample(0).heatmaps.dim(0);
  const std::size_t per_class =
      std::min(clean.size(), triggered.size()) * frames;

  Rng rng(config_.seed ^ 0xDEF);
  const auto add_examples = [&](const har::Dataset& ds, std::size_t label) {
    std::size_t added = 0;
    while (added < per_class) {
      const std::size_t s = rng.index(ds.size());
      const std::size_t f = rng.index(ds.sample(s).heatmaps.dim(0));
      examples.push_back(Example{&ds, s, f, label});
      ++added;
    }
  };
  add_examples(clean, 0);
  add_examples(triggered, 1);

  std::vector<std::size_t> order(examples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  nn::Adam optimizer(config_.learning_rate);
  const auto params = net_.parameters();
  const auto grads = net_.gradients();
  const std::size_t hw = config_.height * config_.width;

  std::vector<std::size_t> labels;  // hoisted batch-label scratch
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const std::size_t end =
          std::min(order.size(), start + config_.batch_size);
      const std::size_t bsz = end - start;
      Tensor batch({bsz, 1, config_.height, config_.width});
      labels.assign(bsz, 0);
      for (std::size_t b = 0; b < bsz; ++b) {
        const Example& e = examples[order[start + b]];
        const Tensor& h = e.ds->sample(e.sample).heatmaps;
        MMHAR_CHECK((e.frame + 1) * hw <= h.size() &&
                    (b + 1) * hw <= batch.size());
        std::copy(h.data() + e.frame * hw, h.data() + (e.frame + 1) * hw,
                  batch.data() + b * hw);
        labels[b] = e.label;
      }
      net_.zero_gradients();
      const Tensor logits = net_.forward(batch, /*training=*/true);
      const auto loss = nn::softmax_cross_entropy(logits, labels);
      net_.backward_params(loss.grad_logits);
      nn::clip_gradient_norm(grads, 5.0F);
      optimizer.step(params, grads);
      loss_sum += loss.loss;
      ++batches;
    }
    MMHAR_LOG(Debug) << "detector epoch " << epoch + 1 << " loss "
                     << loss_sum / static_cast<double>(std::max<std::size_t>(1, batches));
  }
}

double TriggerDetector::frame_probability(const Tensor& frame) {
  MMHAR_REQUIRE(frame.rank() == 2 && frame.dim(0) == config_.height &&
                    frame.dim(1) == config_.width,
                "frame shape mismatch");
  const Tensor logits = net_.forward(
      frame.reshaped({1, 1, config_.height, config_.width}), false);
  const Tensor probs = softmax(logits.reshaped({2}));
  return probs[1];
}

double TriggerDetector::flagged_fraction(const Tensor& sample_heatmaps) {
  MMHAR_REQUIRE(sample_heatmaps.rank() == 3, "expected [T, H, W]");
  const std::size_t frames = sample_heatmaps.dim(0);
  const std::size_t hw = config_.height * config_.width;
  Tensor batch({frames, 1, config_.height, config_.width});
  std::copy(sample_heatmaps.data(), sample_heatmaps.data() + frames * hw,
            batch.data());
  const Tensor logits = net_.forward(batch, false);
  std::size_t flagged = 0;
  for (std::size_t f = 0; f < frames; ++f) {
    const float l0 = logits.at(f, 0);
    const float l1 = logits.at(f, 1);
    const double p1 = 1.0 / (1.0 + std::exp(static_cast<double>(l0 - l1)));
    if (p1 > config_.frame_flag_threshold) ++flagged;
  }
  return static_cast<double>(flagged) / static_cast<double>(frames);
}

bool TriggerDetector::is_triggered(const Tensor& sample_heatmaps) {
  return flagged_fraction(sample_heatmaps) > config_.sample_flag_fraction;
}

DetectorMetrics TriggerDetector::evaluate(const har::Dataset& clean,
                                          const har::Dataset& triggered) {
  DetectorMetrics m;
  std::size_t frame_correct = 0;
  std::size_t frame_total = 0;
  std::size_t clean_flagged = 0;
  std::size_t triggered_flagged = 0;

  for (std::size_t i = 0; i < clean.size(); ++i) {
    const double frac = flagged_fraction(clean.sample(i).heatmaps);
    const std::size_t frames = clean.sample(i).heatmaps.dim(0);
    frame_correct += static_cast<std::size_t>(
        std::lround((1.0 - frac) * static_cast<double>(frames)));
    frame_total += frames;
    if (frac > config_.sample_flag_fraction) ++clean_flagged;
  }
  for (std::size_t i = 0; i < triggered.size(); ++i) {
    const double frac = flagged_fraction(triggered.sample(i).heatmaps);
    const std::size_t frames = triggered.sample(i).heatmaps.dim(0);
    frame_correct += static_cast<std::size_t>(
        std::lround(frac * static_cast<double>(frames)));
    frame_total += frames;
    if (frac > config_.sample_flag_fraction) ++triggered_flagged;
  }

  if (frame_total > 0)
    m.frame_accuracy =
        static_cast<double>(frame_correct) / static_cast<double>(frame_total);
  if (!triggered.empty())
    m.sample_recall = static_cast<double>(triggered_flagged) /
                      static_cast<double>(triggered.size());
  if (!clean.empty())
    m.sample_false_positive =
        static_cast<double>(clean_flagged) / static_cast<double>(clean.size());
  return m;
}

}  // namespace mmhar::defense
