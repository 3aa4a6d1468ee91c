#include "har/model.h"

#include <algorithm>
#include <cmath>

#include "common/serialize.h"
#include "nn/activation.h"

namespace mmhar::har {

HarModel::HarModel(const HarModelConfig& config) : config_(config) {
  MMHAR_REQUIRE(config.height % 8 == 0 && config.width % 8 == 0,
                "heatmap dims must be divisible by 8 (two stride-2 convs "
                "plus one 2x2 pool)");
  Rng rng(config.seed);

  // Frame CNN: 32x32 -> conv(s2) 16x16 -> conv(s2) 8x8 -> pool 4x4.
  cnn_.emplace<nn::Conv2D>(1, config.conv1_channels, 5, 2, 2, rng);
  cnn_.emplace<nn::ReLU>();
  cnn_.emplace<nn::Conv2D>(config.conv1_channels, config.conv2_channels, 3, 2,
                           1, rng);
  cnn_.emplace<nn::ReLU>();
  cnn_.emplace<nn::MaxPool2D>(2);
  cnn_.emplace<nn::Flatten>();
  const std::size_t spatial =
      (config.height / 8) * (config.width / 8) * config.conv2_channels;
  cnn_.emplace<nn::Dense>(spatial, config.feature_dim, rng);
  cnn_.emplace<nn::ReLU>();

  lstm_ = std::make_unique<nn::LSTM>(config.feature_dim, config.lstm_hidden,
                                     rng, /*return_sequence=*/false);
  head_ = std::make_unique<nn::Dense>(config.lstm_hidden, config.num_classes,
                                      rng);
}

Tensor HarModel::forward(const Tensor& batch, bool training) {
  MMHAR_REQUIRE(batch.rank() == 4 && batch.dim(1) == config_.frames &&
                    batch.dim(2) == config_.height &&
                    batch.dim(3) == config_.width,
                "expected [B, " << config_.frames << ", " << config_.height
                                << ", " << config_.width << "], got "
                                << batch.shape_string());
  last_batch_ = batch.dim(0);
  const std::size_t bt = last_batch_ * config_.frames;

  // Per-frame CNN over the merged batch*time axis.
  frames_.resize({bt, 1, config_.height, config_.width});
  MMHAR_CHECK(frames_.size() == batch.size());
  std::copy(batch.data(), batch.data() + batch.size(), frames_.data());
  series_ = cnn_.forward(frames_, training);
  series_.reshape({last_batch_, config_.frames, config_.feature_dim});
  const Tensor& hidden = lstm_->forward(series_, training);
  return head_->forward(hidden, training);
}

void HarModel::backward(const Tensor& grad_logits) {
  MMHAR_REQUIRE(grad_logits.rank() == 2 && grad_logits.dim(0) == last_batch_,
                "backward before forward, or batch mismatch");
  const Tensor& grad_hidden = head_->backward(grad_logits);
  grad_features_ = lstm_->backward(grad_hidden);
  grad_features_.reshape(
      {last_batch_ * config_.frames, config_.feature_dim});
  cnn_.backward_params(grad_features_);
}

Tensor HarModel::frame_features(const Tensor& frames) {
  MMHAR_REQUIRE(frames.rank() == 3 && frames.dim(1) == config_.height &&
                    frames.dim(2) == config_.width,
                "frame_features expects [N, H, W], got "
                    << frames.shape_string());
  frames_.resize({frames.dim(0), 1, config_.height, config_.width});
  std::copy(frames.data(), frames.data() + frames.size(), frames_.data());
  return cnn_.forward(frames_, /*training=*/false);
}

Tensor HarModel::classify_features(const Tensor& features) {
  MMHAR_REQUIRE(features.rank() == 3 &&
                    features.dim(2) == config_.feature_dim,
                "classify_features expects [B, T, F]");
  const Tensor& hidden = lstm_->forward(features, /*training=*/false);
  return head_->forward(hidden, /*training=*/false);
}

std::size_t HarModel::predict(const Tensor& sample) {
  const Tensor logits = forward(
      sample.reshaped({1, config_.frames, config_.height, config_.width}),
      /*training=*/false);
  return logits.argmax();
}

Tensor HarModel::predict_probabilities(const Tensor& sample) {
  const Tensor logits = forward(
      sample.reshaped({1, config_.frames, config_.height, config_.width}),
      /*training=*/false);
  Tensor row = logits.reshaped({config_.num_classes});
  // Softmax.
  const float mx = row.max();
  double sum = 0.0;
  for (auto& v : row.flat()) {
    v = std::exp(v - mx);
    sum += v;
  }
  row *= static_cast<float>(1.0 / sum);
  return row;
}

std::vector<Tensor*> HarModel::parameters() {
  auto all = cnn_.parameters();
  for (Tensor* p : lstm_->parameters()) all.push_back(p);
  for (Tensor* p : head_->parameters()) all.push_back(p);
  return all;
}

std::vector<Tensor*> HarModel::gradients() {
  auto all = cnn_.gradients();
  for (Tensor* g : lstm_->gradients()) all.push_back(g);
  for (Tensor* g : head_->gradients()) all.push_back(g);
  return all;
}

void HarModel::zero_gradients() {
  for (Tensor* g : gradients()) g->zero();
}

std::size_t HarModel::parameter_count() {
  return nn::parameter_count(parameters());
}

namespace {

constexpr std::uint32_t kModelMagic = 0x4D524148;  // "HARM"
constexpr std::uint32_t kModelVersion = 1;

}  // namespace

void HarModel::save(const std::string& path) const {
  auto* self = const_cast<HarModel*>(this);
  save_artifact(path, kModelMagic, kModelVersion, [&](BinaryWriter& w) {
    // Architecture fingerprint: loading into a differently shaped model
    // must fail loudly, not silently reshape the weight tensors.
    w.write_u64(config_.frames);
    w.write_u64(config_.height);
    w.write_u64(config_.width);
    w.write_u64(config_.conv1_channels);
    w.write_u64(config_.conv2_channels);
    w.write_u64(config_.feature_dim);
    w.write_u64(config_.lstm_hidden);
    w.write_u64(config_.num_classes);
    self->cnn_.save(w);
    lstm_->save(w);
    head_->save(w);
  });
}

LoadResult HarModel::try_load(const std::string& path) {
  // Snapshot the weights so a payload that dies mid-read (corrupt tail)
  // cannot leave the model half-overwritten.
  std::vector<Tensor> snapshot;
  for (Tensor* p : parameters()) snapshot.push_back(*p);

  const LoadResult result =
      load_artifact(path, kModelMagic, kModelVersion, [&](BinaryReader& r) {
        const std::uint64_t arch[] = {r.read_u64(), r.read_u64(),
                                      r.read_u64(), r.read_u64(),
                                      r.read_u64(), r.read_u64(),
                                      r.read_u64(), r.read_u64()};
        const std::uint64_t want[] = {
            config_.frames,         config_.height,
            config_.width,          config_.conv1_channels,
            config_.conv2_channels, config_.feature_dim,
            config_.lstm_hidden,    config_.num_classes};
        for (std::size_t i = 0; i < 8; ++i)
          if (arch[i] != want[i])
            throw IoError("HarModel: saved architecture does not match "
                          "this model's config");
        cnn_.load(r);
        lstm_->load(r);
        head_->load(r);
      });

  if (!result.ok()) {
    const auto params = parameters();
    MMHAR_CHECK(params.size() == snapshot.size());
    for (std::size_t i = 0; i < params.size(); ++i)
      *params[i] = std::move(snapshot[i]);
  }
  return result;
}

void HarModel::load(const std::string& path) {
  const LoadResult result = try_load(path);
  if (!result.ok())
    throw IoError("HarModel::load: " + path + ": " +
                  load_status_name(result.status) +
                  (result.detail.empty() ? "" : " (" + result.detail + ")"));
}

}  // namespace mmhar::har
