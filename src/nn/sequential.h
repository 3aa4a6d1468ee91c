// Layer container executing members in order.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/finite_check.h"
#include "common/thread_annotations.h"
#include "nn/layer.h"

namespace mmhar::nn {

class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Append a layer; returns *this for chaining.
  Sequential& add(LayerPtr layer) {
    MMHAR_REQUIRE(layer != nullptr, "null layer");
    layers_.push_back(std::move(layer));
    return *this;
  }

  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) {
    MMHAR_CHECK(i < layers_.size());
    return *layers_[i];
  }

  const Tensor& forward(const Tensor& input,
                        bool training) MMHAR_DETERMINISTIC override {
    const Tensor* x = &input;
    for (auto& l : layers_) {
      x = &l->forward(*x, training);
      if (finite_checks_enabled())
        check_finite(x->flat(), l->name().c_str(), "Sequential::forward");
    }
    return *x;
  }

  const Tensor& backward(const Tensor& grad_output) MMHAR_DETERMINISTIC
      override {
    return backward_to(grad_output, 0);
  }

  /// Back-propagates through every layer but hands the first one
  /// backward_params(): the network input's gradient is never formed.
  void backward_params(const Tensor& grad_output) MMHAR_DETERMINISTIC
      override {
    if (layers_.empty()) return;
    layers_.front()->backward_params(backward_to(grad_output, 1));
  }

  std::vector<Tensor*> parameters() override {
    std::vector<Tensor*> all;
    for (auto& l : layers_)
      for (Tensor* p : l->parameters()) all.push_back(p);
    return all;
  }

  std::vector<Tensor*> gradients() override {
    std::vector<Tensor*> all;
    for (auto& l : layers_)
      for (Tensor* g : l->gradients()) all.push_back(g);
    return all;
  }

  std::string name() const override { return "Sequential"; }

  void save(BinaryWriter& w) const override {
    for (const auto& l : layers_) l->save(w);
  }
  void load(BinaryReader& r) override {
    for (auto& l : layers_) l->load(r);
  }

 private:
  // dLoss/dInput of layer `first`, back-propagated from the last layer.
  const Tensor& backward_to(const Tensor& grad_output, std::size_t first) {
    const Tensor* g = &grad_output;
    for (std::size_t i = layers_.size(); i-- > first;) {
      g = &layers_[i]->backward(*g);
      if (finite_checks_enabled())
        check_finite(g->flat(), layers_[i]->name().c_str(),
                     "Sequential::backward");
    }
    return *g;
  }

  std::vector<LayerPtr> layers_;
};

}  // namespace mmhar::nn
