// Layer interface for the from-scratch neural-network library.
//
// Design notes:
//  * Layers are stateful: `forward` caches whatever `backward` needs, so a
//    layer instance serves one in-flight (forward, backward) pair at a
//    time. Training is single-threaded at the layer level; parallelism
//    lives inside the GEMM kernels.
//  * Outputs, input gradients and caches live in grow-only buffers the
//    layer owns; forward/backward return references to them, valid until
//    the layer's next call. A step at a previously seen batch shape
//    allocates no activation-sized memory.
//  * All activations flow as batched tensors: [B, C, H, W] for image
//    layers, [B, D] for dense layers, [B, T, D] for recurrent layers.
//  * Parameters and their gradients are exposed as parallel lists so the
//    optimizers stay layer-agnostic.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "tensor/tensor.h"

namespace mmhar::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Compute the layer output. `training` toggles dropout-style behavior.
  virtual const Tensor& forward(const Tensor& input, bool training) = 0;

  /// Given dLoss/dOutput, accumulate parameter gradients and return
  /// dLoss/dInput. Must be preceded by a matching forward().
  virtual const Tensor& backward(const Tensor& grad_output) = 0;

  /// backward() for a layer whose input gradient nobody reads (the first
  /// layer of a network): accumulates the parameter gradients only.
  /// Layers with a costly input gradient override it to skip that work.
  virtual void backward_params(const Tensor& grad_output) {
    (void)backward(grad_output);
  }

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Tensor*> parameters() { return {}; }

  /// Gradient buffers, parallel to parameters().
  virtual std::vector<Tensor*> gradients() { return {}; }

  /// Zero all gradient buffers.
  void zero_gradients() {
    for (Tensor* g : gradients()) g->zero();
  }

  virtual std::string name() const = 0;

  /// Serialize parameters (not activations/caches).
  virtual void save(BinaryWriter& w) const {
    for (const Tensor* p : const_cast<Layer*>(this)->parameters())
      p->save(w);
  }
  virtual void load(BinaryReader& r) {
    for (Tensor* p : parameters()) *p = Tensor::load(r);
  }
};

using LayerPtr = std::unique_ptr<Layer>;

/// Total number of scalar parameters across a layer list.
inline std::size_t parameter_count(const std::vector<Tensor*>& params) {
  std::size_t n = 0;
  for (const Tensor* p : params) n += p->size();
  return n;
}

}  // namespace mmhar::nn
