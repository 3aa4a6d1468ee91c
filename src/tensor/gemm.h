// Single-precision matrix multiply kernels.
//
// The NN library routes every dense contraction (Conv2D via im2col, Dense,
// LSTM gate blocks) through these. The implementation is a packed,
// register-tiled microkernel: B is packed into cache-resident panels of
// width kNR, A into zero-padded kMR-row tiles, and a kMR x kNR accumulator
// tile stays in registers across each k-block so the inner loop is
// branch-free FMA code. Large products are split across row tiles on the
// global thread pool; the per-element reduction order is fixed by the
// k-blocking alone, so results are bit-identical for any MMHAR_THREADS.
#pragma once

#include <cstddef>
#include <vector>

#include "common/thread_annotations.h"

namespace mmhar {

/// C[m x n] = alpha * A[m x k] * B[k x n] + beta * C. Row-major, no aliasing.
void sgemm(std::size_t m, std::size_t k, std::size_t n, float alpha,
           const float* a, const float* b, float beta, float* c);

/// C[m x n] += A^T[m x k] * B[k x n] where A is stored k x m (row-major).
/// Used by backward passes that need the transpose of a stored weight.
/// Packs A directly from the transposed storage; no materialized copy.
void sgemm_at(std::size_t m, std::size_t k, std::size_t n, float alpha,
              const float* a, const float* b, float beta, float* c);

/// C[m x n] += A[m x k] * B^T[k x n] where B is stored n x k (row-major).
/// Packs B directly from the transposed storage; no materialized copy.
void sgemm_bt(std::size_t m, std::size_t k, std::size_t n, float alpha,
              const float* a, const float* b, float beta, float* c);

/// A matrix pre-packed into the microkernel's A-tile layout (kMR-row tiles,
/// k-major within a tile, tail rows zero-padded). Callers that multiply
/// the same left operand against many right-hand sides — Conv2D replaying
/// one weight matrix over every im2col'd batch image, for instance — pack
/// once and amortize the packing traffic across all products.
struct PackedA {
  std::size_t m = 0;
  std::size_t k = 0;
  std::vector<float> data;
};

/// Pack row-major A[m x k] into microkernel tile layout.
PackedA pack_a(std::size_t m, std::size_t k, const float* a);

/// Pack A^T (logical m x k) where A is stored k x m row-major.
PackedA pack_at(std::size_t m, std::size_t k, const float* a);

/// Repack into `out`, reusing its storage: a layer that re-packs its
/// weights every step at a fixed shape allocates nothing.
void pack_a(std::size_t m, std::size_t k, const float* a, PackedA& out);
void pack_at(std::size_t m, std::size_t k, const float* a, PackedA& out);

/// C[a.m x n] = alpha * A * B[a.k x n] + beta * C with a pre-packed A.
/// Bit-identical to sgemm()/sgemm_at() on the same operands for m > 1
/// (m == 1 takes a separate single-row fast path in sgemm).
void sgemm_packed_a(const PackedA& a, std::size_t n, float alpha,
                    const float* b, float beta, float* c);

/// As sgemm_packed_a but guaranteed to run entirely on the calling thread
/// (no pool dispatch) and allocation-free: B panels are packed into a
/// thread-local grow-only buffer. Bit-identical to sgemm_packed_a — the
/// per-element reduction order is fixed by the k-blocking, never by the
/// thread partition. The streaming batcher's conv stage uses this form.
void sgemm_packed_a_serial(const PackedA& a, std::size_t n, float alpha,
                           const float* b, float beta,
                           float* c) MMHAR_REALTIME;

/// A right-hand operand pre-packed into the microkernel's panel layout:
/// kPackedBlockK-row k-blocks, each split into kPackedPanelWidth-wide
/// column panels, k-major within a panel, tail columns zero-padded. Each
/// block's image is exactly what the driver builds per call, so a product
/// against a PackedB replays the same microkernel inputs. Pack once and
/// reuse: inference plans pack their weights at build time, and training
/// layers pack a weight once per forward or backward instead of once per
/// product.
struct PackedB {
  std::size_t k = 0;
  std::size_t n = 0;
  std::vector<float> data;
};

/// PackedB geometry, for producers that write B's elements in place
/// instead of packing a stored matrix (Conv2D gathers its im2col^T
/// operand straight from the input image).
inline constexpr std::size_t kPackedBlockK = 256;
inline constexpr std::size_t kPackedPanelWidth = 32;

/// Offset of logical element (p, j) of B in `b.data`. Within one k-block,
/// element (p + 1, j) follows (p, j) at a stride of kPackedPanelWidth.
inline std::size_t packed_b_offset(const PackedB& b, std::size_t p,
                                   std::size_t j) {
  const std::size_t kk = p / kPackedBlockK * kPackedBlockK;
  const std::size_t kc = b.k - kk < kPackedBlockK ? b.k - kk : kPackedBlockK;
  const std::size_t npad =
      (b.n + kPackedPanelWidth - 1) / kPackedPanelWidth * kPackedPanelWidth;
  return kk * npad + j / kPackedPanelWidth * kPackedPanelWidth * kc +
         (p - kk) * kPackedPanelWidth + j % kPackedPanelWidth;
}

/// Size `b` for a logical B[k x n], reusing its storage. Padding lanes
/// are zero; the caller then writes every element of [0, k) x [0, n).
void shape_packed_b(PackedB& b, std::size_t k, std::size_t n);

/// Pack row-major B[k x n] into microkernel panel layout.
PackedB pack_b(std::size_t k, std::size_t n, const float* b);

/// Pack B^T (logical k x n) where B is stored n x k row-major — the
/// layout sgemm_bt consumes (weights stored [out x in]).
PackedB pack_bt(std::size_t k, std::size_t n, const float* b);

/// Repack into `out`, reusing its storage.
void pack_b(std::size_t k, std::size_t n, const float* b, PackedB& out);
void pack_bt(std::size_t k, std::size_t n, const float* b, PackedB& out);

/// C[m x b.n] = alpha * A[m x b.k] * B + beta * C with a pre-packed B
/// (A row-major, leading dimension b.k). Runs entirely on the calling
/// thread and performs no heap allocation (A tiles are packed into a stack
/// buffer). Bit-identical to sgemm_bt() on the same operands for any m,
/// and to sgemm() for m > 1 (m == 1 takes sgemm's single-row fast path) —
/// there is no single-row fast path here, so micro-batched and per-sample
/// forwards agree to the bit.
void sgemm_packed_b(std::size_t m, float alpha, const float* a,
                    const PackedB& b, float beta, float* c) MMHAR_REALTIME;

}  // namespace mmhar
