#include "tensor/gemm.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace mmhar {
namespace {

// Register-tile geometry. A kMR x kNR accumulator block (4 x 32 floats =
// eight 16-lane vectors) lives in registers across an entire k-block; the
// microkernel reads one packed A column (kMR floats, broadcast) and one
// packed B row (kNR floats, two vector loads) per k step. Tails are
// handled by zero-padding the packed operands, never by branching inside
// the FMA loop.
constexpr std::size_t kMR = 4;
constexpr std::size_t kNR = kPackedPanelWidth;
// Cache blocking: a kBlockK x kBlockN slice of B is packed once per block
// and streamed through every row tile (<= 1 MiB, L2-resident).
constexpr std::size_t kBlockK = kPackedBlockK;
constexpr std::size_t kBlockN = 1024;
// Below this many multiply-adds the threading overhead dominates.
constexpr std::size_t kParallelThreshold = 1u << 18;

constexpr std::size_t round_up(std::size_t v, std::size_t to) {
  return (v + to - 1) / to * to;
}

void scale_rows(std::size_t m, std::size_t n, float beta, float* c) {
  if (beta == 1.0F) return;
  if (beta == 0.0F) {
    std::fill(c, c + m * n, 0.0F);
    return;
  }
  for (std::size_t i = 0; i < m * n; ++i) c[i] *= beta;
}

// Operand storage order handed to the packing routines.
enum class Layout {
  kRowMajor,    // a[i * ld + p], b[p * ld + j]
  kTransposed,  // a[p * ld + i], b[j * ld + p]
};

// Pack rows [i0, i0+mr) x cols [kk, kend) of A into ap[p * kMR + r],
// zero-padding rows mr..kMR so the microkernel never branches on mr.
void pack_a_tile(Layout layout, const float* a, std::size_t lda,
                 std::size_t i0, std::size_t mr, std::size_t kk,
                 std::size_t kend, float* ap) {
  const std::size_t kc = kend - kk;
  if (layout == Layout::kRowMajor) {
    for (std::size_t r = 0; r < kMR; ++r) {
      if (r < mr) {
        const float* src = a + (i0 + r) * lda + kk;
        for (std::size_t p = 0; p < kc; ++p) ap[p * kMR + r] = src[p];
      } else {
        for (std::size_t p = 0; p < kc; ++p) ap[p * kMR + r] = 0.0F;
      }
    }
  } else {
    for (std::size_t p = 0; p < kc; ++p) {
      const float* src = a + (kk + p) * lda + i0;
      for (std::size_t r = 0; r < kMR; ++r)
        ap[p * kMR + r] = r < mr ? src[r] : 0.0F;
    }
  }
}

// Pack the [kk, kend) x [nn, nend) slice of B into kNR-wide panels:
// panel jt/kNR at bp + jt * kc, element [p * kNR + jj], zero-padded to
// kNR columns.
void pack_b_panels(Layout layout, const float* b, std::size_t ldb,
                   std::size_t kk, std::size_t kend, std::size_t nn,
                   std::size_t nend, float* bp) {
  const std::size_t kc = kend - kk;
  const std::size_t nc = nend - nn;
  for (std::size_t jt = 0; jt < nc; jt += kNR) {
    const std::size_t nr = std::min(kNR, nc - jt);
    float* panel = bp + jt * kc;
    if (layout == Layout::kRowMajor) {
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = b + (kk + p) * ldb + nn + jt;
        float* dst = panel + p * kNR;
        for (std::size_t jj = 0; jj < nr; ++jj) dst[jj] = src[jj];
        for (std::size_t jj = nr; jj < kNR; ++jj) dst[jj] = 0.0F;
      }
    } else {
      for (std::size_t p = 0; p < kc; ++p) {
        float* dst = panel + p * kNR;
        for (std::size_t jj = 0; jj < nr; ++jj)
          dst[jj] = b[(nn + jt + jj) * ldb + kk + p];
        for (std::size_t jj = nr; jj < kNR; ++jj) dst[jj] = 0.0F;
      }
    }
  }
}

// C[0:mr, 0:nr] += alpha * sum_p ap[p][:] (x) bp[p][:]. The accumulator
// tile is computed over the full padded kMR x kNR footprint (padded lanes
// multiply zeros); only the valid mr x nr corner is written back.
void micro_kernel(std::size_t kc, const float* ap, const float* bp,
                  float alpha, float* c, std::size_t ldc, std::size_t mr,
                  std::size_t nr) {
  float acc[kMR][kNR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* arow = ap + p * kMR;
    const float* brow = bp + p * kNR;
    for (std::size_t r = 0; r < kMR; ++r) {
      const float av = arow[r];
      for (std::size_t j = 0; j < kNR; ++j) acc[r][j] += av * brow[j];
    }
  }
  if (mr == kMR && nr == kNR) {
    for (std::size_t r = 0; r < kMR; ++r) {
      float* crow = c + r * ldc;
      for (std::size_t j = 0; j < kNR; ++j) crow[j] += alpha * acc[r][j];
    }
  } else {
    for (std::size_t r = 0; r < mr; ++r) {
      float* crow = c + r * ldc;
      for (std::size_t j = 0; j < nr; ++j) crow[j] += alpha * acc[r][j];
    }
  }
}

// Row-tile range [tile_lo, tile_hi) of one (kk, nn) block. `apacked`
// (optional) supplies pre-packed A tiles; otherwise tiles are packed
// on the fly into a stack buffer.
void gemm_block_rows(Layout la, const float* a, std::size_t lda,
                     const float* apacked, std::size_t m, std::size_t k,
                     std::size_t kk, std::size_t kend, std::size_t nn,
                     std::size_t nend, const float* bp, float alpha, float* c,
                     std::size_t ldc, std::size_t tile_lo,
                     std::size_t tile_hi) {
  const std::size_t kc = kend - kk;
  const std::size_t nc = nend - nn;
  alignas(64) float abuf[kMR * kBlockK];
  for (std::size_t it = tile_lo; it < tile_hi; ++it) {
    const std::size_t i0 = it * kMR;
    const std::size_t mr = std::min(kMR, m - i0);
    const float* ap;
    if (apacked != nullptr) {
      ap = apacked + it * kMR * k + kk * kMR;
    } else {
      pack_a_tile(la, a, lda, i0, mr, kk, kend, abuf);
      ap = abuf;
    }
    for (std::size_t jt = 0; jt < nc; jt += kNR) {
      const std::size_t nr = std::min(kNR, nc - jt);
      micro_kernel(kc, ap, bp + jt * kc, alpha, c + i0 * ldc + nn + jt, ldc,
                   mr, nr);
    }
  }
}

// Grow-only thread-local B panel buffer, sized for one (kBlockK, kBlockN)
// cache block. Steady-state calls at a previously seen (or smaller) shape
// return the existing buffer without touching the allocator, which is what
// the streaming batcher's zero-alloc contract depends on.
float* ensure_b_panel_buffer(std::size_t k, std::size_t n) {
  thread_local std::vector<float> bbuf;
  const std::size_t need = std::min(k, kBlockK) *
                           round_up(std::min(n, kBlockN), kNR);
  if (bbuf.size() < need) {
    // mmhar-rtcheck: allow(alloc) — grow-once thread-local workspace; a
    // steady-state call at a warmed shape takes the branch, never the grow.
    bbuf.resize(need);
  }
  return bbuf.data();
}

// Serial driver core: every block runs on the calling thread, so this path
// never references the thread pool — the real-time checker relies on that
// separation, not on a runtime flag. Per output element the reduction
// order is fixed by the (kk ascending, p ascending) block order, so the
// threaded driver below (which partitions only row tiles) is bit-identical.
void gemm_driver_serial(std::size_t m, std::size_t k, std::size_t n,
                        float alpha, Layout la, const float* a,
                        std::size_t lda, const float* apacked, Layout lb,
                        const float* b, std::size_t ldb,
                        float* c) MMHAR_REALTIME {
  const std::size_t row_tiles = (m + kMR - 1) / kMR;
  float* const bp = ensure_b_panel_buffer(k, n);
  for (std::size_t kk = 0; kk < k; kk += kBlockK) {
    const std::size_t kend = std::min(k, kk + kBlockK);
    for (std::size_t nn = 0; nn < n; nn += kBlockN) {
      const std::size_t nend = std::min(n, nn + kBlockN);
      pack_b_panels(lb, b, ldb, kk, kend, nn, nend, bp);
      gemm_block_rows(la, a, lda, apacked, m, k, kk, kend, nn, nend, bp,
                      alpha, c, n, 0, row_tiles);
    }
  }
}

// Threaded driver. Small products fall through to the serial core; large
// ones split row tiles across the global pool. The B panel buffer is
// resolved on the calling thread — the lambda below may run on pool
// workers, whose own thread_local buffer is a different (empty) one.
void gemm_driver(std::size_t m, std::size_t k, std::size_t n, float alpha,
                 Layout la, const float* a, std::size_t lda,
                 const float* apacked, Layout lb, const float* b,
                 std::size_t ldb, float* c) {
  const std::size_t row_tiles = (m + kMR - 1) / kMR;
  if (m * n * k < kParallelThreshold || row_tiles <= 1) {
    gemm_driver_serial(m, k, n, alpha, la, a, lda, apacked, lb, b, ldb, c);
    return;
  }
  float* const bp = ensure_b_panel_buffer(k, n);
  for (std::size_t kk = 0; kk < k; kk += kBlockK) {
    const std::size_t kend = std::min(k, kk + kBlockK);
    for (std::size_t nn = 0; nn < n; nn += kBlockN) {
      const std::size_t nend = std::min(n, nn + kBlockN);
      pack_b_panels(lb, b, ldb, kk, kend, nn, nend, bp);
      global_pool().parallel_for_chunked(
          0, row_tiles, [&, bp](std::size_t lo, std::size_t hi) {
            gemm_block_rows(la, a, lda, apacked, m, k, kk, kend, nn, nend,
                            bp, alpha, c, n, lo, hi);
          });
    }
  }
}

// Single-row product: C[1 x n] += alpha * a[k] * B. Skips packing — the
// padded 4-row tile would waste 3/4 of the FMA throughput, and SHAP-style
// per-sample forwards hit this shape thousands of times.
void gemv_row(std::size_t k, std::size_t n, float alpha, const float* a,
              const float* b, float* c) {
  for (std::size_t p = 0; p < k; ++p) {
    const float av = alpha * a[p];
    const float* brow = b + p * n;
    for (std::size_t j = 0; j < n; ++j) c[j] += av * brow[j];
  }
}

}  // namespace

void sgemm(std::size_t m, std::size_t k, std::size_t n, float alpha,
           const float* a, const float* b, float beta, float* c) {
  scale_rows(m, n, beta, c);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0F) return;
  if (m == 1) {
    gemv_row(k, n, alpha, a, b, c);
    return;
  }
  gemm_driver(m, k, n, alpha, Layout::kRowMajor, a, k, nullptr,
              Layout::kRowMajor, b, n, c);
}

void sgemm_at(std::size_t m, std::size_t k, std::size_t n, float alpha,
              const float* a, const float* b, float beta, float* c) {
  scale_rows(m, n, beta, c);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0F) return;
  gemm_driver(m, k, n, alpha, Layout::kTransposed, a, m, nullptr,
              Layout::kRowMajor, b, n, c);
}

void sgemm_bt(std::size_t m, std::size_t k, std::size_t n, float alpha,
              const float* a, const float* b, float beta, float* c) {
  scale_rows(m, n, beta, c);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0F) return;
  gemm_driver(m, k, n, alpha, Layout::kRowMajor, a, k, nullptr,
              Layout::kTransposed, b, k, c);
}

namespace {

void pack_a_impl(Layout layout, std::size_t m, std::size_t k, const float* a,
                 PackedA& packed) {
  packed.m = m;
  packed.k = k;
  const std::size_t row_tiles = (m + kMR - 1) / kMR;
  packed.data.resize(row_tiles * kMR * k);
  MMHAR_REQUIRE(packed.data.size() == row_tiles * kMR * k,
                "packed-A buffer must cover every row tile");
  for (std::size_t it = 0; it < row_tiles; ++it) {
    const std::size_t i0 = it * kMR;
    const std::size_t mr = std::min(kMR, m - i0);
    pack_a_tile(layout, a, layout == Layout::kRowMajor ? k : m, i0, mr, 0, k,
                packed.data.data() + it * kMR * k);
  }
}

}  // namespace

PackedA pack_a(std::size_t m, std::size_t k, const float* a) {
  PackedA packed;
  pack_a_impl(Layout::kRowMajor, m, k, a, packed);
  return packed;
}

PackedA pack_at(std::size_t m, std::size_t k, const float* a) {
  PackedA packed;
  pack_a_impl(Layout::kTransposed, m, k, a, packed);
  return packed;
}

void pack_a(std::size_t m, std::size_t k, const float* a, PackedA& out) {
  pack_a_impl(Layout::kRowMajor, m, k, a, out);
}

void pack_at(std::size_t m, std::size_t k, const float* a, PackedA& out) {
  pack_a_impl(Layout::kTransposed, m, k, a, out);
}

void sgemm_packed_a(const PackedA& a, std::size_t n, float alpha,
                    const float* b, float beta, float* c) {
  scale_rows(a.m, n, beta, c);
  if (a.m == 0 || n == 0 || a.k == 0 || alpha == 0.0F) return;
  gemm_driver(a.m, a.k, n, alpha, Layout::kRowMajor, nullptr, a.k,
              a.data.data(), Layout::kRowMajor, b, n, c);
}

void sgemm_packed_a_serial(const PackedA& a, std::size_t n, float alpha,
                           const float* b, float beta, float* c) {
  scale_rows(a.m, n, beta, c);
  if (a.m == 0 || n == 0 || a.k == 0 || alpha == 0.0F) return;
  gemm_driver_serial(a.m, a.k, n, alpha, Layout::kRowMajor, nullptr, a.k,
                     a.data.data(), Layout::kRowMajor, b, n, c);
}

void shape_packed_b(PackedB& b, std::size_t k, std::size_t n) {
  const std::size_t size = k * round_up(n, kNR);
  if (b.k == k && b.n == n && b.data.size() == size) return;
  b.k = k;
  b.n = n;
  b.data.assign(size, 0.0F);
}

namespace {

// Block (kk, nn) of a PackedB starts at kk * round_up(n, kNR) + nn * kc:
// the k-blocks follow one another, and within one the column blocks are
// contiguous runs of kc-deep panels (see packed_b_offset).
void pack_b_impl(Layout layout, std::size_t k, std::size_t n, const float* b,
                 PackedB& packed) {
  MMHAR_REQUIRE(k > 0 && n > 0, "pack_b: empty operand");
  shape_packed_b(packed, k, n);
  const std::size_t npad = round_up(n, kNR);
  for (std::size_t kk = 0; kk < k; kk += kBlockK) {
    const std::size_t kend = std::min(k, kk + kBlockK);
    for (std::size_t nn = 0; nn < n; nn += kBlockN) {
      const std::size_t nend = std::min(n, nn + kBlockN);
      MMHAR_CHECK(kk * npad + nn * (kend - kk) < packed.data.size());
      pack_b_panels(layout, b, layout == Layout::kRowMajor ? n : k, kk, kend,
                    nn, nend,
                    packed.data.data() + kk * npad + nn * (kend - kk));
    }
  }
}

}  // namespace

PackedB pack_b(std::size_t k, std::size_t n, const float* b) {
  PackedB packed;
  pack_b_impl(Layout::kRowMajor, k, n, b, packed);
  return packed;
}

PackedB pack_bt(std::size_t k, std::size_t n, const float* b) {
  PackedB packed;
  pack_b_impl(Layout::kTransposed, k, n, b, packed);
  return packed;
}

void pack_b(std::size_t k, std::size_t n, const float* b, PackedB& out) {
  pack_b_impl(Layout::kRowMajor, k, n, b, out);
}

void pack_bt(std::size_t k, std::size_t n, const float* b, PackedB& out) {
  pack_b_impl(Layout::kTransposed, k, n, b, out);
}

// Same (kk ascending, nn ascending) block order and per-block microkernel
// calls as gemm_driver_serial, with the packing already done.
void sgemm_packed_b(std::size_t m, float alpha, const float* a,
                    const PackedB& b, float beta, float* c) {
  scale_rows(m, b.n, beta, c);
  if (m == 0 || b.n == 0 || b.k == 0 || alpha == 0.0F) return;
  const std::size_t row_tiles = (m + kMR - 1) / kMR;
  const std::size_t npad = round_up(b.n, kNR);
  MMHAR_CHECK(b.data.size() == b.k * npad);
  for (std::size_t kk = 0; kk < b.k; kk += kBlockK) {
    const std::size_t kend = std::min(b.k, kk + kBlockK);
    for (std::size_t nn = 0; nn < b.n; nn += kBlockN) {
      const std::size_t nend = std::min(b.n, nn + kBlockN);
      gemm_block_rows(Layout::kRowMajor, a, b.k, nullptr, m, b.k, kk, kend,
                      nn, nend, b.data.data() + kk * npad + nn * (kend - kk),
                      alpha, c, b.n, 0, row_tiles);
    }
  }
}

}  // namespace mmhar
