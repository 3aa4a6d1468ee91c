// Iterative radix-2 complex FFT with cached twiddle tables, plus a batched
// multi-transform engine (`fft_many_*_multi`) that executes many same-size
// transforms over strided data with the SIMD lanes running *across the
// batch dimension*.
//
// All radar processing dimensions (ADC samples, chirps, angle padding) are
// powers of two, so a radix-2 kernel suffices. Twiddle factors and the
// bit-reversal permutation are computed once per size and published through
// a read-mostly plan cache (annotated `mmhar::SharedMutex`; plans are built outside
// the lock so concurrent first-use of two sizes never serializes). The
// transforms themselves are lock-free and allocation-free: each thread
// keeps a reusable split real/imag scratch workspace.
//
// Batched layout: a block of up to `kFftManyLanes` transforms is loaded
// into element-major SoA scratch (`re[j * L + l]`, lane l = transform
// lane0 + l), so every butterfly's inner loop is a contiguous fixed-width
// sweep over lanes — straight-line auto-vectorizable code, one 512-bit
// vector per operand on AVX-512. Window application, zero-padding, and the
// bit-reversal permutation are fused into the load; cropping, fftshift,
// and |.| accumulation are fused into the store, so the heatmap pipeline
// never materializes an intermediate spectrum it does not keep.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "common/thread_annotations.h"

namespace mmhar::dsp {

using cfloat = std::complex<float>;

/// Transforms per SIMD block of the batched engine (16 floats = one
/// AVX-512 register per re/im operand; two on AVX2).
inline constexpr std::size_t kFftManyLanes = 16;

/// True if n is a power of two (and nonzero).
bool is_power_of_two(std::size_t n);

/// In-place forward FFT of length-n power-of-two complex data.
void fft_inplace(std::span<cfloat> data);

/// In-place inverse FFT (includes the 1/n normalization).
void ifft_inplace(std::span<cfloat> data);

/// Out-of-place forward FFT.
std::vector<cfloat> fft(std::span<const cfloat> data);

/// Out-of-place inverse FFT.
std::vector<cfloat> ifft(std::span<const cfloat> data);

/// Naive O(n^2) DFT used as the test oracle (any length).
std::vector<cfloat> dft_reference(std::span<const cfloat> data);

/// Rotate a spectrum so the zero bin lands at the center (even n).
void fftshift_inplace(std::span<cfloat> data);

/// fftshift for real-valued magnitude vectors.
void fftshift_inplace(std::span<float> data);

/// One batched-FFT job: `lanes` independent length-`n` transforms (each
/// with its own output), optionally repeated `reps` times along an
/// accumulation axis that the magnitude emitter folds in a fixed serial
/// order (rep 0 first), so results are bit-identical for any thread count.
///
/// Element j of transform (rep, lane) of a frame is read from
///   io.in[rep * in_rep_stride + lane * in_lane_stride + j * in_elem_stride]
/// for j < in_len, where `io` is the frame's entry in the io list; elements
/// in [in_len, n) are zero (zero-padded FFT). When `window` is non-null it
/// has length `in_len` and is applied during the load.
struct FftManyJob {
  std::size_t n = 0;            ///< transform length, power of two
  const cfloat* in = nullptr;   ///< unused: must stay null (see below)
  std::size_t in_len = 0;       ///< elements read per transform (<= n)
  const float* window = nullptr;  ///< optional, length in_len
  std::size_t lanes = 0;        ///< number of independent transforms
  std::size_t in_lane_stride = 0;
  std::size_t in_elem_stride = 1;
  std::size_t reps = 1;         ///< accumulation depth (mag-accum only)
  std::size_t in_rep_stride = 0;
};

// ---- Batch-of-batches entry points -----------------------------------------
//
// Every frame of a call shares the job geometry (the prototype job, whose
// `in` field is unused and must stay null) but has its own input and
// output base pointer. Lanes are numbered globally across the io list —
// frame i contributes lanes [i*lanes, (i+1)*lanes) — so SIMD blocks fill
// across frame (and stream) boundaries instead of running ragged
// per-frame tails. Each lane's arithmetic depends only on its own input,
// so a frame's result is bit-identical whether it runs alone or fused
// with any other frames.
//
// Both entry points run entirely on the CALLING thread (no pool dispatch)
// and are allocation-free once the thread's workspace has grown — the form
// the zero-alloc serving cycle requires. The DRAI stages (dsp/heatmap.h)
// are their main callers.

/// One frame's (input, complex output) base pair for
/// fft_many_crop_multi; both pointers use the prototype job's strides.
struct FftManyIo {
  const cfloat* in = nullptr;
  cfloat* out = nullptr;
};

/// One frame's (input, magnitude output) base pair for
/// fft_many_mag_accum_multi.
struct FftManyMagIo {
  const cfloat* in = nullptr;
  float* out = nullptr;
};

/// Execute the batch over `ios.size()` frames sharing `proto`'s geometry
/// and store the first `keep` bins of every spectrum (the range-FFT crop):
///   ios[i].out[lane * out_lane_stride + j * out_elem_stride] = X_lane[j]
/// for j < keep. Requires proto.in == nullptr, proto.reps == 1,
/// keep <= proto.n and a non-empty io list.
void fft_many_crop_multi(const FftManyJob& proto, std::size_t keep,
                         std::span<const FftManyIo> ios,
                         std::size_t out_lane_stride,
                         std::size_t out_elem_stride) MMHAR_REALTIME;

/// Execute the batch over `ios.size()` frames sharing `proto`'s geometry
/// and store magnitudes summed over the rep axis:
///   ios[i].out[lane * out_lane_stride + p * out_elem_stride]
///       = sum_{rep} |X_{rep,lane}[bin(p)]|
/// where bin(p) = (p + n/2) mod n when `shift` is set (fftshifted output)
/// and p otherwise. The rep axis folds serially per lane, rep 0 first.
/// Magnitude is sqrt(re^2 + im^2) evaluated in float (vectorizable; the
/// pipeline's dynamic range is far from float overflow). Existing output
/// contents are overwritten, not added to. Requires proto.in == nullptr
/// and a non-empty io list.
void fft_many_mag_accum_multi(const FftManyJob& proto, bool shift,
                              std::span<const FftManyMagIo> ios,
                              std::size_t out_lane_stride,
                              std::size_t out_elem_stride) MMHAR_REALTIME;

}  // namespace mmhar::dsp
