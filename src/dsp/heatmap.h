// Radar-cube processing: Range-FFT, Doppler-FFT, Angle-FFT, static-clutter
// removal, and the RDI / DRAI heatmap builders the HAR prototype consumes.
//
// Terminology follows the paper (§II-A):
//  * RDI  — Range-Doppler Image, per-frame [doppler_bins x range_bins].
//  * DRAI — Dynamic Range-Angle Image, per-frame [range_bins x angle_bins],
//           computed after clutter removal so only moving reflectors remain.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/thread_annotations.h"

#include "dsp/fft.h"
#include "dsp/window.h"
#include "tensor/tensor.h"

namespace mmhar::dsp {

/// One frame of raw IF samples: chirps x virtual antennas x ADC samples.
class RadarCube {
 public:
  RadarCube(std::size_t num_chirps, std::size_t num_antennas,
            std::size_t num_samples);

  std::size_t num_chirps() const { return num_chirps_; }
  std::size_t num_antennas() const { return num_antennas_; }
  std::size_t num_samples() const { return num_samples_; }

  cfloat& at(std::size_t chirp, std::size_t antenna, std::size_t sample);
  const cfloat& at(std::size_t chirp, std::size_t antenna,
                   std::size_t sample) const;

  /// Contiguous sample row for one (chirp, antenna) pair.
  cfloat* row(std::size_t chirp, std::size_t antenna);
  const cfloat* row(std::size_t chirp, std::size_t antenna) const;

  std::vector<cfloat>& raw() { return data_; }
  const std::vector<cfloat>& raw() const { return data_; }

 private:
  std::size_t num_chirps_;
  std::size_t num_antennas_;
  std::size_t num_samples_;
  std::vector<cfloat> data_;
};

/// Knobs for the FFT processing chain.
struct HeatmapConfig {
  std::size_t range_bins = 32;    ///< bins kept from the range FFT (crop)
  std::size_t angle_bins = 32;    ///< zero-padded angle-FFT length
  std::size_t doppler_bins = 0;   ///< 0 -> use num_chirps
  WindowKind range_window = WindowKind::Hann;
  WindowKind doppler_window = WindowKind::Hann;
  bool remove_clutter = true;     ///< MTI: subtract per-(antenna,range) mean
  bool normalize = true;          ///< min-max normalize the final heatmap
  /// Convert magnitudes to dB (with `db_floor` clamping) before
  /// normalization — the standard display/processing scale for radar
  /// heatmaps; compresses the dynamic range between strong and weak
  /// scatterers.
  bool log_scale = false;
  float db_floor = 1e-3F;
};

/// Range spectra after windowed Range-FFT (and optional clutter removal):
/// layout [chirp][antenna][range_bin].
struct RangeSpectra {
  std::size_t num_chirps = 0;
  std::size_t num_antennas = 0;
  std::size_t range_bins = 0;
  std::vector<cfloat> data;

  cfloat& at(std::size_t chirp, std::size_t antenna, std::size_t bin) {
    return data[(chirp * num_antennas + antenna) * range_bins + bin];
  }
  const cfloat& at(std::size_t chirp, std::size_t antenna,
                   std::size_t bin) const {
    return data[(chirp * num_antennas + antenna) * range_bins + bin];
  }
};

/// The min-max range a DRAI window is normalized with: lo and hi of the
/// window's values after dB conversion. {0, 0} when normalize is off.
struct DraiRange {
  float lo = 0.0F;
  float hi = 0.0F;
};

/// The DRAI signal path (paper §II-A) as stage functions, built once for
/// one frame geometry and HeatmapConfig. Every DRAI in the repo — the
/// offline sequence and single-frame builders and the serving cycle — runs
/// through these functions, so offline and streaming heatmaps are the same
/// floats. Static clutter removal sits between the range and the angle
/// stage (remove_static_clutter_serial). The window tail is split in three
/// steps — to_db per frame, window_range over the window, normalize per
/// frame — so a caller that keeps per-frame results learns the exact
/// (lo, hi) a window is normalized with. The Doppler stage serves the RDI
/// and micro-Doppler builders.
///
/// Buffers: a frame is a RadarCube's raw() layout [chirp][antenna][sample];
/// its range spectra are [chirp][antenna][range_bin] (spectra_elems()
/// values); its raw DRAI is [range_bin][angle_bin] (drai_elems() values).
/// The stages run on the calling thread and allocate nothing.
class DraiStages {
 public:
  /// Validates the geometry: num_samples and angle_bins powers of two,
  /// range_bins in (0, num_samples], angle_bins >= num_antennas.
  DraiStages(std::size_t num_chirps, std::size_t num_antennas,
             std::size_t num_samples, const HeatmapConfig& cfg);

  std::size_t spectra_elems() const {
    return num_chirps_ * num_antennas_ * range_bins_;
  }
  std::size_t drai_elems() const { return range_bins_ * angle_bins_; }
  std::size_t doppler_bins() const { return doppler_bins_; }

  /// Range stage: windowed Range-FFT cropped to range_bins for every frame
  /// in `ios` (in = frame samples, out = its range spectra), in one engine
  /// call whose SIMD lanes span the frames.
  void range_stage(std::span<const FftManyIo> ios) const MMHAR_REALTIME;

  /// Angle stage: zero-padded Angle-FFT, fftshift, and |.| summed over
  /// chirps for every frame in `ios` (in = range spectra, out = raw DRAI).
  void angle_stage(std::span<const FftManyMagIo> ios) const MMHAR_REALTIME;

  /// Doppler stage over one frame's range spectra: windowed, zero-padded
  /// Doppler-FFT along the chirp axis, fftshift, and |.| summed over
  /// antennas, for range bins [r_lo, r_hi). Bin d of range bin r lands at
  /// out[(r - r_lo) * r_stride + d * d_stride]. Throws unless doppler_bins
  /// is a power of two >= num_chirps and r_lo < r_hi <= range_bins.
  void doppler_stage(const cfloat* spectra, std::size_t r_lo,
                     std::size_t r_hi, float* out, std::size_t r_stride,
                     std::size_t d_stride) const;

  /// Window tail, step 1, in place over `frames` raw DRAIs: dB conversion
  /// when log_scale. Elementwise, so per frame or per block is the same.
  void to_db(float* block, std::size_t frames) const MMHAR_REALTIME;

  /// Window tail, step 2: min and max over a ring of `frames` DRAIs (after
  /// to_db), scanned oldest first from frame `oldest`, wrapping — the
  /// order and the first-min / first-max comparisons of std::min_element
  /// and std::max_element over the unrolled window.
  DraiRange window_range(const float* ring, std::size_t frames,
                         std::size_t oldest) const MMHAR_REALTIME;

  /// Window tail, step 3: dst = (src - lo) * (1 / (hi - lo)) over `frames`
  /// DRAIs, zeros when hi - lo <= 0, a copy when normalize is off. `dst`
  /// may equal `src`.
  void normalize(const float* src, std::size_t frames, DraiRange range,
                 float* dst) const MMHAR_REALTIME;

  /// The whole window tail in place over a [T, range, angle] block:
  /// to_db, then window_range and normalize over the block.
  void window_tail(float* block, std::size_t frames) const MMHAR_REALTIME;

 private:
  std::size_t num_chirps_;
  std::size_t num_antennas_;
  std::size_t range_bins_;
  std::size_t angle_bins_;
  std::size_t doppler_bins_;
  bool log_scale_;
  bool normalize_;
  float db_floor_;
  FftManyJob range_job_;
  FftManyJob angle_job_;
  FftManyJob doppler_job_;  ///< lanes set per call (the range gate)
};

/// Stage 1+2 for one frame: windowed Range-FFT and (optionally) static
/// clutter removal. Reuses `out`'s storage (no allocation once it has
/// grown to size).
void range_fft(const RadarCube& cube, const HeatmapConfig& cfg,
               RangeSpectra& out);

/// Subtract the across-chirp mean per (antenna, range) cell of a
/// [num_chirps x num_antennas x range_bins] spectra block — removes returns
/// from static objects (walls, furniture, torso at rest). Runs on the
/// calling thread with no allocation.
void remove_static_clutter_serial(cfloat* data, std::size_t num_chirps,
                                  std::size_t num_antennas,
                                  std::size_t range_bins) MMHAR_REALTIME;

/// Range-Doppler Image: [doppler_bins x range_bins], Doppler-shifted so
/// zero velocity is the center row. Magnitudes are summed over antennas.
Tensor compute_rdi(const RadarCube& cube, const HeatmapConfig& cfg);

/// Dynamic Range-Angle Image: [range_bins x angle_bins]; angle axis is the
/// fftshifted zero-padded FFT across the virtual ULA, magnitudes summed
/// over chirps after clutter removal. log_scale / normalize apply to the
/// single frame.
Tensor compute_drai(const RadarCube& cube, const HeatmapConfig& cfg);

/// Non-coherent range profile (magnitude summed over chirps and antennas).
Tensor range_profile(const RadarCube& cube, const HeatmapConfig& cfg);

/// Process a whole activity (sequence of same-geometry frames) into DRAI
/// heatmaps: returns a [frames x range_bins x angle_bins] tensor. Frames
/// run in parallel; log_scale / normalize apply once over the whole
/// sequence, preserving relative energy between frames (a frame with a
/// strong reflector stays brighter than a quiet one).
Tensor compute_drai_sequence(const std::vector<RadarCube>& frames,
                             const HeatmapConfig& cfg) MMHAR_DETERMINISTIC;

}  // namespace mmhar::dsp
