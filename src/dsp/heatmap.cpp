#include "dsp/heatmap.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/finite_check.h"
#include "common/thread_pool.h"
#include "tensor/ops.h"

namespace mmhar::dsp {

RadarCube::RadarCube(std::size_t num_chirps, std::size_t num_antennas,
                     std::size_t num_samples)
    : num_chirps_(num_chirps),
      num_antennas_(num_antennas),
      num_samples_(num_samples),
      data_(num_chirps * num_antennas * num_samples) {
  MMHAR_REQUIRE(num_chirps > 0 && num_antennas > 0 && num_samples > 0,
                "RadarCube dimensions must be positive");
}

cfloat& RadarCube::at(std::size_t chirp, std::size_t antenna,
                      std::size_t sample) {
  MMHAR_CHECK(chirp < num_chirps_ && antenna < num_antennas_ &&
              sample < num_samples_);
  return data_[(chirp * num_antennas_ + antenna) * num_samples_ + sample];
}

const cfloat& RadarCube::at(std::size_t chirp, std::size_t antenna,
                            std::size_t sample) const {
  MMHAR_CHECK(chirp < num_chirps_ && antenna < num_antennas_ &&
              sample < num_samples_);
  return data_[(chirp * num_antennas_ + antenna) * num_samples_ + sample];
}

cfloat* RadarCube::row(std::size_t chirp, std::size_t antenna) {
  return data_.data() + (chirp * num_antennas_ + antenna) * num_samples_;
}

const cfloat* RadarCube::row(std::size_t chirp, std::size_t antenna) const {
  return data_.data() + (chirp * num_antennas_ + antenna) * num_samples_;
}

DraiStages::DraiStages(std::size_t num_chirps, std::size_t num_antennas,
                       std::size_t num_samples, const HeatmapConfig& cfg)
    : num_chirps_(num_chirps),
      num_antennas_(num_antennas),
      range_bins_(cfg.range_bins),
      angle_bins_(cfg.angle_bins),
      doppler_bins_(cfg.doppler_bins == 0 ? num_chirps : cfg.doppler_bins),
      log_scale_(cfg.log_scale),
      normalize_(cfg.normalize),
      db_floor_(cfg.db_floor) {
  MMHAR_REQUIRE(num_chirps > 0 && num_antennas > 0,
                "frame dimensions must be positive");
  MMHAR_REQUIRE(is_power_of_two(num_samples),
                "ADC sample count must be a power of two");
  MMHAR_REQUIRE(range_bins_ > 0 && range_bins_ <= num_samples,
                "range_bins must be in (0, num_samples]");
  MMHAR_REQUIRE(is_power_of_two(angle_bins_) && angle_bins_ >= num_antennas,
                "angle_bins must be a power of two >= num_antennas");

  // Range stage: one windowed transform per (chirp, antenna) row, cropped
  // to the leading range bins.
  range_job_.n = num_samples;
  range_job_.in_len = num_samples;
  range_job_.window = cached_window(cfg.range_window, num_samples).data();
  range_job_.lanes = num_chirps * num_antennas;
  range_job_.in_lane_stride = num_samples;
  range_job_.in_elem_stride = 1;

  // Angle stage: one zero-padded transform across the antennas per range
  // bin, with the chirp axis as the engine's serial accumulation axis.
  angle_job_.n = angle_bins_;
  angle_job_.in_len = num_antennas;
  angle_job_.lanes = range_bins_;
  angle_job_.in_lane_stride = 1;
  angle_job_.in_elem_stride = range_bins_;
  angle_job_.reps = num_chirps;
  angle_job_.in_rep_stride = num_antennas * range_bins_;

  // Doppler stage: one windowed transform along the chirp axis per range
  // bin, with the antenna axis as the accumulation axis.
  doppler_job_.n = doppler_bins_;
  doppler_job_.in_len = num_chirps;
  doppler_job_.window = cached_window(cfg.doppler_window, num_chirps).data();
  doppler_job_.in_lane_stride = 1;
  doppler_job_.in_elem_stride = num_antennas * range_bins_;
  doppler_job_.reps = num_antennas;
  doppler_job_.in_rep_stride = range_bins_;
}

void DraiStages::range_stage(std::span<const FftManyIo> ios) const {
  fft_many_crop_multi(range_job_, range_bins_, ios, range_bins_, 1);
}

void DraiStages::angle_stage(std::span<const FftManyMagIo> ios) const {
  fft_many_mag_accum_multi(angle_job_, /*shift=*/true, ios, angle_bins_, 1);
}

void DraiStages::doppler_stage(const cfloat* spectra, std::size_t r_lo,
                               std::size_t r_hi, float* out,
                               std::size_t r_stride,
                               std::size_t d_stride) const {
  MMHAR_REQUIRE(is_power_of_two(doppler_bins_) && doppler_bins_ >= num_chirps_,
                "doppler_bins must be a power of two >= num_chirps");
  MMHAR_REQUIRE(r_lo < r_hi && r_hi <= range_bins_,
                "Doppler range gate outside the cropped range window");
  FftManyJob job = doppler_job_;
  job.lanes = r_hi - r_lo;
  const FftManyMagIo io{spectra + r_lo, out};
  fft_many_mag_accum_multi(job, /*shift=*/true,
                           std::span<const FftManyMagIo>(&io, 1), r_stride,
                           d_stride);
}

void DraiStages::to_db(float* block, std::size_t frames) const {
  if (!log_scale_) return;
  const std::size_t n = frames * drai_elems();
  for (std::size_t i = 0; i < n; ++i)
    block[i] = 20.0F * std::log10(std::max(block[i], db_floor_));
}

DraiRange DraiStages::window_range(const float* ring, std::size_t frames,
                                   std::size_t oldest) const {
  DraiRange r;
  if (!normalize_ || frames == 0) return r;
  const std::size_t hw = drai_elems();
  r.lo = r.hi = ring[oldest * hw];
  for (std::size_t k = 0; k < frames; ++k) {
    const float* f = ring + ((oldest + k) % frames) * hw;
    for (std::size_t i = 0; i < hw; ++i) {
      if (f[i] < r.lo) r.lo = f[i];
      if (r.hi < f[i]) r.hi = f[i];
    }
  }
  return r;
}

void DraiStages::normalize(const float* src, std::size_t frames,
                           DraiRange range, float* dst) const {
  const std::size_t n = frames * drai_elems();
  if (!normalize_) {
    if (dst != src) std::copy(src, src + n, dst);
    return;
  }
  const float span = range.hi - range.lo;
  if (span <= 0.0F) {
    std::fill(dst, dst + n, 0.0F);
  } else {
    const float inv = 1.0F / span;
    for (std::size_t i = 0; i < n; ++i) dst[i] = (src[i] - range.lo) * inv;
  }
}

void DraiStages::window_tail(float* block, std::size_t frames) const {
  to_db(block, frames);
  normalize(block, frames, window_range(block, frames, 0), block);
}

namespace {

// One frame's range spectra into `out` (stages.spectra_elems() values):
// the range stage, then clutter removal, each followed by its finite
// tripwire.
void frame_spectra(const DraiStages& stages, const HeatmapConfig& cfg,
                   const RadarCube& cube, cfloat* out) {
  const FftManyIo io{cube.raw().data(), out};
  stages.range_stage(std::span<const FftManyIo>(&io, 1));
  const std::span<const cfloat> spectra(out, stages.spectra_elems());
  check_finite(spectra, "RangeSpectra", "range_fft/post-fft");
  if (cfg.remove_clutter) {
    remove_static_clutter_serial(out, cube.num_chirps(), cube.num_antennas(),
                                 cfg.range_bins);
    check_finite(spectra, "RangeSpectra", "range_fft/post-clutter-removal");
  }
}

DraiStages stages_for(const RadarCube& cube, const HeatmapConfig& cfg) {
  return DraiStages(cube.num_chirps(), cube.num_antennas(),
                    cube.num_samples(), cfg);
}

}  // namespace

// Per-column mean over chirps, then subtract. [chirp][antenna][range]
// layout makes every (antenna, range) cell one column of a
// [num_chirps x cols] matrix, so the sweeps run vectorized across
// contiguous columns, one tile at a time.
void remove_static_clutter_serial(cfloat* data, std::size_t num_chirps,
                                  std::size_t num_antennas,
                                  std::size_t range_bins) {
  if (num_chirps < 2) return;  // nothing to average against
  const float inv_q = 1.0F / static_cast<float>(num_chirps);
  const std::size_t cols = num_antennas * range_bins;
  constexpr std::size_t kTile = 64;
  float mean_re[kTile];
  float mean_im[kTile];
  for (std::size_t c0 = 0; c0 < cols; c0 += kTile) {
    const std::size_t w = std::min(kTile, cols - c0);
    for (std::size_t t = 0; t < w; ++t) {
      mean_re[t] = 0.0F;
      mean_im[t] = 0.0F;
    }
    for (std::size_t q = 0; q < num_chirps; ++q) {
      const cfloat* row = data + q * cols + c0;
      for (std::size_t t = 0; t < w; ++t) {
        mean_re[t] += row[t].real();
        mean_im[t] += row[t].imag();
      }
    }
    for (std::size_t t = 0; t < w; ++t) {
      mean_re[t] *= inv_q;
      mean_im[t] *= inv_q;
    }
    for (std::size_t q = 0; q < num_chirps; ++q) {
      cfloat* row = data + q * cols + c0;
      for (std::size_t t = 0; t < w; ++t)
        row[t] -= cfloat(mean_re[t], mean_im[t]);
    }
  }
}

void range_fft(const RadarCube& cube, const HeatmapConfig& cfg,
               RangeSpectra& out) {
  const DraiStages stages = stages_for(cube, cfg);
  out.num_chirps = cube.num_chirps();
  out.num_antennas = cube.num_antennas();
  out.range_bins = cfg.range_bins;
  out.data.resize(stages.spectra_elems());
  frame_spectra(stages, cfg, cube, out.data.data());
}

Tensor compute_rdi(const RadarCube& cube, const HeatmapConfig& cfg) {
  const DraiStages stages = stages_for(cube, cfg);
  std::vector<cfloat> spectra(stages.spectra_elems());
  frame_spectra(stages, cfg, cube, spectra.data());
  Tensor rdi({stages.doppler_bins(), cfg.range_bins});
  stages.doppler_stage(spectra.data(), 0, cfg.range_bins, rdi.data(), 1,
                       cfg.range_bins);
  Tensor out = cfg.normalize ? normalize01(rdi) : std::move(rdi);
  check_finite(out.flat(), "RDI", "compute_rdi");
  return out;
}

Tensor compute_drai(const RadarCube& cube, const HeatmapConfig& cfg) {
  const DraiStages stages = stages_for(cube, cfg);
  std::vector<cfloat> spectra(stages.spectra_elems());
  frame_spectra(stages, cfg, cube, spectra.data());
  Tensor drai({cfg.range_bins, cfg.angle_bins});
  const FftManyMagIo io{spectra.data(), drai.data()};
  stages.angle_stage(std::span<const FftManyMagIo>(&io, 1));
  stages.window_tail(drai.data(), 1);
  check_finite(drai.flat(), "DRAI", "compute_drai");
  return drai;
}

Tensor range_profile(const RadarCube& cube, const HeatmapConfig& cfg) {
  RangeSpectra spectra;
  range_fft(cube, cfg, spectra);
  Tensor profile({spectra.range_bins});
  const std::size_t rows = spectra.num_chirps * spectra.num_antennas;
  const std::size_t bins = spectra.range_bins;
  MMHAR_CHECK(spectra.data.size() == rows * bins);
  const cfloat* const base = spectra.data.data();
  float* const out = profile.data();
  for (std::size_t row = 0; row < rows; ++row) {
    const cfloat* src = base + row * bins;
    for (std::size_t r = 0; r < bins; ++r) {
      const float re = src[r].real();
      const float im = src[r].imag();
      out[r] += std::sqrt(re * re + im * im);
    }
  }
  return profile;
}

Tensor compute_drai_sequence(const std::vector<RadarCube>& frames,
                             const HeatmapConfig& cfg) {
  MMHAR_REQUIRE(!frames.empty(), "empty frame sequence");
  const RadarCube& first = frames.front();
  for (const RadarCube& cube : frames)
    MMHAR_REQUIRE(cube.num_chirps() == first.num_chirps() &&
                      cube.num_antennas() == first.num_antennas() &&
                      cube.num_samples() == first.num_samples(),
                  "compute_drai_sequence: frames differ in geometry");
  const DraiStages stages = stages_for(first, cfg);
  const std::size_t num_frames = frames.size();
  const std::size_t hw = stages.drai_elems();
  Tensor seq({num_frames, cfg.range_bins, cfg.angle_bins});
  MMHAR_CHECK(seq.size() == num_frames * hw);
  float* const seq_base = seq.data();
  // Per-frame work lands in disjoint slices of `seq`, so the sequence is
  // bit-identical for any thread count.
  global_pool().parallel_for_chunked(
      0, num_frames, [&](std::size_t lo, std::size_t hi) {
        // One reused spectra buffer per chunk.
        std::vector<cfloat> spectra(stages.spectra_elems());
        for (std::size_t f = lo; f < hi; ++f) {
          frame_spectra(stages, cfg, frames[f], spectra.data());
          const FftManyMagIo io{spectra.data(), seq_base + f * hw};
          stages.angle_stage(std::span<const FftManyMagIo>(&io, 1));
          stages.to_db(seq_base + f * hw, 1);
        }
      });
  // The split window tail, as the serving cycle runs it.
  stages.normalize(seq_base, num_frames,
                   stages.window_range(seq_base, num_frames, 0), seq_base);
  check_finite(seq.flat(), "DRAI-sequence", "compute_drai_sequence");
  return seq;
}

}  // namespace mmhar::dsp
