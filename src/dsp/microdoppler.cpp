#include "dsp/microdoppler.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "tensor/ops.h"

namespace mmhar::dsp {

Tensor doppler_spectrum(const RadarCube& cube,
                        const MicroDopplerConfig& config) {
  MMHAR_REQUIRE(config.max_range_bin > config.min_range_bin,
                "empty range gate");
  HeatmapConfig hm;
  hm.range_bins = std::min(config.range_bins, cube.num_samples());
  hm.remove_clutter = config.remove_clutter;
  RangeSpectra spectra;
  range_fft(cube, hm, spectra);

  const std::size_t q_total = spectra.num_chirps;
  const std::size_t d_bins =
      config.doppler_bins == 0 ? q_total : config.doppler_bins;
  MMHAR_REQUIRE(is_power_of_two(d_bins) && d_bins >= q_total,
                "doppler_bins must be a power of two >= num_chirps");
  const std::size_t r_lo = config.min_range_bin;
  const std::size_t r_hi = std::min(config.max_range_bin, spectra.range_bins);
  MMHAR_REQUIRE(r_lo < r_hi, "range gate outside the cropped range window");

  // Batched Doppler FFT over the range gate: one transform per gated range
  // bin, antennas folded as the engine's accumulation axis. The per-bin
  // shifted magnitudes land in `gated` and are reduced serially so the
  // result is deterministic.
  const std::size_t nr = r_hi - r_lo;
  FftManyJob job;
  job.n = d_bins;
  job.in_len = q_total;
  job.window = cached_window(config.window, q_total).data();
  job.lanes = nr;
  job.in_lane_stride = 1;
  job.in_elem_stride = spectra.num_antennas * spectra.range_bins;
  job.reps = spectra.num_antennas;
  job.in_rep_stride = spectra.range_bins;
  Tensor gated({nr, d_bins});
  MMHAR_CHECK(r_hi <= spectra.range_bins);
  const FftManyMagIo io{spectra.data.data() + r_lo, gated.data()};
  fft_many_mag_accum_multi(job, /*shift=*/true,
                           std::span<const FftManyMagIo>(&io, 1), d_bins, 1);

  Tensor spectrum({d_bins});
  for (std::size_t r = 0; r < nr; ++r)
    for (std::size_t d = 0; d < d_bins; ++d) spectrum[d] += gated.at(r, d);
  return spectrum;
}

Tensor micro_doppler_spectrogram(const std::vector<RadarCube>& frames,
                                 const MicroDopplerConfig& config) {
  MMHAR_REQUIRE(!frames.empty(), "empty frame sequence");
  const std::size_t d_bins = config.doppler_bins == 0
                                 ? frames.front().num_chirps()
                                 : config.doppler_bins;
  Tensor gram({frames.size(), d_bins});
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const Tensor s = doppler_spectrum(frames[f], config);
    std::copy(s.data(), s.data() + d_bins, gram.data() + f * d_bins);
  }
  return config.normalize ? normalize01(gram) : gram;
}

std::vector<double> doppler_centroid_track(const Tensor& spectrogram) {
  MMHAR_REQUIRE(spectrogram.rank() == 2, "expected [frames x doppler]");
  const std::size_t frames = spectrogram.dim(0);
  const std::size_t bins = spectrogram.dim(1);
  const double center = static_cast<double>(bins) / 2.0;
  std::vector<double> track(frames, 0.0);
  for (std::size_t f = 0; f < frames; ++f) {
    double weight = 0.0;
    double moment = 0.0;
    for (std::size_t d = 0; d < bins; ++d) {
      const double v = spectrogram.at(f, d);
      weight += v;
      moment += v * static_cast<double>(d);
    }
    track[f] = weight > 0.0 ? moment / weight - center : 0.0;
  }
  return track;
}

}  // namespace mmhar::dsp
