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
  hm.doppler_bins = config.doppler_bins;
  hm.doppler_window = config.window;
  RangeSpectra spectra;
  range_fft(cube, hm, spectra);
  const DraiStages stages(cube.num_chirps(), cube.num_antennas(),
                          cube.num_samples(), hm);
  const std::size_t d_bins = stages.doppler_bins();
  const std::size_t r_lo = config.min_range_bin;
  const std::size_t r_hi = std::min(config.max_range_bin, spectra.range_bins);
  MMHAR_REQUIRE(r_lo < r_hi, "range gate outside the cropped range window");

  // Doppler stage over the range gate, one [range_bin][doppler] row per
  // gated bin, reduced serially so the result is deterministic.
  const std::size_t nr = r_hi - r_lo;
  Tensor gated({nr, d_bins});
  stages.doppler_stage(spectra.data.data(), r_lo, r_hi, gated.data(), d_bins,
                       1);

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
