// Tests for the radar-cube processing chain: Range/Doppler/Angle FFTs,
// clutter removal, and the RDI/DRAI heatmap builders. Signals are
// synthesized analytically (known beat frequency / inter-antenna phase /
// inter-chirp rotation) so the expected peak bins are exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dsp/heatmap.h"
#include "tensor/ops.h"

namespace mmhar::dsp {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Inject a synthetic target: beat frequency `range_bin` cycles/chirp,
/// angle spatial frequency `angle_cycles` cycles/antenna, Doppler
/// `doppler_cycles` cycles/chirp-step.
void inject_target(RadarCube& cube, double range_bin, double angle_cycles,
                   double doppler_cycles, float amplitude = 1.0F) {
  for (std::size_t q = 0; q < cube.num_chirps(); ++q) {
    for (std::size_t k = 0; k < cube.num_antennas(); ++k) {
      for (std::size_t n = 0; n < cube.num_samples(); ++n) {
        const double phase =
            2.0 * kPi *
            (range_bin * static_cast<double>(n) /
                 static_cast<double>(cube.num_samples()) +
             angle_cycles * static_cast<double>(k) +
             doppler_cycles * static_cast<double>(q));
        cube.at(q, k, n) += cfloat(
            amplitude * static_cast<float>(std::cos(phase)),
            amplitude * static_cast<float>(std::sin(phase)));
      }
    }
  }
}

RangeSpectra spectra_of(const RadarCube& cube, const HeatmapConfig& cfg) {
  RangeSpectra s;
  range_fft(cube, cfg, s);
  return s;
}

HeatmapConfig test_config() {
  HeatmapConfig cfg;
  cfg.range_bins = 32;
  cfg.angle_bins = 32;
  cfg.remove_clutter = false;
  cfg.normalize = false;
  return cfg;
}

TEST(RadarCube, LayoutAndBounds) {
  RadarCube cube(4, 8, 16);
  EXPECT_EQ(cube.num_chirps(), 4u);
  EXPECT_EQ(cube.num_antennas(), 8u);
  EXPECT_EQ(cube.num_samples(), 16u);
  cube.at(3, 7, 15) = cfloat(1.0F, 2.0F);
  EXPECT_EQ(cube.row(3, 7)[15], cfloat(1.0F, 2.0F));
  EXPECT_EQ(cube.raw().size(), 4u * 8u * 16u);
  EXPECT_THROW(RadarCube(0, 1, 1), InvalidArgument);
}

TEST(RangeFft, PeakAtInjectedRangeBin) {
  RadarCube cube(4, 2, 64);
  inject_target(cube, 12.0, 0.0, 0.0);
  auto cfg = test_config();
  cfg.range_window = WindowKind::Rect;
  const RangeSpectra spectra = spectra_of(cube, cfg);
  std::size_t peak = 0;
  for (std::size_t r = 1; r < spectra.range_bins; ++r)
    if (std::abs(spectra.at(0, 0, r)) > std::abs(spectra.at(0, 0, peak)))
      peak = r;
  EXPECT_EQ(peak, 12u);
}

TEST(RangeFft, CropKeepsLeadingBins) {
  RadarCube cube(2, 1, 64);
  inject_target(cube, 3.0, 0.0, 0.0);
  auto cfg = test_config();
  cfg.range_bins = 8;
  const RangeSpectra s = spectra_of(cube, cfg);
  EXPECT_EQ(s.range_bins, 8u);
  std::size_t peak = 0;
  for (std::size_t r = 1; r < 8; ++r)
    if (std::abs(s.at(0, 0, r)) > std::abs(s.at(0, 0, peak))) peak = r;
  EXPECT_EQ(peak, 3u);
}

TEST(ClutterRemoval, KillsStaticKeepsMoving) {
  RadarCube cube(16, 2, 64);
  inject_target(cube, 10.0, 0.0, 0.0);   // static target
  inject_target(cube, 20.0, 0.0, 0.2);   // moving target
  auto cfg = test_config();
  cfg.remove_clutter = true;
  const RangeSpectra s = spectra_of(cube, cfg);
  double static_energy = 0.0;
  double moving_energy = 0.0;
  for (std::size_t q = 0; q < 16; ++q) {
    static_energy += std::abs(s.at(q, 0, 10));
    moving_energy += std::abs(s.at(q, 0, 20));
  }
  EXPECT_LT(static_energy, 0.05 * moving_energy);
}

TEST(ClutterRemoval, MeanIsExactlyZeroPerCell) {
  RadarCube cube(8, 2, 32);
  inject_target(cube, 5.0, 0.1, 0.13);
  auto cfg = test_config();
  cfg.remove_clutter = true;
  const RangeSpectra s = spectra_of(cube, cfg);
  for (std::size_t k = 0; k < 2; ++k) {
    for (std::size_t r = 0; r < 32; ++r) {
      cfloat mean{0, 0};
      for (std::size_t q = 0; q < 8; ++q) mean += s.at(q, k, r);
      EXPECT_NEAR(std::abs(mean), 0.0F, 1e-3F);
    }
  }
}

TEST(Drai, PeakAtInjectedRangeAndAngle) {
  RadarCube cube(8, 16, 64);
  // angle_cycles = 0.25 -> after fftshift, bin 16 + 0.25*32 = 24.
  inject_target(cube, 9.0, 0.25, 0.1);
  auto cfg = test_config();
  const Tensor drai = compute_drai(cube, cfg);
  EXPECT_EQ(drai.shape(), (std::vector<std::size_t>{32, 32}));
  std::size_t best = drai.argmax();
  EXPECT_EQ(best / 32, 9u);   // range bin
  EXPECT_EQ(best % 32, 24u);  // angle bin
}

TEST(Drai, NegativeAngleMapsBelowCenter) {
  RadarCube cube(8, 16, 64);
  inject_target(cube, 9.0, -0.25, 0.1);
  const Tensor drai = compute_drai(cube, test_config());
  EXPECT_EQ(drai.argmax() % 32, 8u);  // 16 - 0.25*32
}

TEST(Drai, NormalizationBoundsOutput) {
  RadarCube cube(4, 8, 64);
  inject_target(cube, 5.0, 0.1, 0.0, 3.0F);
  auto cfg = test_config();
  cfg.normalize = true;
  const Tensor drai = compute_drai(cube, cfg);
  EXPECT_FLOAT_EQ(drai.max(), 1.0F);
  EXPECT_FLOAT_EQ(drai.min(), 0.0F);
}

TEST(Drai, LogScaleCompressesDynamicRange) {
  RadarCube cube(4, 8, 64);
  inject_target(cube, 5.0, 0.0, 0.0, 10.0F);
  inject_target(cube, 20.0, 0.0, 0.0, 0.1F);
  auto cfg = test_config();
  const Tensor lin = compute_drai(cube, cfg);
  cfg.log_scale = true;
  const Tensor db = compute_drai(cube, cfg);
  const double lin_ratio = lin.at(5, 16) / std::max(1e-9F, lin.at(20, 16));
  const double db_diff = db.at(5, 16) - db.at(20, 16);
  EXPECT_GT(lin_ratio, 50.0);
  EXPECT_NEAR(db_diff, 20.0 * std::log10(lin_ratio), 1.0);
}

TEST(Rdi, DopplerPeakRowMatchesInjectedShift) {
  RadarCube cube(16, 4, 64);
  // doppler_cycles = +0.25 cycles/chirp -> shifted row 8 + 0.25*16 = 12.
  inject_target(cube, 7.0, 0.0, 0.25);
  auto cfg = test_config();
  cfg.doppler_window = WindowKind::Rect;
  const Tensor rdi = compute_rdi(cube, cfg);
  EXPECT_EQ(rdi.shape(), (std::vector<std::size_t>{16, 32}));
  const std::size_t best = rdi.argmax();
  EXPECT_EQ(best % 32, 7u);   // range
  EXPECT_EQ(best / 32, 12u);  // doppler row
}

TEST(Rdi, StaticTargetCentersAtZeroDoppler) {
  RadarCube cube(16, 4, 64);
  inject_target(cube, 7.0, 0.0, 0.0);
  auto cfg = test_config();
  cfg.doppler_window = WindowKind::Rect;
  const Tensor rdi = compute_rdi(cube, cfg);
  EXPECT_EQ(rdi.argmax() / 32, 8u);  // center row after fftshift
}

TEST(RangeProfile, SumsAcrossChirpsAndAntennas) {
  RadarCube cube(4, 4, 64);
  inject_target(cube, 11.0, 0.0, 0.0);
  const Tensor profile = range_profile(cube, test_config());
  EXPECT_EQ(profile.size(), 32u);
  EXPECT_EQ(profile.argmax(), 11u);
}

TEST(DraiSequence, StacksFramesAndNormalizesGlobally) {
  std::vector<RadarCube> frames;
  for (int f = 0; f < 3; ++f) {
    RadarCube cube(4, 8, 64);
    inject_target(cube, 5.0 + f, 0.0, 0.0, 1.0F + f);
    frames.push_back(cube);
  }
  auto cfg = test_config();
  cfg.normalize = true;
  const Tensor seq = compute_drai_sequence(frames, cfg);
  EXPECT_EQ(seq.shape(), (std::vector<std::size_t>{3, 32, 32}));
  EXPECT_FLOAT_EQ(seq.max(), 1.0F);
  // With per-sequence normalization the brightest frame is the last one.
  float m0 = 0.0F;
  float m2 = 0.0F;
  for (std::size_t i = 0; i < 32 * 32; ++i) {
    m0 = std::max(m0, seq[i]);
    m2 = std::max(m2, seq[2 * 32 * 32 + i]);
  }
  EXPECT_GT(m2, m0);
}

// ---- Shared DRAI stages ----------------------------------------------------

std::vector<RadarCube> noisy_frames(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<RadarCube> frames;
  for (std::size_t f = 0; f < count; ++f) {
    RadarCube cube(16, 16, 64);
    inject_target(cube, 8.0 + static_cast<double>(f), 0.2, 0.15);
    for (auto& v : cube.raw())
      v += cfloat(static_cast<float>(0.05 * rng.normal()),
                  static_cast<float>(0.05 * rng.normal()));
    frames.push_back(std::move(cube));
  }
  return frames;
}

void expect_identical(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << " diverges at flat index " << i;
}

// Raw DRAIs of `frames` through the shared stages, all frames fused into
// one range call and one angle call when `fused`, else one call per frame.
std::vector<float> staged_drais(const std::vector<RadarCube>& frames,
                                const HeatmapConfig& cfg, bool fused) {
  const RadarCube& c = frames.front();
  const DraiStages stages(c.num_chirps(), c.num_antennas(), c.num_samples(),
                          cfg);
  const std::size_t n = frames.size();
  const std::size_t se = stages.spectra_elems();
  const std::size_t hw = stages.drai_elems();
  std::vector<cfloat> spectra(n * se);
  std::vector<float> drai(n * hw);
  std::vector<FftManyIo> range_ios(n);
  std::vector<FftManyMagIo> angle_ios(n);
  for (std::size_t f = 0; f < n; ++f) {
    range_ios[f] = {frames[f].raw().data(), spectra.data() + f * se};
    angle_ios[f] = {spectra.data() + f * se, drai.data() + f * hw};
  }
  if (fused) {
    stages.range_stage(range_ios);
  } else {
    for (const FftManyIo& io : range_ios) stages.range_stage({&io, 1});
  }
  if (cfg.remove_clutter) {
    for (std::size_t f = 0; f < n; ++f)
      remove_static_clutter_serial(spectra.data() + f * se, c.num_chirps(),
                                   c.num_antennas(), cfg.range_bins);
  }
  if (fused) {
    stages.angle_stage(angle_ios);
  } else {
    for (const FftManyMagIo& io : angle_ios) stages.angle_stage({&io, 1});
  }
  return drai;
}

TEST(DraiStages, FusedFramesMatchOneFrameCallsBitwise) {
  // 5 frames x 256 range lanes and 5 x 32 angle lanes: the SIMD blocks of
  // the fused calls span frame boundaries, the per-frame calls' never do.
  const auto frames = noisy_frames(5, 41);
  auto cfg = test_config();
  cfg.remove_clutter = true;
  for (const std::size_t angle_bins : {16U, 32U, 64U}) {
    cfg.angle_bins = angle_bins;
    const std::vector<float> fused = staged_drais(frames, cfg, true);
    const std::vector<float> single = staged_drais(frames, cfg, false);
    ASSERT_EQ(fused.size(), single.size());
    EXPECT_EQ(0, std::memcmp(fused.data(), single.data(),
                             fused.size() * sizeof(float)))
        << "angle_bins " << angle_bins;
  }
}

TEST(DraiStages, SequenceIsTheFusedStagesPlusTail) {
  // compute_drai_sequence and the serving cycle's fused calls followed by
  // the window tail give the same floats.
  const auto frames = noisy_frames(4, 43);
  auto cfg = test_config();
  cfg.remove_clutter = true;
  cfg.normalize = true;
  cfg.log_scale = true;
  std::vector<float> block = staged_drais(frames, cfg, true);
  const RadarCube& c = frames.front();
  DraiStages(c.num_chirps(), c.num_antennas(), c.num_samples(), cfg)
      .window_tail(block.data(), frames.size());
  const Tensor seq = compute_drai_sequence(frames, cfg);
  ASSERT_EQ(seq.size(), block.size());
  EXPECT_EQ(0, std::memcmp(seq.data(), block.data(),
                           block.size() * sizeof(float)));
}

TEST(DraiStages, WindowTailIsToDbThenNormalize01) {
  const auto frames = noisy_frames(3, 45);
  auto cfg = test_config();
  const Tensor raw = compute_drai_sequence(frames, cfg);  // no tail ops
  const RadarCube& c = frames.front();
  for (const bool log_scale : {false, true}) {
    for (const bool normalize : {false, true}) {
      cfg.log_scale = log_scale;
      cfg.normalize = normalize;
      Tensor expect = raw;
      if (log_scale) expect = to_db(expect, cfg.db_floor);
      if (normalize) expect = normalize01(expect);
      Tensor got = raw;
      DraiStages(c.num_chirps(), c.num_antennas(), c.num_samples(), cfg)
          .window_tail(got.data(), frames.size());
      EXPECT_EQ(0, std::memcmp(got.data(), expect.data(),
                               got.size() * sizeof(float)))
          << "log " << log_scale << " normalize " << normalize;
    }
  }
  // A flat block normalizes to zeros instead of dividing by zero.
  cfg.log_scale = false;
  cfg.normalize = true;
  std::vector<float> flat(32 * 32, 3.0F);
  DraiStages(4, 8, 64, cfg).window_tail(flat.data(), 1);
  for (const float v : flat) EXPECT_EQ(v, 0.0F);
}

// The serving cycle finds a window's range over its ring, oldest frame
// first; the result must carry the bits std::min_element / max_element
// give over the unrolled window, down to which of -0.0 and +0.0 is the
// first minimum (they compare equal, yet x - lo differs for x = -0.0).
TEST(DraiStages, WindowRangeScansTheRingOldestFirst) {
  auto cfg = test_config();
  cfg.range_bins = 4;
  cfg.angle_bins = 8;
  cfg.normalize = true;
  const DraiStages stages(4, 8, 64, cfg);
  const std::size_t hw = stages.drai_elems();
  const std::size_t frames = 4;
  Rng rng(47);
  std::vector<float> ring(frames * hw);
  for (float& v : ring) v = static_cast<float>(rng.uniform(0.5, 2.0));
  ring[1 * hw + 3] = 0.0F;   // +0.0 in ring slot 1
  ring[3 * hw + 5] = -0.0F;  // -0.0 in ring slot 3
  ring[2 * hw + 7] = 9.0F;   // the maximum, twice
  ring[0 * hw + 1] = 9.0F;
  for (std::size_t oldest = 0; oldest < frames; ++oldest) {
    std::vector<float> unrolled;
    for (std::size_t k = 0; k < frames; ++k) {
      const float* f = ring.data() + ((oldest + k) % frames) * hw;
      unrolled.insert(unrolled.end(), f, f + hw);
    }
    const DraiRange r = stages.window_range(ring.data(), frames, oldest);
    const float lo = *std::min_element(unrolled.begin(), unrolled.end());
    const float hi = *std::max_element(unrolled.begin(), unrolled.end());
    EXPECT_EQ(std::signbit(r.lo), std::signbit(lo)) << "oldest " << oldest;
    EXPECT_EQ(r.lo, lo);
    EXPECT_EQ(r.hi, hi);

    // Normalizing frame by frame with that range is the window tail.
    std::vector<float> by_frame(unrolled.size());
    for (std::size_t k = 0; k < frames; ++k)
      stages.normalize(unrolled.data() + k * hw, 1, r,
                       by_frame.data() + k * hw);
    stages.window_tail(unrolled.data(), frames);
    EXPECT_EQ(0, std::memcmp(by_frame.data(), unrolled.data(),
                             unrolled.size() * sizeof(float)));
  }
}

// ---- Bit-identity across thread counts -------------------------------------

struct PoolOverride {
  explicit PoolOverride(ThreadPool* p) { set_global_pool_for_testing(p); }
  ~PoolOverride() { set_global_pool_for_testing(nullptr); }
};

TEST(ThreadIdentity, HeatmapsBitIdenticalForAnyPoolSize) {
  const auto frames = noisy_frames(3, 44);
  auto cfg = test_config();
  cfg.remove_clutter = true;
  cfg.normalize = true;
  cfg.log_scale = true;

  // Reference under the default (MMHAR_THREADS-driven) pool.
  const Tensor seq_ref = compute_drai_sequence(frames, cfg);
  const Tensor rdi_ref = compute_rdi(frames.front(), cfg);
  const Tensor drai_ref = compute_drai(frames.front(), cfg);

  for (const std::size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    PoolOverride guard(&pool);
    SCOPED_TRACE(testing::Message() << "pool size " << workers);
    expect_identical(compute_drai_sequence(frames, cfg), seq_ref,
                     "DRAI sequence");
    expect_identical(compute_rdi(frames.front(), cfg), rdi_ref, "RDI");
    expect_identical(compute_drai(frames.front(), cfg), drai_ref, "DRAI");
  }
}

TEST(Heatmap, ConfigValidation) {
  RadarCube cube(4, 8, 48);  // 48 not a power of two
  EXPECT_THROW(spectra_of(cube, test_config()), InvalidArgument);
  RadarCube ok(4, 8, 64);
  auto cfg = test_config();
  cfg.angle_bins = 4;  // < antennas
  EXPECT_THROW(compute_drai(ok, cfg), InvalidArgument);
  cfg = test_config();
  cfg.range_bins = 100;  // > samples
  EXPECT_THROW(spectra_of(ok, cfg), InvalidArgument);
  cfg = test_config();
  const std::vector<RadarCube> mixed{ok, RadarCube(8, 8, 64)};
  EXPECT_THROW(compute_drai_sequence(mixed, cfg), InvalidArgument);
}

}  // namespace
}  // namespace mmhar::dsp
