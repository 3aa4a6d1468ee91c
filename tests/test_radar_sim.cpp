// Tests for the Eq.-3 IF-signal simulator: visibility, amplitude model,
// and — via the FFT pipeline — exact range/angle/Doppler localization of
// known point scatterers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "dsp/heatmap.h"
#include "mesh/primitives.h"
#include "radar/simulator.h"

namespace mmhar::radar {
namespace {

FmcwConfig quiet_config() {
  FmcwConfig cfg;
  cfg.noise_std = 0.0;
  return cfg;
}

dsp::HeatmapConfig heatmap_config(bool clutter = false) {
  dsp::HeatmapConfig cfg;
  cfg.range_bins = 32;
  cfg.angle_bins = 32;
  cfg.remove_clutter = clutter;
  cfg.normalize = false;
  return cfg;
}

TEST(FmcwConfig, DerivedQuantities) {
  const FmcwConfig cfg;
  EXPECT_NEAR(cfg.range_resolution_m(), 0.075, 1e-4);
  EXPECT_NEAR(cfg.wavelength_m(), 0.00384, 1e-4);
  EXPECT_NEAR(cfg.max_range_m(32), 2.4, 5e-3);
  EXPECT_NEAR(cfg.range_bin_of(1.5), 20.0, 0.1);
  EXPECT_NEAR(cfg.angle_bin_of(0.0, 32), 16.0, 1e-9);
  EXPECT_GT(cfg.max_unambiguous_velocity_mps(), 1.0);
  // ULA centered on the origin with lambda/2 spacing.
  const double spacing = mesh::distance(cfg.antenna_position(0),
                                        cfg.antenna_position(1));
  EXPECT_NEAR(spacing, 0.5 * cfg.wavelength_m(), 1e-9);
  mesh::Vec3 centroid{0, 0, 0};
  for (std::size_t k = 0; k < cfg.num_virtual_antennas; ++k)
    centroid += cfg.antenna_position(k);
  EXPECT_NEAR(mesh::norm(centroid), 0.0, 1e-12);
}

TEST(Scatterers, BackfaceCullingDropsAwayFacingTriangles) {
  // A closed box: roughly half the faces look away from the radar.
  const mesh::TriMesh box = mesh::make_box({1.0, -0.2, -0.2}, {1.4, 0.2, 0.2},
                                           mesh::Material::wood());
  const Simulator sim(quiet_config());
  const auto scatterers = sim.extract_scatterers(box, nullptr, 0.0);
  EXPECT_LT(scatterers.size(), box.num_triangles());
  EXPECT_GT(scatterers.size(), 0u);
  for (const auto& s : scatterers) EXPECT_GT(s.amplitude, 0.0);
}

TEST(Scatterers, AmplitudeFollowsInverseSquare) {
  const mesh::Material mat = mesh::Material::aluminum();
  const Simulator sim(quiet_config());
  const auto amp_at = [&](double d) {
    const mesh::TriMesh plate = mesh::make_plate(
        {d, 0, 0}, {-1, 0, 0}, {0, 0, 1}, 0.05, 0.05, mat, 1);
    const auto s = sim.extract_scatterers(plate, nullptr, 0.0);
    double total = 0.0;
    for (const auto& x : s) total += x.amplitude;
    return total;
  };
  const double near = amp_at(1.0);
  const double far = amp_at(2.0);
  EXPECT_NEAR(near / far, 4.0, 0.1);  // 1/d^2 spreading
}

TEST(Scatterers, SectorOcclusionHidesGeometryBehindBlocker) {
  // A large plate at 1 m fully blocks a small plate directly behind it.
  mesh::TriMesh scene = mesh::make_plate({1.0, 0, 0}, {-1, 0, 0}, {0, 0, 1},
                                         0.5, 0.5, mesh::Material::wood(), 2);
  const std::size_t front_tris = scene.num_triangles();
  scene.merge(mesh::make_plate({1.5, 0, 0}, {-1, 0, 0}, {0, 0, 1}, 0.1, 0.1,
                               mesh::Material::aluminum(), 1));
  SimulatorOptions opts;
  opts.sector_occlusion = true;
  const Simulator sim(quiet_config(), opts);
  const auto visible = sim.extract_scatterers(scene, nullptr, 0.0);
  // Only the front plate's triangles survive.
  EXPECT_EQ(visible.size(), front_tris);
  for (const auto& s : visible) EXPECT_LT(s.position.x, 1.2);

  SimulatorOptions no_occ;
  no_occ.sector_occlusion = false;
  const Simulator sim2(quiet_config(), no_occ);
  EXPECT_GT(sim2.extract_scatterers(scene, nullptr, 0.0).size(),
            visible.size());
}

TEST(Scatterers, RadialVelocityFromFrameDifference) {
  const auto plate_at = [](double x) {
    return mesh::make_plate({x, 0, 0}, {-1, 0, 0}, {0, 0, 1}, 0.05, 0.05,
                            mesh::Material::skin(), 1);
  };
  const mesh::TriMesh now = plate_at(1.5);
  const mesh::TriMesh next = plate_at(1.52);
  const Simulator sim(quiet_config());
  const auto s = sim.extract_scatterers(now, &next, 0.02);
  ASSERT_FALSE(s.empty());
  for (const auto& x : s) EXPECT_NEAR(x.radial_velocity, 1.0, 1e-3);
  EXPECT_THROW(sim.extract_scatterers(now, &next, 0.0), InvalidArgument);
}

TEST(Scatterers, TopologyMismatchRejected) {
  const mesh::TriMesh a = mesh::make_plate({1, 0, 0}, {-1, 0, 0}, {0, 0, 1},
                                           0.1, 0.1, mesh::Material::skin(), 1);
  const mesh::TriMesh b = mesh::make_plate({1, 0, 0}, {-1, 0, 0}, {0, 0, 1},
                                           0.1, 0.1, mesh::Material::skin(), 2);
  const Simulator sim(quiet_config());
  EXPECT_THROW(sim.extract_scatterers(a, &b, 0.1), InvalidArgument);
}

// The rank-1 IF-synthesis kernel that the register-tiled kernel replaced,
// kept here only as the bit-identity oracle: per (scatterer, antenna) a
// phasor table exp(i dphi_n n) from a 16-lane float recurrence re-seeded
// every 4096 samples, then a rank-1 complex update of every chirp row.
constexpr std::size_t kRefLanes = 16;
constexpr std::size_t kRefRenormInterval = 4096;

void ref_fill_phasor_table(std::size_t count, double dphi, float* tab_re,
                           float* tab_im) {
  const std::complex<double> rot1(std::cos(dphi), std::sin(dphi));
  std::complex<double> anchor(1.0, 0.0);
  std::complex<double> rot_interval(1.0, 0.0);
  if (count > kRefRenormInterval)
    rot_interval =
        std::polar(1.0, dphi * static_cast<double>(kRefRenormInterval));

  for (std::size_t n0 = 0; n0 < count; n0 += kRefRenormInterval) {
    const std::size_t nend = std::min(count, n0 + kRefRenormInterval);
    float lane_re[kRefLanes];
    float lane_im[kRefLanes];
    std::complex<double> w(1.0, 0.0);
    for (std::size_t l = 0; l < kRefLanes; ++l) {
      const std::complex<double> v = anchor * w;
      lane_re[l] = static_cast<float>(v.real());
      lane_im[l] = static_cast<float>(v.imag());
      w *= rot1;
    }
    const float rot_re = static_cast<float>(w.real());
    const float rot_im = static_cast<float>(w.imag());

    std::size_t n = n0;
    for (; n + kRefLanes <= nend; n += kRefLanes) {
      for (std::size_t l = 0; l < kRefLanes; ++l) {
        tab_re[n + l] = lane_re[l];
        tab_im[n + l] = lane_im[l];
      }
      for (std::size_t l = 0; l < kRefLanes; ++l) {
        const float nr = lane_re[l] * rot_re - lane_im[l] * rot_im;
        const float ni = lane_re[l] * rot_im + lane_im[l] * rot_re;
        lane_re[l] = nr;
        lane_im[l] = ni;
      }
    }
    for (std::size_t l = 0; n < nend; ++n, ++l) {
      tab_re[n] = lane_re[l];
      tab_im[n] = lane_im[l];
    }
    anchor *= rot_interval;
  }
}

dsp::RadarCube rank_one_reference(const FmcwConfig& config,
                                  const std::vector<Scatterer>& scatterers) {
  constexpr double kSpeedOfLight = 299792458.0;
  constexpr double kPi = 3.14159265358979323846;
  const std::size_t q_n = config.num_chirps;
  const std::size_t k_n = config.num_virtual_antennas;
  const std::size_t n_n = config.num_samples;
  dsp::RadarCube cube(q_n, k_n, n_n);
  const double f_c = config.center_freq_hz();
  const double slope = config.slope_hz_per_s();
  const double ts = 1.0 / config.sample_rate_hz();
  const double tc = config.chirp_time_s;

  std::vector<float> re(q_n * n_n);
  std::vector<float> im(q_n * n_n);
  std::vector<float> tab_re(n_n);
  std::vector<float> tab_im(n_n);
  for (std::size_t k = 0; k < k_n; ++k) {
    const mesh::Vec3 antenna = config.antenna_position(k);
    std::fill(re.begin(), re.end(), 0.0F);
    std::fill(im.begin(), im.end(), 0.0F);
    for (const auto& s : scatterers) {
      const double d_tx = mesh::norm(s.position);
      if (d_tx < 1e-6) continue;
      const double dphi_q = -2.0 * kPi * f_c *
                            (2.0 * s.radial_velocity * tc) / kSpeedOfLight;
      const double d_rx = mesh::distance(s.position, antenna);
      const double path = d_tx + d_rx;
      const double phi0 = -2.0 * kPi * f_c * path / kSpeedOfLight;
      const double dphi_n = 2.0 * kPi * slope * path / kSpeedOfLight * ts;
      ref_fill_phasor_table(n_n, dphi_n, tab_re.data(), tab_im.data());
      const std::complex<double> rot_q(std::cos(dphi_q), std::sin(dphi_q));
      std::complex<double> base = std::polar(s.amplitude, phi0);
      for (std::size_t q = 0; q < q_n; ++q) {
        const float br = static_cast<float>(base.real());
        const float bi = static_cast<float>(base.imag());
        float* row_re = &re[q * n_n];
        float* row_im = &im[q * n_n];
        for (std::size_t n = 0; n < n_n; ++n) {
          row_re[n] += br * tab_re[n] - bi * tab_im[n];
          row_im[n] += br * tab_im[n] + bi * tab_re[n];
        }
        base *= rot_q;
      }
    }
    for (std::size_t q = 0; q < q_n; ++q) {
      dsp::cfloat* row = cube.row(q, k);
      for (std::size_t n = 0; n < n_n; ++n)
        row[n] = dsp::cfloat(re[q * n_n + n], im[q * n_n + n]);
    }
  }
  return cube;
}

// Bit patterns of a cube's samples: equality here is bit identity, with
// no -0.0 == 0.0 or NaN slack.
std::vector<std::uint32_t> bits_of(const dsp::RadarCube& cube) {
  std::vector<std::uint32_t> out;
  out.reserve(2 * cube.raw().size());
  for (const auto& v : cube.raw()) {
    out.push_back(std::bit_cast<std::uint32_t>(v.real()));
    out.push_back(std::bit_cast<std::uint32_t>(v.imag()));
  }
  return out;
}

// Scatterers in front of the radar with body-to-wall ranges, realistic
// amplitudes and radial speeds.
std::vector<Scatterer> random_scatterers(std::size_t count, Rng& rng,
                                         bool moving = true) {
  std::vector<Scatterer> out;
  for (std::size_t i = 0; i < count; ++i) {
    Scatterer s;
    s.position = {rng.uniform(0.5, 5.0), rng.uniform(-2.0, 2.0),
                  rng.uniform(-1.0, 1.5)};
    s.amplitude = rng.uniform(1e-4, 1.0);
    s.radial_velocity = moving ? rng.uniform(-1.5, 1.5) : 0.0;
    out.push_back(s);
  }
  return out;
}

FmcwConfig shape(std::size_t chirps, std::size_t antennas,
                 std::size_t samples) {
  FmcwConfig cfg = quiet_config();
  cfg.num_chirps = chirps;
  cfg.num_virtual_antennas = antennas;
  cfg.num_samples = samples;
  return cfg;
}

TEST(Synthesis, TiledKernelMatchesRankOneReference) {
  Rng rng(20251017);
  const auto expect_identical = [](const FmcwConfig& cfg,
                                   const std::vector<Scatterer>& s,
                                   const char* what) {
    const Simulator sim(cfg);
    EXPECT_EQ(bits_of(sim.synthesize(s)),
              bits_of(rank_one_reference(cfg, s)))
        << what << ": " << s.size() << " scatterers, " << cfg.num_chirps
        << "x" << cfg.num_virtual_antennas << "x" << cfg.num_samples;
  };

  for (const FmcwConfig& cfg : {shape(8, 8, 64), shape(16, 16, 64)}) {
    for (const std::size_t count : {0, 1, 7, 8, 9, 263})
      expect_identical(cfg, random_scatterers(count, rng), "random");
    expect_identical(cfg, random_scatterers(40, rng, false),
                     "zero velocity");

    // Scatterers at the radar (d_tx < 1e-6) are skipped, wherever they
    // fall in the batch.
    auto with_origin = random_scatterers(12, rng);
    with_origin.insert(with_origin.begin() + 3,
                       Scatterer{mesh::Vec3{0, 0, 0}, 1.0, 0.5});
    with_origin.insert(with_origin.begin() + 9,
                       Scatterer{mesh::Vec3{1e-7, 0, 0}, 1.0, 0.0});
    expect_identical(cfg, with_origin, "scatterers at the radar");
    expect_identical(cfg, {Scatterer{mesh::Vec3{0, 0, 0}, 1.0, 0.0}},
                     "only a scatterer at the radar");
  }

  // Scatterers with a double-precision recurrence value within a few
  // ulps of a float rounding tie, where the order in which the complex
  // products are fused decides the float output. Random inputs hit such
  // a tie about once in 10^7 (scatterer, antenna) pairs, so they are
  // pinned here, one per recurrence: the lane rotation exp(i 16 dphi_n)
  // at antenna 15 (from an attack-pipeline frame), a chirp base at
  // antenna 0, and a second-span lane seed (8192 samples) at antenna 0.
  const auto tie = [](double x, double y, double z, double amplitude,
                      double velocity) {
    return std::vector<Scatterer>{
        Scatterer{mesh::Vec3{x, y, z}, amplitude, velocity}};
  };
  expect_identical(quiet_config(),
                   tie(0x1.f8c41e20e79cdp-1, 0x1.1b3c726b20bcdp-1,
                       0x1.60c2645ce0cb5p-2, 0x1.88e53c443f452p-3,
                       -0x1.334ddc6a072p-3),
                   "lane rotation tie");
  expect_identical(quiet_config(),
                   tie(0x1.2e15490a7c88ep+1, -0x1.f29a36ce83cdp-2,
                       -0x1.073ada21368bcp-1, 0x1.2fb79bd19e20bp-2,
                       -0x1.171be04e9d7dap+0),
                   "chirp base tie");
  expect_identical(shape(4, 2, 8192),
                   tie(0x1.2c322ec2e389ep-1, 0x1.5007b91579644p+0,
                       -0x1.fa8b5e3658d8cp-2, 0x1.dcacbf2ddfcbbp-2,
                       0x1.eff21730484dfp-1),
                   "second-span seed tie");

  // Past kRenormInterval samples the lanes re-seed from the anchor.
  expect_identical(shape(4, 2, 8192), random_scatterers(9, rng),
                   "re-seeded rows");
  // Chirp and sample counts below the tile size.
  expect_identical(shape(2, 4, 8), random_scatterers(9, rng), "small shape");
}

TEST(Synthesis, PointTargetLandsOnPredictedRangeBin) {
  const FmcwConfig cfg = quiet_config();
  const Simulator sim(cfg);
  const double d = 1.5;
  std::vector<Scatterer> s{{mesh::Vec3{d, 0, 0}, 1.0, 0.0}};
  const dsp::RadarCube cube = sim.synthesize(s);
  const Tensor profile = dsp::range_profile(cube, heatmap_config());
  EXPECT_EQ(profile.argmax(),
            static_cast<std::size_t>(std::lround(cfg.range_bin_of(d))));
}

class AngleCases : public ::testing::TestWithParam<double> {};

TEST_P(AngleCases, PointTargetLandsOnPredictedAngleBin) {
  const double az_deg = GetParam();
  const FmcwConfig cfg = quiet_config();
  const Simulator sim(cfg);
  const double az = mesh::deg2rad(az_deg);
  const double d = 1.5;
  std::vector<Scatterer> s{
      {mesh::Vec3{d * std::cos(az), d * std::sin(az), 0.0}, 1.0, 0.0}};
  const Tensor drai = dsp::compute_drai(sim.synthesize(s), heatmap_config());
  const std::size_t angle_bin = drai.argmax() % 32;
  const double expected = cfg.angle_bin_of(az, 32);
  EXPECT_NEAR(static_cast<double>(angle_bin), expected, 1.0)
      << "azimuth " << az_deg;
}

INSTANTIATE_TEST_SUITE_P(Azimuths, AngleCases,
                         ::testing::Values(-30.0, -15.0, 0.0, 15.0, 30.0));

TEST(Synthesis, ApproachingTargetShowsPositiveDoppler) {
  const FmcwConfig cfg = quiet_config();
  const Simulator sim(cfg);
  // Approaching: radial velocity negative (range shrinking).
  std::vector<Scatterer> s{{mesh::Vec3{1.5, 0, 0}, 1.0, -0.8}};
  auto hm_cfg = heatmap_config();
  const Tensor rdi = dsp::compute_rdi(sim.synthesize(s), hm_cfg);
  const std::size_t row = rdi.argmax() / 32;
  EXPECT_GT(row, rdi.dim(0) / 2);  // above center = approaching
  std::vector<Scatterer> r{{mesh::Vec3{1.5, 0, 0}, 1.0, 0.8}};
  const Tensor rdi2 = dsp::compute_rdi(sim.synthesize(r), hm_cfg);
  EXPECT_LT(rdi2.argmax() / 32, rdi2.dim(0) / 2);
}

TEST(Synthesis, NoiseIsDeterministicPerSeed) {
  FmcwConfig cfg;
  cfg.noise_std = 0.05;
  const Simulator sim(cfg);
  std::vector<Scatterer> s{{mesh::Vec3{1.0, 0, 0}, 1.0, 0.0}};
  Rng a(42);
  Rng b(42);
  const auto ca = sim.synthesize(s, &a);
  const auto cb = sim.synthesize(s, &b);
  EXPECT_EQ(ca.raw(), cb.raw());
  Rng c(43);
  const auto cc = sim.synthesize(s, &c);
  EXPECT_NE(ca.raw(), cc.raw());
}

TEST(Synthesis, AwgnIqOrderIsPinned) {
  // Each IF sample takes two normals: the first is its imaginary part and
  // the second its real part, whatever the compiler. Without scatterers
  // the cube is pure noise, checked against hand-drawn pairs.
  FmcwConfig cfg;
  cfg.noise_std = 0.05;
  const Simulator sim(cfg);
  Rng drawn(42);
  Rng by_hand(42);
  const auto cube = sim.synthesize({}, &drawn);
  std::vector<dsp::cfloat> want(cube.raw().size());
  for (auto& v : want) {
    const float first = static_cast<float>(by_hand.normal(0.0, 0.05));
    const float second = static_cast<float>(by_hand.normal(0.0, 0.05));
    v = dsp::cfloat(0.0F + second, 0.0F + first);
  }
  EXPECT_EQ(std::memcmp(cube.raw().data(), want.data(),
                        want.size() * sizeof(dsp::cfloat)),
            0);
  EXPECT_EQ(drawn.next_u64(), by_hand.next_u64());
}

TEST(Synthesis, StrongerMaterialYieldsStrongerReturn) {
  const Simulator sim(quiet_config());
  const auto energy_of = [&](const mesh::Material& mat) {
    const mesh::TriMesh plate = mesh::make_plate(
        {1.2, 0, 0}, {-1, 0, 0}, {0, 0, 1}, 0.05, 0.05, mat, 1);
    const auto cube =
        sim.synthesize(sim.extract_scatterers(plate, nullptr, 0.0));
    double e = 0.0;
    for (const auto& v : cube.raw()) e += std::norm(v);
    return e;
  };
  EXPECT_GT(energy_of(mesh::Material::aluminum()),
            10.0 * energy_of(mesh::Material::skin()));
}

TEST(Sequence, ParallelFramesMatchDeterministicReplay) {
  FmcwConfig cfg;
  cfg.noise_std = 0.01;
  const Simulator sim(cfg);
  std::vector<mesh::TriMesh> frames;
  for (int f = 0; f < 6; ++f) {
    frames.push_back(mesh::make_plate({1.2 + 0.01 * f, 0, 0}, {-1, 0, 0},
                                      {0, 0, 1}, 0.05, 0.05,
                                      mesh::Material::skin(), 1));
  }
  Rng a(7);
  const auto run1 = sim.simulate_sequence(frames, nullptr, 0.016, &a);
  Rng b(7);
  const auto run2 = sim.simulate_sequence(frames, nullptr, 0.016, &b);
  ASSERT_EQ(run1.size(), run2.size());
  for (std::size_t f = 0; f < run1.size(); ++f)
    EXPECT_EQ(run1[f].raw(), run2[f].raw()) << "frame " << f;
}

TEST(Sequence, StaticEnvironmentVanishesAfterClutterRemoval) {
  FmcwConfig cfg = quiet_config();
  const Simulator sim(cfg);
  const mesh::TriMesh env = build_environment(EnvironmentKind::Classroom);
  // Single moving plate plus the static room.
  std::vector<mesh::TriMesh> frames;
  for (int f = 0; f < 4; ++f)
    frames.push_back(mesh::make_plate({1.2 + 0.02 * f, 0, 0}, {-1, 0, 0},
                                      {0, 0, 1}, 0.08, 0.08,
                                      mesh::Material::skin(), 1));
  const auto cubes = sim.simulate_sequence(frames, &env, 0.016, nullptr);
  const Tensor drai = dsp::compute_drai(cubes[1], heatmap_config(true));
  // All remaining energy concentrates near the moving plate's range.
  const std::size_t peak_range = drai.argmax() / 32;
  EXPECT_NEAR(static_cast<double>(peak_range), cfg.range_bin_of(1.24), 1.5);
}

TEST(Environment, PresetsProduceGeometry) {
  EXPECT_EQ(build_environment(EnvironmentKind::None).num_triangles(), 0u);
  EXPECT_GT(build_environment(EnvironmentKind::Hallway).num_triangles(), 10u);
  EXPECT_GT(build_environment(EnvironmentKind::Classroom).num_triangles(),
            10u);
  EXPECT_STREQ(environment_name(EnvironmentKind::Hallway), "hallway");
}

TEST(Simulator, RejectsBadConfig) {
  FmcwConfig bad;
  bad.num_samples = 48;
  EXPECT_THROW(Simulator{bad}, InvalidArgument);
  FmcwConfig bad2;
  bad2.num_chirps = 12;
  EXPECT_THROW(Simulator{bad2}, InvalidArgument);
}

}  // namespace
}  // namespace mmhar::radar
