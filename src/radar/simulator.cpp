#include "radar/simulator.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "common/thread_pool.h"

namespace mmhar::radar {
namespace {

constexpr double kSpeedOfLight = 299792458.0;
constexpr double kPi = 3.14159265358979323846;
constexpr double kFourPiSq = (4.0 * kPi) * (4.0 * kPi);

// IF-synthesis kernel geometry. The per-sample phasor recurrence advances
// kPhasorLanes independent lanes at once (lane l holds exp(i dphi (n+l)),
// each step multiplies every lane by exp(i dphi L)), which turns the
// serial complex-multiply chain into straight-line vectorizable code.
constexpr std::size_t kPhasorLanes = 16;
// Lanes are re-seeded from a double-precision anchor every
// kRenormInterval samples, bounding single-precision magnitude/phase
// drift regardless of num_samples. Phasor tables cover one such span.
constexpr std::size_t kRenormInterval = 4096;
// The double-precision seed and chirp-base recurrences are serial chains
// per scatterer; kBatch scatterers advance together, one per SIMD lane.
constexpr std::size_t kBatch = 8;
// Register tile of the accumulation: kTileChirps x kTileSamples complex
// outputs (eight 16-lane vectors, real and imaginary) summed over every
// scatterer before a single write to the cube.
constexpr std::size_t kTileChirps = 4;
constexpr std::size_t kTileSamples = 16;
// IF samples whose receiver noise is drawn per Rng::normals_f32 call.
constexpr std::size_t kNoiseChunk = 1024;

// GCC/Clang vector types: element-wise arithmetic with the same
// per-element rounding as scalar code, lowered to the widest SIMD
// registers the target has. Passed by reference only (no vector ABI).
using Floats8 = float __attribute__((vector_size(32)));
using Floats16 = float __attribute__((vector_size(64)));
using Doubles8 = double __attribute__((vector_size(64)));

constexpr std::size_t round_up(std::size_t v, std::size_t to) {
  return (v + to - 1) / to * to;
}

template <typename V, typename T>
void load(V& v, const T* src) {
  std::memcpy(&v, src, sizeof v);
}

template <typename V, typename T>
void store(T* dst, const V& v) {
  std::memcpy(dst, &v, sizeof v);
}

// a *= b lane by lane, in the component form of the std::complex<double>
// product. Where the target has FMA, GCC contracts each sum by fusing its
// left product, so the order of the products fixes the rounding. The
// rank-1 kernel's std::complex chains were contracted both ways, and the
// results differ in the last bits: the seed recurrence (kSwappedImag)
// fused a_im * b_re, every other product a_re * b_im. Those bits reach a
// float output when the value sits near a float rounding tie, so each
// call site keeps its original order (the oracle test
// Synthesis.TiledKernelMatchesRankOneReference pins each with one).
enum class ImagOrder { kReIm, kSwappedImag };

template <ImagOrder kOrder = ImagOrder::kReIm>
void cmul(Doubles8& a_re, Doubles8& a_im, const Doubles8& b_re,
          const Doubles8& b_im) {
  const Doubles8 re = a_re * b_re - a_im * b_im;
  const Doubles8 im = kOrder == ImagOrder::kReIm ? a_re * b_im + a_im * b_re
                                                 : a_im * b_re + a_re * b_im;
  a_re = re;
  a_im = im;
}

// Antenna-independent terms of kBatch live scatterers: position,
// amplitude, TX range and the per-chirp Doppler rotation. Lanes past
// `count` stay zero.
struct LiveBatch {
  std::size_t count = 0;
  mesh::Vec3 position[kBatch] = {};
  double amplitude[kBatch] = {};
  double d_tx[kBatch] = {};
  double rot_q_re[kBatch] = {};
  double rot_q_im[kBatch] = {};
};

// Per-antenna phase terms of one LiveBatch, one scatterer per lane.
struct PhaseBatch {
  double rot1_re[kBatch] = {}, rot1_im[kBatch] = {};  // exp(i dphi_n)
  double step_re[kBatch] = {}, step_im[kBatch] = {};  // exp(i dphi_n span)
  double anchor_re[kBatch] = {}, anchor_im[kBatch] = {};  // exp(i dphi_n n0)
  double base_re[kBatch] = {}, base_im[kBatch] = {};  // A exp(i phi0)
};

// Moves the anchors to the next kRenormInterval span: anchor *= step.
void advance_anchor(PhaseBatch& p) {
  Doubles8 anchor_re = {}, anchor_im = {}, step_re = {}, step_im = {};
  load(anchor_re, p.anchor_re);
  load(anchor_im, p.anchor_im);
  load(step_re, p.step_re);
  load(step_im, p.step_im);
  cmul(anchor_re, anchor_im, step_re, step_im);
  store(p.anchor_re, anchor_re);
  store(p.anchor_im, anchor_im);
}

// Sample-phasor rows exp(i dphi_n n) for n in [n0, n0 + len) of the
// batch's live scatterers: lane seeds from the double-precision anchor
// (all scatterers at once), then each scatterer's float lane recurrence.
// Row j holds len_pad real then len_pad imaginary floats, zero-padded.
void fill_phasor_rows(const PhaseBatch& p, std::size_t count, std::size_t len,
                      std::size_t len_pad, float* rows) {
  Doubles8 anchor_re = {}, anchor_im = {}, rot1_re = {}, rot1_im = {};
  load(anchor_re, p.anchor_re);
  load(anchor_im, p.anchor_im);
  load(rot1_re, p.rot1_re);
  load(rot1_im, p.rot1_im);
  float seed_re[kPhasorLanes][kBatch] = {};
  float seed_im[kPhasorLanes][kBatch] = {};
  Doubles8 w_re = Doubles8{} + 1.0;
  Doubles8 w_im = Doubles8{};
  for (std::size_t l = 0; l < kPhasorLanes; ++l) {
    Doubles8 v_re = anchor_re;
    Doubles8 v_im = anchor_im;
    cmul(v_re, v_im, w_re, w_im);
    store(seed_re[l], __builtin_convertvector(v_re, Floats8));
    store(seed_im[l], __builtin_convertvector(v_im, Floats8));
    cmul<ImagOrder::kSwappedImag>(w_re, w_im, rot1_re, rot1_im);
  }
  for (std::size_t j = 0; j < count; ++j) {
    float* row_re = rows + j * 2 * len_pad;
    float* row_im = row_re + len_pad;
    Floats16 lane_re = {}, lane_im = {};
    for (std::size_t l = 0; l < kPhasorLanes; ++l) {
      lane_re[l] = seed_re[l][j];
      lane_im[l] = seed_im[l][j];
    }
    const float rot_re = static_cast<float>(w_re[j]);
    const float rot_im = static_cast<float>(w_im[j]);
    std::size_t n = 0;
    for (; n + kPhasorLanes <= len; n += kPhasorLanes) {
      store(row_re + n, lane_re);
      store(row_im + n, lane_im);
      const Floats16 nr = lane_re * rot_re - lane_im * rot_im;
      const Floats16 ni = lane_re * rot_im + lane_im * rot_re;
      lane_re = nr;
      lane_im = ni;
    }
    for (std::size_t l = 0; n < len; ++n, ++l) {
      row_re[n] = lane_re[l];
      row_im[n] = lane_im[l];
    }
    std::fill(row_re + len, row_re + len_pad, 0.0F);
    std::fill(row_im + len, row_im + len_pad, 0.0F);
  }
}

// Chirp bases A exp(i (phi0 + q dphi_q)) for q in [0, q_pad), advanced in
// double precision for all lanes at once (drift-free for any chirp
// count) and stored as floats, real block then imaginary block, each
// [q][lane]; chirps past num_chirps are zero.
void fill_chirp_bases(const PhaseBatch& p, const LiveBatch& live,
                      std::size_t q_n, std::size_t q_pad, float* bases) {
  Doubles8 base_re = {}, base_im = {}, rot_re = {}, rot_im = {};
  load(base_re, p.base_re);
  load(base_im, p.base_im);
  load(rot_re, live.rot_q_re);
  load(rot_im, live.rot_q_im);
  float* out_im = bases + q_pad * kBatch;
  for (std::size_t q = 0; q < q_n; ++q) {
    store(bases + q * kBatch, __builtin_convertvector(base_re, Floats8));
    store(out_im + q * kBatch, __builtin_convertvector(base_im, Floats8));
    cmul(base_re, base_im, rot_re, rot_im);
  }
  std::fill(bases + q_n * kBatch, bases + q_pad * kBatch, 0.0F);
  std::fill(out_im + q_n * kBatch, out_im + q_pad * kBatch, 0.0F);
}

// out[r][i] = sum over live scatterers j, in order, of
// base_j[qt + r] * row_j[nt + i], each term a complex multiply-add in the
// same float operations as a rank-1 row update. The accumulators stay in
// registers for the whole scatterer sweep.
void accumulate_tile(std::size_t batches, const LiveBatch* live,
                     const float* bases, std::size_t q_pad,
                     const float* rows, std::size_t len_pad, std::size_t qt,
                     std::size_t nt, float (*out_re)[kTileSamples],
                     float (*out_im)[kTileSamples]) {
  Floats16 acc_re[kTileChirps] = {};
  Floats16 acc_im[kTileChirps] = {};
  for (std::size_t b = 0; b < batches; ++b) {
    const float* b_re = bases + (b * 2 * q_pad + qt) * kBatch;
    const float* b_im = b_re + q_pad * kBatch;
    for (std::size_t j = 0; j < live[b].count; ++j) {
      Floats16 tr = {}, ti = {};
      load(tr, rows + nt);
      load(ti, rows + len_pad + nt);
      rows += 2 * len_pad;
      for (std::size_t r = 0; r < kTileChirps; ++r) {
        const float br = b_re[r * kBatch + j];
        const float bi = b_im[r * kBatch + j];
        acc_re[r] += br * tr - bi * ti;
        acc_im[r] += br * ti + bi * tr;
      }
    }
  }
  for (std::size_t r = 0; r < kTileChirps; ++r) {
    store(out_re[r], acc_re[r]);
    store(out_im[r], acc_im[r]);
  }
}

}  // namespace

Simulator::Simulator(FmcwConfig config, SimulatorOptions options)
    : config_(config), options_(options) {
  MMHAR_REQUIRE(dsp::is_power_of_two(config_.num_samples),
                "num_samples must be a power of two");
  MMHAR_REQUIRE(dsp::is_power_of_two(config_.num_chirps),
                "num_chirps must be a power of two");
  MMHAR_REQUIRE(config_.num_virtual_antennas >= 1, "need >= 1 antenna");
}

std::vector<Scatterer> Simulator::extract_scatterers(
    const mesh::TriMesh& now, const mesh::TriMesh* next,
    double frame_dt) const {
  if (next != nullptr) {
    MMHAR_REQUIRE(next->num_triangles() == now.num_triangles(),
                  "frame topology mismatch: " << now.num_triangles() << " vs "
                                              << next->num_triangles());
    MMHAR_REQUIRE(frame_dt != 0.0, "frame_dt must be nonzero with motion");
  }

  const std::size_t t_count = now.num_triangles();
  std::vector<Scatterer> scatterers;
  scatterers.reserve(t_count / 2);

  struct Candidate {
    Scatterer s;
    double range;
    double azimuth;
    double elevation;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(t_count / 2);

  for (std::size_t t = 0; t < t_count; ++t) {
    const mesh::Vec3 p = now.triangle_centroid(t);
    const double d = mesh::norm(p);
    if (d < 1e-6) continue;  // coincident with the radar
    const mesh::Vec3 to_radar = p * (-1.0 / d);
    const double cos_inc = mesh::dot(now.triangle_normal(t), to_radar);
    if (options_.cull_backfaces && cos_inc <= 0.0) continue;

    const double a_g = std::abs(cos_inc);  // geometric gain factor
    const double a_m = now.triangle_material(t).reflectivity;
    const double a_a = now.triangle_area(t);
    const double amp =
        config_.tx_power_gain * a_g * a_m * a_a / (kFourPiSq * d * d);
    if (amp <= 0.0) continue;

    double v_r = 0.0;
    if (next != nullptr) {
      const double d2 = mesh::norm(next->triangle_centroid(t));
      v_r = (d2 - d) / frame_dt;
    }

    Candidate c;
    c.s = Scatterer{p, amp, v_r};
    c.range = d;
    c.azimuth = std::atan2(p.y, p.x);
    c.elevation = std::asin(std::clamp(p.z / d, -1.0, 1.0));
    candidates.push_back(c);
  }

  if (!options_.sector_occlusion) {
    for (const auto& c : candidates) scatterers.push_back(c.s);
    return scatterers;
  }

  // Coarse occlusion: per angular sector keep only scatterers within
  // `occlusion_margin_m` of the sector's nearest hit.
  const std::size_t az_n = options_.occlusion_azimuth_sectors;
  const std::size_t el_n = options_.occlusion_elevation_sectors;
  std::vector<double> nearest(az_n * el_n,
                              std::numeric_limits<double>::infinity());
  const auto sector_of = [&](const Candidate& c) {
    const double az01 = (c.azimuth + kPi) / (2.0 * kPi);
    const double el01 = (c.elevation + kPi / 2.0) / kPi;
    const std::size_t ai = std::min<std::size_t>(
        az_n - 1, static_cast<std::size_t>(az01 * static_cast<double>(az_n)));
    const std::size_t ei = std::min<std::size_t>(
        el_n - 1, static_cast<std::size_t>(el01 * static_cast<double>(el_n)));
    return ai * el_n + ei;
  };
  for (const auto& c : candidates) {
    double& d = nearest[sector_of(c)];
    d = std::min(d, c.range);
  }
  for (const auto& c : candidates) {
    if (c.range <= nearest[sector_of(c)] + options_.occlusion_margin_m)
      scatterers.push_back(c.s);
  }
  return scatterers;
}

dsp::RadarCube Simulator::synthesize(const std::vector<Scatterer>& scatterers,
                                     Rng* rng) const {
  const std::size_t q_n = config_.num_chirps;
  const std::size_t k_n = config_.num_virtual_antennas;
  const std::size_t n_n = config_.num_samples;
  dsp::RadarCube cube(q_n, k_n, n_n);

  const double f_c = config_.center_freq_hz();
  const double slope = config_.slope_hz_per_s();
  const double ts = 1.0 / config_.sample_rate_hz();
  const double tc = config_.chirp_time_s;

  std::vector<mesh::Vec3> antennas(k_n);
  for (std::size_t k = 0; k < k_n; ++k)
    antennas[k] = config_.antenna_position(k);

  // Antenna-independent terms, hoisted: the TX range and the per-chirp
  // Doppler rotation (two-way path) of every live scatterer, in batches.
  std::vector<LiveBatch> live;
  live.reserve((scatterers.size() + kBatch - 1) / kBatch);
  std::size_t live_count = 0;
  for (const auto& s : scatterers) {
    const double d_tx = mesh::norm(s.position);
    if (d_tx < 1e-6) continue;
    if (live_count++ % kBatch == 0) live.emplace_back();
    LiveBatch& batch = live.back();
    const std::size_t j = batch.count++;
    const double dphi_q = -2.0 * kPi * f_c *
                          (2.0 * s.radial_velocity * tc) / kSpeedOfLight;
    batch.position[j] = s.position;
    batch.amplitude[j] = s.amplitude;
    batch.d_tx[j] = d_tx;
    batch.rot_q_re[j] = std::cos(dphi_q);
    batch.rot_q_im[j] = std::sin(dphi_q);
  }

  // Register-tiled kernel, parallel over antennas so even a single frame
  // (the shape the Eq. 2 candidate-position search issues) uses the whole
  // pool. Per antenna, the chirp bases and phasor rows of every live
  // scatterer are tabulated, then each kTileChirps x kTileSamples output
  // tile sums all scatterers in their given order in registers and is
  // written once. The per-element float operations and their order are
  // those of a per-scatterer rank-1 update row[n] += base_q * tab[n], so
  // the output is fixed by the scatterer order alone — identical for any
  // MMHAR_THREADS.
  if (live_count > 0) {
    global_pool().parallel_for_chunked(0, k_n, [&](std::size_t klo,
                                                   std::size_t khi) {
      const std::size_t batches = live.size();
      const std::size_t q_pad = round_up(q_n, kTileChirps);
      const std::size_t span = std::min(n_n, kRenormInterval);
      const std::size_t span_pad = round_up(span, kTileSamples);
      std::vector<PhaseBatch> phase(batches);
      std::vector<float> bases(batches * 2 * q_pad * kBatch);
      std::vector<float> rows(live_count * 2 * span_pad);
      float tile_re[kTileChirps][kTileSamples] = {};
      float tile_im[kTileChirps][kTileSamples] = {};
      MMHAR_REQUIRE(bases.size() == batches * 2 * q_pad * kBatch &&
                        rows.size() == live_count * 2 * span_pad,
                    "IF plane size mismatch before accumulation");
      MMHAR_REQUIRE(cube.raw().size() == q_n * k_n * n_n && khi <= k_n,
                    "IF plane size mismatch before interleave");
      for (std::size_t k = klo; k < khi; ++k) {
        for (std::size_t b = 0; b < batches; ++b) {
          const LiveBatch& lb = live[b];
          PhaseBatch& p = phase[b];
          for (std::size_t j = 0; j < lb.count; ++j) {
            const double d_rx = mesh::distance(lb.position[j], antennas[k]);
            const double path = lb.d_tx[j] + d_rx;
            // Carrier phase (angle information) and beat step (range
            // information).
            const double phi0 = -2.0 * kPi * f_c * path / kSpeedOfLight;
            const double dphi_n =
                2.0 * kPi * slope * path / kSpeedOfLight * ts;
            p.rot1_re[j] = std::cos(dphi_n);
            p.rot1_im[j] = std::sin(dphi_n);
            if (n_n > span) {
              const std::complex<double> step =
                  std::polar(1.0, dphi_n * static_cast<double>(span));
              p.step_re[j] = step.real();
              p.step_im[j] = step.imag();
            }
            p.anchor_re[j] = 1.0;
            p.anchor_im[j] = 0.0;
            const std::complex<double> base =
                std::polar(lb.amplitude[j], phi0);
            p.base_re[j] = base.real();
            p.base_im[j] = base.imag();
          }
          fill_chirp_bases(p, lb, q_n, q_pad,
                           &bases[b * 2 * q_pad * kBatch]);
        }
        // num_samples is a power of two, so the spans tile it exactly.
        for (std::size_t n0 = 0; n0 < n_n; n0 += span) {
          for (std::size_t b = 0; b < batches; ++b) {
            fill_phasor_rows(phase[b], live[b].count, span, span_pad,
                             &rows[b * kBatch * 2 * span_pad]);
            if (n0 + span < n_n) advance_anchor(phase[b]);
          }
          for (std::size_t qt = 0; qt < q_n; qt += kTileChirps) {
            const std::size_t q_end = std::min(q_n, qt + kTileChirps);
            for (std::size_t nt = 0; nt < span; nt += kTileSamples) {
              accumulate_tile(batches, live.data(), bases.data(), q_pad,
                              rows.data(), span_pad, qt, nt, tile_re,
                              tile_im);
              const std::size_t width = std::min(kTileSamples, span - nt);
              for (std::size_t q = qt; q < q_end; ++q) {
                dsp::cfloat* out = cube.row(q, k) + n0 + nt;
                for (std::size_t i = 0; i < width; ++i)
                  out[i] = dsp::cfloat(tile_re[q - qt][i], tile_im[q - qt][i]);
              }
            }
          }
        }
      }
    });
  }

  // Complex AWGN, two normals per IF sample: the first is the imaginary
  // part and the second the real part, the order every dataset has been
  // drawn in.
  if (rng != nullptr && config_.noise_std > 0.0) {
    float noise[2 * kNoiseChunk];
    std::vector<dsp::cfloat>& raw = cube.raw();
    for (std::size_t i0 = 0; i0 < raw.size(); i0 += kNoiseChunk) {
      const std::size_t len = std::min(kNoiseChunk, raw.size() - i0);
      rng->normals_f32(noise, 2 * len, 0.0, config_.noise_std);
      for (std::size_t i = 0; i < len; ++i)
        raw[i0 + i] += dsp::cfloat(noise[2 * i + 1], noise[2 * i]);
    }
  }
  return cube;
}

dsp::RadarCube Simulator::simulate_frame(const SceneFrame& frame,
                                         const mesh::TriMesh* next_dynamic,
                                         double frame_dt, Rng* rng) const {
  auto scatterers =
      extract_scatterers(frame.dynamic_mesh, next_dynamic, frame_dt);
  if (frame.static_mesh != nullptr) {
    const auto env = extract_scatterers(*frame.static_mesh, nullptr, 0.0);
    scatterers.insert(scatterers.end(), env.begin(), env.end());
  }
  return synthesize(scatterers, rng);
}

std::vector<dsp::RadarCube> Simulator::simulate_sequence(
    const std::vector<mesh::TriMesh>& dynamic_frames,
    const mesh::TriMesh* static_mesh, double frame_dt, Rng* rng) const {
  MMHAR_REQUIRE(!dynamic_frames.empty(), "empty dynamic frame sequence");
  const std::size_t f_n = dynamic_frames.size();

  // Environment scatterers are static: extract once, share across frames.
  std::vector<Scatterer> env;
  if (static_mesh != nullptr)
    env = extract_scatterers(*static_mesh, nullptr, 0.0);

  // Fork one RNG per frame up front so parallel execution is deterministic.
  std::vector<Rng> frame_rngs;
  if (rng != nullptr) {
    frame_rngs.reserve(f_n);
    for (std::size_t f = 0; f < f_n; ++f)
      frame_rngs.push_back(rng->fork(f + 1));
  }

  std::vector<dsp::RadarCube> cubes;
  cubes.reserve(f_n);
  for (std::size_t f = 0; f < f_n; ++f)
    cubes.emplace_back(config_.num_chirps, config_.num_virtual_antennas,
                       config_.num_samples);

  parallel_for(0, f_n, [&](std::size_t f) {
    // Velocities come from the forward difference; the last frame reuses
    // the backward difference so every frame has consistent Doppler. A
    // single-frame sequence has no neighbor at all — don't form
    // &dynamic_frames[f - 1] (index -1) in that case.
    std::vector<Scatterer> scatterers;
    if (f_n == 1) {
      scatterers = extract_scatterers(dynamic_frames[f], nullptr, 0.0);
    } else {
      const bool last = f + 1 == f_n;
      const mesh::TriMesh* next =
          last ? &dynamic_frames[f - 1] : &dynamic_frames[f + 1];
      const double dt = last ? -frame_dt : frame_dt;
      scatterers = extract_scatterers(dynamic_frames[f], next, dt);
    }
    scatterers.insert(scatterers.end(), env.begin(), env.end());
    Rng* frame_rng = rng != nullptr ? &frame_rngs[f] : nullptr;
    cubes[f] = synthesize(scatterers, frame_rng);
  });
  return cubes;
}

}  // namespace mmhar::radar
