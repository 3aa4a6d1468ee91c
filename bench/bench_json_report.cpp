// Machine-readable perf tracker for the acceptance-gated hot paths.
//
// Emits BENCH_perf_micro.json (path overridable via argv[1]) with the
// GEMM throughput, the IF-synthesis times (per frame without noise, and
// per antenna for a whole noisy activity), the receiver noise of one
// frame (BM_AwgnFrame, with the per-element scalar loop it replaced as an
// in-binary reference), and the batched-FFT
// DSP pipeline figures (BM_RangeFft / BM_DraiFrame / BM_DraiSequence32)
// so the perf trajectory is comparable across PRs without parsing
// google-benchmark console output. The DSP sequence entry also carries
// the speedup over a retained scalar per-transform reference (the pre-
// engine implementation). Numbers are best-of-N wall time on the current
// MMHAR_THREADS setting; the host block records the CPU, compiler and
// SIMD level the numbers were measured with. BM_TrainStep and
// BM_ShapSample time the two neural-network stages of an attack point at
// its model shape (conv 6/12 channels, 48 features, 48 LSTM units): one
// warmed training step plus Adam at batch 8, and one sample's SHAP frame
// scores at 12 antithetic pairs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#include "common/env.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dsp/heatmap.h"
#include "har/generator.h"
#include "har/model.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "radar/scene.h"
#include "radar/simulator.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "xai/frame_importance.h"

namespace {

using namespace mmhar;

template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size())
      return line.substr(colon + 2);
  }
  return "unknown";
}

// The widest vector ISA this binary was compiled for (the IF-synthesis
// and GEMM kernels vectorize to it).
const char* simd_level() {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__) && defined(__FMA__)
  return "avx2+fma";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__SSE2__)
  return "sse2";
#else
  return "scalar";
#endif
}

std::vector<dsp::RadarCube> paper_frames(std::size_t count) {
  Rng rng(7);
  std::vector<dsp::RadarCube> frames;
  frames.reserve(count);
  for (std::size_t f = 0; f < count; ++f) {
    dsp::RadarCube cube(16, 16, 64);
    for (auto& v : cube.raw())
      v = dsp::cfloat(static_cast<float>(rng.normal()),
                      static_cast<float>(rng.normal()));
    frames.push_back(std::move(cube));
  }
  return frames;
}

// Scalar per-transform DRAI sequence, structured like the pre-engine
// implementation (one fft_inplace per row, std::abs magnitudes, serial
// frames). Kept as the in-binary reference the speedup figure is measured
// against.
Tensor scalar_drai_sequence(const std::vector<dsp::RadarCube>& frames,
                            const dsp::HeatmapConfig& cfg) {
  const std::size_t R = cfg.range_bins;
  const std::size_t A = cfg.angle_bins;
  Tensor seq({frames.size(), R, A});
  const auto range_window =
      dsp::make_window(cfg.range_window, frames.front().num_samples());
  std::vector<dsp::cfloat> buf;      // hoisted per-row FFT scratch
  std::vector<dsp::cfloat> abuf(A);  // hoisted angle-FFT scratch
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const dsp::RadarCube& cube = frames[f];
    const std::size_t n = cube.num_samples();
    dsp::RangeSpectra s;
    s.num_chirps = cube.num_chirps();
    s.num_antennas = cube.num_antennas();
    s.range_bins = R;
    s.data.resize(s.num_chirps * s.num_antennas * R);
    buf.resize(n);
    for (std::size_t q = 0; q < s.num_chirps; ++q) {
      for (std::size_t k = 0; k < s.num_antennas; ++k) {
        const dsp::cfloat* row = cube.row(q, k);
        for (std::size_t i = 0; i < n; ++i) buf[i] = row[i] * range_window[i];
        dsp::fft_inplace(buf);
        for (std::size_t r = 0; r < R; ++r) s.at(q, k, r) = buf[r];
      }
    }
    if (cfg.remove_clutter) {
      for (std::size_t k = 0; k < s.num_antennas; ++k) {
        for (std::size_t r = 0; r < R; ++r) {
          dsp::cfloat mean{0.0F, 0.0F};
          for (std::size_t q = 0; q < s.num_chirps; ++q) mean += s.at(q, k, r);
          mean /= static_cast<float>(s.num_chirps);
          for (std::size_t q = 0; q < s.num_chirps; ++q) s.at(q, k, r) -= mean;
        }
      }
    }
    for (std::size_t q = 0; q < s.num_chirps; ++q) {
      for (std::size_t r = 0; r < R; ++r) {
        std::fill(abuf.begin(), abuf.end(), dsp::cfloat{0.0F, 0.0F});
        for (std::size_t k = 0; k < s.num_antennas; ++k)
          abuf[k] = s.at(q, k, r);
        dsp::fft_inplace(abuf);
        dsp::fftshift_inplace(std::span<dsp::cfloat>(abuf));
        for (std::size_t a = 0; a < A; ++a)
          seq.at(f, r, a) += std::abs(abuf[a]);
      }
    }
  }
  if (cfg.log_scale) seq = to_db(seq, cfg.db_floor);
  if (cfg.normalize) seq = normalize01(seq);
  return seq;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_perf_micro.json";

  // GEMM: square 256 product, the BM_Gemm/256 configuration.
  const std::size_t n = 256;
  Rng rng(2);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  sgemm(n, n, n, 1.0F, a.data(), b.data(), 0.0F, c.data());  // warm-up
  const double gemm_s = best_seconds(30, [&] {
    sgemm(n, n, n, 1.0F, a.data(), b.data(), 0.0F, c.data());
  });
  const double gflops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                        static_cast<double>(n) / gemm_s / 1e9;

  // IF synthesis alone: synthesize() on one frame's body plus hallway
  // scatterers, the set simulate_sequence hands it per frame (no AWGN).
  har::GeneratorConfig gc;
  gc.environment = radar::EnvironmentKind::Hallway;
  const har::SampleGenerator gen(gc);
  const radar::Simulator sim(gc.radar);
  const auto meshes = gen.build_world_meshes(har::SampleSpec{}, nullptr);
  const double frame_dt =
      gc.activity_duration_s / static_cast<double>(gc.num_frames);
  auto frame_scatterers =
      sim.extract_scatterers(meshes[0], &meshes[1], frame_dt);
  const auto env = sim.extract_scatterers(
      radar::build_environment(gc.environment), nullptr, 0.0);
  frame_scatterers.insert(frame_scatterers.end(), env.begin(), env.end());
  dsp::RadarCube frame = sim.synthesize(frame_scatterers);  // warm-up
  const double synth_frame_s = best_seconds(
      50, [&] { frame = sim.synthesize(frame_scatterers); });

  // Receiver noise alone: synthesize() without scatterers draws the AWGN
  // of one 16 x 16 x 64 frame; the reference is the scalar loop of two
  // Rng::normal calls per IF sample that Rng::normals_f32 replaced.
  Rng noise_rng(3);
  frame = sim.synthesize({}, &noise_rng);  // warm-up
  const double awgn_s =
      best_seconds(200, [&] { frame = sim.synthesize({}, &noise_rng); });
  const double sigma = gc.radar.noise_std;
  const double awgn_scalar_s = best_seconds(50, [&] {
    frame = dsp::RadarCube(gc.radar.num_chirps, gc.radar.num_virtual_antennas,
                           gc.radar.num_samples);
    for (auto& v : frame.raw()) {
      const float im = static_cast<float>(noise_rng.normal(0.0, sigma));
      const float re = static_cast<float>(noise_rng.normal(0.0, sigma));
      v += dsp::cfloat(re, im);
    }
  });
  const double awgn_speedup = awgn_scalar_s / awgn_s;

  // IF synthesis: full activity with noise (BM_IfSynthesisPerAntenna
  // configuration), normalized per virtual antenna.
  auto cubes = gen.generate_cubes(har::SampleSpec{});  // warm-up
  const double synth_s = best_seconds(5, [&] {
    cubes = gen.generate_cubes(har::SampleSpec{});
  });
  const double s_per_antenna =
      synth_s /
      static_cast<double>(gen.config().radar.num_virtual_antennas);

  // Batched-FFT DSP pipeline at paper dimensions (32 frames of
  // 16 chirps x 16 antennas x 64 samples), log-scaled DRAI sequence.
  const auto frames = paper_frames(32);
  dsp::HeatmapConfig hm;
  hm.log_scale = true;
  dsp::RangeSpectra spectra;
  dsp::range_fft(frames[0], hm, spectra);  // warm-up (plan + window caches)
  const double range_fft_s =
      best_seconds(200, [&] { dsp::range_fft(frames[0], hm, spectra); });
  Tensor drai = dsp::compute_drai(frames[0], hm);
  const double drai_frame_s =
      best_seconds(200, [&] { drai = dsp::compute_drai(frames[0], hm); });
  Tensor seq = dsp::compute_drai_sequence(frames, hm);
  const double seq_s = best_seconds(
      20, [&] { seq = dsp::compute_drai_sequence(frames, hm); });
  Tensor seq_ref = scalar_drai_sequence(frames, hm);
  const double seq_scalar_s =
      best_seconds(3, [&] { seq_ref = scalar_drai_sequence(frames, hm); });
  // The two paths must agree (sqrt(re^2+im^2) vs std::abs differ by at
  // most rounding); a mismatch means the engine drifted, so fail loudly.
  double max_dev = 0.0;
  for (std::size_t i = 0; i < seq.size(); ++i)
    max_dev = std::max(max_dev,
                       std::abs(static_cast<double>(seq[i] - seq_ref[i])));
  if (max_dev > 1e-3) {
    std::fprintf(stderr,
                 "engine/scalar DRAI mismatch: max deviation %.3e\n", max_dev);
    return 1;
  }
  const double seq_speedup = seq_scalar_s / seq_s;

  // CNN-LSTM at the attack-point shape: one warmed training step (forward,
  // loss, backward, Adam) at batch 8, and one sample's SHAP scores.
  har::HarModelConfig mc;
  mc.conv1_channels = 6;
  mc.conv2_channels = 12;
  mc.feature_dim = 48;
  mc.lstm_hidden = 48;
  har::HarModel model(mc);
  const Tensor train_batch = Tensor::rand_uniform(
      {8, mc.frames, mc.height, mc.width}, rng, 0.0F, 1.0F);
  const std::vector<std::size_t> labels{0, 1, 2, 3, 4, 5, 0, 1};
  nn::Adam adam(1e-3F);
  const auto params = model.parameters();
  const auto grads = model.gradients();
  const auto train_step = [&] {
    model.zero_gradients();
    const Tensor logits = model.forward(train_batch, /*training=*/true);
    model.backward(nn::softmax_cross_entropy(logits, labels).grad_logits);
    adam.step(params, grads);
  };
  train_step();  // warm-up: grows the layers' buffers
  const double train_step_s = best_seconds(30, train_step);
  const Tensor shap_sample = Tensor::rand_uniform(
      {mc.frames, mc.height, mc.width}, rng, 0.0F, 1.0F);
  xai::ShapConfig shap_cfg;  // 12 antithetic pairs
  const double shap_s = best_seconds(5, [&] {
    xai::FrameImportance importance(model, shap_cfg);
    (void)importance.shap_values(shap_sample, 1);
  });

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"perf_micro\",\n"
               "  \"threads\": %ld,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"pool_threads\": %zu,\n"
               "  \"host\": {\"cpu\": \"%s\", \"compiler\": \"%s\", "
               "\"simd\": \"%s\"},\n"
               "  \"BM_Gemm/256\": {\"seconds\": %.6e, \"gflops\": %.3f},\n"
               "  \"BM_IfSynthesizeFrame\": {\"seconds\": %.6e, "
               "\"scatterers\": %zu},\n"
               "  \"BM_IfSynthesisPerAntenna\": {\"s_per_antenna\": %.6e},\n"
               "  \"BM_AwgnFrame\": {\"seconds\": %.6e, "
               "\"scalar_reference_seconds\": %.6e, \"speedup\": %.2f},\n"
               "  \"BM_RangeFft\": {\"seconds\": %.6e},\n"
               "  \"BM_DraiFrame\": {\"seconds\": %.6e},\n"
               "  \"BM_DraiSequence32\": {\"seconds\": %.6e, "
               "\"scalar_reference_seconds\": %.6e, \"speedup\": %.2f},\n"
               "  \"BM_TrainStep\": {\"seconds\": %.6e, \"batch\": 8},\n"
               "  \"BM_ShapSample\": {\"seconds\": %.6e, "
               "\"permutation_pairs\": %zu}\n"
               "}\n",
               env_int("MMHAR_THREADS", 0),
               std::thread::hardware_concurrency(), global_pool().size(),
               cpu_model().c_str(), __VERSION__, simd_level(), gemm_s, gflops,
               synth_frame_s, frame_scatterers.size(), s_per_antenna, awgn_s,
               awgn_scalar_s, awgn_speedup, range_fft_s, drai_frame_s, seq_s,
               seq_scalar_s, seq_speedup, train_step_s, shap_s,
               shap_cfg.num_permutations);
  std::fclose(f);
  std::printf(
      "gemm256: %.3f GFLOP/s   synthesize: %.6f s/frame (%zu scatterers)   "
      "if-synthesis: %.6f s/antenna\n"
      "awgn_frame: %.6f s (scalar %.6f s, %.1fx)   "
      "range_fft: %.6f s   drai_frame: %.6f s   drai_seq32: %.6f s "
      "(scalar %.6f s, %.1fx)\n"
      "train_step: %.6f s   shap_sample: %.6f s -> %s\n",
      gflops, synth_frame_s, frame_scatterers.size(), s_per_antenna, awgn_s,
      awgn_scalar_s, awgn_speedup, range_fft_s, drai_frame_s, seq_s,
      seq_scalar_s, seq_speedup, train_step_s, shap_s, out_path);
  return 0;
}
