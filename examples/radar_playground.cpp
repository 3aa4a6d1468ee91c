// Radar playground: the FMCW signal chain on synthetic point targets —
// no neural networks involved. Shows how range, angle, and velocity map
// onto RDI / DRAI heatmap coordinates, and what clutter removal does.
//
// Build & run:  cmake --build build && ./build/examples/radar_playground
#include <cmath>
#include <cstdio>

#include "dsp/heatmap.h"
#include "mesh/activity.h"
#include "radar/simulator.h"

using namespace mmhar;

namespace {

void print_heatmap(const Tensor& hm, const char* title) {
  static const char* shades = " .:-=+*#%@";
  std::printf("%s\n", title);
  const float lo = hm.min();
  const float range = hm.max() - lo > 0 ? hm.max() - lo : 1.0F;
  for (std::size_t r = 0; r < hm.dim(0); ++r) {
    std::printf("  ");
    for (std::size_t c = 0; c < hm.dim(1); ++c) {
      const int idx = std::min(
          9, static_cast<int>((hm.at(r, c) - lo) / range * 10.0F));
      std::putchar(shades[idx]);
    }
    std::putchar('\n');
  }
}

}  // namespace

int main() {
  std::printf("FMCW radar playground\n");
  std::printf("=====================\n\n");

  radar::FmcwConfig cfg;
  cfg.noise_std = 0.01;
  const radar::Simulator sim(cfg);
  std::printf("chirp: %.1f GHz bandwidth over %.1f us -> range resolution "
              "%.1f cm, %zu virtual antennas\n\n",
              cfg.bandwidth_hz / 1e9, cfg.chirp_time_s * 1e6,
              100.0 * cfg.range_resolution_m(), cfg.num_virtual_antennas);

  // Three point targets: near-left approaching, center static, far-right
  // receding.
  std::vector<radar::Scatterer> targets{
      {mesh::Vec3{0.9 * std::cos(-0.4), 0.9 * std::sin(-0.4), 0.0}, 1.0,
       -0.6},
      {mesh::Vec3{1.4, 0.0, 0.0}, 1.0, 0.0},
      {mesh::Vec3{2.0 * std::cos(0.35), 2.0 * std::sin(0.35), 0.0}, 1.5,
       0.8},
  };
  for (const auto& t : targets) {
    std::printf("target: range %.2f m, azimuth %.0f deg, v_r %+.1f m/s -> "
                "expected range bin %.1f, angle bin %.1f\n",
                mesh::range_of(t.position),
                mesh::rad2deg(mesh::azimuth_of(t.position)),
                t.radial_velocity,
                cfg.range_bin_of(mesh::range_of(t.position)),
                cfg.angle_bin_of(mesh::azimuth_of(t.position), 32));
  }

  Rng rng(1);
  const dsp::RadarCube cube = sim.synthesize(targets, &rng);

  // Three views of the same frame: range profile, DRAI, and RDI.
  dsp::HeatmapConfig hm;
  hm.remove_clutter = false;

  const Tensor profile = dsp::range_profile(cube, hm);
  std::printf("\nrange profile (one bar per range bin):\n  ");
  const float pmax = profile.max() > 0 ? profile.max() : 1.0F;
  for (std::size_t r = 0; r < profile.size(); ++r) {
    static const char* shades = " .:-=+*#%@";
    const int idx =
        std::min(9, static_cast<int>(profile[r] / pmax * 10.0F));
    std::putchar(shades[idx]);
  }
  std::putchar('\n');

  print_heatmap(dsp::compute_drai(cube, hm),
                "\nDRAI (range down, angle across), clutter kept:");
  print_heatmap(dsp::compute_rdi(cube, hm),
                "\nRDI (Doppler down: top=approaching, bottom=receding):");

  // MTI clutter removal subtracts each range cell's mean over chirps.
  hm.remove_clutter = true;
  print_heatmap(dsp::compute_drai(cube, hm),
                "\nDRAI after MTI clutter removal (static center target "
                "vanishes):");

  std::printf("\nNow with a person: simulate a Push gesture "
              "and watch the moving hand sweep through range bins.\n");
  // A human mesh instead of point targets.
  const mesh::HumanBody body(mesh::BodyParams::participant(0));
  const mesh::ActivityAnimator animator(body);
  Rng motion(7);
  const auto poses = animator.animate(mesh::Activity::Push, 8, motion);
  std::vector<mesh::TriMesh> frames;
  for (const auto& pose : poses) {
    mesh::TriMesh m = body.build(pose);
    mesh::place_in_world(m, 1.5, 0.0);
    m.translate({0.0, 0.0, -1.1});  // radar mounted at 1.1 m
    frames.push_back(std::move(m));
  }
  const auto cubes = sim.simulate_sequence(frames, nullptr, 0.03, &rng);
  hm.remove_clutter = true;
  print_heatmap(dsp::compute_drai(cubes[2], hm),
                "\nhuman Push, frame 2 (arm extending):");
  print_heatmap(dsp::compute_drai(cubes[5], hm),
                "human Push, frame 5 (arm extended):");
  return 0;
}
