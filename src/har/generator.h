// End-to-end sample generation: activity spec -> posed meshes -> simulated
// IF signals -> DRAI heatmap sequence.
//
// A `SampleSpec` fully determines one activity repetition (activity,
// participant, position, repetition index, master seed), so any sample can
// be re-synthesized bit-identically — with or without a trigger attached —
// which is exactly what the attack pipeline needs to build its poisoned
// twins of clean training samples.
#pragma once

#include <cstdint>
#include <optional>

#include "dsp/heatmap.h"
#include "mesh/activity.h"
#include "mesh/trigger.h"
#include "radar/scene.h"
#include "radar/simulator.h"
#include "tensor/tensor.h"

namespace mmhar::har {

/// Identity of one activity repetition.
struct SampleSpec {
  mesh::Activity activity = mesh::Activity::Push;
  int participant = 0;        ///< 0..2, selects BodyParams
  double distance_m = 1.6;    ///< radial distance to the radar
  double angle_deg = 0.0;     ///< azimuth of the subject
  std::uint32_t repetition = 0;
  std::uint64_t seed = 1;     ///< master randomness seed

  /// Deterministic per-spec stream: motion jitter + receiver noise.
  std::uint64_t stream_seed() const;
  void hash_into(Hasher& h) const;
};

/// Where and what the attached trigger is (body-local coordinates).
struct TriggerPlacement {
  mesh::TriggerSpec spec;
  mesh::Vec3 local_position;
  mesh::Vec3 local_normal{-1.0, 0.0, 0.0};

  void hash_into(Hasher& h) const;
};

/// Generation-wide configuration.
struct GeneratorConfig {
  radar::FmcwConfig radar;
  dsp::HeatmapConfig heatmap;
  radar::EnvironmentKind environment = radar::EnvironmentKind::Hallway;
  std::size_t num_frames = 32;
  double activity_duration_s = 0.5;
  /// Height of the radar above the floor (the paper's board-mounted
  /// MMWCAS-RF-EVM sits at roughly chest height). World geometry is
  /// shifted down by this amount so the radar stays at the origin.
  double radar_height_m = 1.1;
  mesh::MotionJitter jitter;

  void hash_into(Hasher& h) const;
};

class SampleGenerator {
 public:
  explicit SampleGenerator(GeneratorConfig config);

  const GeneratorConfig& config() const { return config_; }

  /// Generate the DRAI heatmap sequence [T, range_bins, angle_bins] for a
  /// spec, optionally with a trigger merged into the body mesh.
  Tensor generate(const SampleSpec& spec,
                  const TriggerPlacement* trigger = nullptr) const;

  /// Generate the raw IF radar cubes instead of heatmaps (tests, RDI).
  std::vector<dsp::RadarCube> generate_cubes(
      const SampleSpec& spec,
      const TriggerPlacement* trigger = nullptr) const;

  /// Posed world-frame body meshes for a spec (shared topology).
  std::vector<mesh::TriMesh> build_world_meshes(
      const SampleSpec& spec, const TriggerPlacement* trigger) const;

 private:
  GeneratorConfig config_;
  mesh::TriMesh environment_;
};

}  // namespace mmhar::har
