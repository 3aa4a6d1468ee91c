#include "har/generator.h"

#include "common/check.h"
#include "mesh/human.h"

namespace mmhar::har {

std::uint64_t SampleSpec::stream_seed() const {
  Hasher h;
  hash_into(h);
  return h.value();
}

void SampleSpec::hash_into(Hasher& h) const {
  h.mix(static_cast<int>(activity))
      .mix(participant)
      .mix(distance_m)
      .mix(angle_deg)
      .mix(static_cast<std::uint64_t>(repetition))
      .mix(seed);
}

void TriggerPlacement::hash_into(Hasher& h) const {
  h.mix(spec.width_m)
      .mix(spec.height_m)
      .mix(static_cast<double>(spec.reflectivity))
      .mix(static_cast<int>(spec.under_clothing))
      .mix(static_cast<double>(spec.clothing_attenuation))
      .mix(spec.standoff_m)
      .mix(local_position.x)
      .mix(local_position.y)
      .mix(local_position.z)
      .mix(local_normal.x)
      .mix(local_normal.y)
      .mix(local_normal.z);
}

void GeneratorConfig::hash_into(Hasher& h) const {
  radar.hash_into(h);
  h.mix(heatmap.range_bins)
      .mix(heatmap.angle_bins)
      .mix(static_cast<int>(heatmap.remove_clutter))
      .mix(static_cast<int>(heatmap.normalize))
      .mix(static_cast<int>(heatmap.log_scale))
      .mix(static_cast<double>(heatmap.db_floor))
      .mix(static_cast<int>(environment))
      .mix(num_frames)
      .mix(activity_duration_s)
      .mix(radar_height_m)
      .mix(jitter.amplitude_sigma)
      .mix(jitter.center_sigma)
      .mix(jitter.phase_sigma)
      .mix(jitter.tremor_sigma)
      .mix(jitter.sway_amplitude_m)
      .mix(jitter.sway_freq_hz);
}

SampleGenerator::SampleGenerator(GeneratorConfig config)
    : config_(std::move(config)),
      environment_(radar::build_environment(config_.environment)) {
  MMHAR_REQUIRE(config_.num_frames >= 2, "need at least 2 frames");
  // Environment presets are authored with the floor at z = 0; shift so
  // the radar (origin) sits at its mounting height.
  environment_.translate({0.0, 0.0, -config_.radar_height_m});
}

std::vector<mesh::TriMesh> SampleGenerator::build_world_meshes(
    const SampleSpec& spec, const TriggerPlacement* trigger) const {
  const mesh::HumanBody body(mesh::BodyParams::participant(spec.participant));
  const mesh::ActivityAnimator animator(body, config_.jitter);

  Rng rng(spec.stream_seed());
  Rng motion_rng = rng.fork(0x4D4F);  // motion stream
  const auto poses =
      animator.animate(spec.activity, config_.num_frames, motion_rng);
  Rng sway_rng = rng.fork(0x5357);  // sway stream
  const auto sway =
      mesh::body_sway_offsets(config_.jitter, config_.num_frames,
                              config_.activity_duration_s, sway_rng);

  const double angle_rad = mesh::deg2rad(spec.angle_deg);
  std::vector<mesh::TriMesh> frames;
  frames.reserve(poses.size());
  for (std::size_t f = 0; f < poses.size(); ++f) {
    mesh::TriMesh m = body.build(poses[f]);
    if (trigger != nullptr) {
      mesh::attach_trigger(m, trigger->local_position, trigger->local_normal,
                           trigger->spec);
    }
    // Whole-body postural sway (body-local frame, before placement).
    m.translate(sway[f]);
    mesh::place_in_world(m, spec.distance_m, angle_rad);
    // Drop the world so the radar sits at its mounting height.
    m.translate({0.0, 0.0, -config_.radar_height_m});
    frames.push_back(std::move(m));
  }
  return frames;
}

std::vector<dsp::RadarCube> SampleGenerator::generate_cubes(
    const SampleSpec& spec, const TriggerPlacement* trigger) const {
  const auto frames = build_world_meshes(spec, trigger);
  const radar::Simulator sim(config_.radar);
  Rng rng(spec.stream_seed());
  Rng noise_rng = rng.fork(0x4E4F);  // noise stream
  const double frame_dt =
      config_.activity_duration_s / static_cast<double>(config_.num_frames);
  return sim.simulate_sequence(frames, &environment_, frame_dt, &noise_rng);
}

Tensor SampleGenerator::generate(const SampleSpec& spec,
                                 const TriggerPlacement* trigger) const {
  const auto cubes = generate_cubes(spec, trigger);
  return dsp::compute_drai_sequence(cubes, config_.heatmap);
}

}  // namespace mmhar::har
