#include "attack_point.h"

#include <filesystem>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/hash.h"
#include "core/attack_eval.h"
#include "core/poison.h"
#include "core/position_opt.h"
#include "dsp/heatmap.h"
#include "host_speed.h"
#include "serving_load.h"
#include "xai/frame_importance.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace mmhar;

namespace {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  Hasher h;
  h.mix(seed).mix(tag);
  return h.value();
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// A fresh, empty cache directory for one point. A leftover file would
/// turn a load_or_build_* call into a cache hit and time the wrong thing.
void prepare_empty_cache(const std::string& dir) {
  fs::create_directories(dir);
  if (!fs::is_empty(dir))
    throw std::runtime_error("artifact cache " + dir + " is not empty");
}

/// What a point produced. Two runs of one seed must agree exactly.
struct PointOutcome {
  double wall_s = 0.0;
  std::int64_t start_ns = 0;  ///< when the point started, end = + wall
  core::AttackMetrics metrics;
  std::vector<std::size_t> frames;
  mesh::Vec3 placement;
  std::size_t samples_simulated = 0;
};

/// Intermediate results a traced point keeps for the layer probes.
struct PointArtifacts {
  std::optional<har::Dataset> train;
  std::optional<har::HarModel> surrogate;
  std::optional<core::BackdoorPlan> plan;
};

}  // namespace

AttackSetup make_attack_setup(std::uint64_t seed, bool mini) {
  AttackSetup s;
  s.train_generator.environment = radar::EnvironmentKind::Hallway;
  s.attack_generator = s.train_generator;
  s.attack_generator.environment = radar::EnvironmentKind::Classroom;

  // 3 participants x 2 distances x 2 angles x 6 activities = 72 samples.
  s.train_grid.participants = {0, 1, 2};
  s.train_grid.distances_m = {1.2, 2.0};
  s.train_grid.angles_deg = {-30.0, 30.0};
  if (mini) {
    s.train_grid.participants = {0};
    s.train_grid.distances_m = {1.6};
    s.train_grid.angles_deg = {0.0, 30.0};
  }
  s.train_grid.repetitions = 1;
  s.train_grid.repetition_offset = 0;
  s.train_grid.seed = mix_seed(seed, 0x6772);

  s.test_grid = s.train_grid;
  s.test_grid.repetition_offset = 100;
  s.attack_grid = s.test_grid;
  s.attack_grid.repetition_offset = 500;

  s.attack.victim_label = 0;  // Push
  s.attack.target_label = 1;  // Pull
  s.attack.trigger = mesh::TriggerSpec::aluminum_2x2();
  s.attack.poisoned_frames = 8;
  s.attack.frame_selection = core::FrameSelection::ShapTopK;
  s.attack.optimize_position = true;
  s.attack.reference_spec.participant = 0;
  s.attack.reference_spec.distance_m = 1.6;
  s.attack.reference_spec.angle_deg = 0.0;
  s.attack.reference_spec.seed = s.train_grid.seed;
  s.attack_grid.activities = {s.attack.victim_label};

  // The laptop-scale model of the repository's experiment harness.
  s.model.conv1_channels = 6;
  s.model.conv2_channels = 12;
  s.model.feature_dim = 48;
  s.model.lstm_hidden = 48;
  s.training.epochs = mini ? 2 : 12;
  s.training.batch_size = 8;
  s.training.weight_decay = 0.0F;
  s.injection_rate = 0.4;
  s.selection_seed = mix_seed(seed, 0x5e1);
  s.surrogate_seed = mix_seed(seed, 0x5a5a);
  s.victim_seed = mix_seed(seed, 0x7c7);
  return s;
}

namespace {

/// Times the set-up (generator and model construction) ten times per
/// call. One set-up takes a fraction of a millisecond and the host's speed
/// drifts over seconds, so a burst of set-ups measures a single moment;
/// calling this between pipeline stages spreads the samples over the run.
class SetupSampler {
 public:
  explicit SetupSampler(const AttackSetup& setup) : setup_(setup) {}

  void sample() {
    const std::int64_t start = now_ns();
    for (int r = 0; r < 10; ++r) {
      const std::int64_t t0 = now_ns();
      {
        const har::SampleGenerator g1(setup_.train_generator);
        const har::SampleGenerator g2(setup_.attack_generator);
        har::HarModelConfig mc = setup_.model;
        mc.seed = setup_.surrogate_seed;
        const har::HarModel m1(mc);
        mc.seed = setup_.victim_seed;
        const har::HarModel m2(mc);
      }
      samples_s_.push_back(seconds_since(t0));
    }
    spent_ns_ += now_ns() - start;
  }

  /// Time spent sampling, left out of the points' wall time.
  std::int64_t spent_ns() const { return spent_ns_; }
  double median_s() const { return median(samples_s_); }

 private:
  const AttackSetup& setup_;
  std::vector<double> samples_s_;
  std::int64_t spent_ns_ = 0;
};

/// Run one point with a fresh cache directory `cache_dir`, which must be
/// empty or absent; it is deleted afterwards. Stages are recorded as
/// spans on `tracer` (a no-op when tracing is off); `sampler`, if given,
/// samples the set-up between stages.
PointOutcome run_attack_point(const AttackSetup& setup,
                              const har::SampleGenerator& train_gen,
                              const har::SampleGenerator& attack_gen,
                              const std::string& cache_dir, Tracer& tracer,
                              std::uint64_t request,
                              PointArtifacts* keep = nullptr,
                              SetupSampler* sampler = nullptr) {
  prepare_empty_cache(cache_dir);
  PointOutcome out;
  const auto between_stages = [sampler] {
    if (sampler != nullptr) sampler->sample();
  };
  const std::int64_t sampled_before = sampler ? sampler->spent_ns() : 0;
  const std::int64_t t0 = now_ns();
  out.start_ns = t0;
  {
    Tracer::Scope root(tracer, "attack_point", request);

    std::optional<har::Dataset> train;
    std::optional<har::Dataset> test;
    {
      Tracer::Scope st(tracer, "har.simulate", request);
      train = har::load_or_build_dataset(train_gen, setup.train_grid,
                                         cache_dir);
      test = har::load_or_build_dataset(train_gen, setup.test_grid, cache_dir);
    }

    har::HarModelConfig mc = setup.model;
    mc.seed = setup.surrogate_seed;
    har::HarModel surrogate(mc);
    between_stages();
    {
      Tracer::Scope st(tracer, "har.train", request);
      har::TrainConfig tc = setup.training;
      tc.seed = setup.surrogate_seed ^ 0x5EEDULL;
      har::train_model(surrogate, *train, tc);
    }

    core::BackdoorPlan plan;
    between_stages();
    {
      Tracer::Scope st(tracer, "core.plan", request);
      core::BackdoorAttack attack(train_gen, surrogate, setup.attack);
      plan = attack.plan(*train);
    }

    std::optional<har::Dataset> donor_twins;
    std::optional<har::Dataset> attack_test;
    between_stages();
    {
      Tracer::Scope st(tracer, "core.twins", request);
      donor_twins = core::load_or_build_triggered_twins(
          train_gen, setup.train_grid, setup.attack.victim_label,
          plan.placement, cache_dir);
      attack_test = core::load_or_build_triggered_twins(
          attack_gen, setup.attack_grid, setup.attack.victim_label,
          plan.placement, cache_dir);
    }

    std::optional<core::PoisonResult> poisoned;
    between_stages();
    {
      Tracer::Scope st(tracer, "core.poison", request);
      core::PoisonConfig pc;
      pc.victim_label = setup.attack.victim_label;
      pc.target_label = setup.attack.target_label;
      pc.injection_rate = setup.injection_rate;
      pc.poisoned_frames = setup.attack.poisoned_frames;
      pc.frame_selection = setup.attack.frame_selection;
      pc.seed = setup.selection_seed;
      poisoned = core::poison_dataset(*train, *donor_twins, pc, plan.frames);
    }

    mc.seed = setup.victim_seed;
    har::HarModel victim(mc);
    between_stages();
    {
      Tracer::Scope st(tracer, "har.train", request);
      har::TrainConfig tc = setup.training;
      tc.seed = setup.victim_seed ^ 0x5EEDULL;
      har::train_model(victim, poisoned->dataset, tc);
    }

    between_stages();
    {
      Tracer::Scope st(tracer, "core.eval", request);
      out.metrics = core::evaluate_attack(victim, *test, *attack_test,
                                          setup.attack.victim_label,
                                          setup.attack.target_label);
    }

    out.frames = plan.frames;
    out.placement = plan.placement.local_position;
    out.samples_simulated = train->size() + test->size();
    if (keep != nullptr) {
      keep->train = std::move(train);
      keep->surrogate.emplace(std::move(surrogate));
      keep->plan = std::move(plan);
    }
  }
  const std::int64_t sampled = sampler ? sampler->spent_ns() - sampled_before : 0;
  out.wall_s = static_cast<double>(now_ns() - t0 - sampled) * 1e-9;
  fs::remove_all(cache_dir);
  return out;
}

bool same_outcome(const PointOutcome& a, const PointOutcome& b) {
  return a.metrics.asr == b.metrics.asr && a.metrics.cdr == b.metrics.cdr &&
         a.metrics.uasr == b.metrics.uasr && a.frames == b.frames &&
         a.placement.x == b.placement.x && a.placement.y == b.placement.y &&
         a.placement.z == b.placement.z;
}

template <typename Fn>
double median_ms_of(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  return median(ms);
}

/// Times the modules inside the pipeline stages on the inputs the traced
/// point used, checking each probe reproduces the pipeline's own result.
void probe_attack_layers(const AttackSetup& setup,
                         const har::SampleGenerator& train_gen,
                         PointArtifacts& art, const std::string& cache_dir,
                         Tracer& tracer, Report& report) {
  Tracer::Scope root(tracer, "probe.attack", 0);
  const har::Dataset& train = *art.train;
  har::HarModel& surrogate = *art.surrogate;
  const core::BackdoorPlan& plan = *art.plan;

  // mesh / radar / dsp on the first training samples.
  std::vector<double> pose_ms, cubes_ms, drai_ms;
  const std::size_t n_probe = std::min<std::size_t>(4, train.size());
  for (std::size_t i = 0; i < n_probe; ++i) {
    const har::SampleSpec& spec = train.sample(i).spec;
    {
      Tracer::Scope sp(tracer, "mesh.pose", i);
      const std::int64_t t0 = now_ns();
      const auto meshes = train_gen.build_world_meshes(spec, nullptr);
      pose_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    std::vector<dsp::RadarCube> cubes;
    {
      Tracer::Scope sp(tracer, "radar.generate_cubes", i);
      const std::int64_t t0 = now_ns();
      cubes = train_gen.generate_cubes(spec);
      cubes_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    Tensor drai;
    {
      Tracer::Scope sp(tracer, "dsp.drai_sequence", i);
      const std::int64_t t0 = now_ns();
      drai = dsp::compute_drai_sequence(cubes, train_gen.config().heatmap);
      drai_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    const Tensor& ref = train.sample(i).heatmaps;
    if (!std::equal(drai.flat().begin(), drai.flat().end(), ref.flat().begin(),
                    ref.flat().end()))
      report.fail_check("probe DRAI differs from the dataset sample");
  }
  report.metric("mesh.pose_ms", median(pose_ms), "ms");
  report.metric("radar.simulate_ms", median(cubes_ms) - median(pose_ms), "ms");
  report.metric("dsp.drai_sequence_ms", median(drai_ms), "ms");

  {
    Tracer::Scope sp(tracer, "common.artifact_save", 0);
    const std::string path = cache_dir + "/probe_save.ds";
    fs::create_directories(cache_dir);
    report.metric("common.artifact_save_ms",
                  median_ms_of(3, [&] { train.save(path); }), "ms");
    fs::remove_all(cache_dir);
  }

  // nn: one training batch through a fresh model of the same shape.
  {
    Tracer::Scope sp(tracer, "nn.layers", 0);
    const har::HarModelConfig& mc = setup.model;
    har::HarModel model(mc);
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < std::min(setup.training.batch_size,
                                         train.size());
         ++i)
      idx.push_back(i);
    const Tensor batch = train.batch_of(idx);
    const std::size_t b = idx.size();
    const Tensor frames({b * mc.frames, mc.height, mc.width},
                        std::vector<float>(batch.flat().begin(),
                                           batch.flat().end()));
    Tensor feats;
    report.metric("nn.cnn_forward_ms", median_ms_of(5, [&] {
                    feats = model.frame_features(frames);
                  }),
                  "ms");
    const Tensor series({b, mc.frames, mc.feature_dim},
                        std::vector<float>(feats.flat().begin(),
                                           feats.flat().end()));
    report.metric("nn.lstm_head_forward_ms", median_ms_of(5, [&] {
                    (void)model.classify_features(series);
                  }),
                  "ms");
    const Tensor grad = Tensor::full({b, mc.num_classes}, 1.0F / b);
    std::vector<double> bwd;
    for (int r = 0; r < 5; ++r) {
      (void)model.forward(batch, /*training=*/true);
      const std::int64_t t0 = now_ns();
      model.backward(grad);
      bwd.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      model.zero_gradients();
    }
    report.metric("nn.backward_ms", median(bwd), "ms");
  }

  // xai: the SHAP step of the plan, alone.
  {
    auto victims = train.indices_of_label(setup.attack.victim_label);
    if (victims.size() > 3) victims.resize(3);
    std::vector<double> shap;
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope sp(tracer, "xai.shap", 0);
      xai::FrameImportance importance(surrogate, setup.attack.shap);
      shap = importance.mean_abs_shap(train, victims,
                                      setup.attack.victim_label);
    }
    report.metric("xai.shap_s", seconds_since(t0), "s");
    if (shap != plan.mean_abs_shap)
      report.fail_check("SHAP probe differs from the plan's SHAP values");
  }

  // core: the Eq. 2 position search of the plan, alone.
  {
    har::SampleSpec ref = setup.attack.reference_spec;
    ref.activity = mesh::activity_from_index(setup.attack.victim_label);
    std::vector<core::PositionCandidate> ranking;
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope sp(tracer, "core.position", 0);
      core::TriggerPositionOptimizer opt(train_gen, surrogate,
                                         setup.attack.objective);
      ranking = opt.evaluate_anchors(ref, setup.attack.trigger, plan.frames);
      (void)opt.per_frame_optima(ref, setup.attack.trigger, plan.frames);
    }
    report.metric("core.position_s", seconds_since(t0), "s");
    report.metric("core.anchors_scored", static_cast<double>(ranking.size()),
                  "count");
    bool same = ranking.size() == plan.anchor_ranking.size();
    for (std::size_t i = 0; same && i < ranking.size(); ++i)
      same = ranking[i].anchor == plan.anchor_ranking[i].anchor &&
             ranking[i].score == plan.anchor_ranking[i].score;
    if (!same) report.fail_check("position probe ranks anchors differently");
  }
}

void attack_layer_metrics_from(const AttackSetup& setup,
                               const har::SampleGenerator& train_gen,
                               const PointOutcome& traced,
                               PointArtifacts& art,
                               const std::string& cache_dir, Tracer& tracer,
                               Report& report) {
  const auto& spans = tracer.spans();
  const double sim_s = total_s(spans, "har.simulate");
  report.metric("har.dataset_samples_per_s",
                static_cast<double>(traced.samples_simulated) / sim_s, "1/s");
  report.metric("har.train_s_per_epoch",
                total_s(spans, "har.train") /
                    static_cast<double>(2 * setup.training.epochs),
                "s");
  report.metric("core.twins_s", total_s(spans, "core.twins"), "s");
  report.metric("core.poison_ms", total_s(spans, "core.poison") * 1e3, "ms");
  report.metric("core.eval_ms", total_s(spans, "core.eval") * 1e3, "ms");
  probe_attack_layers(setup, train_gen, art, cache_dir, tracer, report);
}

}  // namespace

void attack_layer_metrics(const AttackSetup& setup,
                          const std::string& cache_root, Report& report,
                          Tracer& tracer) {
  const har::SampleGenerator train_gen(setup.train_generator);
  const har::SampleGenerator attack_gen(setup.attack_generator);
  PointArtifacts art;
  const PointOutcome traced = run_attack_point(
      setup, train_gen, attack_gen, cache_root + "/probe-point", tracer, 1,
      &art);
  attack_layer_metrics_from(setup, train_gen, traced, art,
                            cache_root + "/probe-save", tracer, report);
}

void run_attack_workload(const RunOptions& opt, Report& report,
                         Tracer& tracer) {
  const AttackSetup setup = make_attack_setup(opt.seed);
  const std::string& cache_root = opt.cache_root;

  HostSpeedSampler host;
  SetupSampler setup_sampler(setup);
  setup_sampler.sample();
  const har::SampleGenerator train_gen(setup.train_generator);
  const har::SampleGenerator attack_gen(setup.attack_generator);

  // Untraced points of identical inputs: at least two, and as many as
  // fit in the run's measuring time. Every one must reproduce the first.
  Tracer off(false);
  std::vector<PointOutcome> points;
  const std::int64_t t_run = now_ns();
  const std::size_t min_points = opt.trace ? 1 : 2;
  while (points.size() < min_points ||
         (!opt.trace && seconds_since(t_run) < opt.seconds)) {
    const std::string dir =
        cache_root + "/point-" + std::to_string(points.size());
    points.push_back(run_attack_point(setup, train_gen, attack_gen, dir, off,
                                      0, nullptr, &setup_sampler));
    const bool same = same_outcome(points.front(), points.back());
    report.tally.add(1, same ? 0 : 1);
    if (!same) report.fail_check("a repeated attack point differs");
  }
  host.stop();
  const PointOutcome& first = points.front();
  // Chance is 1/6 over six activities.
  if (!(first.metrics.cdr > 1.0 / 6.0))
    report.fail_check("CDR at or below chance");

  report.detail("attack.asr", first.metrics.asr);
  report.detail("attack.uasr", first.metrics.uasr);
  report.detail("attack.cdr", first.metrics.cdr);
  report.detail("attack.points", static_cast<double>(points.size()));
  report.detail("attack.attack_samples",
                static_cast<double>(first.metrics.attack_samples));
  report.detail("attack.clean_samples",
                static_cast<double>(first.metrics.clean_samples));

  // Each point's time at the reference host's speed, scaled by the host's
  // speed over that point (see host_speed.h); set-up by the run's.
  std::vector<double> wall_ms, ref_ms;
  for (const PointOutcome& p : points) {
    wall_ms.push_back(p.wall_s * 1e3);
    ref_ms.push_back(p.wall_s * 1e3 *
                     host.scale_between(p.start_ns,
                                        p.start_ns + static_cast<std::int64_t>(
                                                         p.wall_s * 1e9)));
  }
  const Summary lat = summarize(ref_ms);

  if (!opt.trace) {
    const double scale = host.scale();
    report.metric("setup_s", setup_sampler.median_s() * scale, "s");
    report.metric("results_per_s", 1e3 / lat.p50, "1/s");
    report.metric("p50_ms", lat.p50, "ms");
    report.detail("host.scale", scale);
    report.detail("host.samples", static_cast<double>(host.samples()));
    report.detail("wall.setup_s", setup_sampler.median_s());
    report.detail("wall.p50_ms", median(wall_ms));
    report.detail("latency.samples", static_cast<double>(lat.n));
    report.detail("latency.max_ms", lat.max);
    for (std::size_t i = 0; i < points.size(); ++i)
      report.detail("wall.point" + std::to_string(i) + "_ms", wall_ms[i]);
    return;
  }

  // Traced point of the same seed: same outputs, and the overhead.
  PointArtifacts art;
  const PointOutcome traced = run_attack_point(
      setup, train_gen, attack_gen, cache_root + "/traced", tracer, 1, &art);
  report.tally.add(1, same_outcome(first, traced) ? 0 : 1);
  if (!same_outcome(first, traced))
    report.fail_check("traced attack point differs from the untraced one");
  report.metric("trace.overhead_share",
                (traced.wall_s - first.wall_s) / first.wall_s, "share");
  attack_layer_metrics_from(setup, train_gen, traced, art,
                            cache_root + "/probe-save", tracer, report);
  serving_layer_metrics(opt.seed, report, tracer);
}

}  // namespace perfbench
