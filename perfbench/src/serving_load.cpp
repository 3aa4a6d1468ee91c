#include "serving_load.h"

#include <malloc.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "attack_point.h"
#include "common/hash.h"
#include "common/rng.h"
#include "dsp/fft.h"
#include "dsp/window.h"
#include "har/generator.h"
#include "har/infer.h"
#include "host_speed.h"
#include "mesh/human.h"
#include "serving/serving.h"
#include "tensor/gemm.h"

namespace perfbench {

using namespace mmhar;

namespace {

/// One serving traffic shape. Thread budget: the producer (this thread)
/// plus `shards` workers plus one pool thread stays within four cores.
/// A closed loop starts no workers and pumps the shards itself (see
/// Harness::closed_loop).
struct ServeShape {
  std::size_t streams = 0;
  std::size_t shards = 2;
  bool two_models = false;   ///< odd streams keyed to a second model
  bool paced = false;        ///< open loop at `rate_hz` per stream
  bool attackers = false;    ///< some streams carry trigger-bearing frames
  long slo_ms = 0;
  double rate_hz = 0.0;
  std::size_t pass_frames = 16;  ///< frames per stream per closed-loop pass
};

// N=64 streams driven losslessly: full batches every cycle.
constexpr ServeShape kSaturate{64, 2, false, false, false, 0, 0.0, 16};
// N streams at the simulator's 64 Hz frame rate (32 frames per 0.5 s
// activity), half of them on a second model, a quarter wearing a trigger.
// N=16 loads each shard to about two thirds and missed the SLO on up to a
// fifth of the frames whenever the host stole CPU, so N is 8, not the rate.
constexpr ServeShape kPaced{8, 2, true, true, true, 50, 64.0, 0};

/// Closed loop: frames per stream per round. Two frames from each of the
/// 32 streams of a shard fill its 64-frame batch (batch_max).
constexpr std::size_t kRoundFrames = 2;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  Hasher h;
  h.mix(seed).mix(tag);
  return h.value();
}

/// Inputs generated from the seed before any timing starts: simulated
/// radar cubes (clean and trigger-bearing) and two seeded models.
struct ServeInputs {
  serving::ServingConfig cfg;
  std::unique_ptr<har::HarModel> model_a;
  std::unique_ptr<har::HarModel> model_b;
  std::vector<dsp::RadarCube> clean;
  std::vector<dsp::RadarCube> triggered;
  std::size_t window = 0;

  bool attacker(const ServeShape& shape, std::size_t s) const {
    return shape.attackers && s % 4 >= 2;
  }
  har::HarModel& model_of(const ServeShape& shape, std::size_t s) const {
    return shape.two_models && s % 2 == 1 ? *model_b : *model_a;
  }
  const dsp::RadarCube& frame(const ServeShape& shape, std::size_t s,
                              std::uint64_t j) const {
    if (attacker(shape, s)) return triggered[(j + 3 * s) % triggered.size()];
    return clean[(j + 7 * s) % clean.size()];
  }
};

ServeInputs make_inputs(std::uint64_t seed, const ServeShape& shape) {
  ServeInputs in;
  har::GeneratorConfig gc;
  const har::SampleGenerator gen(gc);
  for (std::size_t i = 0; i < 3; ++i) {
    har::SampleSpec spec;
    spec.activity = mesh::activity_from_index((seed + i) % 6);
    spec.participant = static_cast<int>(i % 3);
    spec.distance_m = 1.2 + 0.4 * static_cast<double>(i);
    spec.seed = mix_seed(seed, 0xc1ea + i);
    for (auto& cube : gen.generate_cubes(spec)) in.clean.push_back(cube);
  }
  if (shape.attackers) {
    const mesh::HumanBody body(mesh::BodyParams::participant(0));
    har::TriggerPlacement placement;
    placement.spec = mesh::TriggerSpec::aluminum_2x2();
    placement.local_position = body.anchor_position(mesh::BodyAnchor::Chest);
    placement.local_normal = body.anchor_normal(mesh::BodyAnchor::Chest);
    har::SampleSpec spec;
    spec.activity = mesh::Activity::Push;
    spec.seed = mix_seed(seed, 0x7419);
    in.triggered = gen.generate_cubes(spec, &placement);
  }

  har::HarModelConfig mc;  // paper-scale model: T=32 frames of 32x32
  mc.seed = mix_seed(seed, 0xa);
  in.model_a = std::make_unique<har::HarModel>(mc);
  mc.seed = mix_seed(seed, 0xb);
  in.model_b = std::make_unique<har::HarModel>(mc);
  in.window = mc.frames;

  in.cfg.max_streams = shape.streams;
  in.cfg.num_shards = shape.shards;
  in.cfg.slo_ms = shape.slo_ms;
  in.cfg.drop_policy =
      shape.paced ? serving::DropPolicy::kOldest : serving::DropPolicy::kNewest;
  in.cfg.heatmap = gc.heatmap;
  return in;
}

/// Latency windows: a closed-loop pass (64 streams x 16 frames), or two
/// seconds of the open-loop schedule (about 1000 due results).
constexpr std::int64_t kOpenWindowNs = 2'000'000'000;
constexpr std::size_t kMinWindowSamples = 500;

/// Set-up is repeated and its median reported, so one slow start does
/// not decide setup_s.
constexpr int kSetupReps = 9;

/// One delivered classification, kept for the offline comparison.
struct Delivered {
  std::uint32_t stream = 0;
  std::uint64_t seq = 0;
  float logits[serving::kMaxServingClasses] = {};
};

/// What one measurement of a shape produced.
struct ServeRun {
  std::vector<double> setup_s;
  std::vector<double> pass_cls_per_s;  ///< closed loop, one per pass
  std::vector<std::pair<std::int64_t, std::int64_t>> pass_ns;  ///< [start, end)
  std::vector<double> pass_scale;  ///< host-speed scale over each pass
  std::vector<double> latency_ms;  ///< closed: submit→result; open: due→result
  std::vector<std::size_t> latency_window;  ///< closed: pass; open: 2 s
  std::vector<double> service_ms;  ///< submit→result (Classification)
  std::vector<double> submit_us;
  std::vector<double> lag_ms;      ///< open loop: submit − due
  std::vector<double> cycle_ms;    ///< closed loop: pumped run_shard_cycle
  SloTally slo;
  double host_scale = 1.0;         ///< to the reference host, whole run
  std::size_t host_samples = 0;
  double schedule_s = 0.0;         ///< open loop: measured schedule wall
  std::uint64_t expected = 0;      ///< closed loop: results owed
  std::uint64_t delivered = 0;
  std::uint64_t faults = 0;        ///< health(): errors+quarantined+restarts
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deadline_dropped = 0;
  std::uint64_t deepest_queue = 0;
  std::vector<serving::ShardStats> shards;  ///< snapshot at finish()
  std::vector<Delivered> results;
  std::vector<std::vector<bool>> got;  ///< [stream][seq] delivered
  std::uint64_t checked = 0;
  std::uint64_t mismatched = 0;
};

class Harness {
 public:
  Harness(const ServeInputs& in, const ServeShape& shape, ServeRun& run,
          Tracer& tracer)
      : in_(in), shape_(shape), run_(run), tracer_(tracer),
        buf_(in.cfg.result_depth) {}

  /// Construct, register, start (open loop only) and warm up the
  /// service; timed `reps` times (the last instance is kept). `results`
  /// sizes the record buffers so they do not grow while the load runs.
  void setup(int reps, std::size_t results) {
    for (int r = 0; r < reps; ++r) {
      svc_.reset();
      // Hand the last instance's memory back to the system, so every
      // set-up starts as a fresh process's does. Left to itself, malloc
      // reused it in some processes and not in others, and the median
      // set-up moved by 3x between runs.
      malloc_trim(0);
      const std::int64_t t0 = now_ns();
      svc_ = std::make_unique<serving::StreamingHarService>(in_.cfg,
                                                            *in_.model_a);
      const std::size_t b = shape_.two_models ? svc_->add_model(*in_.model_b)
                                              : 0;
      sids_.assign(shape_.streams, 0);
      for (std::size_t s = 0; s < shape_.streams; ++s)
        sids_[s] = svc_->add_stream(shape_.two_models && s % 2 == 1 ? b : 0);
      // Warm-up round: frame 0 of every stream, consumed by the shard
      // workers (open loop) or by one cycle per shard on this thread.
      if (shape_.paced) svc_->start();
      for (std::size_t s = 0; s < shape_.streams; ++s)
        while (!svc_->submit_frame(sids_[s], in_.frame(shape_, s, 0)))
          std::this_thread::yield();
      if (shape_.paced)
        wait_processed(shape_.streams);
      else
        for (std::size_t sh = 0; sh < shape_.shards; ++sh)
          svc_->run_shard_cycle(sh);
      run_.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    next_.assign(shape_.streams, 1);
    submit_ns_.assign(shape_.streams, {});
    due_ns_.assign(shape_.streams, {});
    run_.got.assign(shape_.streams, {});
    const std::size_t per_stream = results / shape_.streams + in_.window;
    for (std::size_t s = 0; s < shape_.streams; ++s) {
      submit_ns_[s].reserve(per_stream);
      due_ns_[s].reserve(per_stream);
      run_.got[s].reserve(per_stream);
      submit_ns_[s].push_back(0);
      due_ns_[s].push_back(0);
    }
    run_.latency_ms.reserve(results);
    run_.latency_window.reserve(results);
    run_.service_ms.reserve(results);
    run_.submit_us.reserve(results);
    run_.lag_ms.reserve(results);
    run_.results.reserve(results);
  }

  /// Closed loop pumped on this thread, with no shard workers: every
  /// round submits kRoundFrames frames per stream and runs one cycle
  /// of each shard. These are the batches a saturated service forms,
  /// without the thread hand-offs whose timing on a shared host moved
  /// throughput more than a change to the program would.
  void closed_loop(double seconds) {
    const std::size_t T = in_.window;
    const std::size_t k = kRoundFrames;
    // Fill every window (no results yet), then measure passes in which
    // every frame owes exactly one classification.
    for (std::size_t j = 1; j + 1 < T; j += k) round(std::min(k, T - 1 - j));
    const std::int64_t t_run = now_ns();
    std::uint64_t pass = 0;
    while (pass < 3 || static_cast<double>(now_ns() - t_run) * 1e-9 < seconds) {
      Tracer::Scope sp(tracer_, "serve.pass", pass);
      window_ = pass;
      const std::int64_t t0 = now_ns();
      run_.expected += shape_.streams * shape_.pass_frames;
      for (std::size_t f = 0; f < shape_.pass_frames; f += k)
        round(std::min(k, shape_.pass_frames - f));
      // Frames a shard could not batch this round go in extra cycles.
      while (run_.delivered < run_.expected && pump() > 0) {
      }
      if (run_.delivered < run_.expected) break;  // lost: account() fails
      const std::int64_t t1 = now_ns();
      run_.pass_cls_per_s.push_back(
          static_cast<double>(shape_.streams * shape_.pass_frames) /
          (static_cast<double>(t1 - t0) * 1e-9));
      run_.pass_ns.emplace_back(t0, t1);
      ++pass;
    }
    window_ = kNoWindow;
  }

  void open_loop(double seconds) {
    const double period_ns = 1e9 / shape_.rate_hz;
    const std::int64_t t_start = now_ns() + 20'000'000;
    t_start_ = t_start;
    const auto ticks = static_cast<std::uint64_t>(seconds * shape_.rate_hz);
    for (std::uint64_t tick = 0; tick < ticks; ++tick) {
      for (std::size_t s = 0; s < shape_.streams; ++s) {
        // Independent sensors: stream s runs s/N of a period behind.
        const auto due = t_start + static_cast<std::int64_t>(
            period_ns * (static_cast<double>(tick) +
                         static_cast<double>(s) /
                             static_cast<double>(shape_.streams)));
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(due)));
        submit_open(s, due);
      }
      Tracer::Scope sp(tracer_, "serve.poll", tick);
      for (std::size_t s = 0; s < shape_.streams; ++s) poll(s, shape_.slo_ms);
    }
    run_.schedule_s = static_cast<double>(now_ns() - t_start) * 1e-9;
    // Results still owed get until their deadline has surely passed.
    std::this_thread::sleep_for(std::chrono::milliseconds(shape_.slo_ms + 100));
    for (std::size_t s = 0; s < shape_.streams; ++s) poll(s, shape_.slo_ms);
    const std::size_t T = in_.window;
    for (std::size_t s = 0; s < shape_.streams; ++s)
      if (next_[s] >= T) run_.slo.due += next_[s] - (T - 1);
  }

  void finish() {
    snapshot_shards();
    svc_->stop();
    while (svc_->run_cycle() > 0) {
    }
    for (std::size_t s = 0; s < shape_.streams; ++s)
      poll(s, shape_.paced ? shape_.slo_ms : 0);
    const serving::ServiceHealth h = svc_->health();
    run_.faults = h.quarantined + h.errors + h.restarts;
    for (std::size_t s = 0; s < shape_.streams; ++s) {
      const serving::StreamStats st = svc_->stream_stats(sids_[s]);
      run_.accepted += st.accepted;
      run_.rejected += st.rejected_frames;
      run_.deadline_dropped += st.deadline_dropped;
      run_.deepest_queue = std::max(run_.deepest_queue, st.deepest_queue);
    }
  }

 private:
  void wait_processed(std::size_t frames) {
    const std::int64_t t0 = now_ns();
    for (;;) {
      std::uint64_t done = 0;
      for (std::size_t sh = 0; sh < shape_.shards; ++sh)
        done += svc_->shard_stats(sh).frames;
      if (done >= frames) return;
      if (now_ns() - t0 > 30'000'000'000LL)
        throw std::runtime_error("service did not consume its warm-up frames");
      std::this_thread::yield();
    }
  }

  void snapshot_shards() {
    run_.shards.clear();
    for (std::size_t sh = 0; sh < shape_.shards; ++sh)
      run_.shards.push_back(svc_->shard_stats(sh));
  }

  /// One closed-loop round: `frames` frames per stream, one cycle per
  /// shard, results collected.
  void round(std::size_t frames) {
    for (std::size_t f = 0; f < frames; ++f)
      for (std::size_t s = 0; s < shape_.streams; ++s) submit_lossless(s);
    pump();
  }

  /// One cycle of every shard on this thread, then every stream polled.
  /// Returns the frames the cycles consumed.
  std::size_t pump() {
    std::size_t consumed = 0;
    for (std::size_t sh = 0; sh < shape_.shards; ++sh) {
      Tracer::Scope sp(tracer_, "serving.run_shard_cycle", sh);
      const std::int64_t t0 = now_ns();
      consumed += svc_->run_shard_cycle(sh);
      run_.cycle_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    for (std::size_t s = 0; s < shape_.streams; ++s) poll(s, 0);
    return consumed;
  }

  void note_submit(std::size_t s, std::int64_t submit, std::int64_t due) {
    submit_ns_[s].push_back(submit);
    due_ns_[s].push_back(due);
    ++next_[s];
  }

  /// kNewest + retry: a full ring pushes back on the producer, which
  /// pumps the shards before it retries, so no frame is ever lost and
  /// every stream's frame sequence is exact.
  void submit_lossless(std::size_t s) {
    const std::uint64_t j = next_[s];
    Tracer::Scope sp(tracer_, "serving.submit_frame", (s << 32) | j);
    const std::int64_t t0 = now_ns();
    while (!svc_->submit_frame(sids_[s], in_.frame(shape_, s, j))) {
      if (pump() == 0)
        throw std::runtime_error("a full frame ring did not drain");
    }
    const std::int64_t t1 = now_ns();
    run_.submit_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    note_submit(s, t1, t1);
  }

  void submit_open(std::size_t s, std::int64_t due) {
    const std::uint64_t j = next_[s];
    Tracer::Scope sp(tracer_, "serving.submit_frame", (s << 32) | j);
    const std::int64_t t0 = now_ns();
    svc_->submit_frame(sids_[s], in_.frame(shape_, s, j));
    const std::int64_t t1 = now_ns();
    run_.submit_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    run_.lag_ms.push_back(static_cast<double>(t0 - due) * 1e-6);
    note_submit(s, t0, due);
  }

  void poll(std::size_t s, long slo_ms) {
    std::size_t n = 0;
    do {
      n = svc_->poll(sids_[s], std::span<serving::Classification>(buf_));
      const std::int64_t polled = now_ns();
      for (std::size_t i = 0; i < n; ++i) take(s, buf_[i], slo_ms, polled);
    } while (n == buf_.size());
  }

  /// Record one delivered classification. Its latency is, in the open
  /// loop, due → classified: (submit − due) + Classification::latency_ns;
  /// in the closed loop, submit → polled by the producer, the wait a
  /// caller sees. (A pumped round ends shard by shard, so submit →
  /// classified splits into one mode per shard and its median jumps
  /// between them.)
  void take(std::size_t s, const serving::Classification& c, long slo_ms,
            std::int64_t polled_ns) {
    ++run_.delivered;
    const double service_ms = static_cast<double>(c.latency_ns) * 1e-6;
    run_.service_ms.push_back(service_ms);
    const double from_due =
        shape_.paced
            ? static_cast<double>(submit_ns_[s][c.frame_seq] -
                                  due_ns_[s][c.frame_seq]) * 1e-6 +
                  service_ms
            : static_cast<double>(polled_ns - submit_ns_[s][c.frame_seq]) *
                  1e-6;
    // Latency samples are grouped by pass (closed loop) or by the two
    // seconds in which the frame was due (open loop); fill and pumped
    // frames are not load.
    std::size_t window = window_;
    if (shape_.paced && due_ns_[s][c.frame_seq] >= t_start_)
      window = static_cast<std::size_t>(
          (due_ns_[s][c.frame_seq] - t_start_) / kOpenWindowNs);
    if (window != kNoWindow) {
      run_.latency_ms.push_back(from_due);
      run_.latency_window.push_back(window);
    }
    if (shape_.paced) run_.slo.deliver(from_due, static_cast<double>(slo_ms));
    std::vector<bool>& got = run_.got[s];
    if (got.size() <= c.frame_seq) got.resize(c.frame_seq + 1, false);
    got[c.frame_seq] = true;
    Delivered d;
    d.stream = static_cast<std::uint32_t>(s);
    d.seq = c.frame_seq;
    std::memcpy(d.logits, c.logits, sizeof d.logits);
    run_.results.push_back(d);
  }

  static constexpr std::size_t kNoWindow = static_cast<std::size_t>(-1);

  const ServeInputs& in_;
  const ServeShape& shape_;
  ServeRun& run_;
  Tracer& tracer_;
  std::unique_ptr<serving::StreamingHarService> svc_;
  std::vector<std::size_t> sids_;
  std::vector<std::uint64_t> next_;  ///< next frame index per stream
  std::vector<std::vector<std::int64_t>> submit_ns_;
  std::vector<std::vector<std::int64_t>> due_ns_;
  std::vector<serving::Classification> buf_;
  std::size_t window_ = kNoWindow;
  std::int64_t t_start_ = 0;
};

/// Bit-for-bit comparison of sampled classifications against the offline
/// pipeline (compute_drai_sequence + HarModel::forward) on the same
/// window. A result is checkable when every frame of its window produced
/// a delivered result too — then its window is exactly frames
/// seq-T+1..seq, whatever the service dropped elsewhere.
void check_against_offline(const ServeInputs& in, const ServeShape& shape,
                           ServeRun& run) {
  const std::size_t T = in.window;
  const std::size_t per_stream = 4;
  std::vector<std::size_t> streams;
  for (std::size_t s = 0; s < shape.streams; s += std::max<std::size_t>(
                                                   1, shape.streams / 16))
    streams.push_back(s);
  if (streams.back() != shape.streams - 1)
    streams.push_back(shape.streams - 1);
  for (const std::size_t s : streams) {
    const std::vector<bool>& got = run.got[s];
    std::vector<const Delivered*> eligible;
    for (const Delivered& d : run.results) {
      if (d.stream != s || d.seq < 2 * T - 2) continue;
      bool window_clean = true;
      for (std::uint64_t q = d.seq + 1 - T; q <= d.seq && window_clean; ++q)
        window_clean = q < got.size() && got[q];
      if (window_clean) eligible.push_back(&d);
    }
    for (std::size_t k = 0; k < per_stream && k < eligible.size(); ++k) {
      const Delivered& d =
          *eligible[k * eligible.size() / std::min(per_stream, eligible.size())];
      std::vector<dsp::RadarCube> window;
      for (std::uint64_t q = d.seq + 1 - T; q <= d.seq; ++q)
        window.push_back(in.frame(shape, s, q));
      const Tensor seq = dsp::compute_drai_sequence(window, in.cfg.heatmap);
      const Tensor input({1, T, seq.dim(1), seq.dim(2)},
                         std::vector<float>(seq.flat().begin(),
                                            seq.flat().end()));
      const Tensor logits = in.model_of(shape, s).forward(input, false);
      ++run.checked;
      if (std::memcmp(logits.data(), d.logits,
                      logits.size() * sizeof(float)) != 0)
        ++run.mismatched;
    }
  }
}

ServeRun measure(const ServeInputs& in, const ServeShape& shape,
                 double seconds, Tracer& tracer) {
  ServeRun run;
  // Host speed for the closed loop's end-to-end figures. The open loop
  // starts shard workers, which must not inherit the sampler's pinning.
  std::optional<HostSpeedSampler> host;
  if (!shape.paced) host.emplace();
  Harness h(in, shape, run, tracer);
  const double per_s = shape.paced
                           ? shape.rate_hz * static_cast<double>(shape.streams)
                           : 3000.0;
  h.setup(kSetupReps, static_cast<std::size_t>(per_s * (seconds + 2.0)));
  if (shape.paced)
    h.open_loop(seconds);
  else
    h.closed_loop(seconds);
  if (host) {
    host->stop();
    run.host_scale = host->scale();
    run.host_samples = host->samples();
    for (const auto& [from, to] : run.pass_ns)
      run.pass_scale.push_back(host->scale_between(from, to));
  }
  h.finish();
  check_against_offline(in, shape, run);
  return run;
}

/// Output checks and the attempted/failed tally of one measurement.
void account(const ServeShape& shape, const ServeRun& run, Report& report) {
  if (run.checked == 0)
    report.fail_check("no classification could be compared with offline");
  if (run.mismatched != 0)
    report.fail_check(std::to_string(run.mismatched) + " of " +
                      std::to_string(run.checked) +
                      " classifications differ from the offline pipeline");
  std::uint64_t lost = 0;
  if (!shape.paced) {
    if (run.delivered != run.expected)
      report.fail_check("lossless run delivered " +
                        std::to_string(run.delivered) + " of " +
                        std::to_string(run.expected) + " results");
    lost = run.expected > run.delivered ? run.expected - run.delivered : 0;
  }
  if (run.faults != 0)
    report.fail_check(std::to_string(run.faults) +
                      " contained faults (quarantine/error/restart)");
  const std::uint64_t attempted = shape.paced ? run.slo.due : run.expected;
  report.tally.add(attempted + run.checked,
                   lost + run.faults + run.mismatched);
}

void saturate_layers(const ServeInputs& in, const ServeRun& run,
                     Report& report) {
  std::uint64_t frames = 0, cycles = 0, max_frames = 0;
  for (const serving::ShardStats& st : run.shards) {
    frames += st.frames;
    cycles += st.cycles;
    max_frames = std::max<std::uint64_t>(max_frames, st.frames);
  }
  const double fpc = cycles == 0 ? 0.0
                                 : static_cast<double>(frames) /
                                       static_cast<double>(cycles);
  report.metric("serving.frames_per_cycle", fpc, "count");
  report.metric("serving.shard_imbalance",
                static_cast<double>(max_frames) /
                    (static_cast<double>(frames) /
                     static_cast<double>(run.shards.size())),
                "ratio");
  report.metric("serving.cycle_ms", median(run.cycle_ms), "ms");
  report.metric("serving.submit_rejects_per_frame",
                static_cast<double>(run.rejected) /
                    static_cast<double>(std::max<std::uint64_t>(1, run.accepted)),
                "ratio");

  // Kernels at the observed round shape, called directly.
  const serving::ServingConfig& cfg = in.cfg;
  const std::size_t n_frames = std::max<std::size_t>(
      1, static_cast<std::size_t>(fpc + 0.5));
  const std::size_t range_bins = cfg.heatmap.range_bins;
  const std::size_t spectra_elems =
      cfg.num_chirps * cfg.num_antennas * range_bins;
  std::vector<dsp::cfloat> spectra(n_frames * spectra_elems);
  std::vector<float> drai(n_frames * range_bins * cfg.heatmap.angle_bins);
  std::vector<dsp::FftManyIo> range_ios(n_frames);
  std::vector<dsp::FftManyMagIo> angle_ios(n_frames);
  for (std::size_t i = 0; i < n_frames; ++i) {
    range_ios[i] = {in.clean[i % in.clean.size()].raw().data(),
                    spectra.data() + i * spectra_elems};
    angle_ios[i] = {spectra.data() + i * spectra_elems,
                    drai.data() + i * range_bins * cfg.heatmap.angle_bins};
  }
  dsp::FftManyJob range_job;
  range_job.n = cfg.num_samples;
  range_job.in_len = cfg.num_samples;
  range_job.window =
      dsp::cached_window(cfg.heatmap.range_window, cfg.num_samples).data();
  range_job.lanes = cfg.num_chirps * cfg.num_antennas;
  range_job.in_lane_stride = cfg.num_samples;
  dsp::FftManyJob angle_job;
  angle_job.n = cfg.heatmap.angle_bins;
  angle_job.in_len = cfg.num_antennas;
  angle_job.lanes = range_bins;
  angle_job.in_lane_stride = 1;
  angle_job.in_elem_stride = range_bins;
  angle_job.reps = cfg.num_chirps;
  angle_job.in_rep_stride = cfg.num_antennas * range_bins;
  std::vector<double> range_us, angle_us;
  for (int r = 0; r < 30; ++r) {
    std::int64_t t0 = now_ns();
    dsp::fft_many_crop_multi(range_job, range_bins, range_ios, range_bins, 1);
    range_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3 /
                       static_cast<double>(n_frames * range_job.lanes));
    t0 = now_ns();
    dsp::fft_many_mag_accum_multi(angle_job, true, angle_ios,
                                  cfg.heatmap.angle_bins, 1);
    angle_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3 /
                       static_cast<double>(n_frames * angle_job.lanes));
  }
  report.metric("dsp.range_fft_us_per_lane", median(range_us), "us");
  report.metric("dsp.angle_fft_us_per_lane", median(angle_us), "us");

  // Inference at the observed batch and at batch 1.
  const har::InferencePlan plan = har::build_inference_plan(*in.model_a);
  const har::HarModelConfig& mc = plan.config;
  har::InferenceScratch scratch;
  scratch.reserve(plan, n_frames);
  const std::size_t row = mc.frames * mc.height * mc.width;
  std::vector<float> input(n_frames * row);
  Rng rng(5);
  for (float& v : input) v = static_cast<float>(rng.uniform());
  std::vector<float> logits(n_frames * mc.num_classes);
  auto infer_ms_per_row = [&](std::size_t batch) {
    std::vector<double> ms;
    for (int r = 0; r < 10; ++r) {
      const std::int64_t t0 = now_ns();
      har::infer_forward(plan, scratch, input.data(), batch, logits.data());
      ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6 /
                   static_cast<double>(batch));
    }
    return median(ms);
  };
  report.metric("har.infer_ms_per_row", infer_ms_per_row(n_frames), "ms");
  report.metric("har.infer_ms_per_row_b1", infer_ms_per_row(1), "ms");

  // GEMM at the two CNN conv shapes (per frame, as inference calls it).
  // Op count and bytes per call are computed from the operand sizes.
  struct Shape { const PackedA* a; std::size_t n; };
  const Shape shapes[] = {{&plan.conv1_w, plan.h1 * plan.w1},
                          {&plan.conv2_w, plan.h2 * plan.w2}};
  double flops = 0.0, seconds = 0.0;
  std::string note;
  for (const Shape& sh : shapes) {
    const std::size_t m = sh.a->m, k = sh.a->k, n = sh.n;
    std::vector<float> b(k * n), c(m * n);
    for (float& v : b) v = static_cast<float>(rng.uniform());
    const int calls = 400;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < calls; ++i)
      sgemm_packed_a_serial(*sh.a, n, 1.0F, b.data(), 0.0F, c.data());
    seconds += static_cast<double>(now_ns() - t0) * 1e-9;
    const double per_call = 2.0 * static_cast<double>(m * k * n);
    flops += per_call * calls;
    note += "m=" + std::to_string(m) + " k=" + std::to_string(k) +
            " n=" + std::to_string(n) + " flop/call=" +
            std::to_string(static_cast<long long>(per_call)) +
            " bytes/call=" + std::to_string(4 * (m * k + k * n + m * n)) +
            "; ";
  }
  report.metric("tensor.gemm_gflops", flops / seconds * 1e-9, "GFLOP/s");
  report.note("tensor.gemm_shapes",
              note + "computed from tensor sizes, not counted by hardware");
}

void paced_layers(const ServeRun& run, Report& report) {
  report.metric("serving.due_p99_ms", summarize(run.latency_ms).p99, "ms");
  report.metric("serving.service_p99_ms", summarize(run.service_ms).p99, "ms");
  report.metric("serving.submit_us_p99", summarize(run.submit_us).p99, "us");
  report.metric("serving.deadline_drop_share",
                static_cast<double>(run.deadline_dropped) /
                    static_cast<double>(std::max<std::uint64_t>(1, run.accepted)),
                "share");
  report.metric("serving.deepest_queue",
                static_cast<double>(run.deepest_queue), "count");
  report.metric("loadgen.lag_p99_ms", summarize(run.lag_ms).p99, "ms");
}

/// The end-to-end metrics shared by every workload, from the closed loop.
/// Timings are at the reference host's speed (see host_speed.h): each
/// pass's throughput and latencies scaled by the host's speed over that
/// pass, set-up by the run's.
void end_to_end(const ServeRun& run, Report& report) {
  std::vector<double> ref_cls_per_s, ref_latency_ms;
  for (std::size_t p = 0; p < run.pass_cls_per_s.size(); ++p)
    ref_cls_per_s.push_back(run.pass_cls_per_s[p] / run.pass_scale[p]);
  for (std::size_t i = 0; i < run.latency_ms.size(); ++i) {
    const std::size_t p = run.latency_window[i];
    ref_latency_ms.push_back(run.latency_ms[i] * (p < run.pass_scale.size()
                                                      ? run.pass_scale[p]
                                                      : run.host_scale));
  }
  const WindowedMedian lat = median_of_windows(
      ref_latency_ms, run.latency_window, kMinWindowSamples);
  const Summary whole = summarize(run.latency_ms);
  const double scale = run.host_scale;
  report.metric("setup_s", median(run.setup_s) * scale, "s");
  report.metric("results_per_s", median(ref_cls_per_s), "1/s");
  report.metric("p50_ms", lat.p50, "ms");
  report.detail("host.scale", scale);
  report.detail("host.samples", static_cast<double>(run.host_samples));
  report.detail("wall.setup_s", median(run.setup_s));
  report.detail("wall.results_per_s", median(run.pass_cls_per_s));
  report.detail("wall.p50_ms",
                median_of_windows(run.latency_ms, run.latency_window,
                                  kMinWindowSamples).p50);
  report.detail("latency.samples", static_cast<double>(lat.samples));
  report.detail("latency.windows", static_cast<double>(lat.windows));
  report.detail("latency.p99_ms", whole.p99);
  report.detail("latency.beyond_p99", static_cast<double>(whole.beyond_p99));
  report.detail("serve.passes", static_cast<double>(run.pass_cls_per_s.size()));
  report.detail("serve.slo_due", static_cast<double>(run.slo.due));
  report.detail("serve.slo_miss_share", run.slo.miss_share());
  report.detail("serve.delivered", static_cast<double>(run.delivered));
  report.detail("serve.checked_vs_offline", static_cast<double>(run.checked));
  report.detail("serve.service_p99_ms", summarize(run.service_ms).p99);
}

}  // namespace

void run_saturate_workload(const RunOptions& opt, Report& report,
                           Tracer& tracer) {
  const ServeShape& shape = kSaturate;
  const ServeInputs in = make_inputs(opt.seed, shape);
  report.detail("serve.streams", static_cast<double>(shape.streams));
  report.detail("serve.shards", static_cast<double>(shape.shards));
  Tracer off(false);
  if (!opt.trace) {
    const ServeRun run = measure(in, shape, opt.seconds, off);
    account(shape, run, report);
    end_to_end(run, report);
    return;
  }
  // Traced: an untraced half and a traced half of the same inputs; the
  // overhead is the relative extra time per result.
  const ServeRun plain = measure(in, shape, opt.seconds / 2, off);
  const ServeRun traced = measure(in, shape, opt.seconds / 2, tracer);
  account(shape, plain, report);
  account(shape, traced, report);
  report.metric("trace.overhead_share",
                median(plain.pass_cls_per_s) / median(traced.pass_cls_per_s) -
                    1.0,
                "share");
  saturate_layers(in, traced, report);
  serving_layer_metrics(opt.seed, report, tracer);
  attack_layer_metrics(make_attack_setup(opt.seed, /*mini=*/true),
                       opt.cache_root, report, tracer);
}

void serving_layer_metrics(std::uint64_t seed, Report& report,
                           Tracer& tracer) {
  // Long enough for three closed-loop passes and one full open-loop
  // latency window.
  const double probe_s = 3.0;
  if (!report.has("serving.frames_per_cycle")) {
    const ServeInputs in = make_inputs(seed, kSaturate);
    const ServeRun run = measure(in, kSaturate, probe_s, tracer);
    account(kSaturate, run, report);
    saturate_layers(in, run, report);
  }
  if (!report.has("serving.service_p99_ms")) {
    const ServeInputs in = make_inputs(seed, kPaced);
    const ServeRun run = measure(in, kPaced, probe_s, tracer);
    account(kPaced, run, report);
    paced_layers(run, report);
  }
}

}  // namespace perfbench
