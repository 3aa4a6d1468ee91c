#include "serving/serving.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>

#include "common/check.h"
#include "common/env.h"
#include "common/fault_injection.h"
#include "common/finite_check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "serving/affinity.h"

namespace mmhar::serving {

using Clock = std::chrono::steady_clock;

namespace {

// Idle-side self-healing: a worker whose condvar wait times out runs a
// probe cycle, so a lost wake-up or a pending count left stale by a
// crashed predecessor costs at most this much latency, never starvation.
constexpr std::chrono::milliseconds kIdlePoll{100};

// Consecutive zero-consume cycles before a worker clamps a stale positive
// pending count back to zero (a genuine mid-submit race clears in one or
// two cycles; a crash that leaked claimed frames never clears on its own).
constexpr int kZeroConsumeClamp = 64;

// Longest a worker may spend in one wake-up before the watchdog declares
// it stalled. A healthy cycle takes milliseconds (tens under sanitizers);
// the budget is wall time, independent of the watchdog's cadence, so a
// loaded host that merely delays a pass never reads as a stall.
constexpr std::chrono::seconds kCycleBudget{2};

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// The containment idiom of every fused stage of a cycle (range FFT, angle
// FFT, inference): run the fused call over all items; if it throws
// mmhar::Error, or `degraded` is already set, rerun each live item alone.
// Per-lane FFT and per-row GEMM arithmetic is independent of batch
// composition, so the reruns are bit-identical to the fused result and
// only the items whose own rerun throws are sacrificed: dead[i] is set and
// on_fault(i) attributes the fault. Items already marked dead are
// skipped; single(i, k) gets item i's index and its position k among the
// live items.
template <typename Fused, typename Single, typename OnFault>
void fused_or_each(bool degraded, std::size_t n, std::uint8_t* dead,
                   const Fused& fused, const Single& single,
                   const OnFault& on_fault) {
  if (!degraded) {
    try {
      fused();
      return;
    } catch (const Error&) {
      // Fall through to the per-item reruns.
    }
  }
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (dead[i] != 0) continue;
    try {
      single(i, k);
    } catch (const Error&) {
      dead[i] = 1;
      on_fault(i);
    }
    ++k;
  }
}

}  // namespace

// ---- Internal state records ------------------------------------------------

// One radar stream: a bounded frame ring feeding its affinity shard and a
// bounded result ring feeding poll(). Slot payloads move through a
// free-list / queued-FIFO hand-off: a slot index lives in exactly one of
// {free list, queued ring, a producer's hands, the shard's claim list}
// at any time, so payload buffers are single-writer/single-reader without
// holding the lock across the (large) frame copy.
struct StreamingHarService::Stream {
  Stream(std::size_t depth, std::size_t frame_elems, std::size_t rdepth,
         std::size_t shard_idx, std::size_t model_idx)
      : shard(shard_idx),
        model(model_idx),
        free_list(depth),
        queued(depth),
        slot_seq(depth, 0),
        slot_arrival(depth),
        slot_data(depth, std::vector<dsp::cfloat>(frame_elems)),
        results(rdepth) {
    for (std::size_t i = 0; i < depth; ++i) free_list[i] = i;
    free_count = depth;
  }

  const std::size_t shard;  ///< affinity shard (immutable)
  const std::size_t model;  ///< ModelRegistry id (immutable)

  mutable Mutex mu;
  std::vector<std::size_t> free_list MMHAR_GUARDED_BY(mu);  ///< slot stack
  std::size_t free_count MMHAR_GUARDED_BY(mu) = 0;
  std::vector<std::size_t> queued MMHAR_GUARDED_BY(mu);  ///< slot FIFO ring
  std::size_t qhead MMHAR_GUARDED_BY(mu) = 0;
  std::size_t qcount MMHAR_GUARDED_BY(mu) = 0;
  std::vector<std::uint64_t> slot_seq MMHAR_GUARDED_BY(mu);
  std::vector<Clock::time_point> slot_arrival MMHAR_GUARDED_BY(mu);
  std::uint64_t next_seq MMHAR_GUARDED_BY(mu) = 0;
  std::uint64_t submitted MMHAR_GUARDED_BY(mu) = 0;
  std::uint64_t accepted MMHAR_GUARDED_BY(mu) = 0;
  std::uint64_t dropped MMHAR_GUARDED_BY(mu) = 0;
  std::uint64_t rejected MMHAR_GUARDED_BY(mu) = 0;
  std::uint64_t deadline_dropped MMHAR_GUARDED_BY(mu) = 0;
  std::uint64_t deepest_queue MMHAR_GUARDED_BY(mu) = 0;
  // Fault containment (DESIGN.md §6c): quarantine/error totals, the
  // consecutive-fault streak driving suspension, and the suspension
  // state itself. All mutated by the owning shard's cycle (plus read by
  // stream_stats/health), under the same mutex as the ring hand-off —
  // the hot path pays no extra lock for them.
  std::uint64_t quarantined MMHAR_GUARDED_BY(mu) = 0;
  std::uint64_t errors MMHAR_GUARDED_BY(mu) = 0;
  std::uint64_t suspended_dropped MMHAR_GUARDED_BY(mu) = 0;
  std::uint64_t suspensions MMHAR_GUARDED_BY(mu) = 0;
  std::size_t consecutive_faults MMHAR_GUARDED_BY(mu) = 0;
  bool suspended MMHAR_GUARDED_BY(mu) = false;
  // Payload buffers: published by the mutex acquire/release around the
  // slot-index hand-offs above, never accessed under the lock itself.
  // mmhar-analyze: allow(lock-annotation-coverage)
  std::vector<std::vector<dsp::cfloat>> slot_data;

  mutable Mutex results_mu;
  std::vector<Classification> results MMHAR_GUARDED_BY(results_mu);
  std::size_t rhead MMHAR_GUARDED_BY(results_mu) = 0;
  std::size_t rcount MMHAR_GUARDED_BY(results_mu) = 0;
  std::uint64_t classifications MMHAR_GUARDED_BY(results_mu) = 0;
  std::uint64_t dropped_results MMHAR_GUARDED_BY(results_mu) = 0;
};

// Per-shard wake-up state: `pending` counts frames sitting in the shard's
// stream queues (eventually consistent — producers increment after
// enqueueing, the shard decrements by the number it consumed, so it may
// transiently dip negative or lag reality by an in-flight submit).
struct Sched {
  Mutex mu;
  CondVar cv;
  std::int64_t pending MMHAR_GUARDED_BY(mu) = 0;
  bool stop MMHAR_GUARDED_BY(mu) = false;
  bool parked MMHAR_GUARDED_BY(mu) = false;  ///< wedged (serving.shard_stall)
};

struct StreamingHarService::Registry {
  mutable Mutex mu;
  std::vector<std::unique_ptr<Stream>> streams MMHAR_GUARDED_BY(mu);
};

// The normalization a stream's cached feature rows were computed under:
// its model and the bits of its window's (lo, hi). Bits, not float ==:
// -0.0 and +0.0 compare equal but give different bits for x - lo when
// x = -0.0.
struct FeatureKey {
  std::size_t model = 0;
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  bool valid = false;
  bool operator==(const FeatureKey&) const = default;
};

// Per-stream sliding window of the last T DRAI frames (after the dB step,
// before normalization), as a ring; `next` is the write position and,
// once filled, also the oldest frame. Beside each ring slot sits the
// CNN feature row of a frame normalized under `key`; a row is current
// while `key` is valid and the row's feat_seq equals the slot's frame
// seq. A key change rewrites all T rows, so every current row was
// computed under the current key. Indexed by global stream id; written
// only by the owning shard's cycle, and kept across shard restarts.
struct StreamingHarService::WindowTable {
  struct StreamWindow {
    std::vector<float> drai;             ///< [T][R][A]
    std::vector<std::uint64_t> seq;      ///< frame seq per ring slot
    std::vector<float> feats;            ///< [T][F] cached feature rows
    std::vector<std::uint64_t> feat_seq; ///< frame seq per feature row
    FeatureKey key;                      ///< normalization of every row
    std::size_t next = 0;
    std::size_t filled = 0;
  };
  std::vector<StreamWindow> w;
};

// One batcher shard: wake-up state, the worker thread, and the cycle
// arenas. Everything outside `sched` and the atomics is touched only by
// whichever single thread runs this shard's cycle (the worker, or the
// owner when pumping manually), so it needs no locking. All buffers are
// sized once in the constructor; the cycle refills them through explicit
// fill counters (n_cycle_streams, n_jobs, the per-round claim count) so
// the steady-state path contains no container-growth call at all — which
// is what lets mmhar_rtcheck prove the zero-allocation contract
// statically instead of sampling it.
struct StreamingHarService::Shard {
  struct Claim {
    Stream* stream = nullptr;
    std::size_t stream_id = 0;  ///< global id (WindowTable index)
    std::size_t slot = 0;
    std::uint64_t seq = 0;
    Clock::time_point arrival;
  };
  struct Job {
    Stream* stream = nullptr;
    std::size_t stream_id = 0;
    std::size_t model = 0;
    std::uint64_t seq = 0;           ///< newest window frame
    Clock::time_point arrival;       ///< newest window frame submit time
    dsp::DraiRange range;            ///< the window's min-max range
  };

  Sched sched;
  std::thread worker;

  // Single-writer shard counters; relaxed atomics so shard_stats can
  // snapshot them while the worker runs.
  std::atomic<std::uint64_t> stat_cycles{0};
  std::atomic<std::uint64_t> stat_frames{0};
  std::atomic<std::uint64_t> stat_classifications{0};
  std::atomic<std::uint64_t> stat_deadline_dropped{0};
  std::atomic<std::uint64_t> stat_faults{0};
  std::atomic<std::uint64_t> stat_cnn_computed{0};
  std::atomic<std::uint64_t> stat_cnn_reused{0};

  // Supervision state. heartbeat is bumped by the worker once per
  // wake-up; busy_since_ns is the steady-clock time the current wake-up
  // began (0 while the worker waits), read by the watchdog against
  // kCycleBudget. crashed is set (release) by a worker that caught an
  // escaped exception and parked itself; stalled is a watchdog-owned
  // diagnostic flag. stat_restarts counts supervised restarts
  // (watchdog-written).
  std::atomic<std::uint64_t> heartbeat{0};
  std::atomic<std::int64_t> busy_since_ns{0};
  std::atomic<bool> crashed{false};
  std::atomic<bool> stalled{false};
  std::atomic<std::uint64_t> stat_restarts{0};

  std::vector<Stream*> cycle_streams;    ///< first n_cycle_streams valid
  std::vector<std::size_t> cycle_ids;    ///< matching global stream ids
  std::size_t n_cycle_streams = 0;
  std::vector<Claim> claims;             ///< current round only
  std::vector<dsp::FftManyIo> range_ios;
  std::vector<dsp::FftManyMagIo> angle_ios;
  std::vector<dsp::cfloat> spectra;      ///< per-round spectra arena
  std::vector<Job> jobs;                 ///< whole cycle; first n_jobs valid
  std::size_t n_jobs = 0;
  std::vector<float> series;             ///< feature series [jobs x T x F]
  std::vector<float> chunk;              ///< normalized CNN input [T x R x A]
  std::vector<float> chunk_feats;        ///< its feature rows [T x F]
  std::vector<float*> chunk_rows;        ///< series row of each chunk frame
  std::vector<float> logits;             ///< [jobs x C]
  std::vector<float> model_series;       ///< per-model gather, 2+ models only
  std::vector<float> model_logits;       ///< per-model logits [jobs x C]
  std::vector<std::size_t> model_rows;   ///< job index per gathered row
  std::vector<std::uint8_t> claim_dead;  ///< per-claim containment marks
  std::vector<std::uint8_t> job_dead;    ///< per-job containment marks
  har::InferenceScratch scratch;
  std::size_t rr = 0;                    ///< round-robin fairness offset
};

// Watchdog wake-up state: a plain stop/notify pair; the cadence comes
// from CondVar::wait_for so stop() never waits out a full period.
struct StreamingHarService::WatchdogState {
  Mutex mu;
  CondVar cv;
  bool stop MMHAR_GUARDED_BY(mu) = false;
};

// ---- Configuration ---------------------------------------------------------

ServingConfig ServingConfig::from_env() {
  ServingConfig cfg;
  cfg.batch_max = static_cast<std::size_t>(
      env_int("MMHAR_SERVING_BATCH", static_cast<long>(cfg.batch_max)));
  cfg.queue_depth = static_cast<std::size_t>(
      env_int("MMHAR_SERVING_QUEUE_DEPTH",
              static_cast<long>(cfg.queue_depth)));
  cfg.num_shards = static_cast<std::size_t>(
      env_int("MMHAR_SERVING_SHARDS", static_cast<long>(cfg.num_shards)));
  cfg.slo_ms = env_int("MMHAR_SERVING_SLO_MS", cfg.slo_ms);
  cfg.max_stream_faults = static_cast<std::size_t>(
      env_int("MMHAR_SERVING_MAX_STREAM_FAULTS",
              static_cast<long>(cfg.max_stream_faults)));
  cfg.watchdog_ms = env_int("MMHAR_SERVING_WATCHDOG_MS", cfg.watchdog_ms);
  const std::string policy = env_string("MMHAR_SERVING_DROP_POLICY", "oldest");
  MMHAR_REQUIRE(policy == "oldest" || policy == "newest",
                "MMHAR_SERVING_DROP_POLICY must be 'oldest' or 'newest', got "
                    << policy);
  cfg.drop_policy =
      policy == "newest" ? DropPolicy::kNewest : DropPolicy::kOldest;
  return cfg;
}

// ---- Service ---------------------------------------------------------------

StreamingHarService::StreamingHarService(const ServingConfig& config,
                                         har::HarModel& model)
    : config_(config),
      stages_(config.num_chirps, config.num_antennas, config.num_samples,
              config.heatmap),
      models_(model) {
  const har::HarModelConfig& mc = model.config();
  const dsp::HeatmapConfig& hm = config.heatmap;
  MMHAR_REQUIRE(config.max_streams > 0 && config.queue_depth > 0 &&
                    config.batch_max > 0 && config.result_depth > 0,
                "ServingConfig: all capacities must be positive");
  MMHAR_REQUIRE(config.num_shards > 0,
                "ServingConfig: num_shards must be positive");
  MMHAR_REQUIRE(config.slo_ms >= 0,
                "ServingConfig: slo_ms must be non-negative (0 = disabled)");
  MMHAR_REQUIRE(config.watchdog_ms >= 0,
                "ServingConfig: watchdog_ms must be non-negative "
                "(0 = unsupervised)");
  MMHAR_REQUIRE(hm.range_bins == mc.height && hm.angle_bins == mc.width,
                "ServingConfig: heatmap dims must match the model ("
                    << mc.height << "x" << mc.width << ")");
  MMHAR_REQUIRE(mc.num_classes <= kMaxServingClasses,
                "ServingConfig: num_classes exceeds kMaxServingClasses");

  window_frames_ = mc.frames;
  feature_dim_ = mc.feature_dim;
  num_classes_ = mc.num_classes;
  deadline_enabled_ = config.slo_ms > 0;
  deadline_budget_ = std::chrono::milliseconds(config.slo_ms);
  registry_ = std::make_unique<Registry>();
  {
    MutexLock lk(registry_->mu);
    registry_->streams.reserve(config.max_streams);
  }

  const std::size_t hw = stages_.drai_elems();
  const std::size_t spectra_elems = stages_.spectra_elems();
  const std::size_t series_len = window_frames_ * feature_dim_;
  windows_ = std::make_unique<WindowTable>();
  windows_->w.resize(config.max_streams);
  for (WindowTable::StreamWindow& w : windows_->w) {
    w.drai.resize(window_frames_ * hw);
    w.seq.resize(window_frames_, 0);
    w.feats.resize(series_len);
    w.feat_seq.resize(window_frames_, 0);
  }

  shards_.reserve(config.num_shards);
  for (std::size_t i = 0; i < config.num_shards; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->cycle_streams.resize(config.max_streams, nullptr);
    sh->cycle_ids.resize(config.max_streams, 0);
    sh->claims.resize(config.batch_max);
    sh->range_ios.resize(config.batch_max);
    sh->angle_ios.resize(config.batch_max);
    sh->spectra.resize(config.batch_max * spectra_elems);
    sh->jobs.resize(config.batch_max);
    sh->series.resize(config.batch_max * series_len);
    sh->chunk.resize(window_frames_ * hw);
    sh->chunk_feats.resize(series_len);
    sh->chunk_rows.resize(window_frames_, nullptr);
    sh->logits.resize(config.batch_max * num_classes_);
    sh->model_logits.resize(config.batch_max * num_classes_);
    sh->model_rows.resize(config.batch_max);
    sh->claim_dead.resize(config.batch_max, 0);
    sh->job_dead.resize(config.batch_max, 0);
    // The CNN runs one T-frame chunk at a time (batch 1 in the fallback);
    // only the LSTM and head see a whole cycle's batch.
    sh->scratch.reserve(models_.plan(0), 1);
    sh->scratch.reserve_classifier(models_.plan(0), config.batch_max);
    shards_.push_back(std::move(sh));
  }
  watchdog_ = std::make_unique<WatchdogState>();
}

StreamingHarService::~StreamingHarService() { stop(); }

std::size_t StreamingHarService::add_model(har::HarModel& model) {
  MMHAR_REQUIRE(!started_,
                "add_model: models must be registered before start() — "
                "running shards read the registry lock-free");
  const std::size_t id = models_.add(model);
  // Grouping rows by model needs a gather buffer from the second model on.
  for (std::unique_ptr<Shard>& sh : shards_)
    sh->model_series.resize(config_.batch_max * window_frames_ * feature_dim_);
  return id;
}

std::size_t StreamingHarService::add_stream(std::size_t model_id) {
  MMHAR_REQUIRE(model_id < models_.size(),
                "add_stream: unknown model id " << model_id << " ("
                    << models_.size() << " registered)");
  const std::size_t frame_elems =
      config_.num_chirps * config_.num_antennas * config_.num_samples;
  MutexLock lk(registry_->mu);
  MMHAR_REQUIRE(registry_->streams.size() < config_.max_streams,
                "add_stream: all " << config_.max_streams
                                   << " stream slots are active");
  const std::size_t id = registry_->streams.size();
  const std::size_t shard = shard_for_key(id, config_.num_shards);
  registry_->streams.push_back(std::make_unique<Stream>(
      config_.queue_depth, frame_elems, config_.result_depth, shard,
      model_id));
  return id;
}

StreamingHarService::Stream* StreamingHarService::stream_ptr(
    std::size_t idx) const {
  MutexLock lk(registry_->mu);
  MMHAR_REQUIRE(idx < registry_->streams.size(),
                "unknown stream id " << idx);
  return registry_->streams[idx].get();
}

std::size_t StreamingHarService::shard_of_stream(std::size_t stream) const {
  return stream_ptr(stream)->shard;
}

bool StreamingHarService::submit_frame(std::size_t stream,
                                       const dsp::RadarCube& cube) {
  MMHAR_REQUIRE(cube.num_chirps() == config_.num_chirps &&
                    cube.num_antennas() == config_.num_antennas &&
                    cube.num_samples() == config_.num_samples,
                "submit_frame: cube geometry does not match ServingConfig");
  Stream* s = stream_ptr(stream);
  const Clock::time_point now = Clock::now();

  std::size_t slot = 0;
  bool evicted = false;
  {
    MutexLock lk(s->mu);
    ++s->submitted;
    if (s->free_count > 0) {
      slot = s->free_list[--s->free_count];
    } else if (config_.drop_policy == DropPolicy::kOldest && s->qcount > 0) {
      // Evict the oldest *queued* frame and reuse its slot; claimed
      // (in-flight) frames are never dropped.
      slot = s->queued[s->qhead];
      s->qhead = (s->qhead + 1) % config_.queue_depth;
      --s->qcount;
      ++s->dropped;
      evicted = true;
    } else {
      ++s->rejected;
      return false;
    }
  }

  // Copy the frame outside the lock: the slot index is exclusively ours
  // until we publish it to the queued ring below.
  std::copy(cube.raw().begin(), cube.raw().end(), s->slot_data[slot].begin());

  {
    MutexLock lk(s->mu);
    ++s->accepted;
    s->slot_seq[slot] = s->next_seq++;
    s->slot_arrival[slot] = now;
    s->queued[(s->qhead + s->qcount) % config_.queue_depth] = slot;
    ++s->qcount;
    if (s->qcount > s->deepest_queue) s->deepest_queue = s->qcount;
  }

  // Eviction removed one queued frame and this submit added one, so the
  // pending count only moves on a non-evicting admit. Only the stream's
  // affinity shard is woken — the others have no claim on this frame.
  if (!evicted) {
    Sched& sched = shards_[s->shard]->sched;
    MutexLock lk(sched.mu);
    ++sched.pending;
    sched.cv.notify_one();
  }
  return true;
}

std::size_t StreamingHarService::poll(std::size_t stream,
                                      std::span<Classification> out) {
  Stream* s = stream_ptr(stream);
  MutexLock lk(s->results_mu);
  const std::size_t n = std::min(out.size(), s->rcount);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = s->results[s->rhead];
    s->rhead = (s->rhead + 1) % config_.result_depth;
  }
  s->rcount -= n;
  return n;
}

StreamStats StreamingHarService::stream_stats(std::size_t stream) const {
  Stream* s = stream_ptr(stream);
  StreamStats st;
  {
    MutexLock lk(s->mu);
    st.submitted = s->submitted;
    st.accepted = s->accepted;
    st.dropped_frames = s->dropped;
    st.rejected_frames = s->rejected;
    st.deadline_dropped = s->deadline_dropped;
    st.deepest_queue = s->deepest_queue;
    st.quarantined = s->quarantined;
    st.errors = s->errors;
    st.suspended_dropped = s->suspended_dropped;
    st.suspensions = s->suspensions;
    st.suspended = s->suspended;
  }
  {
    MutexLock lk(s->results_mu);
    st.classifications = s->classifications;
    st.dropped_results = s->dropped_results;
  }
  return st;
}

ShardStats StreamingHarService::shard_stats(std::size_t shard) const {
  MMHAR_REQUIRE(shard < shards_.size(), "unknown shard " << shard);
  const Shard& sh = *shards_[shard];
  ShardStats st;
  st.cycles = sh.stat_cycles.load(std::memory_order_relaxed);
  st.frames = sh.stat_frames.load(std::memory_order_relaxed);
  st.classifications = sh.stat_classifications.load(std::memory_order_relaxed);
  st.deadline_dropped =
      sh.stat_deadline_dropped.load(std::memory_order_relaxed);
  st.cnn_frames_computed = sh.stat_cnn_computed.load(std::memory_order_relaxed);
  st.cnn_frames_reused = sh.stat_cnn_reused.load(std::memory_order_relaxed);
  return st;
}

ServiceHealth StreamingHarService::health() const {
  ServiceHealth h;
  h.watchdog_running = watchdog_running_.load(std::memory_order_relaxed);
  h.shards.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& sh : shards_) {
    ShardHealth sd;
    sd.crashed = sh->crashed.load(std::memory_order_acquire);
    sd.stalled = sh->stalled.load(std::memory_order_relaxed);
    sd.heartbeat = sh->heartbeat.load(std::memory_order_relaxed);
    sd.restarts = sh->stat_restarts.load(std::memory_order_relaxed);
    sd.faults = sh->stat_faults.load(std::memory_order_relaxed);
    h.restarts += sd.restarts;
    h.shards.push_back(sd);
  }
  MutexLock lk(registry_->mu);
  for (const std::unique_ptr<Stream>& s : registry_->streams) {
    MutexLock slk(s->mu);
    h.quarantined += s->quarantined;
    h.errors += s->errors;
    if (s->suspended) ++h.suspended_streams;
  }
  return h;
}

// Claim at most one live queued frame per stream of this shard
// (round-robin, rotating start so no stream starves), up to `budget`
// total. Frames whose admission deadline has already passed are discarded
// on the way (their count lands in *expired and the per-stream
// deadline_dropped counter) — deadline scheduling replaces FIFO-oldest:
// a shard never spends its cycle on work nobody can use. A suspended
// stream first sheds its backlog (all but the newest queued frame,
// counted in *shed and suspended_dropped — the queue is at most
// queue_depth deep, so shedding is bounded without charging the budget)
// and then claims the survivor as its recovery probe. Claims land in
// sh.claims in per-stream FIFO order.
std::size_t StreamingHarService::claim_round(Shard& sh, std::size_t budget,
                                             std::size_t* expired,
                                             std::size_t* shed) {
  *expired = 0;
  *shed = 0;
  const std::size_t n = sh.n_cycle_streams;
  if (n == 0 || budget == 0) return 0;
  const Clock::time_point now =
      deadline_enabled_ ? Clock::now() : Clock::time_point{};
  std::size_t got = 0;
  for (std::size_t k = 0; k < n && got < budget; ++k) {
    const std::size_t idx = (sh.rr + k) % n;
    Stream* s = sh.cycle_streams[idx];
    MutexLock lk(s->mu);
    if (s->suspended) {
      while (s->qcount > 1) {
        const std::size_t slot = s->queued[s->qhead];
        s->qhead = (s->qhead + 1) % config_.queue_depth;
        --s->qcount;
        s->free_list[s->free_count++] = slot;
        ++s->suspended_dropped;
        ++*shed;
      }
    }
    while (s->qcount > 0) {
      const std::size_t slot = s->queued[s->qhead];
      s->qhead = (s->qhead + 1) % config_.queue_depth;
      --s->qcount;
      if (deadline_enabled_ &&
          now >= s->slot_arrival[slot] + deadline_budget_) {
        s->free_list[s->free_count++] = slot;
        ++s->deadline_dropped;
        ++*expired;
        continue;  // scan on: a younger queued frame may still be live
      }
      sh.claims[got] = {s, sh.cycle_ids[idx], slot, s->slot_seq[slot],
                        s->slot_arrival[slot]};
      ++got;
      break;
    }
  }
  sh.rr = (sh.rr + 1) % n;
  return got;
}

// Attribute one contained fault to its stream: bump the quarantine or
// error counter, advance the consecutive-fault streak, and suspend the
// stream once the streak crosses max_stream_faults (0 = never). Cold
// path by construction — it only runs when a fault actually fired.
void StreamingHarService::record_stream_fault(Shard& sh, Stream* s,
                                              bool quarantine) {
  sh.stat_faults.fetch_add(1, std::memory_order_relaxed);
  MutexLock lk(s->mu);
  if (quarantine) {
    ++s->quarantined;
  } else {
    ++s->errors;
  }
  ++s->consecutive_faults;
  if (config_.max_stream_faults > 0 && !s->suspended &&
      s->consecutive_faults >= config_.max_stream_faults) {
    s->suspended = true;
    ++s->suspensions;
  }
}

// Poison-frame quarantine at the claim boundary: every claimed payload is
// scanned (always on — the slot is exclusively ours here, outside any
// lock) and a frame carrying NaN/Inf is dropped before it can reach the
// fused DSP, its slot returned to the producer and the fault attributed
// to its stream. serving.frame_poison injects a real NaN into the payload
// first, so the injected and the hostile-producer paths are one path.
// Returns the number of survivors; sh.claims is compacted to them in
// stable (per-stream FIFO) order.
std::size_t StreamingHarService::quarantine_claims(Shard& sh,
                                                   std::size_t n_claims) {
  const std::size_t frame_elems =
      config_.num_chirps * config_.num_antennas * config_.num_samples;
  std::size_t live = 0;
  for (std::size_t i = 0; i < n_claims; ++i) {
    const Shard::Claim& cl = sh.claims[i];
    dsp::cfloat* const payload = cl.stream->slot_data[cl.slot].data();
    if (fault_injection_armed()) {
      // Armed-only cold path: the injector takes its own mutex and may
      // allocate bookkeeping, which is exactly why it hides behind the
      // relaxed-atomic armed gate.
      // mmhar-rtcheck: allow(calls)
      if (fault_should_fire("serving.frame_poison")) {
        // mmhar-rtcheck: allow(calls)
        const std::size_t at = fault_draw(frame_elems);
        payload[at] = dsp::cfloat(std::numeric_limits<float>::quiet_NaN(),
                                  payload[at].imag());
      }
    }
    const FiniteScan scan = detail::scan_finite(
        reinterpret_cast<const float*>(payload), 2 * frame_elems);
    if (scan.has_nan_or_inf()) {
      {
        MutexLock lk(cl.stream->mu);
        cl.stream->free_list[cl.stream->free_count++] = cl.slot;
      }
      record_stream_fault(sh, cl.stream, /*quarantine=*/true);
      continue;
    }
    if (live != i) sh.claims[live] = sh.claims[i];
    ++live;
  }
  return live;
}

// One pipeline round over the current claim list (at most one frame per
// stream, so a window slot written this round is never part of an
// already-recorded job). Each DRAI stage runs once, fused across every
// claimed frame, through the same dsp::DraiStages functions the offline
// compute_drai_sequence uses; the windows completed this round then get
// their CNN features (round_features) while every frame of them is still
// in its ring — a stream's next round overwrites its oldest frame.
//
// Containment: mmhar::Error at a fused DSP boundary degrades to
// per-frame (batch-1) reruns (fused_or_each), so only the faulty frame is
// sacrificed (claim_dead, StreamStats::errors). A dead frame never
// advances its stream's window, so the window slot it would have written
// is simply rewritten by the next clean frame.
void StreamingHarService::process_round(Shard& sh, std::size_t n_claims) {
  const std::size_t hw = stages_.drai_elems();
  const std::size_t wlen = window_frames_ * hw;
  const std::size_t spectra_elems = stages_.spectra_elems();
  MMHAR_CHECK(sh.spectra.size() >= n_claims * spectra_elems);
  MMHAR_CHECK(sh.claim_dead.size() >= n_claims);
  dsp::cfloat* const spectra = sh.spectra.data();
  std::uint8_t* const dead = sh.claim_dead.data();
  std::fill_n(dead, n_claims, std::uint8_t{0});
  const auto fault = [this, &sh](std::size_t i) {
    record_stream_fault(sh, sh.claims[i].stream, /*quarantine=*/false);
  };

  // Stage 1: every claimed frame's windowed Range-FFT in ONE batched
  // call — SIMD lanes run across (chirp, antenna) rows of all frames of
  // all the shard's streams in this round.
  MMHAR_CHECK(sh.range_ios.size() >= n_claims);
  for (std::size_t i = 0; i < n_claims; ++i) {
    const Shard::Claim& cl = sh.claims[i];
    sh.range_ios[i] = {cl.stream->slot_data[cl.slot].data(),
                       spectra + i * spectra_elems};
  }
  const dsp::FftManyIo* const range_ios = sh.range_ios.data();
  fused_or_each(
      /*degraded=*/false, n_claims, dead,
      [&] { stages_.range_stage({range_ios, n_claims}); },
      [&](std::size_t i, std::size_t) {
        stages_.range_stage({range_ios + i, 1});
      },
      fault);

  // Post-FFT tripwire (what used to be a fatal whole-batch check_finite):
  // per-frame, non-throwing, attributed to the offending stream.
  if (finite_checks_enabled()) {
    for (std::size_t i = 0; i < n_claims; ++i) {
      if (dead[i] != 0) continue;
      const FiniteScan scan = detail::scan_finite(
          reinterpret_cast<const float*>(spectra + i * spectra_elems),
          2 * spectra_elems);
      if (scan.violates(2 * spectra_elems)) {
        dead[i] = 1;
        fault(i);
      }
    }
  }

  // Stage 2: static clutter removal (serial per frame — pool-free).
  if (config_.heatmap.remove_clutter) {
    for (std::size_t i = 0; i < n_claims; ++i) {
      if (dead[i] != 0) continue;
      dsp::remove_static_clutter_serial(spectra + i * spectra_elems,
                                        config_.num_chirps,
                                        config_.num_antennas,
                                        config_.heatmap.range_bins);
    }
  }

  // Frame payloads are consumed; hand the slots back to the producers.
  for (std::size_t i = 0; i < n_claims; ++i) {
    const Shard::Claim& cl = sh.claims[i];
    MutexLock lk(cl.stream->mu);
    cl.stream->free_list[cl.stream->free_count++] = cl.slot;
  }

  // Stage 3: every surviving frame's Angle-FFT → raw DRAI in ONE batched
  // call, written straight into its stream's window ring slot. Window
  // bookkeeping (ring advance, job record) is deferred until the FFT
  // outcome is known, so a frame that dies here leaves its stream's
  // window exactly as if the frame were never submitted — the slot it
  // targeted is rewritten by the next clean frame. (At most one claim
  // per stream per round, so the deferral cannot interleave two frames
  // of one stream.) A round whose every claim died has no angle work.
  MMHAR_CHECK(sh.angle_ios.size() >= n_claims &&
              sh.jobs.size() >= sh.n_jobs + n_claims);
  std::size_t n_live = 0;
  for (std::size_t i = 0; i < n_claims; ++i) {
    if (dead[i] != 0) continue;
    const Shard::Claim& cl = sh.claims[i];
    WindowTable::StreamWindow& w = windows_->w[cl.stream_id];
    MMHAR_CHECK(w.drai.size() == wlen && w.next < window_frames_);
    sh.angle_ios[n_live] = {spectra + i * spectra_elems,
                            w.drai.data() + w.next * hw};
    ++n_live;
  }
  if (n_live == 0) return;
  const dsp::FftManyMagIo* const angle_ios = sh.angle_ios.data();
  fused_or_each(
      /*degraded=*/false, n_claims, dead,
      [&] { stages_.angle_stage({angle_ios, n_live}); },
      [&](std::size_t, std::size_t k) {
        stages_.angle_stage({angle_ios + k, 1});
      },
      fault);

  // Deferred window bookkeeping for the survivors: the frame's dB step,
  // its seq in the ring, the ring advance. A clean frame that completes
  // DSP without filling its window is this stream's recovery signal
  // (jobs get theirs after clean logits in run_inference).
  const std::size_t round_job_start = sh.n_jobs;
  for (std::size_t i = 0; i < n_claims; ++i) {
    if (dead[i] != 0) continue;
    const Shard::Claim& cl = sh.claims[i];
    WindowTable::StreamWindow& w = windows_->w[cl.stream_id];
    MMHAR_CHECK(w.drai.size() == wlen && w.next < window_frames_);
    stages_.to_db(w.drai.data() + w.next * hw, 1);
    w.seq[w.next] = cl.seq;
    w.next = (w.next + 1) % window_frames_;
    if (w.filled < window_frames_) ++w.filled;
    if (w.filled == window_frames_) {
      sh.job_dead[sh.n_jobs] = 0;
      sh.jobs[sh.n_jobs++] = {cl.stream, cl.stream_id, cl.stream->model,
                              cl.seq, cl.arrival, {}};
    } else {
      clear_stream_fault_streak(cl.stream);
    }
  }
  if (sh.n_jobs > round_job_start) round_features(sh, round_job_start);
}

// Stage 4 of a round: the CNN features of every window completed this
// round (jobs [first, n_jobs)), assembled into sh.series as [job][t][F].
// A frame's network input is (x - lo) / (hi - lo) with (lo, hi) taken
// over its whole window, so a cached feature row is reused only while the
// window's key (model, lo bits, hi bits) is unchanged and the row belongs
// to the frame now in its ring slot; in steady state that leaves one
// new frame per window. Misses are normalized into the T-frame chunk
// buffer and run through infer_frame_features one chunk at a time per
// model. Every feature row depends only on its own frame, so neither the
// cache nor the chunking changes a bit of any row. The caches are
// written back only after all of the round's rows are assembled.
//
// Containment: an mmhar::Error in the chunked pass degrades the round to
// one CNN call per job over its whole window (fused_or_each), which
// sacrifices only a job whose own call throws; a degraded round drops its
// streams' caches instead of writing them back.
void StreamingHarService::round_features(Shard& sh, std::size_t first) {
  const std::size_t hw = stages_.drai_elems();
  const std::size_t frames = window_frames_;
  const std::size_t f_dim = feature_dim_;
  const std::size_t n = sh.n_jobs - first;
  MMHAR_CHECK(sh.series.size() >= sh.n_jobs * frames * f_dim &&
              sh.job_dead.size() >= sh.n_jobs &&
              sh.chunk.size() >= frames * hw &&
              sh.chunk_feats.size() >= frames * f_dim &&
              sh.chunk_rows.size() >= frames);
  float* const series = sh.series.data();
  float* const chunk = sh.chunk.data();
  const float* const chunk_feats = sh.chunk_feats.data();
  std::uint8_t* const dead = sh.job_dead.data();
  const auto window_of = [this, frames, hw, f_dim](const Shard::Job& job)
      -> WindowTable::StreamWindow& {
    WindowTable::StreamWindow& w = windows_->w[job.stream_id];
    MMHAR_CHECK(w.drai.size() == frames * hw &&
                w.feats.size() == frames * f_dim && w.next < frames);
    return w;
  };
  const auto key_of = [](const Shard::Job& job) {
    return FeatureKey{job.model, std::bit_cast<std::uint32_t>(job.range.lo),
                      std::bit_cast<std::uint32_t>(job.range.hi), true};
  };
  for (std::size_t j = first; j < sh.n_jobs; ++j) {
    const WindowTable::StreamWindow& w = window_of(sh.jobs[j]);
    sh.jobs[j].range = stages_.window_range(w.drai.data(), frames, w.next);
  }

  std::size_t computed = 0;
  std::size_t reused = 0;
  const auto flush = [&](std::size_t model, std::size_t fill) {
    har::infer_frame_features(models_.plan(model), sh.scratch, chunk, fill,
                              sh.chunk_feats.data());
    for (std::size_t i = 0; i < fill; ++i)
      std::copy_n(chunk_feats + i * f_dim, f_dim, sh.chunk_rows[i]);
  };
  const auto fused = [&] {
    computed = 0;
    reused = 0;
    for (std::size_t m = 0; m < models_.size(); ++m) {
      std::size_t fill = 0;
      for (std::size_t j = first; j < sh.n_jobs; ++j) {
        const Shard::Job& job = sh.jobs[j];
        if (job.model != m) continue;
        const WindowTable::StreamWindow& w = window_of(job);
        const float* const drai = w.drai.data();
        const float* const feats = w.feats.data();
        const bool same_key = w.key == key_of(job);
        for (std::size_t t = 0; t < frames; ++t) {
          const std::size_t slot = (w.next + t) % frames;
          float* const row = series + (j * frames + t) * f_dim;
          if (same_key && w.feat_seq[slot] == w.seq[slot]) {
            std::copy_n(feats + slot * f_dim, f_dim, row);
            ++reused;
            continue;
          }
          stages_.normalize(drai + slot * hw, 1, job.range, chunk + fill * hw);
          sh.chunk_rows[fill++] = row;
          ++computed;
          if (fill == frames) {
            flush(m, fill);
            fill = 0;
          }
        }
      }
      if (fill > 0) flush(m, fill);
    }
  };
  bool degraded = false;
  const auto single = [&](std::size_t i, std::size_t) {
    if (!degraded) computed = reused = 0;
    degraded = true;
    const Shard::Job& job = sh.jobs[first + i];
    const WindowTable::StreamWindow& w = window_of(job);
    const float* const drai = w.drai.data();
    for (std::size_t t = 0; t < frames; ++t)
      stages_.normalize(drai + ((w.next + t) % frames) * hw, 1, job.range,
                        chunk + t * hw);
    har::infer_frame_features(models_.plan(job.model), sh.scratch, chunk,
                              frames, series + (first + i) * frames * f_dim);
    computed += frames;
  };
  fused_or_each(/*degraded=*/false, n, dead + first, fused, single,
                [this, &sh, first](std::size_t i) {
                  record_stream_fault(sh, sh.jobs[first + i].stream,
                                      /*quarantine=*/false);
                });
  sh.stat_cnn_computed.fetch_add(computed, std::memory_order_relaxed);
  sh.stat_cnn_reused.fetch_add(reused, std::memory_order_relaxed);

  // Write-back: the rows each window computed, under its key.
  for (std::size_t j = first; j < sh.n_jobs; ++j) {
    const Shard::Job& job = sh.jobs[j];
    WindowTable::StreamWindow& w = window_of(job);
    if (degraded) {
      w.key = {};
      continue;
    }
    float* const feats = w.feats.data();
    const FeatureKey key = key_of(job);
    const bool same_key = w.key == key;
    for (std::size_t t = 0; t < frames; ++t) {
      const std::size_t slot = (w.next + t) % frames;
      if (same_key && w.feat_seq[slot] == w.seq[slot]) continue;
      std::copy_n(series + (j * frames + t) * f_dim, f_dim,
                  feats + slot * f_dim);
      w.feat_seq[slot] = w.seq[slot];
    }
    w.key = key;
  }
}

// A clean frame lifts its stream's consecutive-fault streak (and any
// suspension). Called once per surviving frame/job, under the stream's
// hand-off mutex; cheap enough for the hot path, and keeping it
// unconditional avoids an unguarded racy pre-check of guarded state.
void StreamingHarService::clear_stream_fault_streak(Stream* s) {
  MutexLock lk(s->mu);
  if (s->consecutive_faults != 0 || s->suspended) {
    s->consecutive_faults = 0;
    s->suspended = false;
  }
}

// Cross-stream micro-batched LSTM + head over the feature series of every
// window that completed this cycle — one infer_classify_features per model
// version with jobs. With a single registered model the whole cycle goes
// through one call; otherwise each model's rows are gathered at the
// feature-series level. Either way each output row's arithmetic is
// independent of batch composition, so grouping by model cannot change
// any stream's logits, and the result is infer_forward's on the window.
//
// Containment: an injected serving.infer_fail (one draw per live job row)
// or an mmhar::Error escaping the fused call degrades the cycle to
// per-row batch-1 reruns over each row's features (fused_or_each) — row
// arithmetic is batch-composition independent, so every surviving row's
// logits are bit-identical to the fused result and only the faulty rows
// are sacrificed (job_dead, StreamStats::errors). A degraded cycle drops
// its streams' feature caches, so their next windows recompute every
// frame. Rows whose logits come back non-finite are sacrificed the same
// way instead of tearing the process down.
void StreamingHarService::run_inference(Shard& sh) {
  const std::size_t series_len = window_frames_ * feature_dim_;
  MMHAR_CHECK(sh.logits.size() >= sh.n_jobs * num_classes_);
  MMHAR_CHECK(sh.job_dead.size() >= sh.n_jobs &&
              sh.series.size() >= sh.n_jobs * series_len);
  std::uint8_t* const dead = sh.job_dead.data();
  const float* const series = sh.series.data();
  float* const logits = sh.logits.data();
  const auto fault = [this, &sh](std::size_t j) {
    record_stream_fault(sh, sh.jobs[j].stream, /*quarantine=*/false);
  };

  bool degraded = false;
  if (fault_injection_armed()) {
    for (std::size_t j = 0; j < sh.n_jobs; ++j) {
      if (dead[j] != 0) continue;
      // Armed-only cold path (see quarantine_claims).
      // mmhar-rtcheck: allow(calls)
      if (fault_should_fire("serving.infer_fail")) {
        dead[j] = 1;
        degraded = true;
        fault(j);
      }
    }
  }

  const auto fused = [&] {
    if (models_.size() == 1) {
      har::infer_classify_features(models_.plan(0), sh.scratch, series,
                                   sh.n_jobs, logits);
      return;
    }
    MMHAR_CHECK(sh.model_series.size() >= sh.n_jobs * series_len &&
                sh.model_logits.size() >= sh.n_jobs * num_classes_);
    float* const model_series = sh.model_series.data();
    const float* const model_logits = sh.model_logits.data();
    for (std::size_t m = 0; m < models_.size(); ++m) {
      std::size_t rows = 0;
      for (std::size_t j = 0; j < sh.n_jobs; ++j) {
        if (sh.jobs[j].model != m) continue;
        sh.model_rows[rows] = j;
        std::copy_n(series + j * series_len, series_len,
                    model_series + rows * series_len);
        ++rows;
      }
      if (rows == 0) continue;
      har::infer_classify_features(models_.plan(m), sh.scratch, model_series,
                                   rows, sh.model_logits.data());
      for (std::size_t r = 0; r < rows; ++r)
        std::copy_n(model_logits + r * num_classes_, num_classes_,
                    logits + sh.model_rows[r] * num_classes_);
    }
  };
  bool fell_back = false;
  const auto single = [&](std::size_t j, std::size_t) {
    fell_back = true;
    har::infer_classify_features(models_.plan(sh.jobs[j].model), sh.scratch,
                                 series + j * series_len, 1,
                                 logits + j * num_classes_);
  };
  fused_or_each(degraded, sh.n_jobs, dead, fused, single, fault);
  if (fell_back)
    for (std::size_t j = 0; j < sh.n_jobs; ++j)
      windows_->w[sh.jobs[j].stream_id].key = {};

  // Post-forward tripwire (what used to be a fatal whole-batch
  // check_finite): per-row, non-throwing, attributed per stream.
  if (finite_checks_enabled()) {
    for (std::size_t j = 0; j < sh.n_jobs; ++j) {
      if (dead[j] != 0) continue;
      MMHAR_CHECK((j + 1) * num_classes_ <= sh.logits.size());
      const FiniteScan scan = detail::scan_finite(
          sh.logits.data() + j * num_classes_, num_classes_);
      if (scan.violates(num_classes_)) {
        dead[j] = 1;
        fault(j);
      }
    }
  }

  for (std::size_t j = 0; j < sh.n_jobs; ++j)
    if (dead[j] == 0) clear_stream_fault_streak(sh.jobs[j].stream);
}

// Publish the cycle's classifications into their streams' result rings.
// Under deadline scheduling a result that is already past its newest
// frame's deadline is discarded instead of delivered — a late answer is
// useless to the consumer, and delivering it would hide the overload the
// SLO exists to surface (those land in *expired). Rows sacrificed by
// fault containment were already attributed in run_inference and are
// simply skipped. Returns the number actually published.
std::size_t StreamingHarService::publish_results(Shard& sh,
                                                 std::size_t* expired) {
  const Clock::time_point now = Clock::now();
  *expired = 0;
  std::size_t published = 0;
  for (std::size_t j = 0; j < sh.n_jobs; ++j) {
    const Shard::Job& job = sh.jobs[j];
    Stream* s = job.stream;
    if (sh.job_dead[j] != 0) continue;
    if (deadline_enabled_ && now > job.arrival + deadline_budget_) {
      MutexLock lk(s->mu);
      ++s->deadline_dropped;
      ++*expired;
      continue;
    }
    MMHAR_CHECK((j + 1) * num_classes_ <= sh.logits.size());
    const float* row = sh.logits.data() + j * num_classes_;
    Classification result;
    result.frame_seq = job.seq;
    result.latency_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            now - job.arrival)
                            .count();
    std::size_t best = 0;
    for (std::size_t c = 1; c < num_classes_; ++c)
      if (row[c] > row[best]) best = c;
    result.predicted = best;
    std::copy(row, row + num_classes_, result.logits);
    MutexLock lk(s->results_mu);
    if (s->rcount == config_.result_depth) {
      s->rhead = (s->rhead + 1) % config_.result_depth;
      --s->rcount;
      ++s->dropped_results;
    }
    s->results[(s->rhead + s->rcount) % config_.result_depth] = result;
    ++s->rcount;
    ++s->classifications;
    ++published;
  }
  return published;
}

std::size_t StreamingHarService::run_shard_cycle(std::size_t shard) {
  MMHAR_CHECK(shard < shards_.size());
  Shard& sh = *shards_[shard];
  {
    MutexLock lk(registry_->mu);
    const std::size_t n = registry_->streams.size();
    MMHAR_CHECK(sh.cycle_streams.size() >= n);
    sh.n_cycle_streams = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Stream* s = registry_->streams[i].get();
      if (s->shard != shard) continue;
      sh.cycle_streams[sh.n_cycle_streams] = s;
      sh.cycle_ids[sh.n_cycle_streams] = i;
      ++sh.n_cycle_streams;
    }
  }
  sh.n_jobs = 0;

  // Claim until the batch budget is spent; deadline-expired and
  // suspension-shed frames count against the budget too (their removal
  // is the cycle's work product as much as a classification is, and the
  // bound keeps a flood of stale frames from pinning the shard in this
  // loop). Every claim passes the quarantine scan before it may enter
  // the fused DSP round.
  std::size_t claimed = 0;
  std::size_t expired = 0;
  std::size_t shed = 0;
  while (claimed + expired + shed < config_.batch_max) {
    std::size_t round_expired = 0;
    std::size_t round_shed = 0;
    const std::size_t got =
        claim_round(sh, config_.batch_max - claimed - expired - shed,
                    &round_expired, &round_shed);
    expired += round_expired;
    shed += round_shed;
    if (got == 0 && round_expired == 0 && round_shed == 0) break;
    if (got > 0) {
      const std::size_t live = quarantine_claims(sh, got);
      if (live > 0) process_round(sh, live);
    }
    claimed += got;
  }

  std::size_t published = 0;
  std::size_t publish_expired = 0;
  if (sh.n_jobs > 0) {
    run_inference(sh);
    published = publish_results(sh, &publish_expired);
  }

  const std::size_t consumed = claimed + expired + shed;
  if (consumed > 0) {
    {
      MutexLock lk(sh.sched.mu);
      sh.sched.pending -= static_cast<std::int64_t>(consumed);
    }
    sh.stat_cycles.fetch_add(1, std::memory_order_relaxed);
    sh.stat_frames.fetch_add(claimed, std::memory_order_relaxed);
    sh.stat_classifications.fetch_add(published, std::memory_order_relaxed);
    sh.stat_deadline_dropped.fetch_add(expired + publish_expired,
                                       std::memory_order_relaxed);
  }
  return consumed;
}

std::size_t StreamingHarService::run_cycle() {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i)
    total += run_shard_cycle(i);
  return total;
}

// Worker loop. Fault-containment duties on top of the claim/cycle work:
//  * No exception may escape (it would std::terminate the process): an
//    escaped mmhar::Error — or anything else — marks the shard crashed
//    and returns; the watchdog restarts it while other shards keep
//    serving. serving.shard_crash injects exactly that, claim-free by
//    construction (it fires before any frame is claimed, so no slot is
//    ever leaked by an injected crash).
//  * serving.shard_stall parks the worker on its condvar — a model of a
//    wedged thread at a cancellation point — until a restart or stop()
//    releases it. The worker publishes the park (Sched::parked) and the
//    start of each wake-up (busy_since_ns) for the watchdog; neither is
//    read by the cycle itself.
//  * The condvar wait is timed (kIdlePoll) and a long streak of
//    zero-consume cycles clamps a positive pending count back to zero:
//    together they self-heal both directions of a pending count left
//    stale by a genuine crash mid-cycle (a lost wake costs at most one
//    poll period; a phantom pending stops burning CPU after the clamp).
void StreamingHarService::shard_main(std::size_t shard) {
  Shard& sh = *shards_[shard];
  int zero_streak = 0;
  for (;;) {
    {
      MutexLock lk(sh.sched.mu);
      while (sh.sched.pending <= 0 && !sh.sched.stop) {
        if (!sh.sched.cv.wait_for(sh.sched.mu, kIdlePoll))
          break;  // timed out: run a probe cycle in case a wake was lost
      }
      if (sh.sched.stop) return;
    }
    sh.heartbeat.fetch_add(1, std::memory_order_relaxed);
    sh.busy_since_ns.store(steady_ns(), std::memory_order_relaxed);
    try {
      if (fault_injection_armed()) {
        if (fault_should_fire("serving.shard_crash"))
          throw Error("fault injection: serving.shard_crash");
        if (fault_should_fire("serving.shard_stall")) {
          sh.busy_since_ns.store(0, std::memory_order_relaxed);
          MutexLock lk(sh.sched.mu);
          sh.sched.parked = true;
          while (!sh.sched.stop) sh.sched.cv.wait(sh.sched.mu);
          sh.sched.parked = false;
          return;
        }
      }
      if (run_shard_cycle(shard) == 0) {
        // A zero-consume cycle usually means a producer is mid-submit
        // (the pending increment lands after the enqueue); yield instead
        // of spinning hot. A long streak means the count itself is stale.
        if (++zero_streak >= kZeroConsumeClamp) {
          zero_streak = 0;
          MutexLock lk(sh.sched.mu);
          if (sh.sched.pending > 0) sh.sched.pending = 0;
        }
        std::this_thread::yield();
      } else {
        zero_streak = 0;
      }
    } catch (...) {
      // Satellite hazard fix: nothing crosses the thread boundary. The
      // shard parks; its streams' queued frames wait for the restart.
      sh.busy_since_ns.store(0, std::memory_order_relaxed);
      sh.stat_faults.fetch_add(1, std::memory_order_relaxed);
      sh.crashed.store(true, std::memory_order_release);
      return;
    }
    sh.busy_since_ns.store(0, std::memory_order_relaxed);
  }
}

// ---- Supervision (watchdog control plane) ----------------------------------

// One watchdog pass over one shard: a crashed worker restarts at once; a
// worker parked with work pending, or one whose current wake-up has run
// longer than kCycleBudget, is declared stalled and restarted. Both tests
// read the worker's own published state, never the watchdog's cadence, so
// a pass delayed by a loaded host cannot turn a healthy long cycle into a
// stall. A false positive would cost a restart (the protocol joins the
// worker after its cycle), never lost work.
void StreamingHarService::supervise_shard(std::size_t shard) {
  Shard& sh = *shards_[shard];
  if (sh.crashed.load(std::memory_order_acquire)) {
    restart_shard(shard);
    return;
  }
  bool parked_with_work = false;
  {
    MutexLock lk(sh.sched.mu);
    parked_with_work = sh.sched.parked && sh.sched.pending > 0;
  }
  const std::int64_t since = sh.busy_since_ns.load(std::memory_order_relaxed);
  const bool overran =
      since != 0 &&
      steady_ns() - since >
          std::chrono::nanoseconds(kCycleBudget).count();
  if (parked_with_work || overran) {
    sh.stalled.store(true, std::memory_order_relaxed);
    restart_shard(shard);
  } else {
    sh.stalled.store(false, std::memory_order_relaxed);
  }
}

// Restart protocol: stop + join the (possibly already-returned) worker,
// reset the shard's cycle arenas — per-stream state (frame rings, result
// rings, DRAI windows and their feature rows) belongs to the streams and
// survives; only the feature keys of the shard's streams are dropped, so
// nothing a dying cycle left behind is reused — and respawn. Only ever
// called from the watchdog thread, which stop() joins before touching
// any worker, so the std::thread object has exactly one owner at a time.
void StreamingHarService::restart_shard(std::size_t shard) {
  Shard& sh = *shards_[shard];
  {
    MutexLock lk(sh.sched.mu);
    sh.sched.stop = true;
    sh.sched.cv.notify_all();
  }
  if (sh.worker.joinable()) sh.worker.join();
  {
    MutexLock lk(registry_->mu);
    for (std::size_t i = 0; i < registry_->streams.size(); ++i)
      if (registry_->streams[i]->shard == shard) windows_->w[i].key = {};
  }
  sh.busy_since_ns.store(0, std::memory_order_relaxed);
  sh.n_jobs = 0;
  sh.n_cycle_streams = 0;
  sh.rr = 0;
  sh.crashed.store(false, std::memory_order_relaxed);
  sh.stalled.store(false, std::memory_order_relaxed);
  sh.stat_restarts.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lk(sh.sched.mu);
    sh.sched.stop = false;
  }
  sh.worker = std::thread([this, shard] { shard_main(shard); });
}

void StreamingHarService::watchdog_main() {
  const std::chrono::milliseconds period(config_.watchdog_ms);
  for (;;) {
    {
      MutexLock lk(watchdog_->mu);
      if (watchdog_->stop) return;
      watchdog_->cv.wait_for(watchdog_->mu, period);
      if (watchdog_->stop) return;
    }
    for (std::size_t i = 0; i < shards_.size(); ++i) supervise_shard(i);
  }
}

void StreamingHarService::start() {
  MMHAR_REQUIRE(!started_, "StreamingHarService::start: already running");
  for (std::unique_ptr<Shard>& sh : shards_) {
    MutexLock lk(sh->sched.mu);
    sh->sched.stop = false;
  }
  for (std::size_t i = 0; i < shards_.size(); ++i)
    shards_[i]->worker = std::thread([this, i] { shard_main(i); });
  if (config_.watchdog_ms > 0) {
    {
      MutexLock lk(watchdog_->mu);
      watchdog_->stop = false;
    }
    watchdog_thread_ = std::thread([this] { watchdog_main(); });
    watchdog_running_.store(true, std::memory_order_relaxed);
  }
  started_ = true;
}

void StreamingHarService::stop() {
  if (!started_) return;
  // The watchdog goes first so no restart races the worker joins below.
  if (watchdog_thread_.joinable()) {
    {
      MutexLock lk(watchdog_->mu);
      watchdog_->stop = true;
      watchdog_->cv.notify_all();
    }
    watchdog_thread_.join();
    watchdog_running_.store(false, std::memory_order_relaxed);
  }
  for (std::unique_ptr<Shard>& sh : shards_) {
    MutexLock lk(sh->sched.mu);
    sh->sched.stop = true;
    sh->sched.cv.notify_all();
  }
  for (std::unique_ptr<Shard>& sh : shards_) {
    if (sh->worker.joinable()) sh->worker.join();
  }
  started_ = false;
}

}  // namespace mmhar::serving
