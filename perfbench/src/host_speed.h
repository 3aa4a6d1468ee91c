// Host speed reference for the end-to-end timings.
//
// The benchmark runs on shared hosts whose speed drifts: the same fixed
// single-threaded loop has taken 1.9x as long in one ten-run set as in
// another, and raw wall times of the same code spread between runs by
// more than any usable regression bound. While a workload is measured, a
// sampler thread pinned to the workload's own CPU times a fixed reference
// chunk every 50 ms, so it sees the core the workload runs on. The chunk
// is the benchmark's own code and calls nothing in the repository, so no
// change to the program can move it; its time against its nominal time is
// the host's speed at that moment. Each end-to-end timing is reported
// scaled by the mean relative speed over the interval it measured (at half
// strength, see kScaleExponent): the time the same work takes on the
// reference host. The raw wall figures and the scale factor are written
// beside the result.
//
// Of three candidate chunks (an L2-resident FMA sweep, random reads over
// 16 MiB, and the L1-resident FMA chains below), the FMA chains tracked
// the serving loop best: over 26 closed-loop passes their speed and the
// pass throughput correlated at 0.98, and dividing by it cut the spread
// (sd of log throughput) from 0.113 to 0.031. It is not perfect: for
// minutes at a time the chunk ran a third faster while the workload did
// not.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_math.h"

namespace perfbench {

/// Time of one reference chunk on the reference host (a 4-vCPU Sapphire
/// Rapids VM; its chunk times ranged over 0.75-1.1 ms).
inline constexpr double kReferenceChunkMs = 0.85;

/// Timings are scaled by the host's relative speed to this power. Across
/// processes, closed-loop throughput followed the chunk's speed at a power
/// of 0.8 outside the chunk's fast spells and of 0.3 over all 84 measured;
/// half strength removes half of the host's drift and half of the chunk's
/// own excursions. Over two ten-run sets it gave the smallest spread
/// (IQR/median 0.043 and 0.059, against 0.055 and 0.119 at full strength
/// and 0.054 and 0.077 unscaled).
inline constexpr double kScaleExponent = 0.5;

/// One reference chunk: 64 independent multiply-add chains over a 16 KiB
/// (L1-resident) operand, so its time follows the core's arithmetic
/// speed. `x` holds kReferenceOperand floats; the returned sum keeps the
/// work from being elided.
inline constexpr std::size_t kReferenceOperand = 4096;
inline float reference_chunk(const std::vector<float>& x) {
  float acc[64] = {};
  for (int pass = 0; pass < 8000; ++pass)
    for (std::size_t i = 0; i < kReferenceOperand; i += 64)
      for (std::size_t j = 0; j < 64; ++j) acc[j] = acc[j] * x[i + j] + 0.5F;
  float sum = 0.0F;
  for (const float a : acc) sum += a;
  return sum;
}

/// Samples the host's speed from construction until stop() (or
/// destruction). The constructing thread and the sampler thread are both
/// pinned to the CPU the constructing thread is on, so the sampler takes
/// about 2% of the workload's core and measures that core; stop()
/// restores the constructing thread's CPU set, so threads it starts
/// afterwards are not confined to one CPU.
class HostSpeedSampler {
 public:
  HostSpeedSampler()
      : operand_(kReferenceOperand, 0.999F), owner_(pthread_self()) {
    const int cpu = sched_getcpu();
    if (cpu >= 0 &&
        pthread_getaffinity_np(owner_, sizeof saved_, &saved_) == 0) {
      CPU_ZERO(&one_);
      CPU_SET(cpu, &one_);
      pinned_ = pthread_setaffinity_np(owner_, sizeof one_, &one_) == 0;
    }
    thread_ = std::thread([this] {
      if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof one_, &one_);
      loop();
    });
  }
  ~HostSpeedSampler() { stop(); }
  HostSpeedSampler(const HostSpeedSampler&) = delete;
  HostSpeedSampler& operator=(const HostSpeedSampler&) = delete;

  /// Stop sampling and join the thread. Idempotent.
  void stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    if (pinned_) pthread_setaffinity_np(owner_, sizeof saved_, &saved_);
    pinned_ = false;
  }

  /// The factor that takes a wall time measured here to the reference
  /// host: the mean relative speed (see relative_speed) to the power
  /// kScaleExponent, over the whole sampled interval, or over the samples
  /// taken in [from_ns, to_ns) when there are at least kMinSamples of
  /// them. Call after stop().
  double scale() const { return scale_of(chunk_ms_); }
  double scale_between(std::int64_t from_ns, std::int64_t to_ns) const {
    std::vector<double> in;
    for (std::size_t i = 0; i < chunk_ms_.size(); ++i)
      if (at_ns_[i] >= from_ns && at_ns_[i] < to_ns) in.push_back(chunk_ms_[i]);
    return in.size() < kMinSamples ? scale() : scale_of(in);
  }
  std::size_t samples() const { return chunk_ms_.size(); }

  static constexpr std::size_t kMinSamples = 10;

 private:
  static constexpr auto kPeriod = std::chrono::milliseconds(50);

  static double scale_of(const std::vector<double>& chunk_ms) {
    return std::pow(relative_speed(chunk_ms, kReferenceChunkMs),
                    kScaleExponent);
  }

  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!stopping_) {
      lk.unlock();
      const std::int64_t t0 = now_ns();
      sink_ += reference_chunk(operand_);
      at_ns_.push_back(t0);
      chunk_ms_.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      lk.lock();
      cv_.wait_for(lk, kPeriod, [this] { return stopping_; });
    }
  }

  std::vector<float> operand_;
  std::vector<std::int64_t> at_ns_;  ///< sample start times; these two are
  std::vector<double> chunk_ms_;     ///< written by the sampler thread only
  float sink_ = 0.0F;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  pthread_t owner_;
  cpu_set_t saved_{};  ///< the owner's CPU set before pinning
  cpu_set_t one_{};
  bool pinned_ = false;
  std::thread thread_;
};

}  // namespace perfbench
