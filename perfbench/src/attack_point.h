// The `attack_point` workload: one Push→Pull attack point of the paper's
// pipeline, end to end, from an empty artifact cache.
#pragma once

#include <cstdint>
#include <string>

#include "bench_math.h"
#include "core/backdoor_attack.h"
#include "har/dataset.h"
#include "har/trainer.h"
#include "report.h"

namespace perfbench {

/// Everything one attack point needs, derived from the workload seed.
struct AttackSetup {
  mmhar::har::GeneratorConfig train_generator;   ///< hallway
  mmhar::har::GeneratorConfig attack_generator;  ///< classroom
  mmhar::har::DatasetConfig train_grid;
  mmhar::har::DatasetConfig test_grid;
  mmhar::har::DatasetConfig attack_grid;  ///< victim-only, classroom
  mmhar::har::HarModelConfig model;
  mmhar::har::TrainConfig training;
  mmhar::core::BackdoorAttackConfig attack;
  double injection_rate = 0.4;
  std::uint64_t selection_seed = 11;
  std::uint64_t surrogate_seed = 0;
  std::uint64_t victim_seed = 0;
};

/// The fixed reduced grid: 72 train and 72 test samples, 12 epochs,
/// rate 0.4, 8 poisoned frames, 2x2 in trigger, optimized position.
/// `mini` shrinks it to a 12-sample smoke grid for the layer probe that
/// other workloads run in their traced pass.
AttackSetup make_attack_setup(std::uint64_t seed, bool mini = false);

/// The workload: set-up timing, repeated points for `seconds`, output
/// checks, and (traced) the per-layer split.
void run_attack_workload(const RunOptions& opt, Report& report,
                         Tracer& tracer);

/// Per-layer figures of the attack pipeline from a traced point plus the
/// layer probes; used by every workload's traced run.
void attack_layer_metrics(const AttackSetup& setup,
                          const std::string& cache_root, Report& report,
                          Tracer& tracer);

}  // namespace perfbench
