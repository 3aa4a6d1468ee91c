// The serving workload `serve_saturate` (closed loop, lossless), and the
// open-loop probe (the simulator's frame rate, two models) every traced
// run takes the latency-path layer figures from.
#pragma once

#include <cstdint>

#include "bench_math.h"
#include "report.h"

namespace perfbench {

void run_saturate_workload(const RunOptions& opt, Report& report,
                           Tracer& tracer);

/// Fill whichever serving per-layer metrics `report` still lacks with a
/// short closed-loop and/or open-loop probe; used by every traced run.
void serving_layer_metrics(std::uint64_t seed, Report& report,
                           Tracer& tracer);

}  // namespace perfbench
