// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--rev <source revision>]
//
// Workloads: attack_point, serve_saturate (see perfbench/README.md). The
// last line of standard output is one JSON object {"correct", "attempted",
// "failed", "metrics"}; with --trace 0 the metrics are the end-to-end
// ones, with --trace 1 the per-layer split.
// Run metadata is printed on the line before it, and the full run record
// (and, traced, every span) is written under --out.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "attack_point.h"
#include "common/thread_pool.h"
#include "report.h"
#include "serving_load.h"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_NATIVE
#define PERFBENCH_NATIVE 0
#endif

namespace {

using namespace perfbench;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string meta_json(const RunOptions& opt, const std::string& rev) {
  std::string j = "{";
  j += "\"workload\": " + json_string(opt.workload);
  j += ", \"seed\": " + std::to_string(opt.seed);
  j += ", \"seconds\": " + json_number(opt.seconds);
  j += ", \"trace\": " + std::string(opt.trace ? "1" : "0");
  j += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  j += ", \"pool_threads\": " + std::to_string(mmhar::global_pool().size());
  j += ", \"measured_threads\": 1";
  j += ", \"mmhar_native\": " + std::to_string(PERFBENCH_NATIVE);
  j += ", \"cxx_flags\": " + json_string(PERFBENCH_CXX_FLAGS);
  j += ", \"compiler\": " + json_string(__VERSION__);
  j += ", \"source_rev\": " + json_string(rev);
  return j + "}";
}

std::string metrics_json(const Report& r) {
  std::string j = "{";
  bool first = true;
  for (const auto& [name, m] : r.metrics()) {
    if (!first) j += ", ";
    first = false;
    j += json_string(name) + ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) + "}";
  }
  return j + "}";
}

std::string result_json(const Report& r) {
  return std::string("{\"correct\": ") + (r.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.tally.attempted) +
         ", \"failed\": " + std::to_string(r.tally.failed) +
         ", \"metrics\": " + metrics_json(r) + "}";
}

void write_record(const RunOptions& opt, const std::string& meta,
                  const Report& r, const Tracer& tracer) {
  namespace fs = std::filesystem;
  fs::create_directories(opt.out_dir);
  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0");
  {
    std::ofstream os(stem + ".json");
    os << "{\"meta\": " << meta << ",\n \"result\": " << result_json(r)
       << ",\n \"details\": {";
    bool first = true;
    for (const auto& [k, v] : r.details()) {
      os << (first ? "" : ", ") << json_string(k) << ": " << json_number(v);
      first = false;
    }
    os << "},\n \"notes\": {";
    first = true;
    for (const auto& [k, v] : r.notes()) {
      os << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
      first = false;
    }
    os << "},\n \"failed_checks\": [";
    first = true;
    for (const std::string& c : r.failed_checks()) {
      os << (first ? "" : ", ") << json_string(c);
      first = false;
    }
    os << "]}\n";
  }
  if (!tracer.enabled()) return;
  std::ofstream os(stem + ".spans.jsonl");
  const auto self = self_times_ns(tracer.spans());
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    os << "{\"id\": " << i << ", \"name\": " << json_string(s.name)
       << ", \"parent\": " << s.parent << ", \"request\": " << s.request
       << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"self_ns\": " << self[i] << "}\n";
  }
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "attack_point|serve_saturate --seed N "
               "--seconds S --trace 0|1 [--out DIR] [--rev REV]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  opt.out_dir = ".bench_build/perfbench/runs";
  std::string rev = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (a == "--out") {
        opt.out_dir = v;
      } else if (a == "--rev") {
        rev = v;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  opt.cache_root =
      opt.out_dir + "/cache-" + std::to_string(static_cast<long>(getpid()));

  using Workload = void (*)(const RunOptions&, Report&, Tracer&);
  Workload workload = nullptr;
  if (opt.workload == "attack_point")
    workload = run_attack_workload;
  else if (opt.workload == "serve_saturate")
    workload = run_saturate_workload;
  else
    usage(("unknown workload " + opt.workload).c_str());

  Report report;
  Tracer tracer(opt.trace);
  try {
    // The workload runs as the second chunk of a two-chunk parallel_for,
    // i.e. on a pool worker, where every parallel_for of the library runs
    // inline (nested parallelism). The measured work is then one thread
    // that never waits for another vCPU to wake: on a shared VM those
    // wake-ups moved throughput by a fifth with the load of other guests.
    // (run.py gives the pool a second worker for other threads' calls.)
    mmhar::global_pool().parallel_for_chunked(
        0, 2, [&](std::size_t lo, std::size_t) {
          if (lo == 1) workload(opt, report, tracer);
        });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    std::filesystem::remove_all(opt.cache_root);
    return 1;
  }
  std::filesystem::remove_all(opt.cache_root);
  if (!opt.trace) report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.detail("failed_share", report.tally.failed_share());

  const std::string meta = meta_json(opt, rev);
  write_record(opt, meta, report, tracer);
  std::printf("# meta %s\n", meta.c_str());
  for (const auto& [k, v] : report.details())
    std::printf("# %s = %s\n", k.c_str(), json_number(v).c_str());
  std::printf("%s\n", result_json(report).c_str());
  return 0;
}
