// What one benchmark run hands back: named metrics with units, the
// attempted/failed tally, the outcome of the output checks, and free-form
// details (run metadata, workload figures) written beside the result.
#pragma once

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_math.h"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;     ///< run records and span dumps go here
  std::string cache_root;  ///< parent of the per-point artifact caches
};

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  bool has(const std::string& name) const { return metrics_.count(name) != 0; }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  /// Record a failed output check; the run then reports correct=false.
  void fail_check(const std::string& what) {
    std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
    checks_failed_.push_back(what);
  }
  bool correct() const { return checks_failed_.empty(); }
  const std::vector<std::string>& failed_checks() const {
    return checks_failed_;
  }

  /// Extra figures for the run record (not part of the result line).
  void detail(const std::string& key, double value) { details_[key] = value; }
  void note(const std::string& key, const std::string& text) {
    notes_[key] = text;
  }
  const std::map<std::string, double>& details() const { return details_; }
  const std::map<std::string, std::string>& notes() const { return notes_; }

  Tally tally;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> checks_failed_;
  std::map<std::string, double> details_;
  std::map<std::string, std::string> notes_;
};

/// JSON number with every significant digit a double carries.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
