// Opt-in NaN/Inf/denormal tripwires for the numeric pipeline.
//
// The float path is long (FFT → clutter removal → DRAI → CNN-LSTM → SHAP →
// Weiszfeld) and a single NaN produced early poisons every downstream
// feature value silently. `check_finite` scans a buffer at a stage boundary
// and throws `mmhar::Error` naming the tensor, the stage, and the first
// offending flat index, so the failure surfaces where the bad value is
// *born*, not where it is finally consumed.
//
// The checks are off by default and cost one branch on a cached flag when
// disabled. Enable them with the environment variable
// `MMHAR_FINITE_CHECKS=1`, or build with `-DMMHAR_FINITE_CHECKS=ON` to flip
// the compiled-in default (the env var still overrides either way).
//
// Policy:
//  * any NaN or Inf is a violation;
//  * isolated denormals are normal float behavior and tolerated, but a
//    "denormal storm" (more than kDenormalStormFraction of the buffer, and
//    at least kDenormalStormMinCount values) is flagged — it means an
//    accumulator underflowed and everything downstream is running at
//    garbage precision and pathological speed.
#pragma once

#include <complex>
#include <cstddef>
#include <span>

namespace mmhar {

/// Denormal storms: tolerated up to this fraction of the buffer...
inline constexpr double kDenormalStormFraction = 0.25;
/// ...and always tolerated below this absolute count (tiny buffers).
inline constexpr std::size_t kDenormalStormMinCount = 16;

/// True when finite checks are active. Resolution order: the testing
/// override, else the MMHAR_FINITE_CHECKS env var, else the compile-time
/// default (-DMMHAR_FINITE_CHECKS). The env lookup is cached.
bool finite_checks_enabled();

/// Testing hook: 1 forces on, 0 forces off, -1 restores the env lookup.
void set_finite_checks_for_testing(int forced);

/// Aggregate statistics from one scan (exposed for tests/reporting).
struct FiniteScan {
  std::size_t nan_count = 0;
  std::size_t inf_count = 0;
  std::size_t denormal_count = 0;
  std::size_t first_bad_index = 0;  ///< first NaN/Inf (or first denormal
                                    ///< when only a storm tripped)
  bool has_nan_or_inf() const { return nan_count + inf_count > 0; }
  /// The policy above for a scan of `n` values: any NaN/Inf, or a
  /// denormal storm.
  bool violates(std::size_t n) const {
    return has_nan_or_inf() ||
           (denormal_count >= kDenormalStormMinCount &&
            static_cast<double>(denormal_count) >
                kDenormalStormFraction * static_cast<double>(n));
  }
};

namespace detail {

FiniteScan scan_finite(const float* data, std::size_t n);
FiniteScan scan_finite(const double* data, std::size_t n);

[[noreturn]] void finite_check_failed(const FiniteScan& scan, std::size_t n,
                                      const char* tensor_name,
                                      const char* stage);

template <typename T>
void check_finite_impl(const T* data, std::size_t n, const char* tensor_name,
                       const char* stage) {
  const FiniteScan scan = scan_finite(data, n);
  if (scan.violates(n)) finite_check_failed(scan, n, tensor_name, stage);
}

}  // namespace detail

/// Scan `data` when checks are enabled; throws mmhar::Error on violation.
/// `tensor_name` and `stage` label the report (both must outlive the call
/// only; string literals are the expected usage).
inline void check_finite(std::span<const float> data, const char* tensor_name,
                         const char* stage) {
  if (finite_checks_enabled())
    detail::check_finite_impl(data.data(), data.size(), tensor_name, stage);
}

inline void check_finite(std::span<const double> data, const char* tensor_name,
                         const char* stage) {
  if (finite_checks_enabled())
    detail::check_finite_impl(data.data(), data.size(), tensor_name, stage);
}

/// Complex buffers are scanned as interleaved (re, im) float pairs, so the
/// reported flat index is `2*i` / `2*i+1` for element `i`'s re/im part.
inline void check_finite(std::span<const std::complex<float>> data,
                         const char* tensor_name, const char* stage) {
  if (finite_checks_enabled())
    detail::check_finite_impl(reinterpret_cast<const float*>(data.data()),
                              2 * data.size(), tensor_name, stage);
}

}  // namespace mmhar
