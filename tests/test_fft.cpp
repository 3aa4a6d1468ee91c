// Unit and property tests for the FFT and window functions.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "common/check.h"
#include "common/rng.h"
#include "dsp/fft.h"
#include "dsp/window.h"

namespace mmhar::dsp {
namespace {

constexpr double kPi = 3.14159265358979323846;

std::vector<cfloat> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cfloat> v(n);
  for (auto& x : v)
    x = cfloat(static_cast<float>(rng.normal()),
               static_cast<float>(rng.normal()));
  return v;
}

TEST(Fft, PowerOfTwoDetection) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(48));
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<cfloat> v(12);
  EXPECT_THROW(fft_inplace(v), InvalidArgument);
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, n);
  const auto fast = fft(x);
  const auto slow = dft_reference(x);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(fast[i].real(), slow[i].real(), 1e-2F) << "bin " << i;
    EXPECT_NEAR(fast[i].imag(), slow[i].imag(), 1e-2F) << "bin " << i;
  }
}

TEST_P(FftSizes, InverseRoundTrips) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, n + 1);
  const auto back = ifft(fft(x));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i].real(), x[i].real(), 1e-4F);
    EXPECT_NEAR(back[i].imag(), x[i].imag(), 1e-4F);
  }
}

TEST_P(FftSizes, ParsevalHolds) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, n + 2);
  const auto X = fft(x);
  double time_energy = 0.0;
  double freq_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  for (const auto& v : X) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-3 * time_energy + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256));

TEST(Fft, PureToneLandsOnExpectedBin) {
  const std::size_t n = 64;
  const std::size_t bin = 5;
  std::vector<cfloat> x(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double phase = 2.0 * kPi * bin * t / static_cast<double>(n);
    x[t] = cfloat(static_cast<float>(std::cos(phase)),
                  static_cast<float>(std::sin(phase)));
  }
  const auto X = fft(x);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < n; ++i)
    if (std::abs(X[i]) > std::abs(X[peak])) peak = i;
  EXPECT_EQ(peak, bin);
  EXPECT_NEAR(std::abs(X[bin]), static_cast<float>(n), 1e-2F);
}

TEST(Fft, LinearityProperty) {
  const std::size_t n = 32;
  const auto a = random_signal(n, 1);
  const auto b = random_signal(n, 2);
  std::vector<cfloat> sum(n);
  for (std::size_t i = 0; i < n; ++i)
    sum[i] = cfloat(2.0F, 0.0F) * a[i] + cfloat(0.0F, 1.0F) * b[i];
  const auto fa = fft(a);
  const auto fb = fft(b);
  const auto fsum = fft(sum);
  for (std::size_t i = 0; i < n; ++i) {
    const cfloat expect =
        cfloat(2.0F, 0.0F) * fa[i] + cfloat(0.0F, 1.0F) * fb[i];
    EXPECT_NEAR(fsum[i].real(), expect.real(), 2e-3F);
    EXPECT_NEAR(fsum[i].imag(), expect.imag(), 2e-3F);
  }
}

TEST(Fft, FftShiftSwapsHalves) {
  std::vector<float> v{1, 2, 3, 4};
  fftshift_inplace(std::span<float>(v));
  EXPECT_EQ(v, (std::vector<float>{3, 4, 1, 2}));
  std::vector<float> odd{1, 2, 3};
  EXPECT_THROW(fftshift_inplace(std::span<float>(odd)), InvalidArgument);
}

// ---- Batched engine (fft_many_*_multi) vs the naive DFT oracle -------------

// One frame through the batch-of-batches entry points: `proto` carries the
// geometry, `in`/`out` the frame's base pointers.
void crop_one(const FftManyJob& proto, const cfloat* in, std::size_t keep,
              cfloat* out, std::size_t out_lane_stride,
              std::size_t out_elem_stride) {
  const FftManyIo io{in, out};
  fft_many_crop_multi(proto, keep, std::span<const FftManyIo>(&io, 1),
                      out_lane_stride, out_elem_stride);
}

void full_one(const FftManyJob& proto, const cfloat* in, cfloat* out,
              std::size_t out_lane_stride, std::size_t out_elem_stride) {
  crop_one(proto, in, proto.n, out, out_lane_stride, out_elem_stride);
}

// Every transform size the pipeline actually issues: doppler bins (16),
// angle bins (32), ADC samples (64), plus one larger size for coverage.
class FftManySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftManySizes, ContiguousLanesMatchNaiveDft) {
  const std::size_t n = GetParam();
  const std::size_t lanes = 21;  // deliberately not a multiple of the SIMD width
  const auto data = random_signal(n * lanes, n);

  std::vector<cfloat> out(n * lanes);
  FftManyJob job;
  job.n = n;
  job.in_len = n;
  job.lanes = lanes;
  job.in_lane_stride = n;
  job.in_elem_stride = 1;
  full_one(job, data.data(), out.data(), n, 1);

  for (std::size_t l = 0; l < lanes; ++l) {
    const std::vector<cfloat> x(data.begin() + static_cast<std::ptrdiff_t>(l * n),
                                data.begin() + static_cast<std::ptrdiff_t>((l + 1) * n));
    const auto slow = dft_reference(x);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(out[l * n + i].real(), slow[i].real(), 1e-2F)
          << "lane " << l << " bin " << i;
      EXPECT_NEAR(out[l * n + i].imag(), slow[i].imag(), 1e-2F)
          << "lane " << l << " bin " << i;
    }
  }
}

TEST_P(FftManySizes, InterleavedSoALayoutMatchesContiguous) {
  // Same transforms, but laid out element-major (lane stride 1) the way
  // the doppler/angle stages read range spectra; outputs must agree.
  const std::size_t n = GetParam();
  const std::size_t lanes = 7;
  const auto rows = random_signal(n * lanes, n + 3);

  std::vector<cfloat> soa(n * lanes);
  for (std::size_t l = 0; l < lanes; ++l)
    for (std::size_t j = 0; j < n; ++j) soa[j * lanes + l] = rows[l * n + j];

  std::vector<cfloat> out_rows(n * lanes);
  FftManyJob row_job;
  row_job.n = n;
  row_job.in_len = n;
  row_job.lanes = lanes;
  row_job.in_lane_stride = n;
  row_job.in_elem_stride = 1;
  full_one(row_job, rows.data(), out_rows.data(), n, 1);

  std::vector<cfloat> out_soa(n * lanes);
  FftManyJob soa_job = row_job;
  soa_job.in_lane_stride = 1;
  soa_job.in_elem_stride = lanes;
  full_one(soa_job, soa.data(), out_soa.data(), 1, lanes);

  for (std::size_t l = 0; l < lanes; ++l)
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out_soa[i * lanes + l].real(), out_rows[l * n + i].real());
      EXPECT_EQ(out_soa[i * lanes + l].imag(), out_rows[l * n + i].imag());
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftManySizes,
                         ::testing::Values(16, 32, 64, 128));

TEST(FftMany, WindowAndZeroPadFuseIntoTheLoad) {
  // 16 antennas zero-padded to a 32-bin angle FFT with a Hann taper: the
  // fused path must match windowing + padding done by hand.
  const std::size_t in_len = 16;
  const std::size_t n = 32;
  const std::size_t lanes = 5;
  const auto data = random_signal(in_len * lanes, 9);
  const auto w = make_window(WindowKind::Hann, in_len);

  std::vector<cfloat> out(n * lanes);
  FftManyJob job;
  job.n = n;
  job.in_len = in_len;
  job.window = w.data();
  job.lanes = lanes;
  job.in_lane_stride = in_len;
  job.in_elem_stride = 1;
  full_one(job, data.data(), out.data(), n, 1);

  for (std::size_t l = 0; l < lanes; ++l) {
    std::vector<cfloat> x(n, cfloat{0.0F, 0.0F});
    for (std::size_t j = 0; j < in_len; ++j)
      x[j] = data[l * in_len + j] * w[j];
    const auto slow = dft_reference(x);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(out[l * n + i].real(), slow[i].real(), 1e-2F);
      EXPECT_NEAR(out[l * n + i].imag(), slow[i].imag(), 1e-2F);
    }
  }
}

TEST(FftMany, CropKeepsTheLeadingBins) {
  const std::size_t n = 64;
  const std::size_t keep = 32;  // the pipeline's range_bins crop
  const std::size_t lanes = 3;
  const auto data = random_signal(n * lanes, 11);

  FftManyJob job;
  job.n = n;
  job.in_len = n;
  job.lanes = lanes;
  job.in_lane_stride = n;
  job.in_elem_stride = 1;

  std::vector<cfloat> full(n * lanes);
  full_one(job, data.data(), full.data(), n, 1);
  std::vector<cfloat> cropped(keep * lanes);
  crop_one(job, data.data(), keep, cropped.data(), keep, 1);

  for (std::size_t l = 0; l < lanes; ++l)
    for (std::size_t i = 0; i < keep; ++i) {
      EXPECT_EQ(cropped[l * keep + i].real(), full[l * n + i].real());
      EXPECT_EQ(cropped[l * keep + i].imag(), full[l * n + i].imag());
    }
}

TEST(FftMany, MagAccumMatchesShiftedMagnitudeSum) {
  // reps-fold accumulation with fftshift, exactly what the RDI/DRAI
  // builders issue: |FFT| summed over the fold axis, zero bin centered.
  const std::size_t n = 16;
  const std::size_t lanes = 6;
  const std::size_t reps = 4;
  const auto data = random_signal(n * lanes * reps, 13);
  const auto w = make_window(WindowKind::Hamming, n);

  FftManyJob job;
  job.n = n;
  job.in_len = n;
  job.window = w.data();
  job.lanes = lanes;
  job.in_lane_stride = n;
  job.in_elem_stride = 1;
  job.reps = reps;
  job.in_rep_stride = n * lanes;

  std::vector<float> out(n * lanes, -1.0F);  // must be overwritten, not added
  const FftManyMagIo io{data.data(), out.data()};
  fft_many_mag_accum_multi(job, /*shift=*/true,
                           std::span<const FftManyMagIo>(&io, 1), n, 1);

  for (std::size_t l = 0; l < lanes; ++l) {
    std::vector<float> expect(n, 0.0F);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      std::vector<cfloat> x(n);
      for (std::size_t j = 0; j < n; ++j)
        x[j] = data[rep * n * lanes + l * n + j] * w[j];
      const auto X = dft_reference(x);
      std::vector<float> mag(n);
      for (std::size_t i = 0; i < n; ++i) mag[i] = std::abs(X[i]);
      fftshift_inplace(std::span<float>(mag));
      for (std::size_t i = 0; i < n; ++i) expect[i] += mag[i];
    }
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(out[l * n + i], expect[i], 5e-2F)
          << "lane " << l << " bin " << i;
  }
}

TEST(FftMany, RejectsInvalidJobs) {
  std::vector<cfloat> in(12);
  std::vector<cfloat> out(12);
  FftManyJob job;
  job.n = 12;  // not a power of two
  job.in_len = 12;
  job.lanes = 1;
  job.in_lane_stride = 12;
  EXPECT_THROW(full_one(job, in.data(), out.data(), 12, 1), InvalidArgument);
  job.n = 8;
  job.in_len = 12;  // longer than the transform
  EXPECT_THROW(full_one(job, in.data(), out.data(), 8, 1), InvalidArgument);
  job.in_len = 8;
  EXPECT_THROW(crop_one(job, in.data(), 9, out.data(), 8, 1),  // keep > n
               InvalidArgument);
  job.in = in.data();  // inputs come from the io list, never the job
  EXPECT_THROW(full_one(job, in.data(), out.data(), 8, 1), InvalidArgument);
  job.in = nullptr;
  EXPECT_THROW(fft_many_crop_multi(job, 8, {}, 8, 1), InvalidArgument);
  EXPECT_THROW(fft_many_mag_accum_multi(job, true, {}, 8, 1),
               InvalidArgument);
  full_one(job, in.data(), out.data(), 8, 1);  // the fixed job runs
}

TEST(Window, CachedWindowMatchesMakeWindow) {
  const auto& cached = cached_window(WindowKind::Blackman, 48);
  const auto fresh = make_window(WindowKind::Blackman, 48);
  ASSERT_EQ(cached.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i)
    EXPECT_EQ(cached[i], fresh[i]);
  // Same (kind, n) must come back as the same table (stable reference).
  EXPECT_EQ(&cached, &cached_window(WindowKind::Blackman, 48));
}

TEST(Window, RectIsAllOnes) {
  const auto w = make_window(WindowKind::Rect, 8);
  for (const float v : w) EXPECT_EQ(v, 1.0F);
}

class WindowKinds : public ::testing::TestWithParam<WindowKind> {};

TEST_P(WindowKinds, SymmetricBoundedAndPositiveGain) {
  const auto w = make_window(GetParam(), 33);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_GE(w[i], -1e-6F);
    EXPECT_LE(w[i], 1.0F + 1e-6F);
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-6F) << "asymmetric at " << i;
  }
  EXPECT_GT(coherent_gain(w), 0.0F);
  EXPECT_LE(coherent_gain(w), 1.0F + 1e-6F);
}

INSTANTIATE_TEST_SUITE_P(Kinds, WindowKinds,
                         ::testing::Values(WindowKind::Rect, WindowKind::Hann,
                                           WindowKind::Hamming,
                                           WindowKind::Blackman));

TEST(Window, HannEndsAtZeroPeaksAtCenter) {
  const auto w = make_window(WindowKind::Hann, 65);
  EXPECT_NEAR(w.front(), 0.0F, 1e-6F);
  EXPECT_NEAR(w.back(), 0.0F, 1e-6F);
  EXPECT_NEAR(w[32], 1.0F, 1e-6F);
}

TEST(Window, ReducesLeakageForOffBinTone) {
  // A tone between bins leaks everywhere with a rect window; Hann must
  // concentrate more energy near the true frequency.
  const std::size_t n = 64;
  const double f = 10.37;  // cycles per window, off-bin
  std::vector<cfloat> rect(n);
  std::vector<cfloat> hann(n);
  const auto w = make_window(WindowKind::Hann, n);
  for (std::size_t t = 0; t < n; ++t) {
    const double phase = 2.0 * kPi * f * t / static_cast<double>(n);
    const cfloat v(static_cast<float>(std::cos(phase)),
                   static_cast<float>(std::sin(phase)));
    rect[t] = v;
    hann[t] = v * w[t];
  }
  const auto fr = fft(rect);
  const auto fh = fft(hann);
  // Far-side leakage (bins 30..40) should be much lower with Hann.
  double leak_rect = 0.0;
  double leak_hann = 0.0;
  for (std::size_t i = 30; i <= 40; ++i) {
    leak_rect += std::abs(fr[i]);
    leak_hann += std::abs(fh[i]);
  }
  EXPECT_LT(leak_hann, 0.1 * leak_rect);
}

}  // namespace
}  // namespace mmhar::dsp
