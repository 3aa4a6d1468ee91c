// Unit tests for the common substrate: RNG, hashing, serialization,
// thread pool, env parsing, logging, and the check macros.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/env.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/thread_pool.h"

namespace mmhar {
namespace {

TEST(Check, ThrowsWithContext) {
  EXPECT_THROW(MMHAR_CHECK(1 == 2), Error);
  try {
    MMHAR_CHECK_MSG(false, "value was " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"),
              std::string::npos);
  }
}

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(MMHAR_REQUIRE(false, "nope"), InvalidArgument);
  EXPECT_NO_THROW(MMHAR_REQUIRE(true, "fine"));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 100; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

std::string rng_state(const Rng& rng) {
  std::ostringstream os;
  BinaryWriter w(os);
  rng.save(w);
  return os.str();
}

// Rng::normals_f32 against n scalar normal(mean, stddev) calls on a
// same-seeded generator: the float bits and the generator state bytes.
void expect_normals_match(std::uint64_t seed, std::size_t n, double mean,
                          double stddev, bool spare_on_entry) {
  Rng batched(seed);
  Rng scalar(seed);
  if (spare_on_entry) {
    batched.normal();
    scalar.normal();
  }
  std::vector<float> got(n + 1, -7.0F);
  std::vector<float> want(n + 1, -7.0F);
  batched.normals_f32(got.data(), n, mean, stddev);
  for (std::size_t i = 0; i < n; ++i)
    want[i] = static_cast<float>(scalar.normal(mean, stddev));
  EXPECT_EQ(std::memcmp(got.data(), want.data(), (n + 1) * sizeof(float)), 0)
      << "seed " << seed << " n " << n << " mean " << mean << " stddev "
      << stddev << " spare " << spare_on_entry;
  EXPECT_EQ(rng_state(batched), rng_state(scalar))
      << "seed " << seed << " n " << n << " spare " << spare_on_entry;
}

TEST(Rng, NormalsF32MatchesScalarNormal) {
  const std::size_t sizes[] = {0, 1, 2, 3, 4, 5, 7, 16, 17, 18, 511, 512, 513,
                               1030, 4097};
  const double moments[][2] = {
      {0.0, 1.0}, {0.0, 0.02}, {2.5, 0.5}, {-1e3, 3.0}, {0.1, 1e-6},
      {1e-30, 1e-30}, {0.0, -4.0}, {0.0, 1e-39}, {0.0, 1e38}};
  std::uint64_t seed = 1;
  for (const std::size_t n : sizes)
    for (const auto& m : moments)
      for (const bool spare : {false, true})
        expect_normals_match(seed++, n, m[0], m[1], spare);

  // Over 10^7 draws in uneven calls, so calls start with and without a
  // spare, against one continuing scalar stream.
  Rng batched(99);
  Rng scalar(99);
  std::vector<float> got(1000003);
  std::vector<float> want(got.size());
  std::size_t draws = 0;
  for (int call = 0; call < 10; ++call) {
    const std::size_t n = got.size() - static_cast<std::size_t>(call % 2);
    const double stddev = call < 5 ? 0.02 : 1.0;
    batched.normals_f32(got.data(), n, 0.0, stddev);
    for (std::size_t i = 0; i < n; ++i)
      want[i] = static_cast<float>(scalar.normal(0.0, stddev));
    ASSERT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0)
        << "call " << call;
    draws += n;
  }
  EXPECT_GE(draws, 10000000u);
  EXPECT_EQ(rng_state(batched), rng_state(scalar));
}

TEST(Rng, NormalsF32FastPathError) {
  // box_muller_pairs against the scalar normal() pairs it stands in for:
  // the error must stay within a quarter of what the guard assumes, in z
  // and in x = mean + stddev z, and the NaN (scalar-path) lanes are rare.
  constexpr std::size_t kPairs = 1 << 18;
  Rng uniforms(2024);
  std::vector<double> u1(kPairs), u2(kPairs), c(kPairs), s(kPairs);
  for (std::size_t p = 0; p < kPairs; ++p) {
    double a = 0.0;
    while (a <= 1e-300) a = uniforms.uniform();
    u1[p] = a;
    u2[p] = uniforms.uniform();
  }
  box_muller_pairs(u1.data(), u2.data(), kPairs, c.data(), s.data());
  const double moments[][2] = {{0.0, 1.0}, {0.0, 0.02}, {2.5, 0.5}};
  for (const auto& m : moments) {
    Rng scalar(2024);
    std::size_t nan_lanes = 0;
    double worst = 0.0;
    for (std::size_t p = 0; p < kPairs; ++p) {
      const double want_c = scalar.normal(m[0], m[1]);
      const double want_s = scalar.normal(m[0], m[1]);
      if (std::isnan(c[p])) {
        EXPECT_TRUE(std::isnan(s[p]));
        ++nan_lanes;
        continue;
      }
      for (const auto& [z, want] : {std::pair{c[p], want_c},
                                    std::pair{s[p], want_s}}) {
        const double bound = std::abs(m[0]) + std::abs(m[1] * z);
        worst = std::max(worst, std::abs(m[0] + m[1] * z - want) / bound);
      }
    }
    EXPECT_LE(worst, kNormalsGuardTolerance / 4) << "mean " << m[0];
    EXPECT_LT(nan_lanes, kPairs / 10000) << "mean " << m[0];
  }
}

TEST(Rng, NormalsF32GuardCatchesFloatTies) {
  // Inputs built to sit on a float rounding tie: mean = M - z for the
  // first pair's scalar z, with M halfway between 1 and the next float.
  // Where the fast z differs from the scalar z in the last bits, x lands
  // on the other side of M, and only the guard keeps the float right.
  constexpr double kTie = 1.0 + 0x1p-24;
  int unguarded_misses = 0;
  for (std::uint64_t seed = 1; seed <= 256; ++seed) {
    Rng probe(seed);
    const double z = probe.normal();
    const double mean = kTie - z;
    Rng scalar(seed);
    const float want = static_cast<float>(scalar.normal(mean, 1.0));

    Rng uniforms(seed);
    double u1[8] = {}, u2[8] = {}, c[8] = {}, s[8] = {};
    for (int p = 0; p < 8; ++p) {
      while (u1[p] <= 1e-300) u1[p] = uniforms.uniform();
      u2[p] = uniforms.uniform();
    }
    box_muller_pairs(u1, u2, 8, c, s);
    if (!std::isnan(c[0]) && static_cast<float>(mean + c[0]) != want)
      ++unguarded_misses;

    expect_normals_match(seed, 16, mean, 1.0, false);
  }
  // The fast path alone rounds some of these to the wrong float.
  EXPECT_GT(unguarded_misses, 0);
}

TEST(Rng, IndexUnbiasedOverSmallRange) {
  Rng rng(13);
  std::vector<int> counts(5, 0);
  const int n = 25000;
  for (int i = 0; i < n; ++i) ++counts[rng.index(5)];
  for (const int c : counts) EXPECT_NEAR(c, n / 5, n / 50);
}

TEST(Rng, IndexRejectsEmptyRange) {
  Rng rng(1);
  EXPECT_THROW(rng.index(0), InvalidArgument);
}

TEST(Rng, ForkStreamsAreIndependent) {
  Rng parent(42);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (c1.next_u64() == c2.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(3);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto i : sample) EXPECT_LT(i, 100u);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), InvalidArgument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<std::size_t> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Hasher, StableAndSensitive) {
  Hasher a;
  a.mix(1).mix(2.5).mix(std::string("x"));
  Hasher b;
  b.mix(1).mix(2.5).mix(std::string("x"));
  EXPECT_EQ(a.value(), b.value());
  Hasher c;
  c.mix(1).mix(2.5).mix(std::string("y"));
  EXPECT_NE(a.value(), c.value());
  EXPECT_EQ(a.hex().size(), 16u);
}

TEST(Hasher, OrderMatters) {
  Hasher a;
  a.mix(1).mix(2);
  Hasher b;
  b.mix(2).mix(1);
  EXPECT_NE(a.value(), b.value());
}

TEST(Serialize, RoundTripsAllTypes) {
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    w.write_u32(0xDEADBEEF);
    w.write_u64(1234567890123ULL);
    w.write_i64(-77);
    w.write_f32(1.5F);
    w.write_f64(-2.25);
    w.write_string("hello world");
    w.write_f32_vec({1.0F, 2.0F, 3.0F});
    w.write_u64_vec({9, 8});
  }
  BinaryReader r(ss);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEF);
  EXPECT_EQ(r.read_u64(), 1234567890123ULL);
  EXPECT_EQ(r.read_i64(), -77);
  EXPECT_EQ(r.read_f32(), 1.5F);
  EXPECT_EQ(r.read_f64(), -2.25);
  EXPECT_EQ(r.read_string(), "hello world");
  EXPECT_EQ(r.read_f32_vec(), (std::vector<float>{1.0F, 2.0F, 3.0F}));
  EXPECT_EQ(r.read_u64_vec(), (std::vector<std::uint64_t>{9, 8}));
}

TEST(Serialize, TruncationThrows) {
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    w.write_u32(1);
  }
  BinaryReader r(ss);
  EXPECT_EQ(r.read_u32(), 1u);
  EXPECT_THROW(r.read_u64(), IoError);
}

TEST(Serialize, FileHelpers) {
  const std::string dir = "test_tmp_serialize";
  ensure_directory(dir);
  const std::string path = dir + "/file.bin";
  {
    auto os = open_for_write(path);
    BinaryWriter w(os);
    w.write_u32(7);
  }
  EXPECT_TRUE(file_exists(path));
  {
    auto is = open_for_read(path);
    BinaryReader r(is);
    EXPECT_EQ(r.read_u32(), 7u);
  }
  EXPECT_THROW(open_for_read(dir + "/missing.bin"), IoError);
  std::filesystem::remove_all(dir);
}

TEST(ThreadPool, ParallelForCoversRangeOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesWorkerException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::size_t i) {
                                   if (i == 63) throw Error("boom");
                                 }),
               Error);
}

TEST(ThreadPool, ChunkedPartitionsAreContiguousAndDisjoint) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for_chunked(10, 110, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lk(mu);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  std::size_t expect = 10;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expect);
    EXPECT_LT(lo, hi);
    expect = hi;
  }
  EXPECT_EQ(expect, 110u);
}

TEST(Env, ParsesAndFallsBack) {
  ::setenv("MMHAR_TEST_INT", "42", 1);
  EXPECT_EQ(env_int("MMHAR_TEST_INT", 7), 42);
  EXPECT_EQ(env_int("MMHAR_TEST_MISSING_INT", 7), 7);
  ::setenv("MMHAR_TEST_BAD", "4x2", 1);
  EXPECT_EQ(env_int("MMHAR_TEST_BAD", 9), 9);
  ::setenv("MMHAR_TEST_DBL", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("MMHAR_TEST_DBL", 0.0), 2.5);
  ::setenv("MMHAR_TEST_STR", "abc", 1);
  EXPECT_EQ(env_string("MMHAR_TEST_STR", "zzz"), "abc");
  EXPECT_EQ(env_string("MMHAR_TEST_MISSING_STR", "zzz"), "zzz");
}

TEST(Logging, ThresholdFilters) {
  const LogLevel prev = log_threshold();
  set_log_threshold(LogLevel::Error);
  MMHAR_LOG(Info) << "should be suppressed";
  set_log_threshold(prev);
  SUCCEED();
}

}  // namespace
}  // namespace mmhar
