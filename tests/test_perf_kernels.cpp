// Tests for the packed GEMM microkernel and the SoA IF-synthesis kernel:
// property tests against a naive reference, bit-exact determinism across
// thread-pool sizes, nested-parallelism safety, and the single-frame
// sequence edge case.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "mesh/primitives.h"
#include "radar/simulator.h"
#include "tensor/gemm.h"

namespace mmhar {
namespace {

// Route global_pool() to a locally constructed pool for the duration of a
// scope; restores the real pool on exit.
struct PoolOverride {
  explicit PoolOverride(ThreadPool* p) { set_global_pool_for_testing(p); }
  ~PoolOverride() { set_global_pool_for_testing(nullptr); }
};

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// Naive triple-loop reference with a double accumulator.
std::vector<float> naive_gemm(std::size_t m, std::size_t k, std::size_t n,
                              float alpha, const std::vector<float>& a,
                              const std::vector<float>& b, float beta,
                              const std::vector<float>& c0) {
  std::vector<float> c(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p)
        acc += static_cast<double>(a[i * k + p]) *
               static_cast<double>(b[p * n + j]);
      c[i * n + j] = static_cast<float>(
          static_cast<double>(alpha) * acc +
          static_cast<double>(beta) * static_cast<double>(c0[i * n + j]));
    }
  }
  return c;
}

void expect_close(const std::vector<float>& ref, const std::vector<float>& got,
                  const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double tol =
        1e-3 * std::max(1.0, std::abs(static_cast<double>(ref[i])));
    EXPECT_NEAR(ref[i], got[i], tol) << what << " element " << i;
  }
}

struct Shape {
  std::size_t m, k, n;
};

// Includes m == 1 (the gemv fast path), odd microkernel tails in every
// dimension, and k/n extents that cross the cache-block boundaries.
const Shape kShapes[] = {
    {1, 1, 1},    {1, 7, 5},      {2, 3, 4},     {4, 32, 32},
    {5, 17, 33},  {7, 3, 65},     {8, 64, 48},   {33, 129, 65},
    {64, 64, 64}, {3, 300, 37},   {2, 5, 1050},  {61, 257, 31},
};

TEST(GemmMicrokernel, MatchesNaiveReferenceAcrossShapes) {
  Rng rng(101);
  const float alphas[] = {1.0F, 2.5F, -0.75F};
  const float betas[] = {0.0F, 1.0F, 0.5F};
  for (const auto& s : kShapes) {
    const auto a = random_vec(s.m * s.k, rng);
    const auto b = random_vec(s.k * s.n, rng);
    const auto c0 = random_vec(s.m * s.n, rng);
    for (float alpha : alphas) {
      for (float beta : betas) {
        auto c = c0;
        sgemm(s.m, s.k, s.n, alpha, a.data(), b.data(), beta, c.data());
        expect_close(naive_gemm(s.m, s.k, s.n, alpha, a, b, beta, c0), c,
                     "sgemm");
      }
    }
  }
}

TEST(GemmMicrokernel, AlphaZeroOnlyScalesC) {
  Rng rng(102);
  const auto a = random_vec(6 * 9, rng);
  const auto b = random_vec(9 * 11, rng);
  const auto c0 = random_vec(6 * 11, rng);
  auto c = c0;
  sgemm(6, 9, 11, 0.0F, a.data(), b.data(), 0.5F, c.data());
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_FLOAT_EQ(0.5F * c0[i], c[i]);
}

TEST(GemmMicrokernel, TransposedVariantsMatchNaiveReference) {
  Rng rng(103);
  for (const auto& s : kShapes) {
    // A^T path: A stored k x m.
    const auto at_store = random_vec(s.k * s.m, rng);
    std::vector<float> a(s.m * s.k);
    for (std::size_t p = 0; p < s.k; ++p)
      for (std::size_t i = 0; i < s.m; ++i)
        a[i * s.k + p] = at_store[p * s.m + i];
    const auto b = random_vec(s.k * s.n, rng);
    const auto c0 = random_vec(s.m * s.n, rng);
    auto c = c0;
    sgemm_at(s.m, s.k, s.n, 1.5F, at_store.data(), b.data(), 0.5F, c.data());
    expect_close(naive_gemm(s.m, s.k, s.n, 1.5F, a, b, 0.5F, c0), c,
                 "sgemm_at");

    // B^T path: B stored n x k.
    const auto bt_store = random_vec(s.n * s.k, rng);
    std::vector<float> bb(s.k * s.n);
    for (std::size_t j = 0; j < s.n; ++j)
      for (std::size_t p = 0; p < s.k; ++p)
        bb[p * s.n + j] = bt_store[j * s.k + p];
    auto c2 = c0;
    sgemm_bt(s.m, s.k, s.n, 1.0F, a.data(), bt_store.data(), 1.0F, c2.data());
    expect_close(naive_gemm(s.m, s.k, s.n, 1.0F, a, bb, 1.0F, c0), c2,
                 "sgemm_bt");
  }
}

TEST(GemmMicrokernel, PrepackedAMatchesSgemmBitwise) {
  Rng rng(104);
  for (const auto& s : kShapes) {
    if (s.m == 1) continue;  // sgemm's m==1 path reduces in another order
    const auto a = random_vec(s.m * s.k, rng);
    const auto b = random_vec(s.k * s.n, rng);
    std::vector<float> c_plain(s.m * s.n, 0.0F);
    std::vector<float> c_packed(s.m * s.n, 0.0F);
    sgemm(s.m, s.k, s.n, 1.25F, a.data(), b.data(), 0.0F, c_plain.data());
    const PackedA packed = pack_a(s.m, s.k, a.data());
    sgemm_packed_a(packed, s.n, 1.25F, b.data(), 0.0F, c_packed.data());
    EXPECT_EQ(c_plain, c_packed) << s.m << "x" << s.k << "x" << s.n;

    // pack_at from transposed storage matches sgemm_at bitwise too.
    std::vector<float> at_store(s.k * s.m);
    for (std::size_t p = 0; p < s.k; ++p)
      for (std::size_t i = 0; i < s.m; ++i)
        at_store[p * s.m + i] = a[i * s.k + p];
    std::vector<float> c_at(s.m * s.n, 0.0F);
    std::vector<float> c_atp(s.m * s.n, 0.0F);
    sgemm_at(s.m, s.k, s.n, 1.0F, at_store.data(), b.data(), 0.0F,
             c_at.data());
    const PackedA packed_t = pack_at(s.m, s.k, at_store.data());
    sgemm_packed_a(packed_t, s.n, 1.0F, b.data(), 0.0F, c_atp.data());
    EXPECT_EQ(c_at, c_atp);
  }
}

// PackedB holds every k-block of the operand (shapes here cross k = 256
// and n = 1024), so a pre-packed product replays the driver's blocks.
TEST(GemmMicrokernel, PrepackedBMatchesDriverBitwise) {
  Rng rng(105);
  PackedB reused;  // repacked in place across shapes
  for (const auto& s : kShapes) {
    const auto a = random_vec(s.m * s.k, rng);
    const auto b = random_vec(s.k * s.n, rng);
    std::vector<float> bt_store(s.n * s.k);
    for (std::size_t p = 0; p < s.k; ++p)
      for (std::size_t j = 0; j < s.n; ++j)
        bt_store[j * s.k + p] = b[p * s.n + j];
    auto c_seed = random_vec(s.m * s.n, rng);

    // beta = 1 accumulation against sgemm_bt, for every m.
    std::vector<float> c_bt = c_seed;
    std::vector<float> c_pb = c_seed;
    sgemm_bt(s.m, s.k, s.n, 0.75F, a.data(), bt_store.data(), 1.0F,
             c_bt.data());
    pack_bt(s.k, s.n, bt_store.data(), reused);
    sgemm_packed_b(s.m, 0.75F, a.data(), reused, 1.0F, c_pb.data());
    EXPECT_EQ(c_bt, c_pb) << s.m << "x" << s.k << "x" << s.n;

    // Row-major packing against sgemm (whose m == 1 path differs).
    const PackedB packed = pack_b(s.k, s.n, b.data());
    if (s.m > 1) {
      std::vector<float> c_plain(s.m * s.n, 0.0F);
      std::vector<float> c_packed(s.m * s.n, 0.0F);
      sgemm(s.m, s.k, s.n, 1.0F, a.data(), b.data(), 0.0F, c_plain.data());
      sgemm_packed_b(s.m, 1.0F, a.data(), packed, 0.0F, c_packed.data());
      EXPECT_EQ(c_plain, c_packed) << s.m << "x" << s.k << "x" << s.n;
    }

    // Writing every element through packed_b_offset builds the same image.
    PackedB by_offset;
    shape_packed_b(by_offset, s.k, s.n);
    for (std::size_t p = 0; p < s.k; ++p)
      for (std::size_t j = 0; j < s.n; ++j)
        by_offset.data[packed_b_offset(by_offset, p, j)] = b[p * s.n + j];
    EXPECT_EQ(by_offset.data, packed.data);
  }
}

TEST(Determinism, GemmBitIdenticalAcrossPoolSizes) {
  Rng rng(105);
  // Big enough to clear the parallel threshold (m*n*k >= 2^18).
  const std::size_t m = 96, k = 160, n = 128;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  const auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    PoolOverride ov(&pool);
    std::vector<float> c(m * n, 0.0F);
    sgemm(m, k, n, 1.0F, a.data(), b.data(), 0.0F, c.data());
    return c;
  };
  const auto c1 = run(1);
  EXPECT_EQ(c1, run(2));
  EXPECT_EQ(c1, run(8));
}

TEST(Determinism, SynthesizeBitIdenticalAcrossPoolSizes) {
  radar::FmcwConfig cfg;
  cfg.noise_std = 0.0;
  const radar::Simulator sim(cfg);
  Rng rng(106);
  std::vector<radar::Scatterer> scatterers;
  for (int i = 0; i < 40; ++i) {
    radar::Scatterer s;
    s.position = {1.0 + rng.uniform(), rng.uniform(-0.5, 0.5),
                  rng.uniform(-0.5, 0.5)};
    s.amplitude = rng.uniform(0.1, 1.0);
    s.radial_velocity = rng.uniform(-1.0, 1.0);
    scatterers.push_back(s);
  }
  const auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    PoolOverride ov(&pool);
    return sim.synthesize(scatterers);
  };
  const auto c1 = run(1);
  EXPECT_EQ(c1.raw(), run(2).raw());
  EXPECT_EQ(c1.raw(), run(8).raw());
}

TEST(Determinism, SimulateSequenceBitIdenticalAcrossPoolSizes) {
  radar::FmcwConfig cfg;
  cfg.noise_std = 0.01;
  const radar::Simulator sim(cfg);
  std::vector<mesh::TriMesh> frames;
  for (int f = 0; f < 5; ++f)
    frames.push_back(mesh::make_plate({1.2 + 0.01 * f, 0, 0}, {-1, 0, 0},
                                      {0, 0, 1}, 0.05, 0.05,
                                      mesh::Material::skin(), 1));
  const auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    PoolOverride ov(&pool);
    Rng rng(7);
    return sim.simulate_sequence(frames, nullptr, 0.016, &rng);
  };
  const auto r1 = run(1);
  const auto r2 = run(2);
  const auto r8 = run(8);
  ASSERT_EQ(r1.size(), r2.size());
  ASSERT_EQ(r1.size(), r8.size());
  for (std::size_t f = 0; f < r1.size(); ++f) {
    EXPECT_EQ(r1[f].raw(), r2[f].raw()) << "frame " << f;
    EXPECT_EQ(r1[f].raw(), r8[f].raw()) << "frame " << f;
  }
}

TEST(ThreadPoolNesting, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  PoolOverride ov(&pool);
  std::atomic<int> count{0};
  parallel_for(0, 4, [&](std::size_t) {
    // Issued from inside a pool worker (or the caller): must not block on
    // pool capacity.
    parallel_for(0, 8, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(SimulateSequence, SingleFrameSequenceMatchesStaticSynthesis) {
  radar::FmcwConfig cfg;
  cfg.noise_std = 0.0;
  const radar::Simulator sim(cfg);
  const mesh::TriMesh plate = mesh::make_plate(
      {1.3, 0, 0}, {-1, 0, 0}, {0, 0, 1}, 0.05, 0.05,
      mesh::Material::skin(), 1);
  const auto cubes =
      sim.simulate_sequence({plate}, nullptr, 0.016, nullptr);
  ASSERT_EQ(cubes.size(), 1u);
  const auto expected =
      sim.synthesize(sim.extract_scatterers(plate, nullptr, 0.0));
  EXPECT_EQ(cubes[0].raw(), expected.raw());
}

}  // namespace
}  // namespace mmhar
