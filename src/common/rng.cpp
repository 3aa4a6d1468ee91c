#include "common/rng.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/serialize.h"

namespace mmhar {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

constexpr double kTwoPi = 2.0 * 3.14159265358979323846;

// One Box–Muller pair in libm double math: the reference normal() draws
// and every batched value must reproduce.
void box_muller(double u1, double u2, double& c, double& s) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = kTwoPi * u2;
  c = r * std::cos(theta);
  s = r * std::sin(theta);
}

double affine(double mean, double stddev, double z) {
  return mean + stddev * z;
}

// GCC/Clang vector types: element-wise arithmetic with scalar rounding,
// lowered to the widest SIMD registers the target has. A cast between two
// of them reinterprets the bits. Passed by reference only (no vector ABI).
using Doubles8 = double __attribute__((vector_size(64)));
using Floats8 = float __attribute__((vector_size(32)));
using Words8 = std::uint64_t __attribute__((vector_size(64)));
using Masks8 = std::int64_t __attribute__((vector_size(64)));  // 0 / -1
constexpr std::size_t kLanes = 8;
constexpr std::uint64_t kAbsMask = 0x7FFFFFFFFFFFFFFFULL;

// ln x for normal positive x, within ~1 ulp: fdlibm's reduction to
// [sqrt(2)/2, sqrt(2)) and its minimax series in s = f / (2 + f).
void log_v(const Doubles8& x, Doubles8& ln_x) {
  const Words8 bits = (Words8)x;
  Words8 hx = (bits >> 32) + (0x3FF00000 - 0x3FE6A09E);
  const Words8 biased_k = hx >> 20;
  hx = (hx & 0x000FFFFF) + 0x3FE6A09E;
  const Doubles8 f = (Doubles8)((hx << 32) | (bits & 0xFFFFFFFFULL)) - 1.0;
  // 2^52 + biased_k, exactly, minus 2^52 + 1023.
  const Doubles8 k =
      (Doubles8)(biased_k | 0x4330000000000000ULL) - (0x1p52 + 1023.0);
  const Doubles8 hfsq = 0.5 * f * f;
  const Doubles8 s = f / (2.0 + f);
  const Doubles8 z = s * s;
  const Doubles8 w = z * z;
  const Doubles8 t1 =
      w * (3.999999999940941908e-01 +
           w * (2.222219843214978396e-01 + w * 1.531383769920937332e-01));
  const Doubles8 t2 =
      z * (6.666666666666735130e-01 +
           w * (2.857142874366239149e-01 +
                w * (1.818357216161805012e-01 + w * 1.479819860511658591e-01)));
  ln_x = s * (hfsq + (t1 + t2)) + k * 1.90821492927058770002e-10 - hfsq + f +
         k * 6.93147180369123816490e-01;
}

// cos and sin of theta in [0, 2 pi), within ~2 ulp while the result is
// not tiny: reduction by a two-part pi/2 (exact for theta < 2 pi) and
// fdlibm's minimax kernels on |y| <= pi/4.
void sincos_v(const Doubles8& theta, Doubles8& c, Doubles8& s) {
  constexpr double kShift = 0x1.8p52;  // adding it rounds to an integer
  const Doubles8 t = theta * 6.36619772367581382433e-01 + kShift;
  const Doubles8 q_n = t - kShift;
  const Words8 q = (Words8)t;  // low bits: the quadrant
  const Doubles8 y = (theta - q_n * 1.57079632673412561417e+00) -
                     q_n * 6.07710050650619224932e-11;
  const Doubles8 z = y * y;
  const Doubles8 sin_y =
      y + y * z *
              (-1.66666666666666324348e-01 +
               z * (8.33333333332248946124e-03 +
                    z * (-1.98412698298579493134e-04 +
                         z * (2.75573137070700676789e-06 +
                              z * (-2.50507602534068634195e-08 +
                                   z * 1.58969099521155010221e-10)))));
  const Doubles8 cos_y =
      1.0 - (0.5 * z -
             z * z *
                 (4.16666666666666019037e-02 +
                  z * (-1.38888888888741095749e-03 +
                       z * (2.48015872894767294178e-05 +
                            z * (-2.75573143513906633035e-07 +
                                 z * (2.08757232129817482790e-09 +
                                      z * -1.13596475577881948265e-11))))));
  // Quadrant q: (cos, sin) = (C, S), (-S, C), (-C, -S), (S, -C).
  const Words8 swap = Words8{} - (q & 1);
  const Words8 cb = (Words8)cos_y;
  const Words8 sb = (Words8)sin_y;
  c = (Doubles8)(((swap & sb) | (~swap & cb)) ^ (((q + 1) & 2) << 62));
  s = (Doubles8)(((swap & cb) | (~swap & sb)) ^ ((q & 2) << 62));
}

// Below this |cos| or |sin| the reduction error is no longer small
// relative to the result; such lanes take the scalar path.
constexpr double kTinyTrig = 0x1p-20;

// Pairs per batch: the uniforms, normals and floats of one batch stay in
// L1.
constexpr std::size_t kPairChunk = 256;

// m <= kPairChunk pairs into out[0, 2m), exactly as m pairs of scalar
// normal(mean, stddev) calls on a generator without a spare.
void fill_pairs(Rng& rng, float* out, std::size_t m, double mean,
                double stddev) {
  double u1[kPairChunk] = {}, u2[kPairChunk] = {};
  double zc[kPairChunk] = {}, zs[kPairChunk] = {};
  for (std::size_t p = 0; p < m; ++p) {
    double a = 0.0;
    while (a <= 1e-300) a = rng.uniform();
    u1[p] = a;
    u2[p] = rng.uniform();
  }
  const std::size_t m_pad = (m + kLanes - 1) / kLanes * kLanes;
  std::fill(u1 + m, u1 + m_pad, 0.5);
  std::fill(u2 + m, u2 + m_pad, 0.125);
  box_muller_pairs(u1, u2, m_pad, zc, zs);

  // x rounds to the float of the scalar value when no float rounding
  // boundary lies within e of x, e being twice the bound on |x - scalar|
  // (the slack absorbs the roundings of x and x +- e): then float(x - e)
  // and float(x + e) agree, and rounding is monotone. NaN lanes never
  // agree. Outside the normal float range the pair goes scalar too.
  const double abs_mean = std::abs(mean);
  const double abs_stddev = std::abs(stddev);
  for (std::size_t p0 = 0; p0 < m; p0 += kLanes) {
    const std::size_t width = std::min(kLanes, m - p0);
    Floats8 f[2] = {};
    Masks8 exact = Masks8{} - 1;
    for (int part = 0; part < 2; ++part) {
      Doubles8 z = {};
      std::memcpy(&z, (part == 0 ? zc : zs) + p0, sizeof z);
      const Doubles8 x = mean + stddev * z;
      const Doubles8 abs_z = (Doubles8)((Words8)z & kAbsMask);
      const Doubles8 e =
          (2.0 * kNormalsGuardTolerance) * (abs_mean + abs_stddev * abs_z);
      f[part] = __builtin_convertvector(x - e, Floats8);
      const Floats8 hi = __builtin_convertvector(x + e, Floats8);
      const Doubles8 ax = (Doubles8)((Words8)x & kAbsMask);
      exact &= __builtin_convertvector(f[part] == hi, Masks8) &
               __builtin_convertvector((ax >= FLT_MIN) & (ax <= FLT_MAX),
                                       Masks8);
    }
    for (std::size_t l = 0; l < width; ++l) {
      float* pair = out + 2 * (p0 + l);
      pair[0] = f[0][l];
      pair[1] = f[1][l];
    }
    for (std::size_t l = 0; l < width; ++l) {
      if (exact[l] != 0) continue;
      double c = 0.0, s = 0.0;
      box_muller(u1[p0 + l], u2[p0 + l], c, s);
      float* pair = out + 2 * (p0 + l);
      pair[0] = static_cast<float>(affine(mean, stddev, c));
      pair[1] = static_cast<float>(affine(mean, stddev, s));
    }
  }
}

}  // namespace

void box_muller_pairs(const double* u1, const double* u2, std::size_t n,
                      double* c, double* s) {
  MMHAR_CHECK_MSG(n % kLanes == 0, "box_muller_pairs needs n % 8 == 0");
  for (std::size_t i = 0; i < n; i += kLanes) {
    Doubles8 a = {}, b = {};
    std::memcpy(&a, u1 + i, sizeof a);
    std::memcpy(&b, u2 + i, sizeof b);
    Doubles8 ln_a = {};
    log_v(a, ln_a);
    const Doubles8 two_ln = -2.0 * ln_a;
    Doubles8 r = {};
    for (std::size_t l = 0; l < kLanes; ++l) r[l] = std::sqrt(two_ln[l]);
    Doubles8 cv = {}, sv = {};
    const Doubles8 theta = kTwoPi * b;
    sincos_v(theta, cv, sv);
    const Doubles8 abs_c = (Doubles8)((Words8)cv & kAbsMask);
    const Doubles8 abs_s = (Doubles8)((Words8)sv & kAbsMask);
    const Masks8 tiny = __builtin_convertvector(
        (abs_c < kTinyTrig) | (abs_s < kTinyTrig), Masks8);
    const Words8 nan_if_tiny = (Words8)tiny & 0x7FF8000000000000ULL;
    const Doubles8 zc = (Doubles8)((Words8)(r * cv) | nan_if_tiny);
    const Doubles8 zs = (Doubles8)((Words8)(r * sv) | nan_if_tiny);
    std::memcpy(c + i, &zc, sizeof zc);
    std::memcpy(s + i, &zs, sizeof zs);
  }
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng Rng::fork(std::uint64_t tag) {
  // Mix the parent's next output with the tag to seed the child.
  const std::uint64_t base = next_u64();
  std::uint64_t sm = base ^ (tag * 0xD1342543DE82EF95ULL + 0x2545F4914F6CDD1DULL);
  Rng child(0);
  for (auto& s : child.s_) s = splitmix64(sm);
  return child;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  MMHAR_REQUIRE(lo <= hi, "uniform bounds out of order");
  return lo + (hi - lo) * uniform();
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u1 = 0.0;
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  double c = 0.0;
  box_muller(u1, u2, c, spare_);
  has_spare_ = true;
  return c;
}

double Rng::normal(double mean, double stddev) {
  return affine(mean, stddev, normal());
}

void Rng::normals_f32(float* out, std::size_t n, double mean,
                      double stddev) {
  std::size_t i = 0;
  if (n > 0 && has_spare_) out[i++] = static_cast<float>(normal(mean, stddev));
  // The last pair (or a lone last element) is drawn by normal() itself:
  // the spare it leaves behind must be libm's bits, not the vector path's.
  const std::size_t rest = n - i;
  const std::size_t tail = rest % 2 == 1 ? 1 : std::min<std::size_t>(rest, 2);
  for (std::size_t pairs = (rest - tail) / 2; pairs > 0;) {
    const std::size_t m = std::min(pairs, kPairChunk);
    fill_pairs(*this, out + i, m, mean, stddev);
    i += 2 * m;
    pairs -= m;
  }
  for (; i < n; ++i) out[i] = static_cast<float>(normal(mean, stddev));
}

std::size_t Rng::index(std::size_t n) {
  MMHAR_REQUIRE(n > 0, "index() over empty range");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t x = next_u64();
  while (x >= limit) x = next_u64();
  return static_cast<std::size_t>(x % n);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  MMHAR_REQUIRE(k <= n, "cannot sample " << k << " from " << n);
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher–Yates: first k entries become the sample.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + index(n - i);
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

void Rng::shuffle(std::vector<std::size_t>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = index(i);
    std::swap(v[i - 1], v[j]);
  }
}

void Rng::save(BinaryWriter& w) const {
  for (const std::uint64_t s : s_) w.write_u64(s);
  w.write_f64(spare_);
  w.write_u32(has_spare_ ? 1 : 0);
}

void Rng::load(BinaryReader& r) {
  for (auto& s : s_) s = r.read_u64();
  spare_ = r.read_f64();
  has_spare_ = r.read_u32() != 0;
}

}  // namespace mmhar
