#include "dsp/rng.hpp"

#include <cassert>
#include <cmath>
#include <cstdlib>

namespace hs::dsp {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t hash_stream_name(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng::Rng(std::uint64_t seed, std::string_view stream_name)
    : Rng(seed ^ hash_stream_name(stream_name)) {}

std::uint64_t derive_seed(std::uint64_t seed, std::string_view stream_name) {
  return Rng(seed, stream_name).next_u64();
}

namespace {

// The xoshiro256++ state as four scalars. The fills copy Rng::s_ into one
// of these for a whole block, so the compiler keeps the state in
// registers instead of loading and storing the member on every draw.
struct Xoshiro {
  std::uint64_t s0, s1, s2, s3;

  explicit Xoshiro(const std::uint64_t (&s)[4])
      : s0(s[0]), s1(s[1]), s2(s[2]), s3(s[3]) {}
  void store(std::uint64_t (&s)[4]) const {
    s[0] = s0;
    s[1] = s1;
    s[2] = s2;
    s[3] = s3;
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s0 + s3, 23) + s0;
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = rotl(s3, 45);
    return result;
  }
};

}  // namespace

std::uint64_t Rng::next_u64() {
  Xoshiro x(s_);
  const std::uint64_t result = x.next();
  x.store(s_);
  return result;
}

double Rng::uniform() {
  // 53 top bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_u64(std::uint64_t n) {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = n * ((~std::uint64_t{0}) / n);
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % n;
}

namespace {

// Marsaglia-Tsang ziggurat tables for the standard normal (128 layers).
// The common case is one 64-bit draw, one table compare and one multiply
// — roughly 6x faster than Box-Muller's log/sqrt/sincos per sample, which
// matters because thermal noise (Medium::mix -> fill_awgn) is drawn for
// every antenna of every simulated block.
struct ZigguratTables {
  static constexpr double kR = 3.442619855899;  // start of the tail
  std::int64_t kn[128];
  double wn[128];
  double fn[128];

  ZigguratTables() {
    constexpr double m = 2147483648.0;  // 2^31, the |hz| scale
    const double vn = 9.91256303526217e-3;
    double dn = kR, tn = kR;
    const double q = vn / std::exp(-0.5 * dn * dn);
    kn[0] = static_cast<std::int64_t>((dn / q) * m);
    kn[1] = 0;
    wn[0] = q / m;
    wn[127] = dn / m;
    fn[0] = 1.0;
    fn[127] = std::exp(-0.5 * dn * dn);
    for (int i = 126; i >= 1; --i) {
      dn = std::sqrt(-2.0 * std::log(vn / dn + std::exp(-0.5 * dn * dn)));
      kn[i + 1] = static_cast<std::int64_t>((dn / tn) * m);
      tn = dn;
      fn[i] = std::exp(-0.5 * dn * dn);
      wn[i] = dn / m;
    }
  }
};

const ZigguratTables& ziggurat() {
  static const ZigguratTables tables;
  return tables;
}

// The accept test of one ziggurat draw: inside the layer rectangle the
// variate is hz * wn[iz], with no further draws. False sends the caller to
// the out-of-line gaussian_reject(hz).
bool ziggurat_accept(const ZigguratTables& z, std::int32_t hz, double& g) {
  const std::size_t iz = static_cast<std::uint32_t>(hz) & 127u;
  if (std::abs(static_cast<std::int64_t>(hz)) >= z.kn[iz]) return false;
  g = hz * z.wn[iz];
  return true;
}

}  // namespace

[[gnu::noinline]] double Rng::gaussian_reject(std::int32_t hz) {
  const ZigguratTables& z = ziggurat();
  for (;;) {
    const std::size_t iz = static_cast<std::uint32_t>(hz) & 127u;
    if (iz == 0) {
      // Tail beyond kR (Marsaglia's exact tail method).
      double x, y;
      do {
        x = -std::log(1.0 - uniform()) / ZigguratTables::kR;
        y = -std::log(1.0 - uniform());
      } while (y + y < x * x);
      return hz > 0 ? ZigguratTables::kR + x : -ZigguratTables::kR - x;
    }
    // Wedge: exact accept/reject against the density.
    const double x = hz * z.wn[iz];
    if (z.fn[iz] + uniform() * (z.fn[iz - 1] - z.fn[iz]) <
        std::exp(-0.5 * x * x)) {
      return x;
    }
    hz = static_cast<std::int32_t>(next_u64());
    double g = 0.0;
    if (ziggurat_accept(z, hz, g)) return g;
  }
}

double Rng::gaussian() {
  const auto hz = static_cast<std::int32_t>(next_u64());
  double g = 0.0;
  if (ziggurat_accept(ziggurat(), hz, g)) [[likely]] return g;
  return gaussian_reject(hz);
}

double Rng::gaussian(double mean, double stddev) {
  return mean + stddev * gaussian();
}

cplx Rng::cgaussian(double variance) {
  const double s = std::sqrt(variance / 2.0);
  return {s * gaussian(), s * gaussian()};
}

cplx Rng::random_phase() {
  const double phi = uniform(0.0, kTwoPi);
  return {std::cos(phi), std::sin(phi)};
}

// The fills draw exactly the variates, in exactly the order, of the
// equivalent scalar calls: re then im, sample by sample, each scaled as
// s * (hz * wn[iz]). The loop inlines only the accept path (one draw, a
// mask, a compare and a multiply) and runs it on a register copy of the
// stream state. The rare wedge/tail draw syncs that copy through s_ and
// runs the same out-of-line gaussian_reject() that gaussian() runs.
template <class Amplitude>
void Rng::fill_pairs(double* re, double* im, std::size_t stride,
                     std::size_t n, Amplitude amplitude) {
  const ZigguratTables& z = ziggurat();
  Xoshiro x(s_);
  const auto draw = [&] {
    const auto hz = static_cast<std::int32_t>(x.next());
    double g = 0.0;
    if (ziggurat_accept(z, hz, g)) [[likely]] return g;
    x.store(s_);
    g = gaussian_reject(hz);
    x = Xoshiro(s_);
    return g;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const double s = amplitude(i);
    re[i * stride] = s * draw();
    im[i * stride] = s * draw();
  }
  x.store(s_);
}

void Rng::fill_awgn(MutSampleView out, double power) {
  const double s = std::sqrt(power / 2.0);
  // std::complex<double> is layout-compatible with double[2].
  auto* d = reinterpret_cast<double*>(out.data());
  fill_pairs(d, d + 1, 2, out.size(), [s](std::size_t) { return s; });
}

void Rng::fill_awgn(MutSoaView out, double power) {
  const double s = std::sqrt(power / 2.0);
  fill_pairs(out.re, out.im, 1, out.n, [s](std::size_t) { return s; });
}

void Rng::fill_cgaussian(MutSoaView out, std::span<const double> variance) {
  assert(variance.size() == out.n);
  fill_pairs(out.re, out.im, 1, out.n, [variance](std::size_t i) {
    return std::sqrt(variance[i] / 2.0);
  });
}

bool Rng::bernoulli(double p) { return uniform() < p; }

}  // namespace hs::dsp
