// Host-speed reference: a fixed DSP-like kernel that shares no code with
// the program under test (its own RNG, Gaussian draws, 256-point radix-2
// FFT and a complex multiply-accumulate streamed over a 512 KiB buffer).
//
// The shared host this benchmark was built on slows down by 10-35% for
// minutes at a time. Timing this kernel next to the measured work gives
// the host's current speed, and run.py scales campaign and set-up times
// to the nominal speed (run.py: REFERENCE_NOMINAL_S). A burst runs
// the kernel once on each of as many threads as the workload keeps busy.
// The kernel is part of the benchmark, so a change that claims a gain
// cannot move it.
#include <cmath>
#include <complex>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace hsbench {
namespace {

volatile double g_reference_sink = 0.0;

constexpr int kReps = 200;
constexpr std::size_t kFft = 256;
constexpr std::size_t kBuffer = std::size_t{1} << 15;  // complex doubles

double kernel() {
  std::uint64_t x = 88172645463325252ULL;
  const auto uniform = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
  };
  std::vector<std::complex<double>> a(kFft), buf(kBuffer);
  double acc = 0.0;
  for (int r = 0; r < kReps; ++r) {
    for (auto& v : a) {
      const double m = std::sqrt(-2.0 * std::log(uniform() + 1e-12));
      const double ph = 6.283185307179586 * uniform();
      v = {m * std::cos(ph), m * std::sin(ph)};
    }
    for (std::size_t i = 1, j = 0; i < kFft; ++i) {
      std::size_t bit = kFft >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) std::swap(a[i], a[j]);
    }
    for (std::size_t len = 2; len <= kFft; len <<= 1) {
      const double ang = -6.283185307179586 / static_cast<double>(len);
      for (std::size_t i = 0; i < kFft; i += len) {
        for (std::size_t k = 0; k < len / 2; ++k) {
          const std::complex<double> w(std::cos(ang * static_cast<double>(k)),
                                       std::sin(ang * static_cast<double>(k)));
          const std::complex<double> t = w * a[i + k + len / 2];
          a[i + k + len / 2] = a[i + k] - t;
          a[i + k] += t;
        }
      }
    }
    const std::size_t off =
        (static_cast<std::size_t>(r) * 4096) & (kBuffer - 1);
    for (std::size_t i = 0; i < 4096; ++i) {
      buf[(off + i) & (kBuffer - 1)] += a[i & (kFft - 1)] * 0.5;
    }
    acc += a[3].real() + buf[off].imag();
  }
  return acc;
}

}  // namespace

double reference_burst_s(unsigned threads) {
  std::vector<std::thread> extra;
  std::vector<double> sums(threads, 0.0);
  const double t0 = now_s();
  for (unsigned t = 1; t < threads; ++t) {
    extra.emplace_back([&sums, t] { sums[t] = kernel(); });
  }
  sums[0] = kernel();
  for (auto& th : extra) th.join();
  const double elapsed = now_s() - t0;
  for (const double v : sums) g_reference_sink = g_reference_sink + v;
  return elapsed;
}

}  // namespace hsbench
