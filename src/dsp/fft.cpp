#include "dsp/fft.hpp"

#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dsp/kernels.hpp"

namespace hs::dsp {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

namespace {

// Per-size transform plan: the bit-reversal permutation and the twiddle
// factors w[j] = exp(-i 2 pi j / n), laid out per stage on split planes
// so the butterfly kernel reads them contiguously along k. Each factor
// is computed directly by std::polar, so it is accurate to ~1 ulp
// regardless of n — unlike a per-butterfly `w *= wlen` recurrence, whose
// phase error grows with the number of multiplies (O(n * eps) by the last
// stage) exactly where the jamming profile and cancellation benches
// measure -40 dB features.
//
// The cache is shared by all threads: campaign workers transform
// concurrently, so the map is mutex-guarded. Entries are never evicted and
// their storage never moves, so the returned reference stays valid for the
// program's lifetime while later insertions proceed.
struct FftPlan {
  std::size_t n = 0;
  std::vector<std::size_t> bitrev;  // bitrev[i]: source index of sample i
  // Stage twiddles: the stage of half-length h (h = 1, 2, ..., n/2) reads
  // entries [h - 1, 2h - 1), entry k holding w[k * n / (2h)]. wi_inv is
  // the exact negation of wi, i.e. the conjugate twiddles of the inverse.
  std::vector<double> wr, wi, wi_inv;

  explicit FftPlan(std::size_t size)
      : n(size), bitrev(size), wr(size - 1), wi(size - 1), wi_inv(size - 1) {
    for (std::size_t i = 0; i < n; ++i) bitrev[i] = i;
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) std::swap(bitrev[i], bitrev[j]);
    }
    for (std::size_t h = 1; h < n; h <<= 1) {
      const std::size_t stride = n / (2 * h);
      for (std::size_t k = 0; k < h; ++k) {
        const cplx w =
            std::polar(1.0, -kTwoPi * static_cast<double>(k * stride) /
                                static_cast<double>(n));
        wr[h - 1 + k] = w.real();
        wi[h - 1 + k] = w.imag();
        wi_inv[h - 1 + k] = -w.imag();
      }
    }
  }
};

const FftPlan& plan_for(std::size_t n) {
  if (!is_pow2(n)) {
    throw std::invalid_argument("fft: size must be a power of two");
  }
  // Each worker thread transforms at one or two fixed sizes (jamgen
  // fft_size, equalizer taps), so a thread-local memo of the last plan
  // keeps the steady state lock-free; the mutex is only taken when a
  // thread first meets a size. Entries are never deleted, so the cached
  // pointer can never dangle.
  thread_local const FftPlan* last = nullptr;
  if (last != nullptr && last->n == n) return *last;
  static std::mutex mu;
  static std::map<std::size_t, std::unique_ptr<const FftPlan>> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = cache[n];
  if (!slot) slot = std::make_unique<const FftPlan>(n);
  last = slot.get();
  return *slot;
}

// The transform proper, on split planes: permute in place, run the
// butterfly stages, scale by 1/N for the inverse.
void transform(MutSoaView data, bool inverse) {
  const FftPlan& plan = plan_for(data.n);
  const std::size_t n = plan.n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) {
      std::swap(data.re[i], data.re[j]);
      std::swap(data.im[i], data.im[j]);
    }
  }
  kernels::fft_stages(data.re, data.im, n, plan.wr.data(),
                      inverse ? plan.wi_inv.data() : plan.wi.data());
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      data.re[i] *= inv_n;
      data.im[i] *= inv_n;
    }
  }
}

// The AoS transform runs the split one on a deinterleaved copy. The
// scratch is per call: a thread_local buffer raised the peak RSS of a
// 2-worker fig11-trigger campaign by ~1.2 MB (16%).
void transform(MutSampleView data, bool inverse) {
  const std::size_t n = data.size();
  std::vector<double> scratch(2 * n);
  const MutSoaView planes{scratch.data(), scratch.data() + n, n};
  for (std::size_t i = 0; i < n; ++i) {
    planes.re[i] = data[i].real();
    planes.im[i] = data[i].imag();
  }
  transform(planes, inverse);
  for (std::size_t i = 0; i < n; ++i) data[i] = {planes.re[i], planes.im[i]};
}

}  // namespace

void fft_inplace(MutSampleView data) { transform(data, /*inverse=*/false); }

void ifft_inplace(MutSampleView data) { transform(data, /*inverse=*/true); }

void fft_inplace(MutSoaView data) { transform(data, /*inverse=*/false); }

void ifft_inplace(MutSoaView data) { transform(data, /*inverse=*/true); }

Samples fft(SampleView input) {
  Samples out(input.begin(), input.end());
  out.resize(next_pow2(out.empty() ? 1 : out.size()));
  fft_inplace(out);
  return out;
}

Samples ifft(SampleView input) {
  if (!is_pow2(input.size())) {
    // Padding a *spectrum* would silently rescale and re-grid the signal,
    // which is how the old pad-anything behavior corrupted
    // ifft(fft(x)) round-trips for non-power-of-two x. A non-2^k bin
    // vector is a caller bug, not something to paper over.
    throw std::invalid_argument(
        "ifft: bin count must be a power of two (fft() zero-pads its "
        "time-domain input, so spectra are always 2^k bins)");
  }
  Samples out(input.begin(), input.end());
  ifft_inplace(out);
  return out;
}

Samples fftshift(SampleView input) {
  const std::size_t n = input.size();
  Samples out(n);
  const std::size_t half = (n + 1) / 2;  // first half moves to the back
  for (std::size_t i = 0; i < n; ++i) out[i] = input[(i + half) % n];
  return out;
}

Samples ifftshift(SampleView input) {
  const std::size_t n = input.size();
  Samples out(n);
  const std::size_t half = n / 2;
  for (std::size_t i = 0; i < n; ++i) out[i] = input[(i + half) % n];
  return out;
}

double bin_frequency(std::size_t k, std::size_t n, double fs) {
  const double f = static_cast<double>(k) * fs / static_cast<double>(n);
  return (k < (n + 1) / 2) ? f : f - fs;
}

std::size_t frequency_bin(double freq_hz, std::size_t n, double fs) {
  double f = freq_hz;
  if (f < 0) f += fs;
  auto k = static_cast<long long>(std::llround(f * static_cast<double>(n) / fs));
  if (k < 0) k = 0;
  if (k >= static_cast<long long>(n)) k = static_cast<long long>(n) - 1;
  return static_cast<std::size_t>(k);
}

}  // namespace hs::dsp
