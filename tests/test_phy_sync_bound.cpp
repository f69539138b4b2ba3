// The receiver's correlation bound (phy/sync_bound.hpp) against the exact
// segmented sync correlation kernel.
//
// The one property that keeps every receiver decision unchanged: a lag
// the bound prunes has an exact correlation below the threshold. The
// sweeps below check it at every lag of streams that span the inputs the
// receiver meets (noise, frames from -5 to 30 dB SNR and noiseless, CFO
// up to 500 Hz, power steps up to 90 dB inside the window, silence, and
// 1e-150 / 1e150 amplitude scales), at the default threshold AND at a
// threshold equal to the exact value itself. The latter is the tight
// case: a noiseless aligned frame makes both Cauchy-Schwarz steps exact,
// so only the rounding allowance keeps the bound at or above the value.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstddef>
#include <limits>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "dsp/kernels.hpp"
#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "phy/bits.hpp"
#include "phy/frame.hpp"
#include "phy/fsk.hpp"
#include "phy/sync_bound.hpp"

namespace hs::phy {
namespace {

constexpr double kDefaultThreshold = 0.82;  // ReceiverOptions default

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// The receiver's sync reference: the modulated preamble + sync word.
dsp::Samples sync_reference(const FskParams& fsk) {
  ByteVec bytes(kPreambleBytes, kPreambleByte);
  bytes.insert(bytes.end(), kSyncWord.begin(), kSyncWord.end());
  return FskModulator(fsk).modulate(bytes_to_bits(bytes));
}

struct Reference {
  FskParams fsk;
  dsp::SoaSamples soa;
  double energy = 0.0;

  Reference() {
    const dsp::Samples aos = sync_reference(fsk);
    soa.assign(aos);
    for (const auto& r : aos) energy += std::norm(r);
  }
  std::size_t size() const { return soa.size(); }
};

struct Tally {
  std::size_t lags = 0;
  std::size_t pruned = 0;  ///< at the default threshold
};

/// Every lag of `stream` (absolute index origin + i): a pruned lag must
/// have an exact correlation below the threshold it was pruned for.
void sweep(const Reference& ref, const dsp::SoaSamples& stream,
           const std::string& label, Tally* tally, std::size_t origin = 7) {
  const SyncCorrBound bound(ref.soa.re(), ref.soa.im(), ref.size(),
                            ref.energy);
  BlockEnergyPlane plane(ref.fsk.sps);
  plane.restart(origin);
  // Medium-sized pushes, so blocks straddle appends.
  for (std::size_t at = 0; at < stream.size(); at += 48) {
    const std::size_t n = std::min<std::size_t>(48, stream.size() - at);
    plane.append(stream.re() + at, stream.im() + at, n);
  }
  const std::size_t tb = bound.tail_begin();
  for (std::size_t lag = 0; lag + ref.size() <= stream.size(); ++lag) {
    const double* sr = stream.re() + lag;
    const double* si = stream.im() + lag;
    const double exact = dsp::kernels::segmented_sync_correlation(
        sr, si, ref.soa.re(), ref.soa.im(), ref.size(), ref.energy);
    double tail = 0.0;
    ASSERT_TRUE(plane.energy(origin + lag + tb, origin + lag + ref.size(),
                             sr + tb, si + tb, &tail))
        << label << " lag " << lag;
    const auto prunes = [&](double thr) {
      return bound.below(sr, si, ref.soa.re(), ref.soa.im(), tail, thr);
    };
    for (const double thr : {kDefaultThreshold, exact}) {
      if (prunes(thr)) {
        ASSERT_LT(exact, thr) << label << " lag " << lag
                              << ": pruned a lag at or above the threshold";
      }
    }
    ++tally->lags;
    if (prunes(kDefaultThreshold)) ++tally->pruned;
  }
}

/// A frame (preamble + sync first) of amplitude `amp` with a carrier
/// offset, placed at `offset` in `n` samples of complex noise of power
/// `noise` (0 = none), the whole stream then scaled by `scale`.
dsp::SoaSamples frame_stream(const FskParams& fsk, std::size_t n,
                             std::size_t offset, std::complex<double> amp,
                             double cfo_hz, double noise, double scale,
                             std::uint64_t seed) {
  dsp::Rng rng(seed);
  dsp::Samples air(n);
  if (noise > 0.0) rng.fill_awgn(air, noise);
  Frame f;
  f.device_id = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  f.seq = static_cast<std::uint8_t>(seed);
  f.payload.assign(4, 0x3C);
  const auto wave = fsk_modulate(fsk, encode_frame(f));
  const double w = 2.0 * std::numbers::pi * cfo_hz / fsk.fs;
  for (std::size_t i = 0; i < wave.size() && offset + i < n; ++i) {
    air[offset + i] += amp * wave[i] *
                       std::polar(1.0, w * static_cast<double>(i));
  }
  for (auto& x : air) x *= scale;
  dsp::SoaSamples out;
  out.assign(air);
  return out;
}

TEST(SyncCorrBound, NeverPrunesALagAtOrAboveThreshold) {
  const Reference ref;
  const std::size_t n = ref.size() + 320;

  // Pure noise: the bound must settle nearly every lag on its own.
  {
    Tally noise;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      dsp::Rng rng(seed);
      dsp::Samples air(n);
      rng.fill_awgn(air, 1.0);
      dsp::SoaSamples s;
      s.assign(air);
      sweep(ref, s, "noise seed " + std::to_string(seed), &noise);
    }
    EXPECT_GE(static_cast<double>(noise.pruned),
              0.8 * static_cast<double>(noise.lags))
        << noise.pruned << " of " << noise.lags << " noise lags pruned";
  }

  // Frames across SNR (noiseless included), CFO and amplitude scale. The
  // frame starts 160 samples in, so the sweep crosses its true lag.
  Tally frames;
  std::uint64_t seed = 100;
  for (const double scale : {1.0, 1e-150, 1e150}) {
    for (const double snr_db : {-5.0, 0.0, 5.0, 10.0, 20.0, 30.0, 1e9}) {
      for (const double cfo : {0.0, 250.0, 500.0}) {
        const double noise = snr_db > 1e6 ? 0.0 : std::pow(10.0, -snr_db / 10);
        const auto s = frame_stream(ref.fsk, n, 160, {0.6, -0.8}, cfo, noise,
                                    scale, ++seed);
        sweep(ref, s,
              "snr " + fmt(snr_db) + " cfo " + fmt(cfo) + " scale " +
                  fmt(scale),
              &frames);
      }
    }
  }

  // Noiseless frames at random complex gains, each swept only near its
  // true lag: the tight case, many times over.
  dsp::Rng gains(7);
  for (int rep = 0; rep < 200; ++rep) {
    const std::complex<double> g = std::polar(
        gains.uniform(1e-3, 1e3), gains.uniform(0.0, 2 * std::numbers::pi));
    const auto s = frame_stream(ref.fsk, ref.size() + 4, 2, g, 0.0, 0.0, 1.0,
                                ++seed);
    sweep(ref, s, "noiseless rep " + std::to_string(rep), &frames,
          static_cast<std::size_t>(rep));
  }

  // Power steps inside the window: a quiet floor, then a frame at
  // 0/30/60/90 dB above it arriving mid-window (and noise alone stepping
  // up, which is what trips the receiver's gate without a frame).
  for (const double step_db : {0.0, 30.0, 60.0, 90.0}) {
    const double amp = std::sqrt(std::pow(10.0, step_db / 10));
    const auto s = frame_stream(ref.fsk, n, 300, amp, 100.0, 1.0, 1.0,
                                ++seed);
    sweep(ref, s, "frame step " + fmt(step_db), &frames);

    dsp::Rng rng(++seed);
    dsp::Samples air(n);
    rng.fill_awgn(air, 1.0);
    for (std::size_t i = 300; i < n; ++i) air[i] *= amp;
    dsp::SoaSamples noise_step;
    noise_step.assign(air);
    sweep(ref, noise_step, "noise step " + fmt(step_db), &frames);
  }

  // Silence: every correlation is exactly 0.
  {
    const dsp::SoaSamples zeros(n);
    sweep(ref, zeros, "zeros", &frames);
  }
  EXPECT_GT(frames.lags, 0u);
}

TEST(SyncCorrBound, NanOrInfinityFallsThroughToTheExactKernel) {
  const Reference ref;
  const SyncCorrBound bound(ref.soa.re(), ref.soa.im(), ref.size(),
                            ref.energy);
  const dsp::SoaSamples zeros(ref.size());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double* r = ref.soa.re();
  const double* i = ref.soa.im();
  EXPECT_TRUE(bound.below(zeros.re(), zeros.im(), r, i, 0.0, 0.82));
  EXPECT_FALSE(bound.below(zeros.re(), zeros.im(), r, i, nan, 0.82));
  EXPECT_FALSE(bound.below(zeros.re(), zeros.im(), r, i, inf, 0.82));
  EXPECT_FALSE(bound.below(zeros.re(), zeros.im(), r, i, 0.0, nan));
  EXPECT_FALSE(bound.below(zeros.re(), zeros.im(), r, i, 0.0, inf));
  EXPECT_FALSE(bound.below(zeros.re(), zeros.im(), r, i, 0.0, 0.0));
  EXPECT_FALSE(bound.below(zeros.re(), zeros.im(), r, i, 0.0, -1.0));
}

TEST(BlockEnergyPlane, WindowEnergyMatchesDirectSum) {
  constexpr std::size_t kBlock = 12;
  dsp::Rng rng(3);
  dsp::SoaSamples s(2000);
  for (std::size_t i = 0; i < s.size(); ++i) {
    // Wide dynamic range: the sums stay relative-accurate regardless.
    const double a = std::pow(10.0, rng.uniform(-6.0, 6.0));
    s.re()[i] = a * rng.uniform(-1.0, 1.0);
    s.im()[i] = a * rng.uniform(-1.0, 1.0);
  }
  const std::size_t origin = 1001;  // not block-aligned
  BlockEnergyPlane plane(kBlock);
  plane.restart(origin);
  for (std::size_t at = 0; at < s.size();) {
    const std::size_t n = std::min<std::size_t>(1 + at % 37, s.size() - at);
    plane.append(s.re() + at, s.im() + at, n);
    at += n;
  }
  const auto direct = [&](std::size_t from, std::size_t to) {
    double e = 0.0;
    for (std::size_t i = from; i < to; ++i) {
      e += s.re()[i] * s.re()[i] + s.im()[i] * s.im()[i];
    }
    return e;
  };
  for (std::size_t from = 0; from < 200; from += 7) {
    for (const std::size_t len : {1u, 5u, 12u, 13u, 40u, 384u, 1000u}) {
      double got = 0.0;
      ASSERT_TRUE(plane.energy(origin + from, origin + from + len,
                               s.re() + from, s.im() + from, &got));
      EXPECT_NEAR(got, direct(from, from + len),
                  1e-12 * direct(from, from + len))
          << "from " << from << " len " << len;
    }
  }
  // Trimmed blocks are gone: a window reading one reports "unknown".
  plane.trim(origin + 500);
  double e = 0.0;
  EXPECT_FALSE(
      plane.energy(origin + 100, origin + 200, s.re() + 100, s.im() + 100, &e));
  ASSERT_TRUE(
      plane.energy(origin + 500, origin + 900, s.re() + 500, s.im() + 500, &e));
  EXPECT_NEAR(e, direct(500, 900), 1e-12 * direct(500, 900));
  // So is a window past the last complete block.
  EXPECT_FALSE(plane.energy(origin + 1900, origin + 2000 + kBlock,
                            s.re() + 1900, s.im() + 1900, &e));
}

}  // namespace
}  // namespace hs::phy
