// Leaf micro-costs: each public signal-path call the campaign presets run
// per block, timed at the sizes they run it — 48-sample medium blocks,
// 256-point jamming FFTs, 3/4/5/8-antenna media, the FSK receiver's sync
// reference and symbol length, the eavesdropper's 65-tap FIR — plus the
// per-deployment set-up calls. A leaf runs in batches; the reported cost
// is the median per-call time over the batches. Inputs come from the run
// seed, so nothing is a compile-time constant.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "channel/medium.hpp"
#include "dsp/fft.hpp"
#include "dsp/kernels.hpp"
#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "obs/metrics.hpp"
#include "phy/bits.hpp"
#include "phy/frame.hpp"
#include "phy/fsk.hpp"
#include "phy/receiver.hpp"
#include "shield/deployment.hpp"
#include "shield/jamgen.hpp"
#include "shield/trial_context.hpp"
#include "snapshot/state_io.hpp"

namespace hsbench {
namespace {

namespace kernels = hs::dsp::kernels;
using hs::dsp::SoaSamples;

constexpr std::size_t kBlock = 48;  // DeploymentOptions::block_size
volatile double g_sink = 0.0;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median per-call seconds of `call` over `batches` batches of `calls`.
template <class F>
double per_call_s(const std::string& name, std::size_t calls,
                  std::size_t batches, F&& call) {
  hs::obs::TraceSpan span("bench", "leaf." + name,
                          "{\"calls_per_batch\":" + std::to_string(calls) +
                              ",\"batches\":" + std::to_string(batches) + "}");
  call();  // first-touch allocations and lazy tables stay out of the timing
  std::vector<double> per_call;
  for (std::size_t b = 0; b < batches; ++b) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < calls; ++i) call();
    per_call.push_back((now_s() - t0) / static_cast<double>(calls));
  }
  return median(per_call);
}

SoaSamples noise(hs::dsp::Rng& rng, std::size_t n, double power) {
  SoaSamples out(n);
  rng.fill_awgn(out.view(), power);
  return out;
}

hs::channel::Medium make_medium(std::size_t antennas, std::uint64_t seed) {
  hs::channel::Medium medium(300e3, kBlock, seed);
  for (std::size_t a = 0; a < antennas; ++a) {
    hs::channel::AntennaDesc desc;
    desc.name = "ant" + std::to_string(a);
    const auto x = static_cast<double>(a);
    desc.position = {0.5 + x, 0.25 * x};
    medium.add_antenna(desc);
  }
  return medium;
}

/// Preamble + sync word: the reference the receiver correlates against.
hs::phy::BitVec sync_prefix_bits() {
  hs::phy::ByteVec bytes(hs::phy::kPreambleBytes, hs::phy::kPreambleByte);
  bytes.insert(bytes.end(), hs::phy::kSyncWord.begin(),
               hs::phy::kSyncWord.end());
  return hs::phy::bytes_to_bits(bytes);
}

}  // namespace

std::vector<LeafCost> measure_leaves(std::uint64_t seed) {
  std::vector<LeafCost> out;
  hs::dsp::Rng rng(seed, "hsbench-leaf");
  const auto ns = [&](const std::string& name, double s) {
    out.push_back({name + ".ns", s * 1e9});
  };

  // ---- dsp: noise ---------------------------------------------------------
  {
    SoaSamples buf(kBlock);
    ns("dsp.fill_awgn", per_call_s("dsp.fill_awgn", 20000, 15, [&] {
         rng.fill_awgn(buf.view(), 1.0);
         g_sink = g_sink + buf.re()[0];
       }));
    ns("dsp.gaussian", per_call_s("dsp.gaussian", 20000, 15, [&] {
         double s = 0.0;
         for (std::size_t i = 0; i < kBlock; ++i) s += rng.gaussian();
         g_sink = g_sink + s;
       }));
  }
  // ---- dsp: 256-point FFT (the jamming synthesis size) ------------------
  {
    const SoaSamples src = noise(rng, 256, 1.0);
    hs::dsp::Samples work(256);
    ns("dsp.fft256", per_call_s("dsp.fft256", 2000, 15, [&] {
         for (std::size_t i = 0; i < 256; ++i) work[i] = src[i];
         hs::dsp::fft_inplace(work);
         g_sink = g_sink + work[1].real();
       }));
  }
  // ---- dsp kernels --------------------------------------------------------
  {
    const SoaSamples in = noise(rng, kBlock, 1.0);
    SoaSamples acc(kBlock);
    const double gr = rng.gaussian() * 1e-3, gi = rng.gaussian() * 1e-3;
    ns("dsp.cmac", per_call_s("dsp.cmac", 100000, 15, [&] {
         kernels::cmac(acc.re(), acc.im(), in.re(), in.im(), gr, gi, kBlock);
       }));
    g_sink = g_sink + acc.re()[0];
  }
  const hs::phy::FskParams fsk;
  {
    hs::phy::FskModulator mod(fsk);
    SoaSamples ref;
    ref.assign(mod.modulate(sync_prefix_bits()));
    double energy = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      energy += ref.re()[i] * ref.re()[i] + ref.im()[i] * ref.im()[i];
    }
    const SoaSamples sig = noise(rng, ref.size() + kBlock, 1.0);
    std::size_t lag = 0;
    ns("dsp.sync_corr", per_call_s("dsp.sync_corr", 5000, 15, [&] {
         g_sink = g_sink + kernels::segmented_sync_correlation(
                               sig.re() + lag, sig.im() + lag, ref.re(),
                               ref.im(), ref.size(), energy);
         lag = (lag + 1) % kBlock;
       }));
  }
  {
    const std::size_t n = fsk.sps;
    const SoaSamples t0 = noise(rng, n, 1.0), t1 = noise(rng, n, 1.0);
    std::vector<double> tone_a(4 * n), tone_b(4 * n);
    kernels::pack_dual_tones(t0.re(), t0.im(), t1.re(), t1.im(), n,
                             tone_a.data(), tone_b.data());
    const SoaSamples x = noise(rng, n, 1.0);
    ns("dsp.dual_tone_mac", per_call_s("dsp.dual_tone_mac", 100000, 15, [&] {
         const kernels::DualToneAccum a = kernels::dual_tone_mac(
             x.re(), x.im(), tone_a.data(), tone_b.data(), n);
         g_sink = g_sink + a.c0_re + a.c1_im;
       }));
  }
  {
    constexpr std::size_t kTaps = 65;  // the eavesdropper's band-pass FIR
    const SoaSamples taps = noise(rng, kTaps, 1e-2);
    const SoaSamples x = noise(rng, kTaps - 1 + kBlock, 1.0);
    SoaSamples y(kBlock);
    ns("dsp.fir_block", per_call_s("dsp.fir_block", 5000, 15, [&] {
         kernels::fir_block_cplx(taps.re(), taps.im(), kTaps, x.re(), x.im(),
                                 y.re(), y.im(), kBlock);
         g_sink = g_sink + y.re()[0];
       }));
  }
  // ---- channel: Medium::mix with one active transmitter -----------------
  {
    const SoaSamples tx = noise(rng, kBlock, 1.0);
    for (const std::size_t antennas : {3u, 4u, 5u, 8u}) {
      hs::channel::Medium medium = make_medium(antennas, rng.next_u64());
      const std::string name = "channel.mix" + std::to_string(antennas);
      ns(name, per_call_s(name, 20000, 15, [&] {
           medium.begin_block();
           medium.set_tx(0, tx.view());
           medium.mix();
           g_sink = g_sink + medium.rx_soa(antennas - 1).re[0];
         }));
    }
  }
  // ---- phy: receiver push over a quiet channel with jammed frames -------
  // Every 64 blocks a frame arrives under jamming of equal power (what the
  // eavesdropper hears while the shield jams): the power gate opens and
  // the sync scan runs over the burst.
  {
    hs::phy::FskModulator mod(fsk);
    hs::phy::BitVec bits = sync_prefix_bits();
    for (int i = 0; i < 160; ++i) bits.push_back(rng.next_u64() & 1);
    const hs::dsp::Samples frame = mod.modulate(bits);
    const std::size_t blocks = 512;
    SoaSamples stream = noise(rng, blocks * kBlock, 0.05);
    for (std::size_t start = 0; start + frame.size() < stream.size();
         start += 64 * kBlock) {
      const SoaSamples jam = noise(rng, frame.size(), 1.0);
      for (std::size_t i = 0; i < frame.size(); ++i) {
        stream.re()[start + i] += frame[i].real() + jam.re()[i];
        stream.im()[start + i] += frame[i].imag() + jam.im()[i];
      }
    }
    hs::phy::FskReceiver receiver(fsk);
    std::size_t block = 0;
    ns("phy.receiver_push", per_call_s("phy.receiver_push", 4096, 15, [&] {
         receiver.push(stream.view().subview(block * kBlock, kBlock));
         while (receiver.pop()) {
         }
         if (++block == blocks) {
           block = 0;
           receiver.reset();
         }
       }));
  }
  // ---- shield: jamming synthesis ----------------------------------------
  {
    hs::shield::JammingSignalGenerator gen(fsk, hs::shield::JamProfile::kShaped,
                                           rng.next_u64());
    SoaSamples buf;
    ns("shield.jamgen_block", per_call_s("shield.jamgen_block", 20000, 15, [&] {
         gen.next(kBlock, buf);
         g_sink = g_sink + buf.re()[0];
       }));
  }
  // ---- shield / snapshot: per-deployment set-up --------------------------
  {
    hs::shield::DeploymentOptions options;
    options.seed = rng.next_u64();
    options.warmup_seed = rng.next_u64() | 1;
    std::unique_ptr<hs::shield::Deployment> dep;
    out.push_back({"shield.deployment_build.ms",
                   1e3 * per_call_s("shield.deployment_build", 1, 9, [&] {
                     dep = std::make_unique<hs::shield::Deployment>(options);
                   })});
    std::string text;
    out.push_back({"snapshot.save.ms",
                   1e3 * per_call_s("snapshot.save", 1, 9, [&] {
                     text = dep->save_warm();
                   })});
    out.push_back({"snapshot.restore.ms",
                   1e3 * per_call_s("snapshot.restore", 1, 9, [&] {
                     const hs::snapshot::StateDoc doc =
                         hs::snapshot::StateDoc::parse(text, "hsbench");
                     dep->restore_warm(doc, options);
                   })});
    hs::shield::TrialContext context;
    context.set_warm_policy(options.warmup_seed, nullptr);
    out.push_back({"shield.trial_reset.us",
                   1e6 * per_call_s("shield.trial_reset", 20, 9, [&] {
                     g_sink = g_sink + static_cast<double>(
                                           context.deployment(options)
                                               .medium()
                                               .antenna_count());
                   })});
  }
  return out;
}

}  // namespace hsbench
