// Micro-benchmarks (google-benchmark): throughput of the DSP/PHY/crypto
// primitives the shield's real-time loop is built from.
#include <benchmark/benchmark.h>

#include "crypto/aead.hpp"
#include "dsp/fft.hpp"
#include "dsp/kernels.hpp"
#include "dsp/rng.hpp"
#include "mics/channelizer.hpp"
#include "phy/fsk.hpp"
#include "phy/frame.hpp"
#include "phy/receiver.hpp"
#include "shield/jamgen.hpp"
#include "shield/sid_matcher.hpp"

using namespace hs;

namespace {

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dsp::Rng rng(1);
  dsp::Samples data(n);
  rng.fill_awgn(data, 1.0);
  for (auto _ : state) {
    dsp::fft_inplace(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(256)->Arg(1024)->Arg(4096);

// The inverse transform the jamming generator runs once per fft_size
// samples (256 bins in production).
void BM_Ifft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dsp::Rng rng(1);
  dsp::Samples data(n);
  rng.fill_awgn(data, 1.0);
  for (auto _ : state) {
    dsp::ifft_inplace(data);
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Ifft)->Arg(256);

// Thermal noise per antenna per medium block (48 samples in production).
void BM_FillAwgn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dsp::Rng rng(8);
  dsp::SoaSamples out(n);
  for (auto _ : state) {
    rng.fill_awgn(out.view(), 1.0);
    benchmark::DoNotOptimize(out.re());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FillAwgn)->Arg(48);

void BM_FskModulate(benchmark::State& state) {
  phy::FskParams fsk;
  phy::FskModulator mod(fsk);
  dsp::Rng rng(2);
  phy::BitVec bits(512);
  for (auto& b : bits) b = rng.next_u64() & 1;
  for (auto _ : state) {
    auto wave = mod.modulate(bits);
    benchmark::DoNotOptimize(wave.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits.size()));
}
BENCHMARK(BM_FskModulate);

void BM_FskDemodulate(benchmark::State& state) {
  phy::FskParams fsk;
  dsp::Rng rng(3);
  phy::BitVec bits(512);
  for (auto& b : bits) b = rng.next_u64() & 1;
  const auto wave = phy::fsk_modulate(fsk, bits);
  phy::NoncoherentFskDemod demod(fsk);
  for (auto _ : state) {
    auto out = demod.demodulate(wave, 0, bits.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits.size()));
}
BENCHMARK(BM_FskDemodulate);

void BM_ReceiverFrame(benchmark::State& state) {
  phy::FskParams fsk;
  phy::Frame frame;
  frame.device_id = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  frame.payload.assign(32, 0xA5);
  const auto wave = phy::fsk_modulate(fsk, phy::encode_frame(frame));
  dsp::Rng rng(4);
  dsp::Samples sig(600 + wave.size() + 600);
  rng.fill_awgn(sig, 1e-9);
  for (std::size_t i = 0; i < wave.size(); ++i) sig[600 + i] += wave[i];
  for (auto _ : state) {
    phy::FskReceiver rx(fsk);
    rx.push(sig);
    auto f = rx.pop();
    benchmark::DoNotOptimize(f);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sig.size()));
}
BENCHMARK(BM_ReceiverFrame);

// The receiver's preamble correlation at one lag: the exact 6-segment
// kernel over the 576-sample sync reference (48 bits x 12 sps) ...
constexpr std::size_t kSyncRefLen = 576;

dsp::SoaSamples random_soa(std::uint64_t seed, std::size_t n) {
  dsp::Rng rng(seed);
  dsp::SoaSamples out(n);
  rng.fill_awgn(out.view(), 1.0);
  return out;
}

void BM_SyncCorr(benchmark::State& state) {
  const auto sig = random_soa(11, kSyncRefLen);
  const auto ref = random_soa(12, kSyncRefLen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::kernels::segmented_sync_correlation(
        sig.re(), sig.im(), ref.re(), ref.im(), kSyncRefLen, 576.0));
  }
}
BENCHMARK(BM_SyncCorr);

// ... and the first two segments the correlation bound reads exactly.
void BM_SyncCorrHead(benchmark::State& state) {
  const auto sig = random_soa(11, kSyncRefLen);
  const auto ref = random_soa(12, kSyncRefLen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::kernels::sync_corr_head(
        sig.re(), sig.im(), ref.re(), ref.im(), kSyncRefLen));
  }
}
BENCHMARK(BM_SyncCorrHead);

// One 48-sample push into a streaming receiver whose input keeps
// tripping its power gate: noise that steps 30 dB up for 8 symbols out of
// every 16, so each step pays detection sweeps the way a jammed or busy
// medium does (a noise-floor stream never reaches the correlation).
void BM_ReceiverJammed(benchmark::State& state) {
  phy::FskParams fsk;
  constexpr std::size_t kBlock = 48;
  const std::size_t period = 16 * fsk.sps;
  dsp::Rng rng(9);
  dsp::SoaSamples stream(100 * period);  // a multiple of kBlock
  rng.fill_awgn(stream.view(), 1e-3);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i % period >= period / 2) {
      stream.re()[i] *= 31.6;
      stream.im()[i] *= 31.6;
    }
  }
  phy::FskReceiver rx(fsk);
  std::size_t at = 0;
  for (auto _ : state) {
    rx.push(stream.view().subview(at, kBlock));
    at = (at + kBlock) % stream.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlock));
}
BENCHMARK(BM_ReceiverJammed);

// Jamming synthesis in slices of `range(0)` samples through the split
// overload the shield runs (48-sample medium blocks in production).
void BM_JamGen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::FskParams fsk;
  shield::JammingSignalGenerator gen(fsk, shield::JamProfile::kShaped, 5);
  gen.set_power(1.0);
  dsp::SoaSamples block;
  for (auto _ : state) {
    gen.next(n, block);
    benchmark::DoNotOptimize(block.re());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_JamGen)->Arg(48)->Arg(4096);

void BM_SidMatcher(benchmark::State& state) {
  phy::DeviceId id = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  shield::SidMatcher matcher(phy::make_sid(id), 4);
  dsp::Rng rng(6);
  phy::BitVec bits(4096);
  for (auto& b : bits) b = rng.next_u64() & 1;
  for (auto _ : state) {
    matcher.reset();
    bool fired = matcher.push(bits);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits.size()));
}
BENCHMARK(BM_SidMatcher);

void BM_AeadSeal(benchmark::State& state) {
  crypto::Aead::Key key{};
  crypto::Aead::Nonce nonce{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  crypto::Bytes msg(static_cast<std::size_t>(state.range(0)), 0x42);
  for (auto _ : state) {
    auto sealed = crypto::Aead::seal(
        key, nonce, crypto::ByteView(msg.data(), msg.size()), {});
    benchmark::DoNotOptimize(sealed.ciphertext.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AeadSeal)->Arg(64)->Arg(1024);

void BM_Channelizer(benchmark::State& state) {
  mics::Channelizer channelizer;
  dsp::Rng rng(7);
  dsp::Samples wideband(4096);
  rng.fill_awgn(wideband, 1.0);
  std::array<dsp::Samples, mics::kChannelCount> out;
  for (auto _ : state) {
    for (auto& ch : out) ch.clear();
    channelizer.process(wideband, out);
    benchmark::DoNotOptimize(out[0].data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wideband.size()));
}
BENCHMARK(BM_Channelizer);

}  // namespace

BENCHMARK_MAIN();
