// Warm-state snapshot subsystem tests: exact state serialization round
// trips, strict rejection of corrupted/truncated/version-mismatched
// documents (no partial restores, ever), the keyed snapshot cache with
// its disk fallback, and deployment save/restore bit-identity —
// including a randomized round-trip property test.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "dsp/rng.hpp"
#include "imd/profiles.hpp"
#include "shield/deployment.hpp"
#include "snapshot/snapshot_cache.hpp"
#include "snapshot/state_io.hpp"

namespace hs {
namespace {

using snapshot::SnapshotCache;
using snapshot::SnapshotError;
using snapshot::StateDoc;
using snapshot::StateReader;
using snapshot::StateWriter;

// ---- StateWriter / StateReader --------------------------------------------

TEST(StateIo, RoundTripsEveryEntryType) {
  StateWriter w;
  w.begin("outer");
  w.u64("answer", 42);
  w.u64("max", UINT64_MAX);
  w.f64("pi", 3.141592653589793);
  w.f64("neg_zero", -0.0);
  w.f64("denormal", 5e-324);
  w.f64("huge", 1.7976931348623157e308);
  w.boolean("yes", true);
  w.boolean("no", false);
  w.str("empty", "");
  w.str("tricky", "a b\\c\nd\te\x01f");
  w.cx("z", dsp::cplx{1.5, -2.25});
  w.f64_vec("vec", std::vector<double>{1.0, -0.5, 1e-300});
  w.f64_vec("empty_vec", std::vector<double>{});
  dsp::Samples s{{1.0, 2.0}, {-3.0, 4.0}};
  w.samples("samples", dsp::SampleView(s));
  dsp::SoaSamples soa(3);
  for (std::size_t i = 0; i < 3; ++i) {
    soa.re()[i] = 0.1 * static_cast<double>(i);
    soa.im()[i] = -0.2 * static_cast<double>(i);
  }
  w.soa("soa", soa.view());
  w.bytes("bytes", std::vector<std::uint8_t>{0x00, 0x7f, 0xff});
  w.bytes("no_bytes", std::vector<std::uint8_t>{});
  w.end("outer");

  const std::string text = w.finish();
  const StateDoc doc = StateDoc::parse(text, "test");
  StateReader r(doc);
  r.begin("outer");
  EXPECT_EQ(r.u64("answer"), 42u);
  EXPECT_EQ(r.u64("max"), UINT64_MAX);
  EXPECT_EQ(r.f64("pi"), 3.141592653589793);
  const double nz = r.f64("neg_zero");
  EXPECT_TRUE(std::signbit(nz));
  EXPECT_EQ(r.f64("denormal"), 5e-324);
  EXPECT_EQ(r.f64("huge"), 1.7976931348623157e308);
  EXPECT_TRUE(r.boolean("yes"));
  EXPECT_FALSE(r.boolean("no"));
  EXPECT_EQ(r.str("empty"), "");
  EXPECT_EQ(r.str("tricky"), "a b\\c\nd\te\x01f");
  EXPECT_EQ(r.cx("z"), (dsp::cplx{1.5, -2.25}));
  EXPECT_EQ(r.f64_vec("vec"), (std::vector<double>{1.0, -0.5, 1e-300}));
  EXPECT_TRUE(r.f64_vec("empty_vec").empty());
  EXPECT_EQ(r.samples("samples"), s);
  dsp::SoaSamples soa2;
  r.soa("soa", soa2);
  ASSERT_EQ(soa2.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(soa2.re()[i], soa.re()[i]);
    EXPECT_EQ(soa2.im()[i], soa.im()[i]);
  }
  EXPECT_EQ(r.bytes("bytes"), (std::vector<std::uint8_t>{0x00, 0x7f, 0xff}));
  EXPECT_TRUE(r.bytes("no_bytes").empty());
  r.end("outer");
  r.expect_exhausted();
}

TEST(StateIo, HexFloatsAreBitExact) {
  dsp::Rng rng(123, "hexfloat-test");
  StateWriter w;
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) {
    // Spread across magnitudes, both signs.
    const double v = (rng.uniform() - 0.5) *
                     std::pow(10.0, rng.uniform() * 600.0 - 300.0);
    values.push_back(v);
    w.f64("v", v);
  }
  const StateDoc doc = StateDoc::parse(w.finish(), "test");
  StateReader r(doc);
  for (double want : values) {
    const double got = r.f64("v");
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0);
  }
}

TEST(StateIo, RejectsForeignAndVersionMismatchedDocuments) {
  EXPECT_THROW(StateDoc::parse("", "t"), SnapshotError);
  EXPECT_THROW(StateDoc::parse("{\"json\": true}\n", "t"), SnapshotError);
  // A future version must be refused, not half-understood.
  try {
    StateDoc::parse("hs-snapshot v2\nu k 1\nsha256 x\n", "t");
    FAIL() << "v2 document was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(StateIo, RejectsTruncationAtEveryBoundary) {
  StateWriter w;
  w.begin("s");
  w.u64("a", 1);
  w.f64_vec("v", std::vector<double>{1.0, 2.0, 3.0});
  w.end("s");
  const std::string text = w.finish();
  // Any strict prefix must be rejected — mid-line, at line boundaries,
  // with or without the checksum trailer.
  for (std::size_t len = 0; len < text.size(); ++len) {
    EXPECT_THROW(StateDoc::parse(text.substr(0, len), "t"), SnapshotError)
        << "prefix of length " << len << " was accepted";
  }
  EXPECT_NO_THROW(StateDoc::parse(text, "t"));
}

TEST(StateIo, RejectsSingleByteCorruption) {
  StateWriter w;
  w.begin("s");
  w.u64("count", 7);
  w.str("name", "x");
  w.end("s");
  const std::string text = w.finish();
  for (std::size_t i = 0; i < text.size(); ++i) {
    std::string bad = text;
    bad[i] = bad[i] == 'Q' ? 'R' : 'Q';
    EXPECT_THROW(StateDoc::parse(bad, "t"), SnapshotError)
        << "corrupting byte " << i << " went unnoticed";
  }
}

TEST(StateIo, RejectsUnbalancedSectionsAndBadPayloads) {
  const auto parse_body = [](const std::string& body) {
    // Assemble a correctly checksummed document around the body, so the
    // structural validation (not the checksum) is what rejects it.
    std::string text = "hs-snapshot v1\n" + body + "sha256 " +
                       snapshot::sha256_hex(body) + "\n";
    return StateDoc::parse(text, "t");
  };
  EXPECT_THROW(parse_body("( open\n"), SnapshotError);
  EXPECT_THROW(parse_body(") never_opened\n"), SnapshotError);
  EXPECT_THROW(parse_body("( a\n) b\n"), SnapshotError);
  EXPECT_THROW(parse_body("u k notanumber\n"), SnapshotError);
  EXPECT_THROW(parse_body("u k 99999999999999999999999\n"), SnapshotError);
  EXPECT_THROW(parse_body("b k 2\n"), SnapshotError);
  EXPECT_THROW(parse_body("f k nothex\n"), SnapshotError);
  EXPECT_THROW(parse_body("v k 3 0x1p0\n"), SnapshotError);  // count lies
  // A corrupted (huge) count must fail as a SnapshotError BEFORE any
  // allocation, never as std::length_error/bad_alloc escaping the
  // cold-fallback handlers.
  EXPECT_THROW(parse_body("v k 18446744073709551615 0x1p0\n"), SnapshotError);
  EXPECT_THROW(parse_body("y k 2 zz!!\n"), SnapshotError);
  EXPECT_THROW(parse_body("y k 4 abcd\n"), SnapshotError);  // short run
  EXPECT_THROW(parse_body("? k 1\n"), SnapshotError);       // unknown tag
  EXPECT_THROW(parse_body("u k 1 trailing\n"), SnapshotError);
  EXPECT_NO_THROW(parse_body("u k 1\n"));
}

TEST(StateIo, ReaderRejectsShapeSkew) {
  StateWriter w;
  w.u64("a", 1);
  w.f64("b", 2.0);
  const StateDoc doc = StateDoc::parse(w.finish(), "t");
  {
    StateReader r(doc);
    EXPECT_THROW(r.u64("wrong_key"), SnapshotError);
  }
  {
    StateReader r(doc);
    EXPECT_THROW(r.f64("a"), SnapshotError);  // wrong tag
  }
  {
    StateReader r(doc);
    EXPECT_EQ(r.u64("a"), 1u);
    EXPECT_THROW(r.expect_exhausted(), SnapshotError);  // 'b' unread
    EXPECT_EQ(r.f64("b"), 2.0);
    EXPECT_THROW(r.f64("c"), SnapshotError);  // read past end
  }
}

TEST(StateIo, RngStreamPositionRoundTrips) {
  dsp::Rng a(9, "stream");
  for (int i = 0; i < 17; ++i) a.next_u64();  // advance mid-stream
  StateWriter w;
  snapshot::write_rng(w, "rng", a);
  const StateDoc doc = StateDoc::parse(w.finish(), "t");
  StateReader r(doc);
  dsp::Rng b(1);  // unrelated start state
  snapshot::read_rng(r, "rng", b);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

// ---- SnapshotCache --------------------------------------------------------

std::string make_temp_dir() {
  char tmpl[] = "/tmp/hs-snapshot-test-XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

std::string tiny_snapshot() {
  StateWriter w;
  w.begin("x");
  w.u64("v", 5);
  w.end("x");
  return w.finish();
}

TEST(SnapshotCacheTest, MemoryStoreAndFind) {
  SnapshotCache cache;
  EXPECT_EQ(cache.find("k"), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  const auto stored = cache.store("k", tiny_snapshot());
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(cache.find("k").get(), stored.get());
  EXPECT_EQ(cache.hits(), 1u);
  // Unparseable payloads must never enter the cache.
  EXPECT_THROW(cache.store("bad", "not a snapshot"), SnapshotError);
  EXPECT_EQ(cache.find("bad"), nullptr);
}

TEST(SnapshotCacheTest, DiskPersistsAcrossCacheInstances) {
  const std::string dir = make_temp_dir();
  {
    SnapshotCache writer_cache(dir);
    writer_cache.store("key1", tiny_snapshot());
  }
  SnapshotCache reader_cache(dir);
  const auto doc = reader_cache.find("key1");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(reader_cache.disk_loads(), 1u);
  StateReader r(*doc);
  r.begin("x");
  EXPECT_EQ(r.u64("v"), 5u);
  r.end("x");
}

TEST(SnapshotCacheTest, UnusableDiskFilesAreMissesNotCrashes) {
  const std::string dir = make_temp_dir();
  const auto write = [&](const std::string& key, const std::string& body) {
    std::FILE* f = std::fopen((dir + "/" + key + ".hsnap").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  };
  write("garbage", "this is not a snapshot at all");
  const std::string good = tiny_snapshot();
  write("truncated", good.substr(0, good.size() / 2));
  std::string corrupt = good;
  corrupt[good.size() / 2] ^= 1;
  write("corrupt", corrupt);
  write("wrong_version", "hs-snapshot v99\nu k 1\nsha256 x\n");

  SnapshotCache cache(dir);
  EXPECT_EQ(cache.find("garbage"), nullptr);
  EXPECT_EQ(cache.find("truncated"), nullptr);
  EXPECT_EQ(cache.find("corrupt"), nullptr);
  EXPECT_EQ(cache.find("wrong_version"), nullptr);
  EXPECT_EQ(cache.misses(), 4u);
  // load_snapshot_file is the strict single-file entry point: it throws
  // where find() degrades to a miss.
  EXPECT_THROW(snapshot::load_snapshot_file(dir + "/corrupt.hsnap"),
               SnapshotError);
  EXPECT_THROW(snapshot::load_snapshot_file(dir + "/nonexistent.hsnap"),
               SnapshotError);
}

// ---- Deployment save/restore ----------------------------------------------

TEST(DeploymentSnapshot, WarmKeyIsConfigurationSensitive) {
  shield::DeploymentOptions base;
  base.seed = 3;
  base.warmup_seed = 11;
  const std::string key = shield::deployment_warm_key(base);

  // The trial seed must NOT key in two-phase mode: one snapshot serves
  // every trial.
  shield::DeploymentOptions other_trial = base;
  other_trial.seed = 4;
  EXPECT_EQ(shield::deployment_warm_key(other_trial), key);

  // Everything else must.
  shield::DeploymentOptions w = base;
  w.warmup_seed = 12;
  EXPECT_NE(shield::deployment_warm_key(w), key);
  shield::DeploymentOptions sigma = base;
  sigma.shield_config.hardware_error_sigma = 0.1;
  EXPECT_NE(shield::deployment_warm_key(sigma), key);
  shield::DeploymentOptions profile = base;
  profile.imd_profile = imd::concerto_profile();
  EXPECT_NE(shield::deployment_warm_key(profile), key);
  shield::DeploymentOptions observer = base;
  observer.with_observer = true;
  EXPECT_NE(shield::deployment_warm_key(observer), key);
  shield::DeploymentOptions no_shield = base;
  no_shield.shield_present = false;
  EXPECT_NE(shield::deployment_warm_key(no_shield), key);

  // In legacy single-phase mode warm-up consumed the trial seed, so the
  // trial seed keys.
  shield::DeploymentOptions legacy = base;
  legacy.warmup_seed = 0;
  shield::DeploymentOptions legacy_other = legacy;
  legacy_other.seed = 4;
  EXPECT_NE(shield::deployment_warm_key(legacy),
            shield::deployment_warm_key(legacy_other));
}

TEST(DeploymentSnapshot, RestoreMatchesColdWarmupExactly) {
  shield::DeploymentOptions opt;
  opt.seed = 21;
  opt.warmup_seed = 5;
  opt.with_observer = true;

  shield::Deployment cold(opt);
  const std::string snap = cold.save_warm();
  const StateDoc doc = StateDoc::parse(snap, "mem");

  // Restore into a freshly built (warm-up-skipping) deployment...
  shield::DeploymentOptions unwarmed = opt;
  unwarmed.warmup_s = 0.0;
  shield::Deployment restored(unwarmed);
  restored.restore_warm(doc, opt);
  EXPECT_EQ(restored.save_warm(), snap);

  // ...and into a pooled deployment previously holding another trial.
  shield::DeploymentOptions other = opt;
  other.seed = 99;
  shield::Deployment pooled(other);
  pooled.restore_warm(doc, opt);
  EXPECT_EQ(pooled.save_warm(), snap);

  // All three must now evolve identically, bit for bit.
  cold.run_for(2e-3);
  restored.run_for(2e-3);
  pooled.run_for(2e-3);
  const std::string after = cold.save_warm();
  EXPECT_EQ(restored.save_warm(), after);
  EXPECT_EQ(pooled.save_warm(), after);
}

TEST(DeploymentSnapshot, RestoreRejectsMismatches) {
  shield::DeploymentOptions opt;
  opt.seed = 8;
  opt.warmup_seed = 2;
  shield::Deployment d(opt);
  const StateDoc doc = StateDoc::parse(d.save_warm(), "mem");

  // Different configuration => key mismatch, hard error.
  shield::DeploymentOptions other = opt;
  other.shield_config.hardware_error_sigma = 0.2;
  shield::Deployment victim(other);
  EXPECT_THROW(victim.restore_warm(doc, other), SnapshotError);

  // Mismatched node set => hard error before any state is touched.
  shield::DeploymentOptions observed = opt;
  observed.with_observer = true;
  EXPECT_THROW(victim.restore_warm(doc, observed), SnapshotError);
}

TEST(DeploymentSnapshot, RandomizedRoundTripProperty) {
  // Property: for randomized configurations and a randomized amount of
  // post-warm-up evolution, save -> restore -> save is byte-identical,
  // and the restored deployment continues bit-identically to the
  // original. begin_trial() is replayed on the original because
  // restore_warm ends with it by contract.
  dsp::Rng rng(4242, "snapshot-property");
  for (int rep = 0; rep < 8; ++rep) {
    SCOPED_TRACE(rep);
    shield::DeploymentOptions opt;
    opt.seed = rng.next_u64() | 1;
    opt.warmup_seed = rng.next_u64() | 1;
    opt.shield_present = rep != 3;  // one no-shield rep
    opt.with_observer = (rep % 3) == 1;
    opt.imd_profile = (rep % 2) == 0 ? imd::virtuoso_profile()
                                     : imd::concerto_profile();
    if ((rep % 4) == 2) opt.shield_config.hardware_error_sigma = 0.05;
    opt.warmup_s = 2e-3 + 1e-3 * static_cast<double>(rep % 3);

    shield::Deployment original(opt);
    const double evolve_s = 1e-3 * static_cast<double>(rng.uniform_u64(4));
    if (evolve_s > 0.0) original.run_for(evolve_s);

    const std::string snap = original.save_warm();
    const StateDoc doc = StateDoc::parse(snap, "mem");
    shield::DeploymentOptions unwarmed = opt;
    unwarmed.warmup_s = 0.0;
    shield::Deployment restored(unwarmed);
    restored.restore_warm(doc, opt);
    original.begin_trial(opt.seed);
    EXPECT_EQ(restored.save_warm(), original.save_warm());

    original.run_for(2e-3);
    restored.run_for(2e-3);
    EXPECT_EQ(restored.save_warm(), original.save_warm());
  }
}

}  // namespace
}  // namespace hs
