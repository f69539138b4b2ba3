#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dsp/rng.hpp"
#include "dsp/power.hpp"

namespace hs::dsp {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NamedStreamsAreIndependent) {
  Rng a(7, "thermal-noise"), b(7, "jamming");
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NamedStreamIsDeterministic) {
  Rng a(7, "x"), b(7, "x");
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, HashStreamNameStable) {
  EXPECT_EQ(hash_stream_name("abc"), hash_stream_name("abc"));
  EXPECT_NE(hash_stream_name("abc"), hash_stream_name("abd"));
}

TEST(Rng, DeriveSeedMatchesSubstreamMechanism) {
  EXPECT_EQ(derive_seed(7, "x"), Rng(7, "x").next_u64());
  EXPECT_EQ(derive_seed(7, "x"), derive_seed(7, "x"));
  EXPECT_NE(derive_seed(7, "x"), derive_seed(7, "y"));
  EXPECT_NE(derive_seed(7, "x"), derive_seed(8, "x"));
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.5, 2.5);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.5);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(8);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformU64InRange) {
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(rng.uniform_u64(17), 17u);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(10);
  const int n = 100000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianMeanStddev) {
  Rng rng(11);
  const int n = 50000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, ComplexGaussianPower) {
  Rng rng(12);
  const int n = 50000;
  double p = 0;
  for (int i = 0; i < n; ++i) p += std::norm(rng.cgaussian(3.0));
  EXPECT_NEAR(p / n, 3.0, 0.1);
}

TEST(Rng, RandomPhaseOnUnitCircle) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NEAR(std::abs(rng.random_phase()), 1.0, 1e-12);
  }
}

TEST(Rng, FillAwgnMatchesPower) {
  Rng rng(14);
  Samples buf(50000);
  rng.fill_awgn(buf, 0.25);
  EXPECT_NEAR(mean_power(buf), 0.25, 0.01);
}

// The fills run a register-resident copy of the ziggurat; they must stay
// the exact sequence of scalar calls they replace, over enough variates
// (>= 1e6) to reach the out-of-line wedge and tail paths many times.
TEST(Rng, FillsMatchScalarGaussianCallsBitForBit) {
  constexpr double kTail = 3.442619855899;  // the ziggurat's tail start
  Rng aos_rng(16), soa_rng(16), ref(16);
  std::size_t variates = 0, tails = 0;
  for (std::size_t block = 0; variates < 1000000; ++block) {
    const std::size_t n = 1 + block % 97;
    const double power = 0.25 + static_cast<double>(block % 7);
    const double s = std::sqrt(power / 2.0);
    Samples aos(n);
    SoaSamples soa(n);
    aos_rng.fill_awgn(aos, power);
    soa_rng.fill_awgn(soa.view(), power);
    for (std::size_t i = 0; i < n; ++i) {
      const double g_re = ref.gaussian();
      const double g_im = ref.gaussian();
      tails += (std::abs(g_re) > kTail) + (std::abs(g_im) > kTail);
      EXPECT_EQ(aos[i].real(), s * g_re);
      EXPECT_EQ(aos[i].imag(), s * g_im);
      EXPECT_EQ(soa.re()[i], s * g_re);
      EXPECT_EQ(soa.im()[i], s * g_im);
    }
    ASSERT_FALSE(HasFailure()) << "first mismatch in block " << block;
    variates += 2 * n;
  }
  EXPECT_EQ(aos_rng.state(), ref.state());
  EXPECT_EQ(soa_rng.state(), ref.state());
  EXPECT_GT(tails, 100u) << "the run must reach the ziggurat tail path";
}

TEST(Rng, FillCgaussianMatchesScalarCallsBitForBit) {
  Rng fill_rng(17), ref(17), weights(18);
  std::vector<double> variance(256);
  for (int block = 0; block < 200; ++block) {
    for (auto& v : variance) v = weights.uniform(0.0, 4.0);
    SoaSamples out(variance.size());
    fill_rng.fill_cgaussian(out.view(), variance);
    for (std::size_t k = 0; k < variance.size(); ++k) {
      const cplx want = ref.cgaussian(variance[k]);
      EXPECT_EQ(out.re()[k], want.real());
      EXPECT_EQ(out.im()[k], want.imag());
    }
    ASSERT_FALSE(HasFailure()) << "first mismatch in block " << block;
  }
  EXPECT_EQ(fill_rng.state(), ref.state());
}

TEST(Rng, BernoulliProbability) {
  Rng rng(15);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformU64Unbiased) {
  Rng rng(GetParam());
  // Chi-square-lite: each of 8 buckets should get roughly n/8.
  const int n = 40000;
  int buckets[8] = {0};
  for (int i = 0; i < n; ++i) ++buckets[rng.uniform_u64(8)];
  for (int b : buckets) {
    EXPECT_NEAR(static_cast<double>(b), n / 8.0, 0.08 * n / 8.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1, 2, 42, 1234567, 0xdeadbeef));

}  // namespace
}  // namespace hs::dsp
