#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "math/elementwise.h"
#include "math/gemm_internal.h"
#include "tests/testing/reference_train.h"
#include "util/random.h"

namespace crowdrl::elementwise::internal {
namespace {

using gemm::internal::SimdTier;
using ::crowdrl::testing::ReferenceAdamUpdate;

// Every tier's Adam kernel, called directly (not just the one this host
// selects), must reproduce the scalar loop bit for bit: value, m and v.

bool HostRuns(SimdTier tier) {
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
  switch (tier) {
    case SimdTier::kAvx512:
      return __builtin_cpu_supports("avx512f");
    case SimdTier::kAvx2:
      return __builtin_cpu_supports("avx2");
    case SimdTier::kPortable:
      return true;
  }
#endif
  return tier == SimdTier::kPortable;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

class AdamTierTest : public ::testing::TestWithParam<SimdTier> {
 protected:
  void SetUp() override {
    kernel_ = CompiledAdamKernel(GetParam());
    if (kernel_ == nullptr) {
      GTEST_SKIP() << gemm::internal::SimdTierName(GetParam())
                   << " not compiled in";
    }
    if (!HostRuns(GetParam())) {
      GTEST_SKIP() << "host CPU lacks "
                   << gemm::internal::SimdTierName(GetParam());
    }
  }

  AdamKernel kernel_ = nullptr;
};

// Gradients with exact zeros of both signs (ReLU layers produce them) among
// ordinary values, so g = grad + weight_decay * value hits signed-zero sums.
std::vector<double> Gradient(size_t n, Rng* rng) {
  std::vector<double> grad(n);
  for (size_t j = 0; j < n; ++j) {
    switch (j % 5) {
      case 0:
        grad[j] = 0.0;
        break;
      case 1:
        grad[j] = -0.0;
        break;
      default:
        grad[j] = rng->Uniform(-2.0, 2.0);
    }
  }
  return grad;
}

TEST_P(AdamTierTest, MatchesScalarLoopBitwise) {
  constexpr double kLr = 5e-3;
  constexpr double kBeta1 = 0.9;
  constexpr double kBeta2 = 0.999;
  constexpr double kEps = 1e-8;
  Rng rng(31);
  // Every tail length of both vector widths, plus phi's and the
  // Q-network's parameter counts.
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 17; ++n) sizes.push_back(n);
  sizes.push_back(2945);
  sizes.push_back(3378);
  for (double weight_decay : {0.0, 1e-4, 3e-3}) {
    for (size_t n : sizes) {
      SCOPED_TRACE(::testing::Message() << "n " << n << " weight_decay "
                                        << weight_decay);
      std::vector<double> value(n);
      for (double& x : value) x = rng.Uniform(-1.0, 1.0);
      if (n > 3) value[3] = -0.0;
      std::vector<double> m(n, 0.0);
      std::vector<double> v(n, 0.0);
      std::vector<double> ref_value = value;
      std::vector<double> ref_m = m;
      std::vector<double> ref_v = v;
      for (size_t step = 1; step <= 4; ++step) {
        const std::vector<double> grad = Gradient(n, &rng);
        const AdamStep s = {
            kLr,
            kBeta1,
            kBeta2,
            kEps,
            weight_decay,
            1.0 - std::pow(kBeta1, static_cast<double>(step)),
            1.0 - std::pow(kBeta2, static_cast<double>(step))};
        kernel_(s, n, value.data(), grad.data(), m.data(), v.data());
        ReferenceAdamUpdate(kLr, kBeta1, kBeta2, kEps, weight_decay, step, n,
                            ref_value.data(), grad.data(), ref_m.data(),
                            ref_v.data());
        ASSERT_TRUE(BitEqual(value, ref_value)) << "value, step " << step;
        ASSERT_TRUE(BitEqual(m, ref_m)) << "m, step " << step;
        ASSERT_TRUE(BitEqual(v, ref_v)) << "v, step " << step;
      }
    }
  }
}

TEST_P(AdamTierTest, UnalignedSpansMatchScalarLoopBitwise) {
  // Parameter blocks start wherever the previous block ended; offsets of
  // one to seven doubles cover every misalignment of a 64-byte vector.
  Rng rng(32);
  const size_t n = 37;
  for (size_t offset = 1; offset < 8; ++offset) {
    std::vector<double> value(offset + n), m(offset + n), v(offset + n);
    for (double& x : value) x = rng.Uniform(-1.0, 1.0);
    for (double& x : m) x = rng.Uniform(-0.1, 0.1);
    for (double& x : v) x = rng.Uniform(0.0, 0.1);
    std::vector<double> ref_value = value, ref_m = m, ref_v = v;
    const std::vector<double> grad = Gradient(offset + n, &rng);
    const AdamStep s = {1e-3, 0.9, 0.999, 1e-8, 1e-4,
                        1.0 - std::pow(0.9, 7.0), 1.0 - std::pow(0.999, 7.0)};
    kernel_(s, n, value.data() + offset, grad.data() + offset,
            m.data() + offset, v.data() + offset);
    ReferenceAdamUpdate(1e-3, 0.9, 0.999, 1e-8, 1e-4, 7, n,
                        ref_value.data() + offset, grad.data() + offset,
                        ref_m.data() + offset, ref_v.data() + offset);
    EXPECT_TRUE(BitEqual(value, ref_value)) << "offset " << offset;
    EXPECT_TRUE(BitEqual(m, ref_m)) << "offset " << offset;
    EXPECT_TRUE(BitEqual(v, ref_v)) << "offset " << offset;
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, AdamTierTest,
                         ::testing::Values(SimdTier::kPortable,
                                           SimdTier::kAvx2,
                                           SimdTier::kAvx512),
                         [](const ::testing::TestParamInfo<SimdTier>& info) {
                           return std::string(
                               gemm::internal::SimdTierName(info.param));
                         });

TEST(AdamUpdateTest, ActiveTierMatchesScalarLoopBitwise) {
  Rng rng(33);
  const size_t n = 3378;
  std::vector<double> value(n), m(n, 0.0), v(n, 0.0);
  for (double& x : value) x = rng.Uniform(-1.0, 1.0);
  std::vector<double> ref_value = value, ref_m = m, ref_v = v;
  for (size_t step = 1; step <= 3; ++step) {
    const std::vector<double> grad = Gradient(n, &rng);
    AdamUpdate({5e-3, 0.9, 0.999, 1e-8, 3e-3,
                1.0 - std::pow(0.9, static_cast<double>(step)),
                1.0 - std::pow(0.999, static_cast<double>(step))},
               n, value.data(), grad.data(), m.data(), v.data());
    ReferenceAdamUpdate(5e-3, 0.9, 0.999, 1e-8, 3e-3, step, n,
                        ref_value.data(), grad.data(), ref_m.data(),
                        ref_v.data());
  }
  EXPECT_TRUE(BitEqual(value, ref_value));
  EXPECT_TRUE(BitEqual(m, ref_m));
  EXPECT_TRUE(BitEqual(v, ref_v));
}

}  // namespace
}  // namespace crowdrl::elementwise::internal
