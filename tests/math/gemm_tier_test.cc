#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "math/gemm_internal.h"
#include "math/matrix.h"
#include "tests/testing/reference_gemm.h"
#include "util/random.h"

namespace crowdrl::gemm::internal {
namespace {

using ::crowdrl::testing::BitEqual;
using ::crowdrl::testing::ReferenceMatMul;
using ::crowdrl::testing::ReferenceTransposed;

// Every tier's micro-kernel, called directly (not just the one this host
// selects), must reproduce the seed reference bit for bit in all three
// layouts.

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

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  m.FillUniform(rng, -1.0, 1.0);
  return m;
}

struct Shape {
  size_t m, k, n;
};

// The kOddShapes of gemm_test.cc: scalars, single rows/columns, sizes
// around every unroll and tile edge.
const Shape kOddShapes[] = {
    {1, 1, 1},   {1, 1, 7},    {1, 9, 1},    {3, 1, 5},
    {2, 3, 4},   {4, 4, 4},    {5, 5, 5},    {7, 13, 3},
    {17, 31, 9}, {64, 64, 64}, {65, 33, 67}, {130, 600, 19},
};

// Shapes that end exactly on, or one past, a k panel (256 deep) or a
// column block (nr = 4, 8 or 16 by tier).
const Shape kPanelEdgeShapes[] = {
    {67, 256, 16}, {67, 257, 17}, {129, 512, 48}, {5, 513, 3}, {9, 255, 64},
};

std::vector<Shape> ConformanceShapes(const Tier& tier) {
  std::vector<Shape> shapes(std::begin(kOddShapes), std::end(kOddShapes));
  shapes.insert(shapes.end(), std::begin(kPanelEdgeShapes),
                std::end(kPanelEdgeShapes));
  // Row counts off the tier's mr and across the 64-row block, production
  // widths and depths (Q: k = 12, phi: k = 208) plus a depth with a
  // partial seventh k panel.
  for (size_t m : {size_t{1}, tier.mr - 1, tier.mr + 1, 2 * tier.mr + 3,
                   size_t{66}}) {
    for (size_t n : {1, 2, 15, 16, 17, 33}) {
      for (size_t k : {12, 208, 1582}) shapes.push_back({m, k, n});
    }
  }
  return shapes;
}

class GemmTierTest : public ::testing::TestWithParam<SimdTier> {
 protected:
  void SetUp() override {
    tier_ = CompiledTier(GetParam());
    if (tier_ == nullptr) {
      GTEST_SKIP() << SimdTierName(GetParam()) << " not compiled in";
    }
    if (!HostRuns(GetParam())) {
      GTEST_SKIP() << "host CPU lacks " << SimdTierName(GetParam());
    }
  }

  const Tier* tier_ = nullptr;
};

TEST_P(GemmTierTest, NameMatchesTier) {
  EXPECT_STREQ(tier_->name, SimdTierName(GetParam()));
}

TEST_P(GemmTierTest, AllLayoutsMatchReferenceBitwise) {
  Rng rng(21);
  for (const Shape& s : ConformanceShapes(*tier_)) {
    SCOPED_TRACE(::testing::Message()
                 << tier_->name << " shape " << s.m << "x" << s.k << "x"
                 << s.n);
    Matrix a = RandomMatrix(s.m, s.k, &rng);
    Matrix b = RandomMatrix(s.k, s.n, &rng);
    Matrix out;
    MatMulWithTier(*tier_, Layout::kNN, a, b, &out);
    EXPECT_TRUE(BitEqual(out, ReferenceMatMul(a, b))) << "NN";

    Matrix bt = RandomMatrix(s.n, s.k, &rng);
    MatMulWithTier(*tier_, Layout::kNT, a, bt, &out);
    EXPECT_TRUE(BitEqual(out, ReferenceMatMul(a, ReferenceTransposed(bt))))
        << "NT";

    Matrix at = RandomMatrix(s.k, s.m, &rng);
    MatMulWithTier(*tier_, Layout::kTN, at, b, &out);
    EXPECT_TRUE(BitEqual(out, ReferenceMatMul(ReferenceTransposed(at), b)))
        << "TN";
  }
}

TEST_P(GemmTierTest, ZeroInnerDimensionYieldsZeros) {
  Matrix a(5, 0);
  Matrix b(0, 9);
  Matrix out(5, 9, 7.0);  // Stale contents must be overwritten.
  MatMulWithTier(*tier_, Layout::kNN, a, b, &out);
  EXPECT_TRUE(BitEqual(out, Matrix(5, 9)));
}

// Same NaN positions as the reference, and every other element bitwise
// equal (NaN payloads are not compared: IEEE leaves them unspecified).
void ExpectSameNonFinite(const Matrix& got, const Matrix& want) {
  ASSERT_TRUE(got.SameShape(want));
  for (size_t i = 0; i < got.size(); ++i) {
    const double g = got.data()[i];
    const double w = want.data()[i];
    if (std::isnan(w)) {
      EXPECT_TRUE(std::isnan(g)) << "element " << i << " = " << g;
    } else {
      EXPECT_EQ(std::memcmp(&g, &w, sizeof(double)), 0)
          << "element " << i << ": " << g << " vs " << w;
    }
  }
}

TEST_P(GemmTierTest, NanAndInfPropagate) {
  // Nonzero operands everywhere, so the reference's zero-skip never
  // fires: a NaN in A poisons its output row, +Inf and -Inf in one column
  // of B give that column infinities or inf - inf = NaN.
  const double kInf = std::numeric_limits<double>::infinity();
  Rng rng(22);
  for (const Shape& s : {Shape{13, 208, 17}, Shape{9, 300, 33}}) {
    Matrix a(s.m, s.k);
    a.FillUniform(&rng, 0.5, 1.0);
    Matrix b(s.k, s.n);
    b.FillUniform(&rng, 0.5, 1.0);
    a.At(2, 5) = std::nan("");
    b.At(3, 1) = kInf;
    b.At(7, 1) = -kInf;
    b.At(260 % s.k, s.n - 1) = kInf;
    b.At(0, 0) = -kInf;
    const Matrix want = ReferenceMatMul(a, b);
    Matrix out;
    MatMulWithTier(*tier_, Layout::kNN, a, b, &out);
    ExpectSameNonFinite(out, want);
    MatMulWithTier(*tier_, Layout::kNT, a, ReferenceTransposed(b), &out);
    ExpectSameNonFinite(out, want);
    MatMulWithTier(*tier_, Layout::kTN, ReferenceTransposed(a), b, &out);
    ExpectSameNonFinite(out, want);
    EXPECT_TRUE(std::isnan(out.At(2, 4)));
    EXPECT_TRUE(std::isinf(out.At(0, s.n - 1)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, GemmTierTest,
    ::testing::Values(SimdTier::kPortable, SimdTier::kAvx2,
                      SimdTier::kAvx512),
    [](const ::testing::TestParamInfo<SimdTier>& info) {
      return std::string(SimdTierName(info.param));
    });

}  // namespace
}  // namespace crowdrl::gemm::internal
