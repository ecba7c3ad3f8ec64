#include "nn/loss.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "math/vector_ops.h"
#include "util/random.h"

namespace crowdrl::nn {
namespace {

TEST(MseLossTest, KnownValue) {
  Matrix pred = Matrix::FromRows({{1.0, 2.0}});
  Matrix target = Matrix::FromRows({{0.0, 0.0}});
  Matrix grad;
  double loss = MseLoss(pred, target, &grad);
  EXPECT_DOUBLE_EQ(loss, 2.5);  // (1 + 4) / 2.
  EXPECT_DOUBLE_EQ(grad.At(0, 0), 1.0);   // 2 * 1 / 2.
  EXPECT_DOUBLE_EQ(grad.At(0, 1), 2.0);   // 2 * 2 / 2.
}

TEST(MseLossTest, ZeroAtPerfectPrediction) {
  Matrix pred = Matrix::FromRows({{3.0}});
  Matrix grad;
  EXPECT_DOUBLE_EQ(MseLoss(pred, pred, &grad), 0.0);
  EXPECT_DOUBLE_EQ(grad.At(0, 0), 0.0);
}

TEST(WeightedMseLossTest, WeightsScaleRows) {
  Matrix pred = Matrix::FromRows({{1.0}, {1.0}});
  Matrix target = Matrix::FromRows({{0.0}, {0.0}});
  Matrix grad;
  double loss = WeightedMseLoss(pred, target, {2.0, 0.0}, &grad);
  EXPECT_DOUBLE_EQ(loss, 1.0);  // (2*1 + 0*1) / 2.
  EXPECT_DOUBLE_EQ(grad.At(1, 0), 0.0);
}

TEST(SoftmaxCrossEntropyTest, UniformLogitsAgainstOneHot) {
  Matrix logits = Matrix::FromRows({{0.0, 0.0}});
  Matrix target = Matrix::FromRows({{1.0, 0.0}});
  Matrix grad;
  double loss = SoftmaxCrossEntropyLoss(logits, target, &grad);
  EXPECT_NEAR(loss, std::log(2.0), 1e-12);
  EXPECT_NEAR(grad.At(0, 0), -0.5, 1e-12);
  EXPECT_NEAR(grad.At(0, 1), 0.5, 1e-12);
}

TEST(SoftmaxCrossEntropyTest, SoftTargetsSupported) {
  Matrix logits = Matrix::FromRows({{1.0, -1.0}});
  Matrix target = Matrix::FromRows({{0.7, 0.3}});
  Matrix grad;
  double loss = SoftmaxCrossEntropyLoss(logits, target, &grad);
  std::vector<double> p = Softmax({1.0, -1.0});
  double expected = -0.7 * std::log(p[0]) - 0.3 * std::log(p[1]);
  EXPECT_NEAR(loss, expected, 1e-12);
  EXPECT_NEAR(grad.At(0, 0), p[0] - 0.7, 1e-12);
}

class CrossEntropyGradientTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossEntropyGradientTest, GradMatchesFiniteDifference) {
  Rng rng(GetParam());
  Matrix logits(3, 4);
  Matrix target(3, 4);
  logits.FillGaussian(&rng, 0.0, 1.0);
  for (size_t r = 0; r < 3; ++r) {
    std::vector<double> t(4);
    for (double& x : t) x = rng.Uniform();
    NormalizeL1(&t);
    target.SetRow(r, t);
  }
  Matrix grad;
  SoftmaxCrossEntropyLoss(logits, target, &grad);
  const double kEps = 1e-6;
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      Matrix plus = logits;
      Matrix minus = logits;
      plus.At(r, c) += kEps;
      minus.At(r, c) -= kEps;
      Matrix unused;
      double numeric = (SoftmaxCrossEntropyLoss(plus, target, &unused) -
                        SoftmaxCrossEntropyLoss(minus, target, &unused)) /
                       (2.0 * kEps);
      EXPECT_NEAR(grad.At(r, c), numeric, 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossEntropyGradientTest,
                         ::testing::Values(3, 5, 8));

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) && std::memcmp(a.data().data(), b.data().data(),
                                       a.size() * sizeof(double)) == 0;
}

TEST(SoftmaxCrossEntropyGradTest, WritesTheLossFunctionsGradientBitwise) {
  Rng rng(12);
  for (size_t rows : {size_t{1}, size_t{17}, size_t{64}}) {
    for (size_t cols : {size_t{2}, size_t{5}}) {
      Matrix logits(rows, cols);
      logits.FillGaussian(&rng, 0.0, 3.0);
      // Soft targets with exact zeros, hard one-hot rows, and weights of
      // zero (a zero-weighted row's gradient is a signed zero).
      Matrix target(rows, cols);
      std::vector<double> weights(rows);
      for (size_t r = 0; r < rows; ++r) {
        if (r % 3 == 0) {
          target.At(r, r % cols) = 1.0;
        } else {
          std::vector<double> t(cols);
          for (double& x : t) x = rng.Uniform();
          t[cols - 1] = 0.0;
          NormalizeL1(&t);
          target.SetRow(r, t);
        }
        weights[r] = r % 5 == 4 ? 0.0 : rng.Uniform(0.1, 2.0);
      }
      Matrix loss_grad;
      WeightedSoftmaxCrossEntropyLoss(logits, target, weights, &loss_grad);
      Matrix grad(rows, cols, 123.0);  // Stale contents are overwritten.
      WeightedSoftmaxCrossEntropyGrad(logits, target, weights, &grad);
      EXPECT_TRUE(BitEqual(grad, loss_grad)) << rows << "x" << cols;
    }
  }
}

TEST(MseLossTest, ReusedGradientBufferIsOverwritten) {
  Matrix pred = Matrix::FromRows({{1.0, -2.0}, {0.5, 3.0}});
  Matrix target = Matrix::FromRows({{0.0, 1.0}, {0.5, -1.0}});
  Matrix fresh;
  const double loss = MseLoss(pred, target, &fresh);
  Matrix reused(2, 2, 9.0);
  EXPECT_EQ(MseLoss(pred, target, &reused), loss);
  EXPECT_TRUE(BitEqual(reused, fresh));
}

TEST(MaskedMseLossTest, ReusedGradientBufferZeroesMaskedEntries) {
  Matrix pred = Matrix::FromRows({{1.0, 5.0}, {2.0, -1.0}});
  Matrix target = Matrix::FromRows({{0.0, 0.0}, {1.0, 1.0}});
  Matrix mask = Matrix::FromRows({{1.0, 0.0}, {0.0, 1.0}});
  Matrix grad(2, 2, 7.0);
  MaskedMseLoss(pred, target, mask, &grad);
  EXPECT_TRUE(BitEqual(grad, Matrix::FromRows({{1.0, 0.0}, {0.0, -2.0}})));
  Matrix all_masked(2, 2, 7.0);
  EXPECT_EQ(MaskedMseLoss(pred, target, Matrix(2, 2), &all_masked), 0.0);
  EXPECT_TRUE(BitEqual(all_masked, Matrix(2, 2)));
}

TEST(MaskedMseLossTest, OnlyUnmaskedEntriesContribute) {
  Matrix pred = Matrix::FromRows({{1.0, 5.0}});
  Matrix target = Matrix::FromRows({{0.0, 0.0}});
  Matrix mask = Matrix::FromRows({{1.0, 0.0}});
  Matrix grad;
  double loss = MaskedMseLoss(pred, target, mask, &grad);
  EXPECT_DOUBLE_EQ(loss, 1.0);
  EXPECT_DOUBLE_EQ(grad.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(grad.At(0, 0), 2.0);
}

TEST(MaskedMseLossTest, AllMaskedIsZero) {
  Matrix pred = Matrix::FromRows({{1.0}});
  Matrix target = Matrix::FromRows({{0.0}});
  Matrix mask = Matrix::FromRows({{0.0}});
  Matrix grad;
  EXPECT_DOUBLE_EQ(MaskedMseLoss(pred, target, mask, &grad), 0.0);
}

}  // namespace
}  // namespace crowdrl::nn
