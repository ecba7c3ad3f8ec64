#include "nn/activation.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

namespace crowdrl::nn {
namespace {

TEST(ActivationTest, ReluValues) {
  Matrix m = Matrix::FromRows({{-1.0, 0.0, 2.0}});
  ApplyActivation(Activation::kRelu, &m);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.At(0, 2), 2.0);
}

TEST(ActivationTest, SigmoidValues) {
  Matrix m = Matrix::FromRows({{0.0, 100.0, -100.0}});
  ApplyActivation(Activation::kSigmoid, &m);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.5);
  EXPECT_NEAR(m.At(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(m.At(0, 2), 0.0, 1e-12);
}

TEST(ActivationTest, TanhValues) {
  Matrix m = Matrix::FromRows({{0.0, 1.0}});
  ApplyActivation(Activation::kTanh, &m);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
  EXPECT_NEAR(m.At(0, 1), std::tanh(1.0), 1e-12);
}

TEST(ActivationTest, IdentityIsNoop) {
  Matrix m = Matrix::FromRows({{-3.0, 4.0}});
  ApplyActivation(Activation::kIdentity, &m);
  EXPECT_DOUBLE_EQ(m.At(0, 0), -3.0);
}

TEST(ActivationTest, ReluGradZeroesExactlyWherePostIsNotPositive) {
  // Zeroed entries become +0.0; every other entry keeps its bits, signed
  // zeros included. A NaN post value is not <= 0, so it keeps its gradient.
  const double nan = std::nan("");
  const Matrix post = Matrix::FromRows({{1.0, 0.0, -0.0, -2.0, nan, 3.0}});
  Matrix grad = Matrix::FromRows({{-0.5, 2.0, -3.0, 4.0, 5.0, -0.0}});
  ApplyActivationGrad(Activation::kRelu, post, &grad);
  const Matrix expected = Matrix::FromRows({{-0.5, 0.0, 0.0, 0.0, 5.0, -0.0}});
  EXPECT_EQ(std::memcmp(grad.data().data(), expected.data().data(),
                        expected.size() * sizeof(double)),
            0);
}

class ActivationGradTest : public ::testing::TestWithParam<Activation> {};

// Finite-difference check: d(act(x))/dx must match ApplyActivationGrad
// evaluated from the post-activation value.
TEST_P(ActivationGradTest, MatchesFiniteDifference) {
  Activation act = GetParam();
  const double kEps = 1e-6;
  for (double x : {-1.7, -0.3, 0.4, 2.1}) {
    Matrix plus = Matrix::FromRows({{x + kEps}});
    Matrix minus = Matrix::FromRows({{x - kEps}});
    ApplyActivation(act, &plus);
    ApplyActivation(act, &minus);
    double numeric = (plus.At(0, 0) - minus.At(0, 0)) / (2.0 * kEps);

    Matrix post = Matrix::FromRows({{x}});
    ApplyActivation(act, &post);
    Matrix grad = Matrix::FromRows({{1.0}});
    ApplyActivationGrad(act, post, &grad);
    EXPECT_NEAR(grad.At(0, 0), numeric, 1e-5)
        << ActivationName(act) << " at x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(All, ActivationGradTest,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kRelu,
                                           Activation::kSigmoid,
                                           Activation::kTanh));

}  // namespace
}  // namespace crowdrl::nn
