#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "math/vector_ops.h"
#include "util/logging.h"

namespace crowdrl::nn {

namespace {

// Clamps log arguments away from zero.
constexpr double kLogFloor = 1e-12;

// Shared body of MseLoss and WeightedMseLoss: `row_weight(r)` is sample
// r's weight. MseLoss's weight of exactly 1.0 leaves every product's bits
// unchanged, so the unweighted loss is the weighted one with unit weights.
template <typename RowWeight>
double MseLossRows(const Matrix& pred, const Matrix& target,
                   const RowWeight& row_weight, Matrix* grad) {
  CROWDRL_CHECK(pred.SameShape(target));
  CROWDRL_CHECK(grad != nullptr);
  CROWDRL_CHECK(pred.rows() > 0 && pred.cols() > 0);
  grad->Resize(pred.rows(), pred.cols());
  double n = static_cast<double>(pred.rows() * pred.cols());
  double loss = 0.0;
  for (size_t r = 0; r < pred.rows(); ++r) {
    double w = row_weight(r);
    for (size_t c = 0; c < pred.cols(); ++c) {
      double diff = pred.At(r, c) - target.At(r, c);
      loss += w * diff * diff;
      grad->At(r, c) = w * 2.0 * diff / n;
    }
  }
  return loss / n;
}

// Shared body of the softmax cross-entropy entry points. kWithLoss = false
// skips the per-element log of the loss value but writes the same
// gradient bits.
template <bool kWithLoss>
double SoftmaxCrossEntropyRows(const Matrix& logits, const Matrix& target,
                               const std::vector<double>& row_weights,
                               Matrix* grad) {
  CROWDRL_CHECK(logits.SameShape(target));
  CROWDRL_CHECK(row_weights.size() == logits.rows());
  CROWDRL_CHECK(grad != nullptr);
  CROWDRL_CHECK(logits.rows() > 0 && logits.cols() > 0);
  const size_t cols = logits.cols();
  grad->Resize(logits.rows(), cols);
  double batch = static_cast<double>(logits.rows());
  double loss = 0.0;
  for (size_t r = 0; r < logits.rows(); ++r) {
    // Each grad row first holds the row's softmax, then is overwritten
    // element by element with the gradient.
    double* g = grad->Row(r);
    std::copy(logits.Row(r), logits.Row(r) + cols, g);
    SoftmaxInPlace(g, cols);
    double w = row_weights[r];
    for (size_t c = 0; c < cols; ++c) {
      const double p = g[c];
      double t = target.At(r, c);
      if constexpr (kWithLoss) {
        if (t > 0.0) loss -= w * t * std::log(std::max(p, kLogFloor));
      }
      g[c] = w * (p - t) / batch;
    }
  }
  return loss / batch;
}

}  // namespace

double MseLoss(const Matrix& pred, const Matrix& target, Matrix* grad) {
  return MseLossRows(pred, target, [](size_t) { return 1.0; }, grad);
}

double WeightedMseLoss(const Matrix& pred, const Matrix& target,
                       const std::vector<double>& row_weights, Matrix* grad) {
  CROWDRL_CHECK(row_weights.size() == pred.rows());
  return MseLossRows(
      pred, target, [&row_weights](size_t r) { return row_weights[r]; },
      grad);
}

double SoftmaxCrossEntropyLoss(const Matrix& logits, const Matrix& target,
                               Matrix* grad) {
  return WeightedSoftmaxCrossEntropyLoss(
      logits, target, std::vector<double>(logits.rows(), 1.0), grad);
}

double WeightedSoftmaxCrossEntropyLoss(const Matrix& logits,
                                       const Matrix& target,
                                       const std::vector<double>& row_weights,
                                       Matrix* grad) {
  return SoftmaxCrossEntropyRows<true>(logits, target, row_weights, grad);
}

void WeightedSoftmaxCrossEntropyGrad(const Matrix& logits,
                                     const Matrix& target,
                                     const std::vector<double>& row_weights,
                                     Matrix* grad) {
  SoftmaxCrossEntropyRows<false>(logits, target, row_weights, grad);
}

double MaskedMseLoss(const Matrix& pred, const Matrix& target,
                     const Matrix& mask, Matrix* grad) {
  CROWDRL_CHECK(pred.SameShape(target) && pred.SameShape(mask));
  CROWDRL_CHECK(grad != nullptr);
  grad->Resize(pred.rows(), pred.cols());
  grad->Fill(0.0);  // Masked entries carry no gradient.
  double count = 0.0;
  for (double m : mask.data()) {
    if (m != 0.0) count += 1.0;
  }
  if (count == 0.0) return 0.0;
  double loss = 0.0;
  for (size_t i = 0; i < pred.data().size(); ++i) {
    if (mask.data()[i] == 0.0) continue;
    double diff = pred.data()[i] - target.data()[i];
    loss += diff * diff;
    grad->data()[i] = 2.0 * diff / count;
  }
  return loss / count;
}

}  // namespace crowdrl::nn
