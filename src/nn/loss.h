#ifndef CROWDRL_NN_LOSS_H_
#define CROWDRL_NN_LOSS_H_

#include "math/matrix.h"

namespace crowdrl::nn {

/// Mean squared error over all elements of the batch.
/// Returns the loss and writes dLoss/dPred into *grad (same shape as pred).
/// Optional per-row weights scale each sample's contribution. `grad` is
/// reshaped in place, so a reused buffer is not reallocated.
double MseLoss(const Matrix& pred, const Matrix& target, Matrix* grad);
double WeightedMseLoss(const Matrix& pred, const Matrix& target,
                       const std::vector<double>& row_weights, Matrix* grad);

/// Softmax cross-entropy against target *distributions* (soft labels are
/// first-class citizens here: the joint inference model trains phi on
/// posteriors q(y_i)). `logits` are raw network outputs; the gradient
/// (softmax(logits) - target) / batch is written into *grad.
/// Optional per-row weights scale each sample.
double SoftmaxCrossEntropyLoss(const Matrix& logits, const Matrix& target,
                               Matrix* grad);
double WeightedSoftmaxCrossEntropyLoss(const Matrix& logits,
                                       const Matrix& target,
                                       const std::vector<double>& row_weights,
                                       Matrix* grad);
/// Gradient only: writes exactly WeightedSoftmaxCrossEntropyLoss's
/// gradient bits without evaluating the loss (no per-element log), for
/// training loops that discard the loss value.
void WeightedSoftmaxCrossEntropyGrad(const Matrix& logits,
                                     const Matrix& target,
                                     const std::vector<double>& row_weights,
                                     Matrix* grad);

/// Masked MSE for DQN updates: only entries with mask != 0 contribute.
/// The divisor is the number of unmasked entries.
double MaskedMseLoss(const Matrix& pred, const Matrix& target,
                     const Matrix& mask, Matrix* grad);

}  // namespace crowdrl::nn

#endif  // CROWDRL_NN_LOSS_H_
