#ifndef CROWDRL_TESTS_TESTING_REFERENCE_TRAIN_H_
#define CROWDRL_TESTS_TESTING_REFERENCE_TRAIN_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

#include "classifier/mlp_classifier.h"
#include "io/serializer.h"
#include "math/gemm.h"
#include "math/matrix.h"
#include "math/vector_ops.h"
#include "nn/activation.h"
#include "nn/mlp.h"
#include "rl/q_network.h"
#include "rl/replay_buffer.h"
#include "util/random.h"

namespace crowdrl::testing {

/// Transcribed copies of the network training step as it stood before the
/// SIMD Adam kernel, the gradient-only loss, the branch-free ReLU gradient
/// and the transposed weight gradient: the scalar Adam loop, the full
/// softmax cross-entropy (loss value included), the unweighted MSE built
/// on the weighted one, the activation gradients, the Mlp backward pass
/// that always computes dW = grad^T * input, and the MlpClassifier /
/// QNetwork training loops around them. They pin the bits every later
/// speed-up must reproduce; do not "fix" or speed them up. The dense
/// products call the gemm kernels, whose own conformance tests pin them to
/// the naive loops of reference_gemm.h.

/// The pre-kernel Adam::ApplyUpdate inner loop over one parameter block,
/// at 1-based step `step`.
inline void ReferenceAdamUpdate(double learning_rate, double beta1,
                                double beta2, double epsilon,
                                double weight_decay, size_t step, size_t n,
                                double* value, const double* grad, double* m,
                                double* v) {
  double bc1 = 1.0 - std::pow(beta1, static_cast<double>(step));
  double bc2 = 1.0 - std::pow(beta2, static_cast<double>(step));
  for (size_t j = 0; j < n; ++j) {
    double g = grad[j] + weight_decay * value[j];
    m[j] = beta1 * m[j] + (1.0 - beta1) * g;
    v[j] = beta2 * v[j] + (1.0 - beta2) * g * g;
    double m_hat = m[j] / bc1;
    double v_hat = v[j] / bc2;
    value[j] -= learning_rate * m_hat / (std::sqrt(v_hat) + epsilon);
  }
}

inline double ReferenceWeightedSoftmaxCrossEntropyLoss(
    const Matrix& logits, const Matrix& target,
    const std::vector<double>& row_weights, Matrix* grad) {
  const size_t cols = logits.cols();
  grad->Resize(logits.rows(), cols);
  double batch = static_cast<double>(logits.rows());
  double loss = 0.0;
  for (size_t r = 0; r < logits.rows(); ++r) {
    double* g = grad->Row(r);
    std::copy(logits.Row(r), logits.Row(r) + cols, g);
    SoftmaxInPlace(g, cols);
    double w = row_weights[r];
    for (size_t c = 0; c < cols; ++c) {
      const double p = g[c];
      double t = target.At(r, c);
      if (t > 0.0) loss -= w * t * std::log(std::max(p, 1e-12));
      g[c] = w * (p - t) / batch;
    }
  }
  return loss / batch;
}

inline double ReferenceMseLoss(const Matrix& pred, const Matrix& target,
                               Matrix* grad) {
  const std::vector<double> row_weights(pred.rows(), 1.0);
  *grad = Matrix(pred.rows(), pred.cols());
  double n = static_cast<double>(pred.rows() * pred.cols());
  double loss = 0.0;
  for (size_t r = 0; r < pred.rows(); ++r) {
    double w = row_weights[r];
    for (size_t c = 0; c < pred.cols(); ++c) {
      double diff = pred.At(r, c) - target.At(r, c);
      loss += w * diff * diff;
      grad->At(r, c) = w * 2.0 * diff / n;
    }
  }
  return loss / n;
}

/// The pre-change nn::ApplyActivationGrad: dLoss/dPre from dLoss/dPost,
/// given the post-activation values.
inline void ReferenceActivationGrad(nn::Activation act, const Matrix& post,
                                    Matrix* grad) {
  switch (act) {
    case nn::Activation::kIdentity:
      return;
    case nn::Activation::kRelu:
      for (size_t i = 0; i < grad->data().size(); ++i) {
        if (post.data()[i] <= 0.0) grad->data()[i] = 0.0;
      }
      return;
    case nn::Activation::kSigmoid:
      for (size_t i = 0; i < grad->data().size(); ++i) {
        double y = post.data()[i];
        grad->data()[i] *= y * (1.0 - y);
      }
      return;
    case nn::Activation::kTanh:
      for (size_t i = 0; i < grad->data().size(); ++i) {
        double y = post.data()[i];
        grad->data()[i] *= 1.0 - y * y;
      }
      return;
  }
}

/// The pre-change Mlp training path over a flat parameter vector in
/// Mlp::FlatParameters order.
class ReferenceNet {
 public:
  ReferenceNet(const std::vector<size_t>& sizes,
               const std::vector<nn::Activation>& activations,
               const std::vector<double>& flat) {
    size_t offset = 0;
    layers_.resize(sizes.size() - 1);
    for (size_t l = 0; l < layers_.size(); ++l) {
      Layer& layer = layers_[l];
      layer.weight = Matrix(sizes[l + 1], sizes[l]);
      for (double& w : layer.weight.data()) w = flat[offset++];
      layer.bias.assign(sizes[l + 1], 0.0);
      for (double& b : layer.bias) b = flat[offset++];
      layer.weight_grad = Matrix(sizes[l + 1], sizes[l]);
      layer.bias_grad.assign(sizes[l + 1], 0.0);
      layer.activation = activations[l];
    }
  }

  const Matrix& Forward(const Matrix& batch) {
    input_ = &batch;
    const Matrix* current = &batch;
    for (Layer& layer : layers_) {
      gemm::MatMulNTInto(*current, layer.weight, &layer.output);
      for (size_t r = 0; r < layer.output.rows(); ++r) {
        double* row = layer.output.Row(r);
        for (size_t c = 0; c < layer.output.cols(); ++c) {
          row[c] += layer.bias[c];
        }
      }
      nn::ApplyActivation(layer.activation, &layer.output);
      current = &layer.output;
    }
    return layers_.back().output;
  }

  void Backward(const Matrix& grad_output) {
    layers_.back().grad = grad_output;
    for (size_t l = layers_.size(); l > 0; --l) {
      Layer& layer = layers_[l - 1];
      Matrix& grad = layer.grad;
      ReferenceActivationGrad(layer.activation, layer.output, &grad);
      const Matrix& input = l > 1 ? layers_[l - 2].output : *input_;
      gemm::MatMulTNInto(grad, input, &layer.dw);
      layer.weight_grad.Add(layer.dw);
      for (size_t r = 0; r < grad.rows(); ++r) {
        const double* row = grad.Row(r);
        for (size_t c = 0; c < grad.cols(); ++c) layer.bias_grad[c] += row[c];
      }
      if (l > 1) gemm::MatMulInto(grad, layer.weight, &layers_[l - 2].grad);
    }
  }

  /// Optimizer::Step + Adam::ApplyUpdate: update, then zero the gradients.
  void AdamStep(double learning_rate, double beta1, double beta2,
                double epsilon, double weight_decay) {
    if (m_.empty()) {
      for (const Layer& layer : layers_) {
        m_.emplace_back(layer.weight.size(), 0.0);
        m_.emplace_back(layer.bias.size(), 0.0);
      }
      v_ = m_;
    }
    ++step_;
    for (size_t l = 0; l < layers_.size(); ++l) {
      Layer& layer = layers_[l];
      ReferenceAdamUpdate(learning_rate, beta1, beta2, epsilon, weight_decay,
                          step_, layer.weight.size(),
                          layer.weight.data().data(),
                          layer.weight_grad.data().data(),
                          m_[2 * l].data(), v_[2 * l].data());
      ReferenceAdamUpdate(learning_rate, beta1, beta2, epsilon, weight_decay,
                          step_, layer.bias.size(), layer.bias.data(),
                          layer.bias_grad.data(), m_[2 * l + 1].data(),
                          v_[2 * l + 1].data());
      layer.weight_grad.Fill(0.0);
      for (double& g : layer.bias_grad) g = 0.0;
    }
  }

  std::vector<double> FlatParameters() const {
    std::vector<double> flat;
    for (const Layer& layer : layers_) {
      flat.insert(flat.end(), layer.weight.data().begin(),
                  layer.weight.data().end());
      flat.insert(flat.end(), layer.bias.begin(), layer.bias.end());
    }
    return flat;
  }

  /// Accumulated gradients in FlatParameters order.
  std::vector<double> FlatGradients() const {
    std::vector<double> flat;
    for (const Layer& layer : layers_) {
      flat.insert(flat.end(), layer.weight_grad.data().begin(),
                  layer.weight_grad.data().end());
      flat.insert(flat.end(), layer.bias_grad.begin(), layer.bias_grad.end());
    }
    return flat;
  }

 private:
  struct Layer {
    Matrix weight;
    std::vector<double> bias;
    Matrix weight_grad;
    std::vector<double> bias_grad;
    nn::Activation activation;
    Matrix output;
    Matrix grad;
    Matrix dw;
  };
  std::vector<Layer> layers_;
  const Matrix* input_ = nullptr;
  size_t step_ = 0;
  std::vector<std::vector<double>> m_;
  std::vector<std::vector<double>> v_;
};

/// The pre-change MlpClassifier::Train for its `retrain`-th call (1-based):
/// the network starts from `initial` (a warm start; FlatParameters order)
/// or, when that is empty, fresh from the retrain seed; then shuffled
/// minibatches, softmax cross-entropy, Adam. Returns the trained
/// parameters in Mlp::FlatParameters order.
inline std::vector<double> ReferenceClassifierTrain(
    const classifier::MlpClassifierOptions& options, size_t retrain,
    const std::vector<double>& initial, const Matrix& features,
    const Matrix& soft_labels, const std::vector<double>& weights) {
  const size_t feature_dim = features.cols();
  const size_t classes = soft_labels.cols();
  std::vector<double> sample_weights = weights;
  if (sample_weights.empty()) sample_weights.assign(features.rows(), 1.0);

  Rng rng(options.seed + 0x9E37 * retrain);
  std::vector<size_t> sizes = {feature_dim};
  for (size_t h : options.hidden_sizes) sizes.push_back(h);
  sizes.push_back(classes);
  std::vector<nn::Activation> acts(sizes.size() - 1, nn::Activation::kRelu);
  acts.back() = nn::Activation::kIdentity;
  ReferenceNet net(sizes, acts,
                   initial.empty() ? nn::Mlp(sizes, acts, &rng).FlatParameters()
                                   : initial);

  std::vector<int> order(static_cast<int>(features.rows()));
  std::iota(order.begin(), order.end(), 0);
  Matrix x;
  Matrix t;
  std::vector<double> w;
  Matrix grad;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < order.size();
         start += options.batch_size) {
      size_t end = std::min(order.size(), start + options.batch_size);
      size_t batch = end - start;
      x.Resize(batch, feature_dim);
      t.Resize(batch, classes);
      w.resize(batch);
      for (size_t b = 0; b < batch; ++b) {
        const size_t row = static_cast<size_t>(order[start + b]);
        std::copy(features.Row(row), features.Row(row) + feature_dim,
                  x.Row(b));
        std::copy(soft_labels.Row(row), soft_labels.Row(row) + classes,
                  t.Row(b));
        w[b] = sample_weights[row];
      }
      const Matrix& logits = net.Forward(x);
      ReferenceWeightedSoftmaxCrossEntropyLoss(logits, t, w, &grad);
      net.Backward(grad);
      net.AdamStep(options.learning_rate, 0.9, 0.999, 1e-8,
                   options.weight_decay);
    }
  }
  return net.FlatParameters();
}

/// A trained MlpClassifier's parameters in Mlp::FlatParameters order, read
/// back through its checkpoint (the classifier does not expose its
/// network). `hidden_sizes` and ReLU hidden layers as in BuildNetwork.
inline std::vector<double> ClassifierParameters(
    const classifier::MlpClassifier& phi,
    const std::vector<size_t>& hidden_sizes) {
  io::Writer writer;
  phi.SaveState(&writer);
  io::Reader reader(writer.bytes());
  size_t feature_dim = 0;
  int32_t classes = 0;
  size_t retrains = 0;
  bool has_net = false;
  if (!reader.ReadSize(&feature_dim).ok() || !reader.ReadI32(&classes).ok() ||
      !reader.ReadSize(&retrains).ok() || !reader.ReadBool(&has_net).ok() ||
      !has_net) {
    return {};
  }
  std::vector<size_t> sizes = {feature_dim};
  for (size_t h : hidden_sizes) sizes.push_back(h);
  sizes.push_back(static_cast<size_t>(classes));
  std::vector<nn::Activation> acts(sizes.size() - 1, nn::Activation::kRelu);
  acts.back() = nn::Activation::kIdentity;
  Rng scratch(1);
  nn::Mlp net(sizes, acts, &scratch);
  if (!net.LoadState(&reader).ok()) return {};
  return net.FlatParameters();
}

/// The pre-change QNetwork::TrainBatch on the online network `net` (whose
/// Adam state carries across calls): regression targets, MSE, backward,
/// Adam at the network's default hyperparameters. Returns the loss.
inline double ReferenceQTrainBatch(
    const rl::QNetworkOptions& options,
    const std::vector<const rl::Transition*>& batch, ReferenceNet* net) {
  Matrix x(batch.size(), options.feature_dim);
  Matrix y(batch.size(), 1);
  for (size_t i = 0; i < batch.size(); ++i) {
    const rl::Transition& t = *batch[i];
    x.SetRow(i, t.features);
    double target = t.reward;
    if (!t.terminal) target += options.gamma * t.next_max_q;
    y.At(i, 0) = target;
  }
  const Matrix& pred = net->Forward(x);
  Matrix grad;
  double loss = ReferenceMseLoss(pred, y, &grad);
  net->Backward(grad);
  net->AdamStep(options.learning_rate, 0.9, 0.999, 1e-8, 0.0);
  return loss;
}

}  // namespace crowdrl::testing

#endif  // CROWDRL_TESTS_TESTING_REFERENCE_TRAIN_H_
