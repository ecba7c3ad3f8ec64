#include "classifier/mlp_classifier.h"

#include <algorithm>
#include <numeric>

#include "math/vector_ops.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "util/logging.h"

namespace crowdrl::classifier {

MlpClassifier::MlpClassifier(size_t feature_dim, int num_classes,
                             MlpClassifierOptions options)
    : feature_dim_(feature_dim),
      num_classes_(num_classes),
      options_(std::move(options)) {
  CROWDRL_CHECK(feature_dim > 0);
  CROWDRL_CHECK(num_classes >= 2);
  CROWDRL_CHECK(options_.epochs > 0);
  CROWDRL_CHECK(options_.batch_size > 0);
}

nn::Mlp MlpClassifier::BuildNetwork(Rng* rng) const {
  std::vector<size_t> sizes;
  sizes.push_back(feature_dim_);
  for (size_t h : options_.hidden_sizes) sizes.push_back(h);
  sizes.push_back(static_cast<size_t>(num_classes_));
  std::vector<nn::Activation> acts(sizes.size() - 1, nn::Activation::kRelu);
  acts.back() = nn::Activation::kIdentity;  // Logits; softmax in the loss.
  return nn::Mlp(sizes, acts, rng);
}

Status MlpClassifier::Train(const Matrix& features, const Matrix& soft_labels,
                            const std::vector<double>& weights) {
  if (features.rows() == 0) {
    return Status::InvalidArgument("cannot train on an empty set");
  }
  if (features.cols() != feature_dim_) {
    return Status::InvalidArgument("feature dimension mismatch");
  }
  if (soft_labels.rows() != features.rows() ||
      soft_labels.cols() != static_cast<size_t>(num_classes_)) {
    return Status::InvalidArgument("soft label shape mismatch");
  }
  std::vector<double> sample_weights = weights;
  if (sample_weights.empty()) {
    sample_weights.assign(features.rows(), 1.0);
  }
  if (sample_weights.size() != features.rows()) {
    return Status::InvalidArgument("weight count mismatch");
  }

  Rng rng(options_.seed + 0x9E37 * (++retrain_count_));
  nn::Mlp net = options_.warm_start && net_.has_value()
                    ? *net_
                    : BuildNetwork(&rng);
  nn::Adam optimizer(options_.learning_rate, 0.9, 0.999, 1e-8,
                     options_.weight_decay);

  std::vector<int> order(static_cast<int>(features.rows()));
  std::iota(order.begin(), order.end(), 0);
  // Minibatch buffers, reshaped in place per step (only the final, shorter
  // batch of an epoch changes their shape).
  const size_t classes = static_cast<size_t>(num_classes_);
  Matrix x;
  Matrix t;
  std::vector<double> w;
  Matrix grad;
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < order.size();
         start += options_.batch_size) {
      size_t end = std::min(order.size(), start + options_.batch_size);
      size_t batch = end - start;
      x.Resize(batch, feature_dim_);
      t.Resize(batch, classes);
      w.resize(batch);
      for (size_t b = 0; b < batch; ++b) {
        const size_t row = static_cast<size_t>(order[start + b]);
        std::copy(features.Row(row), features.Row(row) + feature_dim_,
                  x.Row(b));
        std::copy(soft_labels.Row(row), soft_labels.Row(row) + classes,
                  t.Row(b));
        w[b] = sample_weights[row];
      }
      const Matrix& logits = net.Forward(x);
      nn::WeightedSoftmaxCrossEntropyGrad(logits, t, w, &grad);
      net.Backward(grad);
      optimizer.Step(&net);
    }
  }
  net_ = std::move(net);
  return Status::Ok();
}

std::vector<double> MlpClassifier::PredictProbs(
    const std::vector<double>& features) const {
  CROWDRL_CHECK(features.size() == feature_dim_);
  if (!net_.has_value()) {
    return std::vector<double>(static_cast<size_t>(num_classes_),
                               1.0 / static_cast<double>(num_classes_));
  }
  return Softmax(net_->Infer(features));
}

Matrix MlpClassifier::PredictProbsBatch(const Matrix& features) const {
  CROWDRL_CHECK(features.cols() == feature_dim_);
  if (!net_.has_value()) {
    return Matrix(features.rows(), static_cast<size_t>(num_classes_),
                  1.0 / static_cast<double>(num_classes_));
  }
  Matrix out = net_->Infer(features);
  for (size_t r = 0; r < out.rows(); ++r) {
    SoftmaxInPlace(out.Row(r), out.cols());
  }
  return out;
}

void MlpClassifier::SaveState(io::Writer* writer) const {
  CROWDRL_CHECK(writer != nullptr);
  writer->WriteSize(feature_dim_);
  writer->WriteI32(num_classes_);
  writer->WriteSize(retrain_count_);
  writer->WriteBool(net_.has_value());
  if (net_.has_value()) net_->SaveState(writer);
}

Status MlpClassifier::LoadState(io::Reader* reader) {
  CROWDRL_CHECK(reader != nullptr);
  size_t feature_dim = 0;
  int32_t num_classes = 0;
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&feature_dim));
  CROWDRL_RETURN_IF_ERROR(reader->ReadI32(&num_classes));
  if (feature_dim != feature_dim_ || num_classes != num_classes_) {
    return Status::InvalidArgument("classifier shape mismatch on restore");
  }
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&retrain_count_));
  bool has_net = false;
  CROWDRL_RETURN_IF_ERROR(reader->ReadBool(&has_net));
  if (!has_net) {
    net_.reset();
    return Status::Ok();
  }
  // Build a network of the configured architecture (the throwaway init
  // seed is overwritten by the serialized weights), then restore into it
  // so LoadState's architecture validation applies.
  Rng scratch(options_.seed);
  nn::Mlp net = BuildNetwork(&scratch);
  CROWDRL_RETURN_IF_ERROR(net.LoadState(reader));
  net_ = std::move(net);
  return Status::Ok();
}

std::unique_ptr<Classifier> MlpClassifier::Clone() const {
  return std::make_unique<MlpClassifier>(*this);
}

LogisticClassifier::LogisticClassifier(size_t feature_dim, int num_classes,
                                       MlpClassifierOptions options)
    : MlpClassifier(feature_dim, num_classes, [&options] {
        options.hidden_sizes.clear();
        return options;
      }()) {}

}  // namespace crowdrl::classifier
