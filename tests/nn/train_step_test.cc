// The network training step — Mlp backward, the losses, Adam, and the
// MlpClassifier / QNetwork loops around them — must train exactly the
// parameters the transcribed pre-change step in reference_train.h trains,
// bit for bit.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "classifier/mlp_classifier.h"
#include "nn/mlp.h"
#include "rl/q_network.h"
#include "tests/testing/reference_train.h"
#include "util/random.h"

namespace crowdrl {
namespace {

using testing::ClassifierParameters;
using testing::ReferenceClassifierTrain;
using testing::ReferenceNet;
using testing::ReferenceQTrainBatch;

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<double> FlatGradients(nn::Mlp* net) {
  std::vector<double> flat;
  for (const nn::ParamView& view : net->ParamViews()) {
    flat.insert(flat.end(), view.grad, view.grad + view.size);
  }
  return flat;
}

TEST(MlpBackwardReferenceTest, BothWeightGradientOrientationsMatchBitwise) {
  // 208 -> 16 (phi's first layer) and 64 -> 32 take the transposed weight
  // gradient; 16 -> 2, 32 -> 1 and the layers that do not narrow the
  // direct one. Batches past 256 rows span several k panels of the
  // kernel, and repeated Backward calls accumulate into the gradients.
  const std::vector<nn::Activation> acts = {nn::Activation::kRelu,
                                            nn::Activation::kRelu,
                                            nn::Activation::kIdentity};
  for (const std::vector<size_t>& sizes :
       {std::vector<size_t>{208, 16, 16, 2}, std::vector<size_t>{12, 64, 32, 1},
        std::vector<size_t>{7, 7, 3, 9}}) {
    for (size_t batch : {size_t{1}, size_t{64}, size_t{300}}) {
      SCOPED_TRACE(::testing::Message() << "in " << sizes[0] << " batch "
                                        << batch);
      Rng rng(batch + sizes[0]);
      nn::Mlp net(sizes, acts, &rng);
      ReferenceNet ref(sizes, acts, net.FlatParameters());
      for (int pass = 0; pass < 2; ++pass) {
        Matrix x(batch, sizes[0]);
        x.FillUniform(&rng, -1.0, 1.0);
        Matrix grad(batch, sizes.back());
        grad.FillUniform(&rng, -1.0, 1.0);
        net.Forward(x);
        net.Backward(grad);
        ref.Forward(x);
        ref.Backward(grad);
        EXPECT_TRUE(BitEqual(FlatGradients(&net), ref.FlatGradients()))
            << "pass " << pass;
      }
    }
  }
}

struct ClassifierData {
  Matrix features;
  Matrix soft_labels;
  std::vector<double> weights;
};

// 810 rows of phi's 208 features (the last minibatch of an epoch has 42
// rows, not a power of two): soft labels (some one-hot, so targets
// hit exact zeros) and positive per-row weights.
ClassifierData MakeClassifierData(uint64_t seed) {
  Rng rng(seed);
  ClassifierData d;
  d.features = Matrix(810, 208);
  d.features.FillUniform(&rng, -1.0, 1.0);
  d.soft_labels = Matrix(810, 2);
  d.weights.resize(810);
  for (size_t i = 0; i < 810; ++i) {
    const double p = i % 4 == 0 ? 1.0 : rng.Uniform();
    d.soft_labels.At(i, 0) = p;
    d.soft_labels.At(i, 1) = 1.0 - p;
    d.weights[i] = rng.Uniform(0.5, 1.5);
  }
  return d;
}

TEST(MlpClassifierReferenceTest, ThreeRetrainsMatchPreChangeTrainBitwise) {
  const ClassifierData d = MakeClassifierData(41);
  for (bool warm_start : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "warm_start " << warm_start);
    // The labelling loop's phi configuration.
    classifier::MlpClassifierOptions options;
    options.hidden_sizes = {16};
    options.epochs = 6;
    options.warm_start = warm_start;
    options.weight_decay = 3e-3;
    classifier::MlpClassifier phi(208, 2, options);
    std::vector<double> expected;
    for (size_t retrain = 1; retrain <= 3; ++retrain) {
      ASSERT_TRUE(phi.Train(d.features, d.soft_labels, d.weights).ok());
      expected = ReferenceClassifierTrain(
          options, retrain,
          warm_start ? expected : std::vector<double>(), d.features,
          d.soft_labels, d.weights);
      EXPECT_TRUE(BitEqual(ClassifierParameters(phi, {16}), expected))
          << "retrain " << retrain;
    }
  }
}

TEST(QNetworkReferenceTest, TwentyTrainBatchesMatchPreChangeStepBitwise) {
  for (int threads : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    rl::QNetworkOptions options;
    options.threads = threads;
    rl::QNetwork q(options);
    std::vector<size_t> sizes = {options.feature_dim};
    for (size_t h : options.hidden_sizes) sizes.push_back(h);
    sizes.push_back(1);
    std::vector<nn::Activation> acts(sizes.size() - 1, nn::Activation::kRelu);
    acts.back() = nn::Activation::kIdentity;
    ReferenceNet ref(sizes, acts, q.FlatParameters());

    Rng rng(51);
    std::vector<rl::Transition> pool(96);
    for (size_t i = 0; i < pool.size(); ++i) {
      rl::Transition& t = pool[i];
      t.features.resize(options.feature_dim);
      for (double& f : t.features) f = rng.Uniform(-1.0, 1.0);
      t.reward = rng.Uniform(-1.0, 1.0);
      t.next_max_q = rng.Uniform(-1.0, 1.0);
      t.terminal = i % 7 == 0;
    }
    for (int step = 0; step < 20; ++step) {
      // Minibatches of varying size, so the reused buffers reshape.
      const size_t batch_size = step % 3 == 2 ? 17 : 32;
      std::vector<const rl::Transition*> batch;
      for (size_t i = 0; i < batch_size; ++i) {
        batch.push_back(&pool[static_cast<size_t>(
            rng.UniformInt(static_cast<int>(pool.size())))]);
      }
      const double loss = q.TrainBatch(batch);
      const double ref_loss = ReferenceQTrainBatch(options, batch, &ref);
      EXPECT_TRUE(BitEqual(loss, ref_loss)) << "step " << step;
      ASSERT_TRUE(BitEqual(q.FlatParameters(), ref.FlatParameters()))
          << "step " << step;
    }
  }
}

}  // namespace
}  // namespace crowdrl
