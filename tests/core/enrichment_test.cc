#include "core/enrichment.h"

#include <gtest/gtest.h>

#include "classifier/classifier.h"
#include "classifier/mlp_classifier.h"
#include "core/reward.h"
#include "math/vector_ops.h"
#include "util/random.h"

namespace crowdrl::core {
namespace {

// Classifier stub returning canned probabilities per object row.
class FakeClassifier : public classifier::Classifier {
 public:
  explicit FakeClassifier(Matrix probs) : probs_(std::move(probs)) {}

  Status Train(const Matrix&, const Matrix&,
               const std::vector<double>&) override {
    return Status::Ok();
  }

  std::vector<double> PredictProbs(
      const std::vector<double>& features) const override {
    // Feature 0 carries the object id.
    return probs_.RowVector(static_cast<size_t>(features[0]));
  }

  int num_classes() const override {
    return static_cast<int>(probs_.cols());
  }
  size_t feature_dim() const override { return 1; }
  bool is_trained() const override { return trained_; }
  void set_trained(bool trained) { trained_ = trained; }

  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<FakeClassifier>(*this);
  }

 private:
  Matrix probs_;
  bool trained_ = true;
};

Matrix IdFeatures(size_t n) {
  Matrix features(n, 1);
  for (size_t i = 0; i < n; ++i) features.At(i, 0) = static_cast<double>(i);
  return features;
}

TEST(EnrichmentTest, LabelsConfidentSkipsAmbiguous) {
  FakeClassifier phi(Matrix::FromRows(
      {{0.95, 0.05}, {0.55, 0.45}, {0.05, 0.95}, {0.7, 0.3}}));
  LabelState state(4, 2);
  state.SetLabel(3, 0, LabelSource::kInference);  // Pre-labelled.
  EnrichmentOptions options;
  options.epsilon = 0.5;
  options.min_labelled = 1;
  options.min_labelled_fraction = 0.0;
  size_t enriched = EnrichLabelledSet(phi, IdFeatures(4), options, &state);
  EXPECT_EQ(enriched, 2u);  // Objects 0 and 2; 1 too ambiguous; 3 taken.
  EXPECT_EQ(state.label(0), 0);
  EXPECT_EQ(state.source(0), LabelSource::kClassifier);
  EXPECT_EQ(state.label(2), 1);
  EXPECT_FALSE(state.IsLabelled(1));
  EXPECT_EQ(state.source(3), LabelSource::kInference);  // Untouched.
}

TEST(EnrichmentTest, ExactThresholdStaysUnlabelled) {
  // Gap == epsilon must NOT label (Algorithm 1: <= epsilon is ambiguous).
  FakeClassifier phi(Matrix::FromRows({{0.75, 0.25}}));
  LabelState state(1, 2);
  EnrichmentOptions options;
  options.epsilon = 0.5;
  options.min_labelled = 0;
  options.min_labelled_fraction = 0.0;
  EXPECT_EQ(EnrichLabelledSet(phi, IdFeatures(1), options, &state), 0u);
}

TEST(EnrichmentTest, UntrainedClassifierIsNoop) {
  FakeClassifier phi(Matrix::FromRows({{1.0, 0.0}}));
  phi.set_trained(false);
  LabelState state(1, 2);
  EnrichmentOptions options;
  options.min_labelled = 0;
  options.min_labelled_fraction = 0.0;
  EXPECT_EQ(EnrichLabelledSet(phi, IdFeatures(1), options, &state), 0u);
}

TEST(EnrichmentTest, MinLabelledGateBlocks) {
  FakeClassifier phi(Matrix::FromRows({{1.0, 0.0}, {1.0, 0.0}}));
  LabelState state(2, 2);
  EnrichmentOptions options;
  options.epsilon = 0.5;
  options.min_labelled = 1;
  options.min_labelled_fraction = 0.0;
  EXPECT_EQ(EnrichLabelledSet(phi, IdFeatures(2), options, &state), 0u);
  state.SetLabel(0, 0, LabelSource::kInference);
  EXPECT_EQ(EnrichLabelledSet(phi, IdFeatures(2), options, &state), 1u);
}

TEST(EnrichmentTest, FractionGateScalesWithWorkload) {
  FakeClassifier phi(Matrix(10, 2, 0.0));
  LabelState state(10, 2);
  state.SetLabel(0, 0, LabelSource::kInference);
  EnrichmentOptions options;
  options.min_labelled = 1;
  options.min_labelled_fraction = 0.5;  // Needs 5 labelled, has 1.
  EXPECT_EQ(EnrichLabelledSet(phi, IdFeatures(10), options, &state), 0u);
}

TEST(EnrichmentTest, BatchedPredictionLabelsLikePerRowPrediction) {
  // A trained phi over several 256-row blocks of unlabelled objects, with
  // labelled objects scattered between them: every decision must match
  // the per-row PredictProbs loop.
  constexpr size_t kObjects = 700;
  Rng rng(17);
  Matrix features(kObjects, 6);
  features.FillUniform(&rng, -1.0, 1.0);
  Matrix soft(kObjects, 2);
  for (size_t i = 0; i < kObjects; ++i) {
    const double p = features.At(i, 0) > 0.0 ? 0.9 : 0.1;
    soft.At(i, 0) = p;
    soft.At(i, 1) = 1.0 - p;
  }
  classifier::MlpClassifierOptions cls;
  cls.hidden_sizes = {8};
  cls.epochs = 3;
  classifier::MlpClassifier phi(6, 2, cls);
  ASSERT_TRUE(phi.Train(features, soft, {}).ok());

  LabelState state(kObjects, 2);
  for (size_t i = 0; i < kObjects; i += 3) {
    state.SetLabel(static_cast<int>(i), 0, LabelSource::kInference);
  }
  LabelState expected = state;
  EnrichmentOptions options;
  options.epsilon = 0.3;
  options.min_labelled = 1;
  options.min_labelled_fraction = 0.0;
  size_t expected_enriched = 0;
  for (int object : expected.UnlabelledObjects()) {
    std::vector<double> probs =
        phi.PredictProbs(features.RowVector(static_cast<size_t>(object)));
    if (TopTwoGap(probs) <= options.epsilon) continue;
    expected.SetLabel(object, static_cast<int>(Argmax(probs)),
                      LabelSource::kClassifier);
    ++expected_enriched;
  }
  ASSERT_GT(state.UnlabelledObjects().size(), 256u);
  ASSERT_GT(expected_enriched, 0u);
  EXPECT_EQ(EnrichLabelledSet(phi, features, options, &state),
            expected_enriched);
  for (int i = 0; i < static_cast<int>(kObjects); ++i) {
    ASSERT_EQ(state.IsLabelled(i), expected.IsLabelled(i)) << i;
    if (state.IsLabelled(i)) {
      EXPECT_EQ(state.label(i), expected.label(i)) << i;
      EXPECT_EQ(state.source(i), expected.source(i)) << i;
    }
  }
}

TEST(RewardTest, SharedEnrichmentReward) {
  RewardOptions options;
  options.lambda = 2.0;
  EXPECT_DOUBLE_EQ(SharedEnrichmentReward(options, 5, 10), 1.0);
  EXPECT_DOUBLE_EQ(SharedEnrichmentReward(options, 0, 10), 0.0);
  EXPECT_DOUBLE_EQ(SharedEnrichmentReward(options, 0, 0), 0.0);
}

TEST(RewardTest, PairReward) {
  RewardOptions options;
  options.mu = 1.0;
  options.eta = -0.5;
  EXPECT_DOUBLE_EQ(PairReward(options, true, 10.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(PairReward(options, false, 1.0, 10.0), -0.05);
  EXPECT_DOUBLE_EQ(PairReward(options, true, 0.0, 10.0), 1.0);
}

}  // namespace
}  // namespace crowdrl::core
