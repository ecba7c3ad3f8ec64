#include "rl/q_network.h"

#include <cstring>

#include <gtest/gtest.h>

#include "rl/state.h"
#include "util/random.h"

namespace crowdrl::rl {
namespace {

QNetworkOptions SmallOptions() {
  QNetworkOptions options;
  options.feature_dim = 3;
  options.hidden_sizes = {8};
  options.seed = 5;
  return options;
}

TEST(QNetworkTest, PredictShapes) {
  QNetwork q(SmallOptions());
  EXPECT_EQ(q.feature_dim(), 3u);
  Matrix batch(4, 3, 0.1);
  std::vector<double> values = q.PredictBatch(batch);
  EXPECT_EQ(values.size(), 4u);
  EXPECT_DOUBLE_EQ(q.Predict({0.1, 0.1, 0.1}), values[0]);
}

TEST(QNetworkTest, TargetStartsInSyncWithOnline) {
  QNetwork q(SmallOptions());
  Matrix batch(2, 3, 0.3);
  std::vector<double> online = q.PredictBatch(batch);
  std::vector<double> target = q.TargetPredictBatch(batch);
  for (size_t i = 0; i < online.size(); ++i) {
    EXPECT_DOUBLE_EQ(online[i], target[i]);
  }
}

TEST(QNetworkTest, TrainingFitsConstantTarget) {
  QNetwork q(SmallOptions());
  // Transitions all terminal with reward 2: Q(x) must approach 2.
  std::vector<Transition> transitions;
  Rng rng(9);
  for (int i = 0; i < 32; ++i) {
    Transition t;
    t.features = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    t.reward = 2.0;
    t.terminal = true;
    transitions.push_back(std::move(t));
  }
  std::vector<const Transition*> batch;
  for (const Transition& t : transitions) batch.push_back(&t);
  double first_loss = q.TrainBatch(batch);
  double last_loss = first_loss;
  for (int step = 0; step < 500; ++step) last_loss = q.TrainBatch(batch);
  EXPECT_LT(last_loss, first_loss * 0.05);
  EXPECT_NEAR(q.Predict({0.5, 0.5, 0.5}), 2.0, 0.3);
}

TEST(QNetworkTest, BootstrapUsesGammaAndNextMaxQ) {
  QNetworkOptions options = SmallOptions();
  options.gamma = 0.5;
  options.learning_rate = 5e-3;
  QNetwork q(options);
  Transition t;
  t.features = {0.1, 0.2, 0.3};
  t.reward = 1.0;
  t.next_max_q = 4.0;
  t.terminal = false;
  // Target = 1 + 0.5 * 4 = 3; training long enough converges there.
  std::vector<const Transition*> batch = {&t};
  for (int step = 0; step < 3000; ++step) q.TrainBatch(batch);
  EXPECT_NEAR(q.Predict(t.features), 3.0, 0.4);
}

TEST(QNetworkTest, HardTargetSyncHappensAtPeriod) {
  QNetworkOptions options = SmallOptions();
  options.target_sync_period = 5;
  QNetwork q(options);
  Transition t;
  t.features = {1.0, 1.0, 1.0};
  t.reward = 10.0;
  t.terminal = true;
  std::vector<const Transition*> batch = {&t};
  Matrix probe(1, 3, 1.0);
  double target_before = q.TargetPredictBatch(probe)[0];
  for (int i = 0; i < 4; ++i) q.TrainBatch(batch);
  // Not yet synced (4 < 5): target unchanged.
  EXPECT_DOUBLE_EQ(q.TargetPredictBatch(probe)[0], target_before);
  q.TrainBatch(batch);  // 5th step triggers sync.
  EXPECT_DOUBLE_EQ(q.TargetPredictBatch(probe)[0],
                   q.PredictBatch(probe)[0]);
}

TEST(QNetworkTest, SoftSyncMovesTargetEveryStep) {
  QNetworkOptions options = SmallOptions();
  options.soft_tau = 0.5;
  QNetwork q(options);
  Transition t;
  t.features = {1.0, 1.0, 1.0};
  t.reward = 10.0;
  t.terminal = true;
  std::vector<const Transition*> batch = {&t};
  Matrix probe(1, 3, 1.0);
  double before = q.TargetPredictBatch(probe)[0];
  q.TrainBatch(batch);
  double after = q.TargetPredictBatch(probe)[0];
  EXPECT_NE(before, after);
}

TEST(QNetworkTest, ParameterRoundTripResetsTarget) {
  QNetwork a(SmallOptions());
  QNetworkOptions other = SmallOptions();
  other.seed = 99;
  QNetwork b(other);
  b.SetFlatParameters(a.FlatParameters());
  Matrix probe(1, 3, 0.7);
  EXPECT_DOUBLE_EQ(a.PredictBatch(probe)[0], b.PredictBatch(probe)[0]);
  EXPECT_DOUBLE_EQ(b.PredictBatch(probe)[0],
                   b.TargetPredictBatch(probe)[0]);
}

bool BitEqualVec(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(QNetworkTest, ServingEntryPointsBitEqualTheirPlainForms) {
  QNetworkOptions options;  // feature_dim = StateFeaturizer::kFeatureDim.
  options.seed = 31;
  QNetwork q(options);
  Rng rng(32);
  // 300 rows: more than one 256-row inference block.
  Matrix batch(300, options.feature_dim);
  batch.FillUniform(&rng, -1.0, 1.0);
  EXPECT_TRUE(
      BitEqualVec(q.PredictBatchServing(batch), q.PredictBatch(batch)));

  Matrix objects(20, StateFeaturizer::kObjectBlockDim);
  Matrix annotators(15, StateFeaturizer::kAnnotatorBlockDim);
  objects.FillUniform(&rng, -1.0, 1.0);
  annotators.FillUniform(&rng, -1.0, 1.0);
  std::vector<double> global = {0.3, -0.2, 0.7};
  FeatureBlocks blocks;
  blocks.object_blocks = &objects;
  blocks.annotator_blocks = &annotators;
  blocks.global_block = global.data();
  blocks.object_version = 1;
  blocks.annotator_version = 1;
  std::vector<Action> pairs;
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 15; ++j) pairs.push_back({i, j});
  }
  for (bool use_target : {false, true}) {
    EXPECT_TRUE(BitEqualVec(
        q.PredictBatchFactorized(blocks, pairs, use_target, /*serving=*/true),
        q.PredictBatchFactorized(blocks, pairs, use_target,
                                 /*serving=*/false)));
  }
}

}  // namespace
}  // namespace crowdrl::rl
