// The hierarchical path's stale-Q table (ShortlistPruner):
//  - the gated path stands down under epsilon-greedy exploration;
//  - the table's bookkeeping: record / invalidation on cache rebuild,
//    annotator eviction, bound soundness adaptation, boost dynamics;
//  - the ScoreCache drift accumulators the bounds are built from.
// That the gated hierarchical selection equals full scoring is pinned in
// hierarchy_test.cc.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "rl/dqn_agent.h"
#include "rl/score_cache.h"
#include "rl/shortlist.h"
#include "util/random.h"

namespace crowdrl::rl {
namespace {

constexpr size_t kObjects = 40;
constexpr size_t kAnnotators = 10;
constexpr int kClasses = 3;

/// A small labelling state: answers, annotator qualities and costs,
/// classifier beliefs and progress counters.
struct Scenario {
  crowd::AnswerLog answers{kObjects, kAnnotators};
  std::vector<double> costs;
  std::vector<double> qualities;
  std::vector<bool> is_expert;
  std::vector<bool> labelled;
  std::vector<bool> affordable;
  Matrix class_probs{kObjects, static_cast<size_t>(kClasses)};
  size_t probs_version = 0;
  double budget_fraction = 1.0;
  double fraction_labelled = 0.0;
  Rng rng{907};

  Scenario() {
    for (size_t j = 0; j < kAnnotators; ++j) {
      bool expert = j + 1 == kAnnotators;
      costs.push_back(expert ? 6.0 : 1.0 + 0.2 * static_cast<double>(j));
      qualities.push_back(0.55 + 0.03 * static_cast<double>(j));
      is_expert.push_back(expert);
      affordable.push_back(true);
    }
    labelled.assign(kObjects, false);
    for (size_t i = 0; i < kObjects; ++i) {
      double sum = 0.0;
      double* row = class_probs.Row(i);
      for (int c = 0; c < kClasses; ++c) {
        row[c] = 0.1 + rng.Uniform();
        sum += row[c];
      }
      for (int c = 0; c < kClasses; ++c) row[c] /= sum;
    }
    probs_version = 1;
  }

  StateView View() const {
    StateView view;
    view.answers = &answers;
    view.num_classes = kClasses;
    view.annotator_costs = &costs;
    view.annotator_qualities = &qualities;
    view.annotator_is_expert = &is_expert;
    view.class_probs = &class_probs;
    view.class_probs_version = probs_version;
    view.labelled = &labelled;
    view.budget_fraction_remaining = budget_fraction;
    view.fraction_labelled = fraction_labelled;
    view.max_cost = 6.0;
    return view;
  }
};

/// PairUpperBound of every pair in `pairs` (zero bonus) into `ub`;
/// returns how many are +infinity (no valid stale entry).
size_t Bounds(const ShortlistPruner& pruner, const ScoreCache& cache,
              size_t train_steps, const std::vector<Action>& pairs,
              std::vector<double>* ub) {
  ub->resize(pairs.size());
  size_t infinite = 0;
  for (size_t p = 0; p < pairs.size(); ++p) {
    (*ub)[p] = pruner.PairUpperBound(cache, train_steps, pairs[p].object,
                                     pairs[p].annotator, /*bonus=*/0.0);
    if (std::isinf((*ub)[p])) ++infinite;
  }
  return infinite;
}

std::vector<Action> AllPairs() {
  std::vector<Action> pairs;
  for (size_t i = 0; i < kObjects; ++i) {
    for (size_t j = 0; j < kAnnotators; ++j) {
      pairs.push_back({static_cast<int>(i), static_cast<int>(j)});
    }
  }
  return pairs;
}

// Epsilon-greedy consumes RNG inside Score, so the gated hierarchical path
// must stand down even on a grid it would otherwise engage on (a gated
// pass would desync the exploration stream): every selection scores every
// pair, and the pruner is never consulted.
TEST(ShortlistPruningTest, EpsilonGreedyAlwaysRunsFullPath) {
  Scenario s;
  DqnAgentOptions options;
  options.seed = 61;
  options.q.seed = 67;
  options.hier_min_pairs = 0;
  options.hier_object_bucket = 8;
  options.hier_annotator_group = 4;
  DqnAgent ucb(options);
  ucb.BeginEpisode(kObjects, kAnnotators);
  ASSERT_TRUE(ucb.HierEngaged());  // The grid itself qualifies.

  options.exploration = ExplorationMode::kEpsilonGreedy;
  DqnAgent agent(options);
  agent.BeginEpisode(kObjects, kAnnotators);
  EXPECT_FALSE(agent.HierEngaged());
  for (int iter = 0; iter < 4; ++iter) {
    agent.SelectBatch(s.View(), /*k=*/2, /*num_objects_to_pick=*/3,
                      s.affordable);
  }
  const ShortlistPruner::Stats& stats = agent.shortlist_pruner().stats();
  EXPECT_EQ(stats.pruned_iterations, 0u);
  EXPECT_EQ(stats.full_iterations, 0u);  // Never even consulted.
  EXPECT_EQ(agent.hier_stats().iterations, 0u);
}

TEST(ShortlistPrunerTest, RecordAndInvalidationLifecycle) {
  Scenario s;
  ScoreCache cache;
  cache.Sync(s.View());

  ShortlistOptions options;
  ShortlistPruner pruner(options);
  pruner.Reset(kObjects, kAnnotators);
  const std::vector<Action> pairs = AllPairs();
  std::vector<double> ub;
  pruner.BeginIteration(cache);
  EXPECT_EQ(Bounds(pruner, cache, /*train_steps=*/0, pairs, &ub),
            pairs.size());  // Nothing recorded yet: all must-score.

  std::vector<double> raw_q(pairs.size(), 0.0);
  for (size_t p = 0; p < pairs.size(); ++p) {
    raw_q[p] = 0.001 * static_cast<double>(p);
  }
  pruner.RecordExact(cache, /*train_steps=*/0, pairs, raw_q,
                     /*full_pass=*/true);
  EXPECT_EQ(pruner.stats().full_iterations, 1u);

  // With zero drift and zero elapsed train steps, every bound collapses
  // to stale_q + margin and none is infinite.
  EXPECT_EQ(Bounds(pruner, cache, /*train_steps=*/0, pairs, &ub), 0u);
  for (size_t p = 0; p < pairs.size(); ++p) {
    EXPECT_GE(ub[p], raw_q[p]);
    EXPECT_LE(ub[p], raw_q[p] + options.margin + 1e-15);
  }

  // A cache full rebuild resets the drift accumulators, so the next
  // BeginIteration must drop every stale entry: all bounds go infinite.
  cache.Invalidate();
  cache.Sync(s.View());
  ASSERT_EQ(cache.cumulative_stats().full_rebuilds, 1u);
  pruner.BeginIteration(cache);
  EXPECT_EQ(Bounds(pruner, cache, /*train_steps=*/0, pairs, &ub),
            pairs.size());
}

// The session-churn lifecycle (labelling service): when an annotator
// disconnects its column is evicted — those pairs come back as must-score
// (+inf bound) instead of carrying bounds snapshotted against a pool that
// no longer exists — and every other column is untouched.
TEST(ShortlistPrunerTest, EvictAnnotatorDropsOnlyThatColumn) {
  Scenario s;
  ScoreCache cache;
  cache.Sync(s.View());

  ShortlistPruner pruner{ShortlistOptions{}};
  pruner.Reset(kObjects, kAnnotators);
  const std::vector<Action> pairs = AllPairs();
  std::vector<double> raw_q(pairs.size(), 0.0);
  pruner.BeginIteration(cache);
  pruner.RecordExact(cache, /*train_steps=*/0, pairs, raw_q,
                     /*full_pass=*/true);

  std::vector<double> ub;
  ASSERT_EQ(Bounds(pruner, cache, /*train_steps=*/0, pairs, &ub), 0u);

  constexpr int kGone = 3;
  pruner.EvictAnnotator(kGone);
  EXPECT_EQ(Bounds(pruner, cache, /*train_steps=*/0, pairs, &ub), kObjects);
  for (size_t p = 0; p < pairs.size(); ++p) {
    if (pairs[p].annotator == kGone) {
      EXPECT_TRUE(std::isinf(ub[p]));
    } else {
      EXPECT_FALSE(std::isinf(ub[p]));
    }
  }

  // Re-recording after a reconnect restores the column.
  pruner.BeginIteration(cache);
  pruner.RecordExact(cache, /*train_steps=*/0, pairs, raw_q,
                     /*full_pass=*/true);
  EXPECT_EQ(Bounds(pruner, cache, /*train_steps=*/0, pairs, &ub), 0u);

  // Evicting before the table is sized (fresh episode) is a safe no-op.
  ShortlistPruner unsized;
  unsized.EvictAnnotator(0);
}

TEST(ShortlistPrunerTest, SensitivityAdaptsToObservedMoves) {
  Scenario s;
  ScoreCache cache;
  cache.Sync(s.View());
  ShortlistPruner pruner{ShortlistOptions{}};
  pruner.Reset(kObjects, kAnnotators);

  std::vector<Action> pairs = {{0, 0}};
  pruner.BeginIteration(cache);
  pruner.RecordExact(cache, /*train_steps=*/0, pairs, {1.0},
                     /*full_pass=*/true);

  // Q moved by 0.5 with no drift and 10 elapsed train steps: the bound
  // can only blame training, so beta must grow to at least 2*0.5/10.
  double beta_before = pruner.beta();
  pruner.BeginIteration(cache);
  pruner.RecordExact(cache, /*train_steps=*/10, pairs, {1.5},
                     /*full_pass=*/true);
  EXPECT_GE(pruner.beta(), 2.0 * 0.5 / 10.0);
  EXPECT_GE(pruner.beta(), beta_before);

  // The adapted bound now covers a same-sized move.
  EXPECT_GE(pruner.PairUpperBound(cache, /*train_steps=*/20, 0, 0, 0.0),
            1.5 + 0.5);
}

TEST(ShortlistPrunerTest, BoundViolationIsReportedAndBoostReacts) {
  Scenario s;
  ScoreCache cache;
  cache.Sync(s.View());
  ShortlistPruner pruner{ShortlistOptions{}};
  pruner.Reset(kObjects, kAnnotators);
  std::vector<Action> pairs = {{0, 0}};
  pruner.BeginIteration(cache);
  pruner.RecordExact(cache, /*train_steps=*/0, pairs, {1.0},
                     /*full_pass=*/true);

  // The pair was admitted under its bound but rescored above it: the
  // caller reports the precheck violation, and the rescore adapts the
  // sensitivities so the bound now covers a move of the same size.
  pruner.BeginIteration(cache);
  const double admitted = pruner.PairUpperBound(cache, 1, 0, 0, 0.0);
  ASSERT_LT(admitted, 2.0);
  pruner.RecordExact(cache, /*train_steps=*/1, pairs, {2.0},
                     /*full_pass=*/false);
  pruner.NotePrecheckFallback();
  EXPECT_EQ(pruner.stats().precheck_fallbacks, 1u);
  EXPECT_GE(pruner.PairUpperBound(cache, 2, 0, 0, 0.0), 2.0 + 1.0);

  // Boost dynamics: doubles on gate fallback (capped), halves back only
  // after a streak of successes.
  EXPECT_EQ(pruner.boost(), 1u);
  pruner.NoteGateFallback();
  EXPECT_EQ(pruner.boost(), 2u);
  pruner.NoteGateFallback();
  EXPECT_EQ(pruner.boost(), 4u);
  for (int i = 0; i < 7; ++i) pruner.NotePrunedSuccess(1, 1);
  EXPECT_EQ(pruner.boost(), 4u);  // Streak not reached yet.
  pruner.NotePrunedSuccess(1, 1);
  EXPECT_EQ(pruner.boost(), 2u);
  EXPECT_EQ(pruner.stats().gate_fallbacks, 2u);
  EXPECT_EQ(pruner.stats().pruned_iterations, 8u);
}

TEST(ScoreCacheDriftTest, AccumulatorsTrackBlockRefreshes) {
  Scenario s;
  ScoreCache cache;
  cache.Sync(s.View());
  // Fresh rebuild: all drift zero.
  for (double d : cache.object_drift()) EXPECT_EQ(d, 0.0);
  for (double d : cache.annotator_drift()) EXPECT_EQ(d, 0.0);
  EXPECT_EQ(cache.global_drift(), 0.0);

  // One answered object: its history block refreshes, its drift grows,
  // everyone else's stays put.
  s.answers.Record(7, 3, 1);
  cache.Sync(s.View());
  EXPECT_GT(cache.object_drift()[7], 0.0);
  for (size_t i = 0; i < kObjects; ++i) {
    if (i != 7) EXPECT_EQ(cache.object_drift()[i], 0.0) << "object " << i;
  }

  // A quality change refreshes exactly that annotator's block.
  s.qualities[2] += 0.05;
  cache.Sync(s.View());
  EXPECT_GT(cache.annotator_drift()[2], 0.0);
  for (size_t j = 0; j < kAnnotators; ++j) {
    if (j != 2) EXPECT_EQ(cache.annotator_drift()[j], 0.0);
  }

  // Progress counters move the global block.
  s.fraction_labelled = 0.25;
  cache.Sync(s.View());
  EXPECT_GT(cache.global_drift(), 0.0);

  // Drift is monotone under further changes...
  double obj7 = cache.object_drift()[7];
  s.answers.Record(7, 4, 2);
  cache.Sync(s.View());
  EXPECT_GE(cache.object_drift()[7], obj7);

  // ...and resets wholesale on a full rebuild.
  cache.Invalidate();
  cache.Sync(s.View());
  for (double d : cache.object_drift()) EXPECT_EQ(d, 0.0);
  for (double d : cache.annotator_drift()) EXPECT_EQ(d, 0.0);
  EXPECT_EQ(cache.global_drift(), 0.0);
}

}  // namespace
}  // namespace crowdrl::rl
