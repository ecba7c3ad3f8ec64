// Hierarchical candidate generation (BucketHierarchy +
// DqnAgent::SelectBatch at scale):
//  - the hierarchical path must select exactly what full enumeration +
//    scoring selects, at every iteration of a randomized drifting run,
//    including across checkpoint/resume, at thread counts 1 and 8 (audit
//    mode additionally cross-checks every gated selection internally);
//  - the bucket x group tiling's bookkeeping: ranges, liveness, tile
//    records, bound monotonicity, invalidation on cache rebuild;
//  - the default hier_min_pairs threshold keeps small grids on the flat
//    exact-scoring path.

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "io/serializer.h"
#include "rl/dqn_agent.h"
#include "rl/hierarchy.h"
#include "rl/score_cache.h"
#include "rl/shortlist.h"
#include "util/random.h"

namespace crowdrl::rl {
namespace {

constexpr size_t kObjects = 40;
constexpr size_t kAnnotators = 10;
constexpr int kClasses = 3;

/// Same drifting workload as shortlist_test: answers arrive, classifier
/// beliefs get nudged, qualities creep, progress counters advance.
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

  void NudgeProbs() {
    for (size_t i = 0; i < kObjects; ++i) {
      double sum = 0.0;
      double* row = class_probs.Row(i);
      for (int c = 0; c < kClasses; ++c) {
        row[c] = std::max(0.01, row[c] + 0.02 * (rng.Uniform() - 0.5));
        sum += row[c];
      }
      for (int c = 0; c < kClasses; ++c) row[c] /= sum;
    }
    ++probs_version;
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

DqnAgentOptions MakeOptions(bool hier, int threads) {
  DqnAgentOptions options;
  options.seed = 61;
  options.q.seed = 67;
  options.threads = threads;
  // The factorized head is ULP-different from the dense forward and the
  // hierarchical path always runs dense: pin both twins to dense so the
  // comparison is over identical floating-point programs.
  options.factorized_q_head = false;
  options.min_replay_before_training = 16;
  options.train_batch = 8;
  options.train_steps_per_observe = 2;
  options.hier = hier;
  if (hier) {
    // Force the hierarchy onto this deliberately tiny grid: engage at any
    // size, with buckets small enough that the descent has real structure
    // (5 buckets x 3 groups) and the gates real remainders to bound.
    options.hier_min_pairs = 0;
    options.hier_object_bucket = 8;
    options.hier_annotator_group = 4;
    options.prune_audit = true;
  }
  return options;
}

DqnAgent RoundTrip(const DqnAgent& agent, DqnAgentOptions options) {
  io::Writer writer;
  agent.SaveState(&writer);
  DqnAgent fresh(std::move(options));
  io::Reader reader(writer.bytes());
  EXPECT_TRUE(fresh.LoadState(&reader).ok());
  return fresh;
}

void ExpectSameAssignments(const std::vector<Assignment>& got,
                           const std::vector<Assignment>& want, int iter) {
  ASSERT_EQ(got.size(), want.size()) << "iter " << iter;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].object, want[i].object) << "iter " << iter;
    ASSERT_EQ(got[i].annotators, want[i].annotators)
        << "iter " << iter << " object " << got[i].object;
  }
}

class HierarchicalSelectionTest : public ::testing::TestWithParam<int> {};

// Tentpole property: the hierarchical agent (audit mode double-checking
// every gated selection against full scoring internally) must produce the
// same assignments as a flat full-scoring twin at every iteration of a
// drifting run, including across a mid-run checkpoint/restore, and the
// run must not be vacuous (gated sub-linear selections actually served).
TEST_P(HierarchicalSelectionTest, AuditedRunMatchesFullScoringExactly) {
  const int threads = GetParam();
  Scenario s;
  DqnAgentOptions hier_options = MakeOptions(/*hier=*/true, threads);
  DqnAgent hier(hier_options);
  DqnAgent full(MakeOptions(/*hier=*/false, threads));
  hier.BeginEpisode(kObjects, kAnnotators);
  full.BeginEpisode(kObjects, kAnnotators);
  ASSERT_TRUE(hier.HierEngaged());
  ASSERT_FALSE(full.HierEngaged());

  size_t gated_before_restore = 0;
  for (int iter = 0; iter < 24; ++iter) {
    if (iter % 2 == 1) s.NudgeProbs();
    if (iter % 5 == 4) {
      s.qualities[s.rng.UniformInt(static_cast<int>(kAnnotators))] += 0.01;
    }
    s.budget_fraction = std::max(0.0, s.budget_fraction - 0.02);

    std::vector<Assignment> got = hier.SelectBatch(
        s.View(), /*k=*/2, /*num_objects_to_pick=*/4, s.affordable);
    std::vector<Assignment> want = full.SelectBatch(
        s.View(), /*k=*/2, /*num_objects_to_pick=*/4, s.affordable);
    ExpectSameAssignments(got, want, iter);

    for (const Assignment& assignment : want) {
      for (int j : assignment.annotators) {
        s.answers.Record(assignment.object, j, s.rng.UniformInt(kClasses));
      }
    }
    s.fraction_labelled = std::min(1.0, s.fraction_labelled + 0.01);
    double reward = s.rng.Uniform();
    hier.Observe(reward, s.View(), s.affordable, /*terminal=*/false);
    full.Observe(reward, s.View(), s.affordable, /*terminal=*/false);

    if (iter == 11) {
      gated_before_restore = hier.hier_stats().gated_iterations;
      hier = RoundTrip(hier, hier_options);
      full = RoundTrip(full, MakeOptions(/*hier=*/false, threads));
      ASSERT_TRUE(hier.HierEngaged());  // Restore re-engages the tiling.
    }
  }

  // Non-vacuity: the hierarchical path genuinely ran, served gated
  // sub-linear selections (not only full fallbacks), refreshed tile
  // representatives, and the descent expanded a strict subset of the
  // live buckets at least overall.
  const DqnAgent::HierStats& stats = hier.hier_stats();
  EXPECT_EQ(stats.iterations, 12u);  // Post-restore iterations only.
  EXPECT_GT(stats.gated_iterations, 0u);
  EXPECT_GT(stats.rep_refreshes, 0u);
  EXPECT_GT(stats.scored_pairs, 0u);
  EXPECT_GT(gated_before_restore, 0u);  // Pre-restore half engaged too.
  EXPECT_LE(stats.expanded_buckets, stats.live_buckets);
}

INSTANTIATE_TEST_SUITE_P(Threads, HierarchicalSelectionTest,
                         ::testing::Values(1, 8));

// The default hier_min_pairs keeps small grids (every existing workload)
// on the flat path: no tiling, no behavior change.
TEST(HierarchicalSelectionTest, SmallGridStaysOnFlatPathByDefault) {
  Scenario s;
  DqnAgentOptions options;  // Defaults: hier on, threshold 2^22 pairs.
  DqnAgent agent(options);
  agent.BeginEpisode(kObjects, kAnnotators);
  EXPECT_FALSE(agent.HierEngaged());
  agent.SelectBatch(s.View(), /*k=*/2, /*num_objects_to_pick=*/3,
                    s.affordable);
  EXPECT_EQ(agent.hier_stats().iterations, 0u);
}

TEST(BucketHierarchyTest, RangesPartitionTheGrid) {
  BucketHierarchy hierarchy;
  HierarchyOptions options;
  options.object_bucket = 8;
  options.annotator_group = 4;
  hierarchy.Reset(/*num_objects=*/21, /*num_annotators=*/10, options);
  EXPECT_EQ(hierarchy.num_buckets(), 3u);  // 8 + 8 + 5.
  EXPECT_EQ(hierarchy.num_groups(), 3u);   // 4 + 4 + 2.

  size_t covered = 0;
  for (size_t b = 0; b < hierarchy.num_buckets(); ++b) {
    const auto [begin, end] = hierarchy.BucketRange(b);
    EXPECT_LT(begin, end);
    for (size_t i = begin; i < end; ++i) {
      EXPECT_EQ(hierarchy.BucketOf(static_cast<int>(i)), b);
    }
    covered += end - begin;
  }
  EXPECT_EQ(covered, 21u);
  const auto [last_begin, last_end] = hierarchy.GroupRange(2);
  EXPECT_EQ(last_begin, 8u);
  EXPECT_EQ(last_end, 10u);  // Ragged tail group.
}

// Tile bounds: a freshly recorded representative yields a finite bound
// covering its own q plus the tile's spatial span; unseen tiles are
// +infinity (must-refresh); a cache full rebuild invalidates every record.
TEST(BucketHierarchyTest, TileRecordLifecycleAndBoundCoverage) {
  Scenario s;
  ScoreCache cache;
  constexpr size_t kBucket = 8;
  cache.ConfigureObjectBuckets(kBucket);
  cache.Sync(s.View());
  cache.RefreshBucketBoxes();

  HierarchyOptions options;
  options.object_bucket = kBucket;
  options.annotator_group = 4;
  BucketHierarchy hierarchy;
  hierarchy.Reset(kObjects, kAnnotators, options);
  hierarchy.BeginIteration(cache, s.labelled, s.affordable);

  // Everything unlabelled and affordable: all buckets and groups live.
  for (size_t b = 0; b < hierarchy.num_buckets(); ++b) {
    EXPECT_TRUE(hierarchy.BucketLive(b));
    EXPECT_EQ(hierarchy.bucket_unlabelled(b),
              hierarchy.BucketRange(b).second - hierarchy.BucketRange(b).first);
  }

  ShortlistPruner pruner{ShortlistOptions{}};
  pruner.Reset(kObjects, kAnnotators);
  pruner.BeginIteration(cache);

  // All live tiles start stale.
  std::vector<std::pair<size_t, size_t>> tiles;
  std::vector<Action> reps;
  hierarchy.CollectStaleReps(cache, /*train_steps=*/0, &tiles, &reps);
  EXPECT_EQ(tiles.size(), hierarchy.num_buckets() * hierarchy.num_groups());
  EXPECT_TRUE(std::isinf(
      hierarchy.TileBound(0, 0, cache, pruner, /*train_steps=*/0, 0.0)));

  constexpr double kRepQ = 0.25;
  hierarchy.RecordRep(0, 0, kRepQ, cache, /*train_steps=*/0, &pruner);
  const double bound =
      hierarchy.TileBound(0, 0, cache, pruner, /*train_steps=*/0, 0.0);
  EXPECT_FALSE(std::isinf(bound));
  // No drift or elapsed steps: the bound is q + alpha * (bucket + group
  // width) + margin, which must cover the representative itself.
  EXPECT_GE(bound, kRepQ);
  // A bonus shifts the bound additively.
  EXPECT_DOUBLE_EQ(
      hierarchy.TileBound(0, 0, cache, pruner, /*train_steps=*/0, 0.5),
      bound + 0.5);
  // BucketBound is the max over live groups; with only tile (0,0)
  // recorded the other groups are still infinite.
  EXPECT_TRUE(std::isinf(
      hierarchy.BucketBound(0, cache, pruner, /*train_steps=*/0, 0.0)));

  tiles.clear();
  reps.clear();
  hierarchy.CollectStaleReps(cache, /*train_steps=*/0, &tiles, &reps);
  EXPECT_EQ(tiles.size(),
            hierarchy.num_buckets() * hierarchy.num_groups() - 1);

  // A full cache rebuild resets the drift origins: the next iteration
  // must drop every record.
  cache.Invalidate();
  cache.Sync(s.View());
  cache.RefreshBucketBoxes();
  pruner.BeginIteration(cache);
  hierarchy.BeginIteration(cache, s.labelled, s.affordable);
  EXPECT_TRUE(std::isinf(
      hierarchy.TileBound(0, 0, cache, pruner, /*train_steps=*/0, 0.0)));
}

// Liveness: labelled objects and unaffordable annotators drop out of the
// tallies, and a fully labelled bucket / fully unaffordable group goes
// dead (the descent never expands or bounds it).
TEST(BucketHierarchyTest, LivenessTracksLabelsAndAffordability) {
  Scenario s;
  ScoreCache cache;
  constexpr size_t kBucket = 8;
  cache.ConfigureObjectBuckets(kBucket);
  cache.Sync(s.View());
  cache.RefreshBucketBoxes();

  HierarchyOptions options;
  options.object_bucket = kBucket;
  options.annotator_group = 4;
  BucketHierarchy hierarchy;
  hierarchy.Reset(kObjects, kAnnotators, options);

  for (size_t i = 0; i < kBucket; ++i) s.labelled[i] = true;  // Bucket 0.
  s.labelled[kBucket] = true;  // One object of bucket 1.
  for (size_t j = 8; j < kAnnotators; ++j) s.affordable[j] = false;  // Grp 2.
  hierarchy.BeginIteration(cache, s.labelled, s.affordable);

  EXPECT_FALSE(hierarchy.BucketLive(0));
  EXPECT_TRUE(hierarchy.BucketLive(1));
  EXPECT_EQ(hierarchy.bucket_unlabelled(1), kBucket - 1);
  EXPECT_TRUE(hierarchy.GroupLive(0));
  EXPECT_FALSE(hierarchy.GroupLive(2));
}

}  // namespace
}  // namespace crowdrl::rl
