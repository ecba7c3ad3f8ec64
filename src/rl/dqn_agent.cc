#include "rl/dqn_agent.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/topk.h"

namespace crowdrl::rl {

namespace {

/// Minimum candidates per parallel featurization chunk. The actual grain
/// adapts upward to candidates / (lanes * kFeaturizeChunksPerLane): the
/// threadpool task_wait_us/task_run_us histograms showed that at the big
/// scoring batches (tens of thousands of rows) a fixed small grain makes
/// per-chunk run time comparable to dispatch wake-up latency, which is
/// why row-tiling barely paid. A handful of chunks per lane amortizes the
/// dispatch while still load balancing; every row depends only on its own
/// pair, so grain never changes results.
constexpr size_t kFeaturizeGrain = 128;
constexpr size_t kFeaturizeChunksPerLane = 4;

/// Absolute slack required between per-object top-k sums before the
/// pruned selection trusts their ordering. Sums are accumulated in heap
/// order, which can differ between the pruned and the full pass, so two
/// sums closer than a few ULPs could legitimately compare differently
/// there; anything inside this band falls back to full scoring. Far above
/// any reachable reordering error (~1e-15 at these magnitudes), far below
/// meaningful score differences.
constexpr double kSumGateBand = 1e-9;

/// Shortlist-expansion rounds before a gate failure falls back to full
/// scoring. One round usually suffices: the first gate run names the
/// contender objects, whose unscored candidates are a tiny exact batch;
/// the second round exists for the rare case where expansion shuffles the
/// provisional winners and a new contender appears.
constexpr int kPruneExpandRounds = 2;

/// Descent rounds of the hierarchical path before it resorts to exact
/// scoring of every live bucket. Each round expands the buckets the gate
/// named as suspects, so a handful of rounds covers any realistic
/// contention; the cap only bounds pathological drift.
constexpr int kHierMaxRounds = 4;

/// Floor on the hierarchical exact-scoring budget per round (scaled by
/// the pruner's adaptive boost and by the selection size). Far below any
/// grid the hierarchy engages on, far above the handful of pairs a
/// selection actually commits.
constexpr size_t kHierTargetPairsFloor = 4096;

/// Surfaces the cache's refresh accounting into the metrics registry by
/// replaying the deltas of its own CumulativeStats since the previous
/// export (`seen`, owned by the agent). The cache accounts a full rebuild
/// as 2n+m misses and 0 hits, so hit/miss deltas stay self-consistent —
/// the old fixed `consulted = 2n+m` formula credited a rebuild with hits
/// it never served and a `misses <= consulted` clamp hid the overflow.
/// The registry counters stay monotonic across Invalidate (which zeroes
/// the cache totals): a regression of the totals just resets `seen`.
void RecordSyncMetrics(const ScoreCache& cache,
                       ScoreCache::CumulativeStats* seen) {
  const ScoreCache::CumulativeStats& cum = cache.cumulative_stats();
  if (cum.syncs < seen->syncs) *seen = ScoreCache::CumulativeStats{};
  const ScoreCache::CumulativeStats delta{
      cum.syncs - seen->syncs,
      cum.full_rebuilds - seen->full_rebuilds,
      cum.objects_dirtied - seen->objects_dirtied,
      cum.blocks_rebuilt - seen->blocks_rebuilt,
      cum.block_hits - seen->block_hits,
      cum.block_misses - seen->block_misses};
  *seen = cum;
  if (!obs::Enabled()) return;
  auto& registry = obs::MetricsRegistry::Get();
  static obs::Counter* const syncs =
      registry.GetCounter("crowdrl.scorecache.syncs");
  static obs::Counter* const full_rebuilds =
      registry.GetCounter("crowdrl.scorecache.full_rebuilds");
  static obs::Counter* const objects_dirtied =
      registry.GetCounter("crowdrl.scorecache.objects_dirtied");
  static obs::Counter* const block_hits =
      registry.GetCounter("crowdrl.scorecache.block_hits");
  static obs::Counter* const block_misses =
      registry.GetCounter("crowdrl.scorecache.block_misses");
  static obs::Gauge* const hit_rate =
      registry.GetGauge("crowdrl.scorecache.hit_rate");
  syncs->Inc(delta.syncs);
  full_rebuilds->Inc(delta.full_rebuilds);
  objects_dirtied->Inc(delta.objects_dirtied);
  block_misses->Inc(delta.block_misses);
  block_hits->Inc(delta.block_hits);
  if (cum.block_hits + cum.block_misses > 0) {
    hit_rate->Set(static_cast<double>(cum.block_hits) /
                  static_cast<double>(cum.block_hits + cum.block_misses));
  }
}

void RecordPruneMetrics(const ShortlistPruner& pruner,
                        ShortlistPruner::Stats* seen_stats, size_t num_pairs,
                        size_t exact_rows) {
  const ShortlistPruner::Stats& cur = pruner.stats();
  const ShortlistPruner::Stats seen = *seen_stats;
  *seen_stats = cur;
  if (!obs::Enabled()) return;
  auto& registry = obs::MetricsRegistry::Get();
  static obs::Counter* const pruned =
      registry.GetCounter("crowdrl.prune.pruned_iterations");
  static obs::Counter* const full =
      registry.GetCounter("crowdrl.prune.full_iterations");
  static obs::Counter* const gate_fallbacks =
      registry.GetCounter("crowdrl.prune.gate_fallbacks");
  static obs::Counter* const precheck_fallbacks =
      registry.GetCounter("crowdrl.prune.precheck_fallbacks");
  static obs::Counter* const exact =
      registry.GetCounter("crowdrl.prune.exact_rows");
  static obs::Counter* const bounded =
      registry.GetCounter("crowdrl.prune.bounded_rows");
  static obs::Gauge* const fraction =
      registry.GetGauge("crowdrl.prune.exact_fraction");
  // Counters replay the pruner's own running stats as deltas.
  pruned->Inc(cur.pruned_iterations >= seen.pruned_iterations
                  ? cur.pruned_iterations - seen.pruned_iterations
                  : 0);
  full->Inc(cur.full_iterations >= seen.full_iterations
                ? cur.full_iterations - seen.full_iterations
                : 0);
  if (cur.gate_fallbacks > seen.gate_fallbacks) {
    gate_fallbacks->Inc(cur.gate_fallbacks - seen.gate_fallbacks);
    // Gate fallbacks are the pruner's "my bounds collapsed" signal; the
    // flight recorder keeps them in the crash timeline (and the watchdog's
    // gate_fallback_burst rule watches the counter above).
    obs::RecordFlightEvent(obs::FlightEventType::kGateFallback, /*scope=*/0,
                           cur.gate_fallbacks);
  }
  precheck_fallbacks->Inc(
      cur.precheck_fallbacks >= seen.precheck_fallbacks
          ? cur.precheck_fallbacks - seen.precheck_fallbacks
          : 0);
  exact->Inc(cur.exact_rows >= seen.exact_rows
                 ? cur.exact_rows - seen.exact_rows
                 : 0);
  bounded->Inc(cur.bounded_rows >= seen.bounded_rows
                   ? cur.bounded_rows - seen.bounded_rows
                   : 0);
  if (num_pairs > 0) {
    fraction->Set(static_cast<double>(exact_rows) /
                  static_cast<double>(num_pairs));
  }
}

/// Outcome of one gated pruned selection attempt.
struct GatedSelection {
  bool sound = false;
  std::vector<Assignment> assignments;
  /// Chosen candidates in Commit order (the full path's chosen_indices
  /// order), as actions — the pruned path has no dense candidate matrix
  /// to index into.
  std::vector<Action> chosen_actions;
  /// The contenders: provisionally chosen objects plus every object whose
  /// (upper-bounded) sum crowds the selection cutoff. When the gates
  /// fail, exactly these objects' unscored candidates need exact scores
  /// for the selection to become provable — the caller expands the
  /// shortlist to them and retries before falling back to full scoring.
  std::vector<int> suspect_objects;
  /// Weakest chosen object's top-k sum (the selection cutoff) — the
  /// hierarchical caller separates it from the unexpanded buckets' sum
  /// bounds. Meaningful whenever at least one object was rankable, even
  /// when a later gate returned sound = false.
  double min_chosen_sum = -std::numeric_limits<double>::infinity();
};

/// Replays PickTopKSumAssignments over merged exact/upper-bound scores and
/// verifies, after the fact, that the selection is provably what full
/// exact scoring would have produced:
///  * every chosen entry is exact (a shortlisted pair);
///  * per chosen object, the smallest chosen score strictly exceeds every
///    upper bound among the object's non-shortlisted candidates (so no
///    unscored pair could enter its top-k), and the chosen scores are
///    pairwise distinct (an exact tie could be ordered differently by the
///    full pass's heap);
///  * the chosen objects' top-k sums are separated from each other and
///    from every non-chosen object's (upper-bounded) sum by kSumGateBand.
/// Any violation returns sound = false and the caller falls back — the
/// bounds themselves are never trusted for correctness.
GatedSelection GatedPickTopKSum(const std::vector<Action>& candidates,
                                const std::vector<double>& scores,
                                const std::vector<uint8_t>& is_exact,
                                const std::vector<double>& ub, int k,
                                int num_objects_to_pick,
                                size_t num_objects_total) {
  GatedSelection result;
  if (candidates.empty()) {
    result.sound = true;
    return result;
  }
  const double neg_inf = -std::numeric_limits<double>::infinity();

  // Identical structure to PickTopKSumAssignments: per-object top-k over
  // the merged scores, tracking each object's loosest unscored bound.
  std::vector<int> object_slot(num_objects_total, -1);
  std::vector<TopK<size_t>> per_object;
  std::vector<int> object_ids;
  std::vector<double> max_ub_unscored;
  for (size_t idx = 0; idx < candidates.size(); ++idx) {
    int object = candidates[idx].object;
    CROWDRL_CHECK(object >= 0 &&
                  static_cast<size_t>(object) < num_objects_total);
    int slot = object_slot[static_cast<size_t>(object)];
    if (slot < 0) {
      slot = static_cast<int>(per_object.size());
      object_slot[static_cast<size_t>(object)] = slot;
      per_object.emplace_back(static_cast<size_t>(k));
      object_ids.push_back(object);
      max_ub_unscored.push_back(neg_inf);
    }
    per_object[static_cast<size_t>(slot)].Push(scores[idx], idx);
    if (!is_exact[idx]) {
      max_ub_unscored[static_cast<size_t>(slot)] =
          std::max(max_ub_unscored[static_cast<size_t>(slot)], ub[idx]);
    }
  }

  std::vector<double> sums(per_object.size());
  TopK<size_t> best_objects(static_cast<size_t>(num_objects_to_pick));
  for (size_t slot = 0; slot < per_object.size(); ++slot) {
    sums[slot] = per_object[slot].ScoreSum();
    best_objects.Push(sums[slot], slot);
  }
  std::vector<std::pair<double, size_t>> best =
      best_objects.TakeSortedDescending();

  std::vector<uint8_t> chosen_slot(per_object.size(), 0);
  for (const auto& entry : best) chosen_slot[entry.second] = 1;
  const double min_chosen_sum = best.back().first;
  result.min_chosen_sum = min_chosen_sum;
  // Contenders, for shortlist expansion on gate failure: the chosen
  // objects plus anything whose (inflated) sum reaches the cutoff band.
  for (const auto& entry : best) {
    result.suspect_objects.push_back(object_ids[entry.second]);
  }
  for (size_t slot = 0; slot < per_object.size(); ++slot) {
    if (chosen_slot[slot]) continue;
    if (min_chosen_sum - sums[slot] <= kSumGateBand) {
      result.suspect_objects.push_back(object_ids[slot]);
    }
  }

  // Sum-separation gate: chosen sums pairwise, and the weakest chosen sum
  // against every non-chosen object's (possibly inflated) sum.
  for (size_t i = 1; i < best.size(); ++i) {
    if (best[i - 1].first - best[i].first <= kSumGateBand) return result;
  }
  for (size_t slot = 0; slot < per_object.size(); ++slot) {
    if (chosen_slot[slot]) continue;
    if (min_chosen_sum - sums[slot] <= kSumGateBand) return result;
  }

  for (auto& scored_slot : best) {
    size_t slot = scored_slot.second;
    std::vector<std::pair<double, size_t>> entries =
        per_object[slot].TakeSortedDescending();
    Assignment assignment;
    assignment.object = object_ids[slot];
    for (size_t e = 0; e < entries.size(); ++e) {
      size_t idx = entries[e].second;
      if (!is_exact[idx]) return result;                       // UB chosen.
      if (e > 0 && entries[e - 1].first == entries[e].first) { // Exact tie.
        return result;
      }
      assignment.annotators.push_back(candidates[idx].annotator);
      result.chosen_actions.push_back(candidates[idx]);
    }
    // No unscored candidate of this object may reach its top-k.
    if (!(entries.back().first > max_ub_unscored[slot])) return result;
    result.assignments.push_back(std::move(assignment));
  }
  result.sound = true;
  return result;
}

}  // namespace

DqnAgent::DqnAgent(DqnAgentOptions options)
    : options_(options),
      q_network_(options.q),
      replay_(options.replay_capacity),
      rng_(options.seed),
      epsilon_(options.epsilon) {
  CROWDRL_CHECK(options.train_batch > 0);
  CROWDRL_CHECK(options.train_steps_per_observe >= 0);
  CROWDRL_CHECK(options.ucb_c >= 0.0);
  CROWDRL_CHECK(options.epsilon >= 0.0 && options.epsilon <= 1.0);
  CROWDRL_CHECK(options.epsilon_decay > 0.0 && options.epsilon_decay <= 1.0);
  CROWDRL_CHECK(options.max_bootstrap_candidates > 0);
  CROWDRL_CHECK(options.threads >= 1);
  CROWDRL_CHECK(options.prune_margin >= 0.0);
  ShortlistOptions prune_options;
  prune_options.shortlist = options.prune_shortlist;
  prune_options.margin = options.prune_margin;
  prune_options.warmup = options.prune_warmup;
  pruner_ = ShortlistPruner(prune_options);
  if (options.shared_pool != nullptr) {
    pool_ = options.shared_pool;
  } else if (options.threads > 1) {
    pool_ = std::make_shared<ThreadPool>(options.threads);
  }
}

void DqnAgent::BeginEpisode(size_t num_objects, size_t num_annotators) {
  CROWDRL_CHECK(num_objects > 0 && num_annotators > 0);
  episode_objects_ = num_objects;
  episode_annotators_ = num_annotators;
  selection_counts_.Reset(num_objects, num_annotators);
  total_selections_ = 0;
  pending_.clear();
  epsilon_ = options_.epsilon;
  score_cache_.Invalidate();
  pruner_.Reset(num_objects, num_annotators);
  sync_metrics_seen_ = ScoreCache::CumulativeStats{};
  score_cache_.ConfigureObjectBuckets(HierEngaged() ? options_.hier_object_bucket
                                                    : 0);
  if (HierEngaged()) {
    HierarchyOptions hier_options;
    hier_options.object_bucket = options_.hier_object_bucket;
    hier_options.annotator_group = options_.hier_annotator_group;
    hierarchy_.Reset(num_objects, num_annotators, hier_options);
  }
  hier_stats_ = HierStats{};
}

bool DqnAgent::PruneEligible() const {
  // Epsilon-greedy consumes RNG inside Score, so a pruned iteration would
  // desynchronize the stream against the full path; the other modes score
  // deterministically and the pruned/full choice is then unobservable.
  return options_.prune && options_.incremental &&
         options_.feature_mask.empty() &&
         options_.exploration != ExplorationMode::kEpsilonGreedy;
}

bool DqnAgent::HierEngaged() const {
  return options_.hier && PruneEligible() && episode_objects_ > 0 &&
         episode_objects_ * episode_annotators_ >= options_.hier_min_pairs;
}

bool DqnAgent::UseFactorizedHead() const {
  // The factorized head keeps O(|O| x hidden) per-object partials
  // resident — exactly what the hierarchical scale path must avoid, and
  // its shortlists are small enough that dense assembly wins anyway.
  return options_.factorized_q_head && options_.incremental &&
         options_.feature_mask.empty() && !HierEngaged();
}

FeatureBlocks DqnAgent::CacheBlocks() const {
  FeatureBlocks blocks;
  blocks.object_blocks = &score_cache_.object_blocks();
  blocks.annotator_blocks = &score_cache_.annotator_blocks();
  blocks.global_block = score_cache_.global_block();
  blocks.object_version = score_cache_.object_blocks_version();
  blocks.annotator_version = score_cache_.annotator_blocks_version();
  return blocks;
}

void DqnAgent::CheckViewMatchesEpisode(const StateView& view) const {
  CROWDRL_CHECK(view.answers != nullptr);
  CROWDRL_CHECK(view.answers->num_objects() == episode_objects_ &&
                view.answers->num_annotators() == episode_annotators_)
      << "state view shape (" << view.answers->num_objects() << " x "
      << view.answers->num_annotators()
      << ") does not match the episode shape (" << episode_objects_ << " x "
      << episode_annotators_
      << "); selection counts are indexed by the episode shape";
}

std::vector<Action> DqnAgent::EnumerateCandidates(
    const StateView& view, const std::vector<bool>& annotator_affordable,
    size_t max_pairs, Matrix* features) {
  CROWDRL_CHECK(view.answers != nullptr && view.labelled != nullptr);
  size_t num_objects = view.answers->num_objects();
  size_t num_annotators = view.answers->num_annotators();
  CROWDRL_CHECK(annotator_affordable.size() == num_annotators);

  std::vector<Action> valid;
  for (size_t i = 0; i < num_objects; ++i) {
    if ((*view.labelled)[i]) continue;
    for (size_t j = 0; j < num_annotators; ++j) {
      if (!annotator_affordable[j]) continue;
      if (view.answers->HasAnswer(static_cast<int>(i),
                                  static_cast<int>(j))) {
        continue;
      }
      valid.push_back({static_cast<int>(i), static_cast<int>(j)});
    }
  }
  if (valid.size() > max_pairs) {
    // Uniform subsample keeps the scan bounded for huge workloads.
    std::vector<int> keep = rng_.SampleWithoutReplacement(
        static_cast<int>(valid.size()), static_cast<int>(max_pairs));
    std::vector<Action> sampled;
    sampled.reserve(max_pairs);
    for (int idx : keep) sampled.push_back(valid[static_cast<size_t>(idx)]);
    valid = std::move(sampled);
  }

  if (options_.incremental) {
    // Serial: recomputes only the blocks dirtied since the last Sync. The
    // parallel assembly below then only reads the cache.
    CROWDRL_TRACE_SPAN("scorecache.sync");
    score_cache_.Sync(view);
    RecordSyncMetrics(score_cache_, &sync_metrics_seen_);
  }
  if (!options_.feature_mask.empty()) {
    CROWDRL_CHECK(options_.feature_mask.size() == StateFeaturizer::kFeatureDim);
  }
  if (features == nullptr) {
    // Caller never reads dense rows (factorized bootstrap, pruned
    // selection): enumeration and the Sync above are all it needs.
    return valid;
  }

  CROWDRL_TRACE_SPAN("agent.featurize");
  *features = Matrix(valid.size(), StateFeaturizer::kFeatureDim);
  // Each feature row depends only on its own candidate, so chunks write
  // disjoint rows and the parallel result is bit-identical to the serial
  // one at every thread count.
  auto featurize_range = [&](size_t idx_begin, size_t idx_end) {
    StateFeaturizer::Scratch scratch;  // Per-chunk, reused across rows.
    for (size_t idx = idx_begin; idx < idx_end; ++idx) {
      double* row = features->Row(idx);
      if (options_.incremental) {
        score_cache_.AssembleRowInto(valid[idx].object, valid[idx].annotator,
                                     row);
      } else {
        featurizer_.Featurize(view, valid[idx].object, valid[idx].annotator,
                              &scratch, row);
      }
      if (!options_.feature_mask.empty()) {
        for (size_t f = 0; f < StateFeaturizer::kFeatureDim; ++f) {
          if (!options_.feature_mask[f]) row[f] = 0.0;
        }
      }
    }
  };
  if (pool_ != nullptr) {
    const size_t lanes = static_cast<size_t>(pool_->num_threads());
    const size_t grain = std::max(
        kFeaturizeGrain, valid.size() / (lanes * kFeaturizeChunksPerLane));
    pool_->ParallelFor(0, valid.size(), grain, featurize_range);
  } else {
    featurize_range(0, valid.size());
  }
  rows_featurized_ += valid.size();
  return valid;
}

ScoredCandidates DqnAgent::Score(
    const StateView& view, const std::vector<bool>& annotator_affordable) {
  CROWDRL_CHECK(episode_objects_ > 0)
      << "BeginEpisode must be called before Score";
  CheckViewMatchesEpisode(view);
  ScoredCandidates out;
  out.actions = EnumerateCandidates(view, annotator_affordable,
                                    std::numeric_limits<size_t>::max(),
                                    &out.features);
  if (out.actions.empty()) return out;

  bool explore_randomly =
      options_.exploration == ExplorationMode::kEpsilonGreedy &&
      rng_.Bernoulli(epsilon_);
  if (explore_randomly) {
    out.scores.resize(out.actions.size());
    for (double& s : out.scores) s = rng_.Uniform();
  } else {
    CROWDRL_TRACE_SPAN("agent.q_forward");
    out.scores = UseFactorizedHead()
                     ? q_network_.PredictBatchFactorized(
                           CacheBlocks(), out.actions, /*use_target=*/false)
                     : q_network_.PredictBatch(out.features);
    if (options_.exploration == ExplorationMode::kUcb) {
      double log_term =
          2.0 * std::log(static_cast<double>(total_selections_) + 1.0);
      for (size_t idx = 0; idx < out.actions.size(); ++idx) {
        const Action& a = out.actions[idx];
        int n = selection_counts_.Get(a.object, a.annotator);
        out.scores[idx] +=
            options_.ucb_c *
            std::sqrt(log_term / (static_cast<double>(n) + 1.0));
      }
    }
  }
  if (options_.exploration == ExplorationMode::kEpsilonGreedy) {
    epsilon_ = std::max(options_.epsilon_min,
                        epsilon_ * options_.epsilon_decay);
  }
  return out;
}

void DqnAgent::Commit(const ScoredCandidates& candidates,
                      const std::vector<size_t>& chosen_indices) {
  for (size_t idx : chosen_indices) {
    CROWDRL_CHECK(idx < candidates.actions.size());
    const Action& action = candidates.actions[idx];
    pending_.push_back(candidates.features.RowVector(idx));
    selection_counts_.Increment(action.object, action.annotator);
    ++total_selections_;
  }
}

std::vector<Assignment> PickTopKSumAssignments(
    const ScoredCandidates& candidates, int k, int num_objects_to_pick,
    size_t num_objects_total, std::vector<size_t>* chosen_indices) {
  CROWDRL_CHECK(k > 0 && num_objects_to_pick > 0);
  CROWDRL_CHECK(chosen_indices != nullptr);
  chosen_indices->clear();
  if (candidates.actions.empty()) return {};

  // Per object: top-k annotators by score.
  std::vector<int> object_slot(num_objects_total, -1);
  std::vector<TopK<size_t>> per_object;
  std::vector<int> object_ids;
  for (size_t idx = 0; idx < candidates.actions.size(); ++idx) {
    int object = candidates.actions[idx].object;
    CROWDRL_CHECK(object >= 0 &&
                  static_cast<size_t>(object) < num_objects_total);
    int slot = object_slot[static_cast<size_t>(object)];
    if (slot < 0) {
      slot = static_cast<int>(per_object.size());
      object_slot[static_cast<size_t>(object)] = slot;
      per_object.emplace_back(static_cast<size_t>(k));
      object_ids.push_back(object);
    }
    per_object[static_cast<size_t>(slot)].Push(candidates.scores[idx], idx);
  }

  // Objects with the largest top-k sums ("MinHeap algorithm").
  TopK<size_t> best_objects(static_cast<size_t>(num_objects_to_pick));
  for (size_t slot = 0; slot < per_object.size(); ++slot) {
    best_objects.Push(per_object[slot].ScoreSum(), slot);
  }

  std::vector<Assignment> assignments;
  for (auto& scored_slot : best_objects.TakeSortedDescending()) {
    size_t slot = scored_slot.second;
    Assignment assignment;
    assignment.object = object_ids[slot];
    for (auto& scored_idx : per_object[slot].TakeSortedDescending()) {
      size_t idx = scored_idx.second;
      assignment.annotators.push_back(candidates.actions[idx].annotator);
      chosen_indices->push_back(idx);
    }
    assignments.push_back(std::move(assignment));
  }
  return assignments;
}

std::vector<Assignment> DqnAgent::SelectBatch(
    const StateView& view, int k, int num_objects_to_pick,
    const std::vector<bool>& annotator_affordable) {
  if (HierEngaged()) {
    return SelectBatchHierarchical(view, k, num_objects_to_pick,
                                   annotator_affordable);
  }
  if (PruneEligible()) {
    return SelectBatchPruned(view, k, num_objects_to_pick,
                             annotator_affordable);
  }
  ScoredCandidates candidates = Score(view, annotator_affordable);
  std::vector<size_t> chosen;
  std::vector<Assignment> assignments;
  {
    CROWDRL_TRACE_SPAN("agent.topk");
    assignments = PickTopKSumAssignments(candidates, k, num_objects_to_pick,
                                         episode_objects_, &chosen);
  }
  Commit(candidates, chosen);
  return assignments;
}

std::vector<double> DqnAgent::ExactQ(const std::vector<Action>& pairs) {
  CROWDRL_TRACE_SPAN("agent.q_forward");
  if (UseFactorizedHead()) {
    return q_network_.PredictBatchFactorized(CacheBlocks(), pairs,
                                             /*use_target=*/false);
  }
  Matrix features(pairs.size(), StateFeaturizer::kFeatureDim);
  for (size_t i = 0; i < pairs.size(); ++i) {
    score_cache_.AssembleRowInto(pairs[i].object, pairs[i].annotator,
                                 features.Row(i));
  }
  rows_featurized_ += pairs.size();
  return q_network_.PredictBatch(features);
}

std::vector<Assignment> DqnAgent::SelectBatchPruned(
    const StateView& view, int k, int num_objects_to_pick,
    const std::vector<bool>& annotator_affordable) {
  CROWDRL_CHECK(episode_objects_ > 0)
      << "BeginEpisode must be called before SelectBatch";
  CheckViewMatchesEpisode(view);
  // Enumerate + Sync only: the pruned path reads the cached blocks
  // directly and assembles dense rows just for the pairs it commits.
  std::vector<Action> valid =
      EnumerateCandidates(view, annotator_affordable,
                          std::numeric_limits<size_t>::max(), nullptr);
  if (valid.empty()) return {};
  pruner_.BeginIteration(score_cache_);

  // Exact exploration bonus from current counts (closed form, never
  // stale); identical expression to Score's so a pruned pair's exact
  // score reproduces the full path bit for bit.
  std::vector<double> bonus(valid.size(), 0.0);
  if (options_.exploration == ExplorationMode::kUcb) {
    double log_term =
        2.0 * std::log(static_cast<double>(total_selections_) + 1.0);
    for (size_t idx = 0; idx < valid.size(); ++idx) {
      const Action& a = valid[idx];
      int n = selection_counts_.Get(a.object, a.annotator);
      bonus[idx] = options_.ucb_c *
                   std::sqrt(log_term / (static_cast<double>(n) + 1.0));
    }
  }
  const size_t train_steps = q_network_.train_steps();

  if (pruner_.Ready()) {
    std::vector<double> ub;
    size_t must_score = 0;
    {
      CROWDRL_TRACE_SPAN("agent.prune_bounds");
      must_score = pruner_.UpperBounds(score_cache_, train_steps, valid,
                                       bonus, &ub);
    }
    const size_t shortlist_size =
        pruner_.ShortlistSize(valid.size(), must_score);
    if (shortlist_size < valid.size()) {
      // Global top-M by upper bound (must-score pairs carry +inf, so they
      // are always admitted). Ascending candidate order afterwards keeps
      // the exact pass deterministic.
      std::vector<uint32_t> shortlist;
      {
        CROWDRL_TRACE_SPAN("agent.prune_shortlist");
        // Reused scratch: Reset keeps the heap and sort buffers' capacity
        // across iterations, so the per-iteration cut allocates nothing
        // once warm.
        shortlist_topk_.Reset(shortlist_size);
        for (size_t idx = 0; idx < valid.size(); ++idx) {
          shortlist_topk_.Push(ub[idx], static_cast<uint32_t>(idx));
        }
        shortlist_topk_.TakeSortedDescendingInto(&shortlist_scratch_);
        shortlist.reserve(shortlist_scratch_.size());
        for (const auto& entry : shortlist_scratch_) {
          shortlist.push_back(entry.second);
        }
        std::sort(shortlist.begin(), shortlist.end());
      }

      std::vector<Action> shortlist_actions;
      std::vector<double> shortlist_ub;
      std::vector<double> shortlist_bonus;
      shortlist_actions.reserve(shortlist.size());
      shortlist_ub.reserve(shortlist.size());
      shortlist_bonus.reserve(shortlist.size());
      for (uint32_t idx : shortlist) {
        shortlist_actions.push_back(valid[idx]);
        shortlist_ub.push_back(ub[idx]);
        shortlist_bonus.push_back(bonus[idx]);
      }
      std::vector<double> shortlist_q = ExactQ(shortlist_actions);
      size_t violations = pruner_.RecordExact(
          score_cache_, train_steps, shortlist_actions, shortlist_q,
          &shortlist_ub, &shortlist_bonus, /*full_pass=*/false);
      if (violations == 0) {
        // Merged score vector: exact (+ bonus) on the shortlist, upper
        // bounds elsewhere.
        std::vector<double> merged = ub;
        std::vector<uint8_t> is_exact(valid.size(), 0);
        for (size_t s = 0; s < shortlist.size(); ++s) {
          merged[shortlist[s]] = shortlist_q[s] + shortlist_bonus[s];
          is_exact[shortlist[s]] = 1;
        }
        size_t exact_count = shortlist.size();
        GatedSelection selection;
        for (int round = 0; round <= kPruneExpandRounds; ++round) {
          {
            CROWDRL_TRACE_SPAN("agent.topk");
            selection = GatedPickTopKSum(valid, merged, is_exact, ub, k,
                                         num_objects_to_pick,
                                         episode_objects_);
          }
          if (selection.sound || round == kPruneExpandRounds) break;
          // Targeted expansion: the gate failed, but only the suspect
          // objects' unscored candidates stand between this selection and
          // a proof — exact-score just those (a handful of objects, so a
          // tiny batch) and retry before giving up on the iteration.
          std::vector<uint8_t> suspect(episode_objects_, 0);
          for (int object : selection.suspect_objects) {
            suspect[static_cast<size_t>(object)] = 1;
          }
          std::vector<Action> expand_actions;
          std::vector<double> expand_ub;
          std::vector<double> expand_bonus;
          std::vector<size_t> expand_idx;
          for (size_t idx = 0; idx < valid.size(); ++idx) {
            if (is_exact[idx] ||
                !suspect[static_cast<size_t>(valid[idx].object)]) {
              continue;
            }
            expand_idx.push_back(idx);
            expand_actions.push_back(valid[idx]);
            expand_ub.push_back(ub[idx]);
            expand_bonus.push_back(bonus[idx]);
          }
          // Nothing to expand (the failure was an exact tie or an exact
          // sum collision) or the suspects cover so much of the grid that
          // full scoring is the honest answer.
          if (expand_idx.empty() || expand_idx.size() > valid.size() / 4) {
            break;
          }
          std::vector<double> expand_q = ExactQ(expand_actions);
          if (pruner_.RecordExact(score_cache_, train_steps, expand_actions,
                                  expand_q, &expand_ub, &expand_bonus,
                                  /*full_pass=*/false) > 0) {
            violations = 1;
            break;
          }
          for (size_t e = 0; e < expand_idx.size(); ++e) {
            merged[expand_idx[e]] = expand_q[e] + expand_bonus[e];
            is_exact[expand_idx[e]] = 1;
          }
          exact_count += expand_idx.size();
        }
        if (violations > 0) {
          pruner_.NotePrecheckFallback();
        } else if (selection.sound) {
          if (options_.prune_audit) {
            // Verification only: rescore everything exactly and demand
            // the identical selection, ordering included. Must not
            // perturb the run (Score is RNG-neutral outside
            // epsilon-greedy and nothing below records into the pruner).
            ScoredCandidates full = Score(view, annotator_affordable);
            std::vector<size_t> full_chosen;
            std::vector<Assignment> full_assignments =
                PickTopKSumAssignments(full, k, num_objects_to_pick,
                                       episode_objects_, &full_chosen);
            CROWDRL_CHECK(full_assignments.size() ==
                          selection.assignments.size())
                << "pruned selection audit: assignment count diverged";
            for (size_t i = 0; i < full_assignments.size(); ++i) {
              CROWDRL_CHECK(full_assignments[i].object ==
                                selection.assignments[i].object &&
                            full_assignments[i].annotators ==
                                selection.assignments[i].annotators)
                  << "pruned selection audit: assignment " << i
                  << " diverged on object "
                  << full_assignments[i].object;
            }
            CROWDRL_CHECK(full_chosen.size() ==
                          selection.chosen_actions.size());
            for (size_t i = 0; i < full_chosen.size(); ++i) {
              const Action& a = full.actions[full_chosen[i]];
              CROWDRL_CHECK(a.object ==
                                selection.chosen_actions[i].object &&
                            a.annotator ==
                                selection.chosen_actions[i].annotator)
                  << "pruned selection audit: commit order diverged at "
                  << i;
            }
          }
          // Commit: identical bookkeeping (and identical feature bits —
          // AssembleRowInto is a pure copy of the same cached blocks the
          // full path's features matrix is built from).
          for (const Action& action : selection.chosen_actions) {
            std::vector<double> row(StateFeaturizer::kFeatureDim);
            score_cache_.AssembleRowInto(action.object, action.annotator,
                                         row.data());
            pending_.push_back(std::move(row));
            selection_counts_.Increment(action.object, action.annotator);
            ++total_selections_;
          }
          pruner_.NotePrunedSuccess(exact_count,
                                    valid.size() - exact_count);
          RecordPruneMetrics(pruner_, &prune_metrics_seen_, valid.size(),
                             exact_count);
          return selection.assignments;
        } else {
          pruner_.NoteGateFallback();
        }
      } else {
        pruner_.NotePrecheckFallback();
      }
    }
  }

  // Full exact pass: warmup, too-small grids, or a gate/precheck
  // fallback. Seeds/refreshes the stale table for the next iteration.
  ScoredCandidates candidates = Score(view, annotator_affordable);
  std::vector<double> raw(candidates.scores.size());
  for (size_t idx = 0; idx < raw.size(); ++idx) {
    raw[idx] = candidates.scores[idx] - bonus[idx];
  }
  pruner_.RecordExact(score_cache_, train_steps, candidates.actions, raw,
                      /*prior_ub=*/nullptr, /*bonus=*/nullptr,
                      /*full_pass=*/true);
  std::vector<size_t> chosen;
  std::vector<Assignment> assignments;
  {
    CROWDRL_TRACE_SPAN("agent.topk");
    assignments = PickTopKSumAssignments(candidates, k, num_objects_to_pick,
                                         episode_objects_, &chosen);
  }
  Commit(candidates, chosen);
  RecordPruneMetrics(pruner_, &prune_metrics_seen_, valid.size(),
                     valid.size());
  return assignments;
}

std::vector<Assignment> DqnAgent::SelectBatchHierarchical(
    const StateView& view, int k, int num_objects_to_pick,
    const std::vector<bool>& annotator_affordable) {
  CROWDRL_CHECK(episode_objects_ > 0)
      << "BeginEpisode must be called before SelectBatch";
  CROWDRL_CHECK(k > 0 && num_objects_to_pick > 0);
  CheckViewMatchesEpisode(view);
  CROWDRL_CHECK(view.labelled != nullptr);
  CROWDRL_CHECK(annotator_affordable.size() == episode_annotators_);

  // Sync the cache and the bucket aggregates without ever touching the
  // pair grid — the whole point of this path.
  {
    CROWDRL_TRACE_SPAN("scorecache.sync");
    score_cache_.Sync(view);
    RecordSyncMetrics(score_cache_, &sync_metrics_seen_);
  }
  score_cache_.RefreshBucketBoxes();
  pruner_.BeginIteration(score_cache_);
  hierarchy_.BeginIteration(score_cache_, *view.labelled,
                            annotator_affordable);
  const size_t train_steps = q_network_.train_steps();
  ++hier_stats_.iterations;

  const size_t num_buckets = hierarchy_.num_buckets();
  size_t live_buckets = 0;
  size_t live_unlabelled = 0;
  for (size_t b = 0; b < num_buckets; ++b) {
    if (hierarchy_.BucketLive(b)) {
      ++live_buckets;
      live_unlabelled += hierarchy_.bucket_unlabelled(b);
    }
  }
  hier_stats_.live_buckets += live_buckets;
  if (live_buckets == 0) return {};

  // Refresh every live tile whose representative record is stale, in one
  // exact batch — afterwards every live tile's bound is finite.
  {
    std::vector<std::pair<size_t, size_t>> stale_tiles;
    std::vector<Action> stale_reps;
    hierarchy_.CollectStaleReps(score_cache_, train_steps, &stale_tiles,
                                &stale_reps);
    if (!stale_tiles.empty()) {
      CROWDRL_TRACE_SPAN("agent.hier_reps");
      std::vector<double> rep_q = ExactQ(stale_reps);
      for (size_t i = 0; i < stale_tiles.size(); ++i) {
        hierarchy_.RecordRep(stale_tiles[i].first, stale_tiles[i].second,
                             rep_q[i], score_cache_, train_steps, &pruner_);
      }
      hier_stats_.rep_refreshes += stale_tiles.size();
    }
  }

  // Exploration-bonus terms: per-pair bonuses are exact (closed form from
  // current counts); tile bounds charge the grid-wide maximum, reached at
  // selection count zero.
  const bool ucb = options_.exploration == ExplorationMode::kUcb;
  const double log_term =
      ucb ? 2.0 * std::log(static_cast<double>(total_selections_) + 1.0)
          : 0.0;
  const double bonus_max = ucb ? options_.ucb_c * std::sqrt(log_term) : 0.0;

  const size_t target_pairs =
      std::max(kHierTargetPairsFloor,
               static_cast<size_t>(k) *
                   static_cast<size_t>(num_objects_to_pick) * 8) *
      pruner_.boost();

  std::vector<uint8_t> expanded(num_buckets, 0);
  // Exact raw-Q memo for this iteration (no training between rounds, so
  // scores stay valid and re-expanded pairs are never re-forwarded).
  std::unordered_map<uint64_t, double> exact_memo;
  const auto pair_key = [m = episode_annotators_](const Action& a) {
    return static_cast<uint64_t>(a.object) * m +
           static_cast<uint64_t>(a.annotator);
  };

  // Enumerates the expanded buckets' valid pairs in bucket-index order —
  // i.e. ascending (object, annotator), the exact order the full path
  // enumerates in. An object's candidates all live in one bucket, so each
  // per-object top-k sees the identical push sequence as full scoring and
  // heap tie-breaks cannot diverge.
  std::vector<Action> pairs;
  std::vector<double> bonus;
  const auto enumerate_expanded = [&]() {
    pairs.clear();
    for (size_t b = 0; b < num_buckets; ++b) {
      if (!expanded[b]) continue;
      const auto [obegin, oend] = hierarchy_.BucketRange(b);
      for (size_t i = obegin; i < oend; ++i) {
        if ((*view.labelled)[i]) continue;
        for (size_t j = 0; j < episode_annotators_; ++j) {
          if (!annotator_affordable[j]) continue;
          if (view.answers->HasAnswer(static_cast<int>(i),
                                      static_cast<int>(j))) {
            continue;
          }
          pairs.push_back({static_cast<int>(i), static_cast<int>(j)});
        }
      }
    }
    bonus.assign(pairs.size(), 0.0);
    if (ucb) {
      for (size_t idx = 0; idx < pairs.size(); ++idx) {
        const Action& a = pairs[idx];
        int n = selection_counts_.Get(a.object, a.annotator);
        bonus[idx] = options_.ucb_c *
                     std::sqrt(log_term / (static_cast<double>(n) + 1.0));
      }
    }
  };

  std::vector<double> bound(num_buckets);
  std::vector<double> ub;
  std::vector<double> merged;
  std::vector<uint8_t> is_exact;
  bool give_up = false;
  bool descended = false;
  // Counts bound-adaptation and expansion retries; in-bucket resolution
  // rounds are excluded (they are strictly monotone in exact pairs and
  // cannot loop, so they never justify the full fallback).
  int round = 0;

  while (!give_up) {
    ++hier_stats_.rounds;
    // Bucket bounds under the current (possibly just-adapted) alpha/beta.
    for (size_t b = 0; b < num_buckets; ++b) {
      bound[b] = hierarchy_.BucketLive(b)
                     ? hierarchy_.BucketBound(b, score_cache_, pruner_,
                                              train_steps, bonus_max)
                     : -std::numeric_limits<double>::infinity();
    }

    if (!descended) {
      descended = true;
      // Initial descent: expand highest-bound buckets until the set can
      // cover the requested objects and the exact-scoring target.
      std::vector<size_t> order;
      order.reserve(live_buckets);
      for (size_t b = 0; b < num_buckets; ++b) {
        if (hierarchy_.BucketLive(b)) order.push_back(b);
      }
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (bound[a] != bound[b]) return bound[a] > bound[b];
        return a < b;
      });
      size_t num_affordable = 0;
      for (bool a : annotator_affordable) num_affordable += a ? 1 : 0;
      const size_t objects_needed = std::min(
          static_cast<size_t>(num_objects_to_pick), live_unlabelled);
      size_t covered_objects = 0;
      size_t covered_pairs = 0;  // Upper estimate; exact count comes below.
      for (size_t b : order) {
        expanded[b] = 1;
        covered_objects += hierarchy_.bucket_unlabelled(b);
        covered_pairs += hierarchy_.bucket_unlabelled(b) * num_affordable;
        if (covered_objects >= objects_needed &&
            covered_pairs >= target_pairs) {
          break;
        }
      }
    }

    enumerate_expanded();
    if (pairs.empty()) {
      // Expanded buckets hold no valid pair (all answered or nothing
      // affordable). If unexpanded live buckets remain they may still
      // hold some: resolve exactly.
      bool unexpanded_live = false;
      for (size_t b = 0; b < num_buckets; ++b) {
        if (hierarchy_.BucketLive(b) && !expanded[b]) unexpanded_live = true;
      }
      if (!unexpanded_live) return {};
      break;  // Full fallback.
    }

    // Per-pair upper bound: the tile-derived bound with the pair's exact
    // bonus, tightened by the pair's own stale entry when one exists.
    ub.resize(pairs.size());
    size_t exact_count = 0;
    is_exact.assign(pairs.size(), 0);
    merged.resize(pairs.size());
    {
      CROWDRL_TRACE_SPAN("agent.prune_bounds");
      for (size_t idx = 0; idx < pairs.size(); ++idx) {
        const Action& a = pairs[idx];
        const double tile_ub = hierarchy_.TileBound(
            hierarchy_.BucketOf(a.object), hierarchy_.GroupOf(a.annotator),
            score_cache_, pruner_, train_steps, bonus[idx]);
        const double pair_ub = pruner_.PairUpperBound(
            score_cache_, train_steps, a.object, a.annotator, bonus[idx]);
        ub[idx] = std::min(tile_ub, pair_ub);
        auto it = exact_memo.find(pair_key(a));
        if (it != exact_memo.end()) {
          is_exact[idx] = 1;
          merged[idx] = it->second + bonus[idx];
          ++exact_count;
        } else {
          merged[idx] = ub[idx];
        }
      }
    }

    // Shortlist the highest-bounded unscored pairs and score them exactly.
    std::vector<uint32_t> shortlist;
    {
      CROWDRL_TRACE_SPAN("agent.prune_shortlist");
      shortlist_topk_.Reset(target_pairs);
      for (size_t idx = 0; idx < pairs.size(); ++idx) {
        if (!is_exact[idx]) {
          shortlist_topk_.Push(ub[idx], static_cast<uint32_t>(idx));
        }
      }
      shortlist_topk_.TakeSortedDescendingInto(&shortlist_scratch_);
      shortlist.reserve(shortlist_scratch_.size());
      for (const auto& entry : shortlist_scratch_) {
        shortlist.push_back(entry.second);
      }
      std::sort(shortlist.begin(), shortlist.end());
    }
    size_t violations = 0;
    if (!shortlist.empty()) {
      std::vector<Action> shortlist_actions;
      shortlist_actions.reserve(shortlist.size());
      for (uint32_t idx : shortlist) shortlist_actions.push_back(pairs[idx]);
      std::vector<double> shortlist_q = ExactQ(shortlist_actions);
      hier_stats_.scored_pairs += shortlist_actions.size();
      for (size_t s = 0; s < shortlist.size(); ++s) {
        const uint32_t idx = shortlist[s];
        const Action& a = pairs[idx];
        if (shortlist_q[s] + bonus[idx] > ub[idx]) {
          // The bound this pair was admitted under was unsound: replay
          // the move against its tile record so alpha/beta absorb it,
          // then re-descend under the adapted bounds.
          ++violations;
          hierarchy_.ObserveTileViolation(
              hierarchy_.BucketOf(a.object), hierarchy_.GroupOf(a.annotator),
              shortlist_q[s], score_cache_, train_steps, &pruner_);
        }
        exact_memo.emplace(pair_key(a), shortlist_q[s]);
        merged[idx] = shortlist_q[s] + bonus[idx];
        is_exact[idx] = 1;
      }
      exact_count += shortlist.size();
      // Seeds the flat per-pair table too (RecordExact's own adaptation
      // covers pairs that already had entries).
      pruner_.RecordExact(score_cache_, train_steps, shortlist_actions,
                          shortlist_q, /*prior_ub=*/nullptr,
                          /*bonus=*/nullptr, /*full_pass=*/false);
    }
    if (violations > 0) {
      pruner_.NotePrecheckFallback();
      if (round >= kHierMaxRounds) break;  // Full fallback.
      ++round;
      continue;
    }

    GatedSelection selection;
    {
      CROWDRL_TRACE_SPAN("agent.topk");
      selection = GatedPickTopKSum(pairs, merged, is_exact, ub, k,
                                   num_objects_to_pick, episode_objects_);
    }

    // Hierarchy-level gates over the unexpanded remainder: every live
    // unexpanded bucket's best top-k sum — k times its pair bound when
    // positive, the bound itself otherwise (j <= k negative terms sum to
    // at most one of them) — must sit clearly below the selection cutoff,
    // and the selection must not be starved of objects the remainder
    // could still provide.
    std::vector<size_t> sum_offenders;
    bool starved = false;
    if (selection.sound) {
      bool unexpanded_live = false;
      for (size_t b = 0; b < num_buckets; ++b) {
        if (!hierarchy_.BucketLive(b) || expanded[b]) continue;
        unexpanded_live = true;
        const double sum_bound =
            bound[b] >= 0.0 ? static_cast<double>(k) * bound[b] : bound[b];
        if (selection.min_chosen_sum - sum_bound <= kSumGateBand) {
          sum_offenders.push_back(b);
        }
      }
      starved = unexpanded_live &&
                selection.assignments.size() <
                    static_cast<size_t>(num_objects_to_pick);
    }

    if (selection.sound && sum_offenders.empty() && !starved) {
      if (options_.prune_audit) {
        // Verification only (feasible sizes): full exact scoring must
        // reproduce the selection, ordering included.
        ScoredCandidates full = Score(view, annotator_affordable);
        std::vector<size_t> full_chosen;
        std::vector<Assignment> full_assignments =
            PickTopKSumAssignments(full, k, num_objects_to_pick,
                                   episode_objects_, &full_chosen);
        CROWDRL_CHECK(full_assignments.size() ==
                      selection.assignments.size())
            << "hierarchical selection audit: assignment count diverged";
        for (size_t i = 0; i < full_assignments.size(); ++i) {
          CROWDRL_CHECK(full_assignments[i].object ==
                            selection.assignments[i].object &&
                        full_assignments[i].annotators ==
                            selection.assignments[i].annotators)
              << "hierarchical selection audit: assignment " << i
              << " diverged on object " << full_assignments[i].object;
        }
        CROWDRL_CHECK(full_chosen.size() == selection.chosen_actions.size());
        for (size_t i = 0; i < full_chosen.size(); ++i) {
          const Action& a = full.actions[full_chosen[i]];
          CROWDRL_CHECK(a.object == selection.chosen_actions[i].object &&
                        a.annotator == selection.chosen_actions[i].annotator)
              << "hierarchical selection audit: commit order diverged at "
              << i;
        }
      }
      for (const Action& action : selection.chosen_actions) {
        std::vector<double> row(StateFeaturizer::kFeatureDim);
        score_cache_.AssembleRowInto(action.object, action.annotator,
                                     row.data());
        pending_.push_back(std::move(row));
        selection_counts_.Increment(action.object, action.annotator);
        ++total_selections_;
      }
      pruner_.NotePrunedSuccess(exact_count, pairs.size() - exact_count);
      ++hier_stats_.gated_iterations;
      hier_stats_.enumerated_pairs += pairs.size();
      for (size_t b = 0; b < num_buckets; ++b) {
        hier_stats_.expanded_buckets += expanded[b] ? 1 : 0;
      }
      RecordPruneMetrics(pruner_, &prune_metrics_seen_, pairs.size(),
                         exact_count);
      return selection.assignments;
    }

    // Gate failure: expand exactly the buckets that stand between this
    // selection and a proof, then retry. No growth (or starvation, or
    // round exhaustion) means the remainder must be resolved exactly.
    bool grew = false;
    if (!starved) {
      for (int object : selection.suspect_objects) {
        const size_t b = hierarchy_.BucketOf(object);
        if (!expanded[b]) {
          expanded[b] = 1;
          grew = true;
        }
      }
      for (size_t b : sum_offenders) {
        if (!expanded[b]) {
          expanded[b] = 1;
          grew = true;
        }
      }
    }
    if (!starved && !grew && exact_count < pairs.size()) {
      // The offending pairs already sit inside the expanded set — the
      // tiling has nothing left to expand; the remainder of the expanded
      // set is merely bounded, not resolved (early iterations, before
      // the per-pair stale table can discriminate inside a bucket).
      // Resolve the expanded set exactly and re-run the gate: per-bucket
      // resolution, never the global fallback. Strictly monotone —
      // exact_count only grows — so this cannot loop.
      std::vector<Action> rest;
      rest.reserve(pairs.size() - exact_count);
      for (size_t idx = 0; idx < pairs.size(); ++idx) {
        if (!is_exact[idx]) rest.push_back(pairs[idx]);
      }
      std::vector<double> rest_q = ExactQ(rest);
      hier_stats_.scored_pairs += rest.size();
      for (size_t i = 0; i < rest.size(); ++i) {
        exact_memo.emplace(pair_key(rest[i]), rest_q[i]);
      }
      pruner_.RecordExact(score_cache_, train_steps, rest, rest_q,
                          /*prior_ub=*/nullptr, /*bonus=*/nullptr,
                          /*full_pass=*/false);
      continue;
    }
    // A true gate fallback (expansion or give-up), not an in-bucket
    // resolution: let the pruner grow its shortlist boost.
    pruner_.NoteGateFallback();
    give_up = starved || !grew || round >= kHierMaxRounds;
    ++round;
  }

  // Full fallback: exact-score every valid pair of every live bucket —
  // the flat full pass, reached through the hierarchy's enumeration. The
  // candidate list and scores are identical to Score()'s, so selections
  // (and heap tie-breaks) match the unpruned path exactly.
  ++hier_stats_.full_fallbacks;
  for (size_t b = 0; b < num_buckets; ++b) {
    if (hierarchy_.BucketLive(b)) expanded[b] = 1;
  }
  enumerate_expanded();
  if (pairs.empty()) return {};
  std::vector<Action> unscored;
  for (const Action& a : pairs) {
    if (exact_memo.find(pair_key(a)) == exact_memo.end()) {
      unscored.push_back(a);
    }
  }
  if (!unscored.empty()) {
    std::vector<double> q = ExactQ(unscored);
    hier_stats_.scored_pairs += unscored.size();
    for (size_t i = 0; i < unscored.size(); ++i) {
      exact_memo.emplace(pair_key(unscored[i]), q[i]);
    }
  }
  ScoredCandidates candidates;
  candidates.actions = pairs;
  candidates.scores.resize(pairs.size());
  std::vector<double> raw(pairs.size());
  for (size_t idx = 0; idx < pairs.size(); ++idx) {
    raw[idx] = exact_memo.at(pair_key(pairs[idx]));
    candidates.scores[idx] = raw[idx] + bonus[idx];
  }
  pruner_.RecordExact(score_cache_, train_steps, pairs, raw,
                      /*prior_ub=*/nullptr, /*bonus=*/nullptr,
                      /*full_pass=*/true);
  hier_stats_.enumerated_pairs += pairs.size();
  for (size_t b = 0; b < num_buckets; ++b) {
    hier_stats_.expanded_buckets += expanded[b] ? 1 : 0;
  }
  std::vector<size_t> chosen;
  std::vector<Assignment> assignments;
  {
    CROWDRL_TRACE_SPAN("agent.topk");
    assignments = PickTopKSumAssignments(candidates, k, num_objects_to_pick,
                                         episode_objects_, &chosen);
  }
  for (size_t idx : chosen) {
    const Action& action = candidates.actions[idx];
    std::vector<double> row(StateFeaturizer::kFeatureDim);
    score_cache_.AssembleRowInto(action.object, action.annotator, row.data());
    pending_.push_back(std::move(row));
    selection_counts_.Increment(action.object, action.annotator);
    ++total_selections_;
  }
  RecordPruneMetrics(pruner_, &prune_metrics_seen_, pairs.size(),
                     pairs.size());
  return assignments;
}

std::vector<Action> DqnAgent::EnumerateBootstrapSublinear(
    const StateView& view, const std::vector<bool>& annotator_affordable,
    size_t max_pairs, Matrix* features) {
  CROWDRL_CHECK(view.answers != nullptr && view.labelled != nullptr);
  const size_t num_objects = view.answers->num_objects();
  const size_t num_annotators = view.answers->num_annotators();
  CROWDRL_CHECK(annotator_affordable.size() == num_annotators);
  CROWDRL_CHECK(options_.incremental);

  size_t num_affordable = 0;
  for (bool a : annotator_affordable) num_affordable += a ? 1 : 0;

  // Valid-pair count and per-object first ranks in O(|O| + answers): an
  // unlabelled object's valid pairs are the affordable annotators minus
  // its affordable answers.
  std::vector<std::pair<int, uint64_t>> first_rank;
  uint64_t count = 0;
  for (size_t i = 0; i < num_objects; ++i) {
    if ((*view.labelled)[i]) continue;
    size_t overlap = 0;
    for (const auto& entry : view.answers->AnswersFor(static_cast<int>(i))) {
      if (annotator_affordable[static_cast<size_t>(entry.first)]) ++overlap;
    }
    const uint64_t valid_here = num_affordable - overlap;
    if (valid_here == 0) continue;
    first_rank.emplace_back(static_cast<int>(i), count);
    count += valid_here;
  }

  {
    CROWDRL_TRACE_SPAN("scorecache.sync");
    score_cache_.Sync(view);
    RecordSyncMetrics(score_cache_, &sync_metrics_seen_);
  }

  std::vector<Action> valid;
  if (count <= max_pairs) {
    // Below the cap this reproduces EnumerateCandidates' list exactly:
    // ascending (object, annotator), no RNG.
    valid.reserve(count);
    for (const auto& entry : first_rank) {
      const int object = entry.first;
      for (size_t j = 0; j < num_annotators; ++j) {
        if (!annotator_affordable[j]) continue;
        if (view.answers->HasAnswer(object, static_cast<int>(j))) continue;
        valid.push_back({object, static_cast<int>(j)});
      }
    }
  } else {
    std::vector<uint64_t> ranks =
        rng_.SampleRanksWithoutReplacement(count, max_pairs);
    valid.reserve(ranks.size());
    for (uint64_t rank : ranks) {
      auto it = std::upper_bound(
          first_rank.begin(), first_rank.end(), rank,
          [](uint64_t r, const std::pair<int, uint64_t>& e) {
            return r < e.second;
          });
      CROWDRL_CHECK(it != first_rank.begin());
      --it;
      const int object = it->first;
      uint64_t remaining = rank - it->second;
      int annotator = -1;
      for (size_t j = 0; j < num_annotators; ++j) {
        if (!annotator_affordable[j] ||
            view.answers->HasAnswer(object, static_cast<int>(j))) {
          continue;
        }
        if (remaining == 0) {
          annotator = static_cast<int>(j);
          break;
        }
        --remaining;
      }
      CROWDRL_CHECK(annotator >= 0);
      valid.push_back({object, annotator});
    }
  }

  if (features != nullptr) {
    CROWDRL_TRACE_SPAN("agent.featurize");
    *features = Matrix(valid.size(), StateFeaturizer::kFeatureDim);
    for (size_t idx = 0; idx < valid.size(); ++idx) {
      score_cache_.AssembleRowInto(valid[idx].object, valid[idx].annotator,
                                   features->Row(idx));
    }
    rows_featurized_ += valid.size();
  }
  return valid;
}

void DqnAgent::SaveState(io::Writer* writer) const {
  CROWDRL_CHECK(writer != nullptr);
  q_network_.SaveState(writer);
  replay_.SaveState(writer);
  writer->WriteString(rng_.SaveStateString());
  writer->WriteDouble(epsilon_);
  writer->WriteSize(episode_objects_);
  writer->WriteSize(episode_annotators_);
  selection_counts_.SaveState(writer);
  writer->WriteSize(total_selections_);
  writer->WriteSize(pending_.size());
  for (const std::vector<double>& features : pending_) {
    writer->WriteDoubleVector(features);
  }
}

Status DqnAgent::LoadState(io::Reader* reader) {
  CROWDRL_CHECK(reader != nullptr);
  CROWDRL_RETURN_IF_ERROR(q_network_.LoadState(reader));
  CROWDRL_RETURN_IF_ERROR(replay_.LoadState(reader));
  std::string rng_state;
  CROWDRL_RETURN_IF_ERROR(reader->ReadString(&rng_state));
  CROWDRL_RETURN_IF_ERROR(rng_.LoadStateString(rng_state));
  CROWDRL_RETURN_IF_ERROR(reader->ReadDouble(&epsilon_));
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&episode_objects_));
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&episode_annotators_));
  CROWDRL_RETURN_IF_ERROR(selection_counts_.LoadState(
      reader, episode_objects_, episode_annotators_));
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&total_selections_));
  size_t num_pending = 0;
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&num_pending));
  std::vector<std::vector<double>> pending(num_pending);
  for (std::vector<double>& features : pending) {
    CROWDRL_RETURN_IF_ERROR(reader->ReadDoubleVector(&features));
  }
  pending_ = std::move(pending);
  // The score cache is not serialized: its blocks are pure functions of
  // the StateView, so dropping it here and letting the next Sync rebuild
  // reproduces the same bits on the restored run. The pruner's stale
  // table likewise restarts from its warmup full passes (see shortlist.h
  // for why that keeps restores bit-identical), and the metrics snapshot
  // resets with the cache's cumulative stats.
  score_cache_.Invalidate();
  pruner_.Reset(episode_objects_, episode_annotators_);
  sync_metrics_seen_ = ScoreCache::CumulativeStats{};
  score_cache_.ConfigureObjectBuckets(HierEngaged() ? options_.hier_object_bucket
                                                    : 0);
  if (HierEngaged()) {
    HierarchyOptions hier_options;
    hier_options.object_bucket = options_.hier_object_bucket;
    hier_options.annotator_group = options_.hier_annotator_group;
    hierarchy_.Reset(episode_objects_, episode_annotators_, hier_options);
  }
  return Status::Ok();
}

void DqnAgent::Observe(double reward, const StateView& next_view,
                       const std::vector<bool>& annotator_affordable,
                       bool terminal) {
  ObservePerPair(std::vector<double>(pending_.size(), reward), next_view,
                 annotator_affordable, terminal);
}

void DqnAgent::ObservePerPair(const std::vector<double>& rewards,
                              const StateView& next_view,
                              const std::vector<bool>& annotator_affordable,
                              bool terminal) {
  CROWDRL_CHECK(rewards.size() == pending_.size())
      << "need one reward per pending pair";
  ObserveOldestPairs(pending_.size(), rewards, next_view,
                     annotator_affordable, terminal);
}

void DqnAgent::ObserveOldestPairs(
    size_t count, const std::vector<double>& rewards,
    const StateView& next_view,
    const std::vector<bool>& annotator_affordable, bool terminal) {
  CROWDRL_CHECK(count <= pending_.size())
      << "cannot observe more pairs than are pending";
  CROWDRL_CHECK(rewards.size() == count)
      << "need one reward per observed pair";
  CheckViewMatchesEpisode(next_view);
  double next_max_q = 0.0;
  if (!terminal) {
    // The factorized bootstrap reads the cached blocks directly, so the
    // dense per-row assembly would be pure waste: skip it (the Sync
    // inside EnumerateCandidates still runs either way).
    bool factorized = UseFactorizedHead();
    Matrix features;
    // At hierarchical scale the dense enumerate-then-subsample bootstrap
    // would walk the full pair grid; the sublinear variant counts valid
    // pairs per object and rank-samples without materializing them. Below
    // the cap it produces the identical candidate list with no RNG drawn.
    std::vector<Action> candidates =
        HierEngaged()
            ? EnumerateBootstrapSublinear(next_view, annotator_affordable,
                                          options_.max_bootstrap_candidates,
                                          factorized ? nullptr : &features)
            : EnumerateCandidates(next_view, annotator_affordable,
                                  options_.max_bootstrap_candidates,
                                  factorized ? nullptr : &features);
    if (!candidates.empty()) {
      std::vector<double> target_q =
          factorized ? q_network_.PredictBatchFactorized(
                           CacheBlocks(), candidates, /*use_target=*/true)
                     : q_network_.TargetPredictBatch(features);
      if (options_.q.double_dqn) {
        // Double DQN: pick the action with the online network, evaluate
        // it with the target network.
        std::vector<double> online_q =
            factorized ? q_network_.PredictBatchFactorized(
                             CacheBlocks(), candidates, /*use_target=*/false)
                       : q_network_.PredictBatch(features);
        size_t best = 0;
        for (size_t i = 1; i < online_q.size(); ++i) {
          if (online_q[i] > online_q[best]) best = i;
        }
        next_max_q = target_q[best];
      } else {
        next_max_q = *std::max_element(target_q.begin(), target_q.end());
      }
    }
  }
  for (size_t i = 0; i < count; ++i) {
    replay_.Add(Transition{std::move(pending_[i]), rewards[i], next_max_q,
                           terminal});
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<ptrdiff_t>(count));

  if (replay_.size() < options_.min_replay_before_training) return;
  for (int step = 0; step < options_.train_steps_per_observe; ++step) {
    q_network_.TrainBatch(replay_.Sample(options_.train_batch, &rng_));
  }
}

void DqnAgent::NoteAnnotatorDisconnected(int annotator) {
  if (episode_annotators_ == 0) return;  // No episode yet.
  CROWDRL_CHECK(annotator >= 0 &&
                static_cast<size_t>(annotator) < episode_annotators_);
  pruner_.EvictAnnotator(annotator);
}

}  // namespace crowdrl::rl
