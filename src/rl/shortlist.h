#ifndef CROWDRL_RL_SHORTLIST_H_
#define CROWDRL_RL_SHORTLIST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rl/action.h"
#include "rl/pair_shards.h"
#include "rl/score_cache.h"

namespace crowdrl::rl {

/// Knobs of the stale-Q bounds (DqnAgentOptions::prune_margin).
struct ShortlistOptions {
  /// Additive slack on every upper bound. Larger margins make gate
  /// fallbacks rarer at the cost of looser bounds.
  double margin = 1e-6;
};

/// \brief Per-pair stale-Q table, drift sensitivities and gate statistics
/// of the hierarchical selection path (DqnAgent::SelectBatch on grids of
/// at least hier_min_pairs pairs; smaller grids are scored exactly).
///
/// The selection structure (per-object top-k by score, then objects by
/// top-k sums) only ever needs exact scores near the top of the score
/// distribution. This table keeps, for every (object, annotator) pair,
/// the last exactly-computed raw Q value together with snapshots of the
/// ScoreCache drift accumulators and the train-step counter taken at that
/// moment. An upper bound on the pair's current score is then
///
///   UB = stale_q + alpha * (outstanding object + annotator + global
///        feature drift) + beta * train_steps_since + margin + bonus
///
/// where `bonus` is the exploration bonus computed exactly from current
/// selection counts (closed form, never stale), and alpha / beta are
/// observed drift sensitivities: running maxima of |dQ| per unit feature
/// drift and |dQ| per train step, measured every time a pair is rescored,
/// doubled for headroom and decayed slowly. The hierarchy's tile bounds
/// (rl::BucketHierarchy) charge the same alpha / beta. The bounds are
/// heuristic — exactness is NOT assumed from them; the caller's selection
/// gate verifies after the fact that no unscored pair could have altered
/// the selection, and falls back to full scoring otherwise (see DESIGN.md
/// "Candidate pruning").
///
/// Storage is sharded by object range (rl::PairShardMap): a range's
/// entries materialize the first time one of its pairs is rescored, so a
/// million-object episode whose hierarchical selection only ever expands
/// a few ranges keeps the table proportional to those ranges instead of
/// the full grid.
///
/// The table is invalidated wholesale whenever the ScoreCache full-
/// rebuilds (its drift accumulators reset, so the snapshots no longer
/// measure anything) and is deliberately NOT checkpointed: after a
/// restore the table restarts empty, and because gated iterations select
/// exactly what full scoring selects, the resumed run reproduces the
/// uninterrupted run's assignments bit for bit.
///
/// Not thread-safe; owned and driven by one DqnAgent.
class ShortlistPruner {
 public:
  struct Stats {
    size_t pruned_iterations = 0;  ///< Gated selections served.
    size_t full_iterations = 0;    ///< Full-scoring fallbacks.
    size_t gate_fallbacks = 0;     ///< Selection gate rejected the shortlist.
    size_t precheck_fallbacks = 0; ///< A rescored pair exceeded its bound.
    size_t exact_rows = 0;         ///< Rows sent to the exact Q forward.
    size_t bounded_rows = 0;       ///< Rows served by upper bounds alone.
  };

  ShortlistPruner() = default;
  explicit ShortlistPruner(const ShortlistOptions& options);

  /// Drops every stale entry and resizes the table for a workload shape.
  /// Learned sensitivities (alpha / beta) survive — they are properties
  /// of the model / featurization scale, not of one episode.
  void Reset(size_t num_objects, size_t num_annotators);

  /// Call once per selection iteration before reading bounds: invalidates
  /// the table when the cache full-rebuilt since the last iteration and
  /// applies the slow sensitivity decay.
  void BeginIteration(const ScoreCache& cache);

  /// Evicts every stale entry of one annotator's column. Called when an
  /// annotator disconnects mid-run, so a later reconnect starts from
  /// must-score entries instead of bounds snapshotted against a pool that
  /// no longer exists.
  void EvictAnnotator(int annotator);

  /// Score upper bound of one pair: its stale exact Q plus the drift and
  /// training slack it aged through, the margin and its exact exploration
  /// `bonus` (the hierarchical generator tightens a tile-derived bound
  /// with it). +infinity when the pair has no valid entry.
  double PairUpperBound(const ScoreCache& cache, size_t train_steps,
                        int object, int annotator, double bonus) const;

  /// Records exact raw Q values (exploration bonus excluded) for `pairs`,
  /// snapshotting the drift accumulators and train step. Pairs that
  /// already held an entry feed their observed move into the sensitivity
  /// adaptation (ObserveMove). `full_pass` counts a full-scoring
  /// iteration in the stats.
  void RecordExact(const ScoreCache& cache, size_t train_steps,
                   const std::vector<Action>& pairs,
                   const std::vector<double>& raw_q, bool full_pass);

  /// Feeds one externally observed exact-rescore move into the
  /// sensitivity adaptation (the same max-update rule RecordExact
  /// applies). Callers that maintain their own stale anchors — the
  /// hierarchical tile representatives — report |dq| = |Q_new - Q_stale|
  /// against the feature drift and train-step delta the anchor aged
  /// through, so a drifting network loosens the shared bounds no matter
  /// which layer observed the move first.
  void ObserveMove(double dq, double drift, double ticks);

  /// Outcome notes, driving the adaptive exact-scoring boost and stats.
  void NotePrunedSuccess(size_t exact_rows, size_t bounded_rows);
  void NoteGateFallback();
  void NotePrecheckFallback();

  double alpha() const { return alpha_; }
  double beta() const { return beta_; }
  double margin() const { return options_.margin; }
  size_t boost() const { return boost_; }
  size_t allocated_shards() const { return table_.allocated_shards(); }
  const Stats& stats() const { return stats_; }

 private:
  /// One object range's stale entries; allocated on first rescore into
  /// the range (see PairShardMap).
  struct TableShard {
    explicit TableShard(size_t pairs)
        : stale_q(pairs, 0.0),
          snap_obj(pairs, 0.0),
          snap_ann(pairs, 0.0),
          snap_glob(pairs, 0.0),
          stale_step(pairs, 0),
          valid(pairs, 0) {}
    std::vector<double> stale_q;
    std::vector<double> snap_obj;   // object_drift()[i] at record time.
    std::vector<double> snap_ann;   // annotator_drift()[j] at record time.
    std::vector<double> snap_glob;  // global_drift() at record time.
    std::vector<uint32_t> stale_step;
    std::vector<uint8_t> valid;
  };

  ShortlistOptions options_;

  PairShardMap<TableShard> table_;

  // Drift sensitivities (running maxima with 2x headroom, decayed).
  double alpha_ = 1.0;
  double beta_ = 0.0;
  // Exact-scoring budget multiplier: doubled on gate fallback, halved
  // after a streak of gated successes.
  size_t boost_ = 1;
  size_t success_streak_ = 0;

  size_t seen_full_rebuilds_ = 0;  // Last seen ScoreCache::rebuild_epoch().
  bool epoch_seen_ = false;

  Stats stats_;
};

}  // namespace crowdrl::rl

#endif  // CROWDRL_RL_SHORTLIST_H_
