#ifndef CROWDRL_PERFBENCH_WORKLOADS_H_
#define CROWDRL_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/framework.h"
#include "core/run_state.h"
#include "crowd/annotator.h"
#include "data/dataset.h"
#include "perfbench/ledger.h"

/// \file
/// \brief The benchmark's three workloads and the drivers that run them.
/// README.md in this directory says why each workload exists.

namespace crowdrl::perfbench {

enum class Workload { kPaperBatch, kWideCrowd, kServeAsync };

/// "paper_batch" | "wide_crowd" | "serve_async"; false for anything else.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

/// One campaign's complete inputs, all derived from the workload seed.
struct CampaignInput {
  std::string name;  ///< Dataset variant, e.g. "S12CP".
  data::Dataset dataset;
  std::vector<crowd::Annotator> pool;
  double budget = 0.0;
  uint64_t run_seed = 0;
  core::CrowdRlConfig config;
  /// Lowest acceptable share of labels equal to the hidden truth.
  double accuracy_floor = 0.0;
};

/// Seed of the `index`-th input set a run of workload seed `seed` labels.
/// A run cycles through input sets 0, 1, 2, ..., so its medians cover
/// several datasets and crowds rather than one.
uint64_t InputSeed(uint64_t seed, size_t index);

/// Generates the campaigns of `workload` for `seed` (datasets, pools,
/// budgets, configs). Batch campaigns of paper_batch checkpoint under
/// `checkpoint_root`/<name>.
std::vector<CampaignInput> MakeCampaigns(Workload workload, uint64_t seed,
                                         const std::string& checkpoint_root);

/// Everything one repetition of a workload measured.
struct RepResult {
  double setup_s = 0.0;
  /// First labelling call to final labels (batch: Bootstrap through
  /// Finalize of every campaign; serve: StartAll until every campaign is
  /// done).
  double run_s = 0.0;
  /// Wall time of each labelling iteration (batch: plan + execute +
  /// finish; serve: dispatch of one round to dispatch of the next).
  std::vector<double> iter_ms;
  /// Each time an annotator becomes idle (connected, previous answer
  /// given) and finds no task queued for it: the time until it is handed
  /// one. Back-to-back pickups of already-queued tasks are not waits. The
  /// batch loop answers a whole round at once, so there an annotator's
  /// wait runs from the end of the previous round to its first task.
  std::vector<double> task_wait_ms;
  size_t answers = 0;  ///< Committed human answers.
  /// Peak resident set of the process during this repetition.
  double peak_rss_mb = 0.0;
  size_t labels = 0;
  size_t labels_correct = 0;
  size_t attempted = 0;
  size_t failed = 0;
  /// Human-readable reasons for every failed operation or check.
  std::vector<std::string> problems;
  /// "<campaign> <label accuracy>" per checked campaign.
  std::vector<std::string> campaign_accuracy;
  /// Hash of every campaign's labels, label sources, spend and assignment
  /// log (batch workloads; 0 for serve, whose interleaving is timing
  /// dependent by design).
  uint64_t fingerprint = 0;

  // Layer figures that come from the program's own state, not the ledger.
  size_t pruned_selections = 0;
  size_t full_selections = 0;
  size_t gate_fallbacks = 0;
  uint64_t rows_featurized = 0;
  double ckpt_read_ms = 0.0;
  double ti_stall_ms = 0.0;
  size_t ti_swaps = 0;
  size_t abandoned = 0;
  /// How late the annotator driver ran against its schedule.
  std::vector<double> driver_lag_ms;

  /// Layer ledger of the run window (traced repetitions only).
  bool traced = false;
  ledger::Totals ledger;
};

/// Runs one complete repetition: set-up, the timed labelling run, output
/// checks. With `traced`, the ledger records the run window. `work_dir`
/// (created if missing) holds the repetition's checkpoints.
RepResult RunRepetition(Workload workload, uint64_t seed, bool traced,
                        const std::string& work_dir);

/// Performs only the set-up of one repetition and returns its duration in
/// seconds (extra set-up samples for setup_s).
double MeasureSetup(Workload workload, uint64_t seed,
                    const std::string& work_dir);

/// Timing the staged batch driver takes between RunState's stages.
struct StagedTiming {
  std::vector<double> iter_ms;
  std::vector<double> task_wait_ms;
};

/// The staged batch driver: RunState's stages sequenced exactly as
/// CrowdRlFramework::Run sequences them (which the tests check), timed
/// between the stages. `log` receives the assignment log.
Status RunStaged(core::RunState* rs, core::LabellingResult* result,
                 std::vector<core::AssignmentRecord>* log,
                 StagedTiming* timing);

/// FNV-1a over labels, sources, spend and the assignment log.
uint64_t Fingerprint(const core::LabellingResult& result,
                     const std::vector<core::AssignmentRecord>& log);

}  // namespace crowdrl::perfbench

#endif  // CROWDRL_PERFBENCH_WORKLOADS_H_
