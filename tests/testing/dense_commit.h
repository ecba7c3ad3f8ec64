#ifndef CROWDRL_TESTS_TESTING_DENSE_COMMIT_H_
#define CROWDRL_TESTS_TESTING_DENSE_COMMIT_H_

#include <vector>

#include "math/matrix.h"
#include "rl/dqn_agent.h"
#include "rl/state.h"

namespace crowdrl::testing {

/// DqnAgent::Score with a dense feature row for every candidate: each row
/// is assembled from the agent's own ScoreCache right after Score synced
/// it, so a following Commit copies the chosen rows out of the matrix
/// instead of assembling them itself. The reference that the production
/// path's commit-time row assembly is compared against. Requires an agent
/// with `incremental` on.
inline rl::ScoredCandidates ScoreWithDenseRows(
    rl::DqnAgent* agent, const rl::StateView& view,
    const std::vector<bool>& affordable) {
  rl::ScoredCandidates candidates = agent->Score(view, affordable);
  candidates.features =
      Matrix(candidates.actions.size(), rl::StateFeaturizer::kFeatureDim);
  for (size_t i = 0; i < candidates.actions.size(); ++i) {
    const rl::Action& action = candidates.actions[i];
    agent->score_cache().AssembleRowInto(action.object, action.annotator,
                                         candidates.features.Row(i));
  }
  return candidates;
}

/// SelectBatch through ScoreWithDenseRows: scores every pair, picks the
/// top-k-sum assignments and Commits from the dense rows. Below
/// hier_min_pairs it must select, and leave the agent in, exactly the state
/// the production SelectBatch does.
inline std::vector<rl::Assignment> SelectBatchDense(
    rl::DqnAgent* agent, const rl::StateView& view, int k,
    int num_objects_to_pick, const std::vector<bool>& affordable) {
  rl::ScoredCandidates candidates =
      ScoreWithDenseRows(agent, view, affordable);
  std::vector<size_t> chosen;
  std::vector<rl::Assignment> assignments = rl::PickTopKSumAssignments(
      candidates, k, num_objects_to_pick, view.answers->num_objects(),
      &chosen);
  agent->Commit(candidates, chosen);
  return assignments;
}

}  // namespace crowdrl::testing

#endif  // CROWDRL_TESTS_TESTING_DENSE_COMMIT_H_
