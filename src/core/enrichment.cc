#include "core/enrichment.h"

#include <algorithm>

#include "math/vector_ops.h"
#include "util/logging.h"

namespace crowdrl::core {

size_t EnrichLabelledSet(const classifier::Classifier& phi,
                         const Matrix& features,
                         const EnrichmentOptions& options,
                         LabelState* state) {
  CROWDRL_CHECK(state != nullptr);
  CROWDRL_CHECK(features.rows() == state->num_objects());
  CROWDRL_CHECK(options.epsilon >= 0.0);
  if (!phi.is_trained()) return 0;
  size_t min_labelled = std::max(
      options.min_labelled,
      static_cast<size_t>(options.min_labelled_fraction *
                          static_cast<double>(state->num_objects())));
  if (state->num_labelled() < min_labelled) return 0;

  // Phi predicts the unlabelled rows a block at a time: one batched call
  // packs phi's weights once per block instead of once per row, and the
  // block bounds the gathered copy. Each row's probabilities are
  // bit-identical to a single-row PredictProbs.
  constexpr size_t kBlockRows = 256;
  const std::vector<int> unlabelled = state->UnlabelledObjects();
  const size_t cols = features.cols();
  Matrix rows;
  size_t enriched = 0;
  for (size_t b0 = 0; b0 < unlabelled.size(); b0 += kBlockRows) {
    const size_t n = std::min(kBlockRows, unlabelled.size() - b0);
    rows.Resize(n, cols);
    for (size_t i = 0; i < n; ++i) {
      const double* src = features.Row(static_cast<size_t>(unlabelled[b0 + i]));
      std::copy(src, src + cols, rows.Row(i));
    }
    const Matrix probs = phi.PredictProbsBatch(rows);
    for (size_t i = 0; i < n; ++i) {
      const std::vector<double> p = probs.RowVector(i);
      if (TopTwoGap(p) <= options.epsilon) continue;  // Ambiguous.
      state->SetLabel(unlabelled[b0 + i], static_cast<int>(Argmax(p)),
                      LabelSource::kClassifier);
      ++enriched;
    }
  }
  return enriched;
}

}  // namespace crowdrl::core
