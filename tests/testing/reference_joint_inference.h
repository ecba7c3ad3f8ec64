#ifndef CROWDRL_TESTS_TESTING_REFERENCE_JOINT_INFERENCE_H_
#define CROWDRL_TESTS_TESTING_REFERENCE_JOINT_INFERENCE_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "inference/joint_inference.h"
#include "inference/truth_inference.h"
#include "math/vector_ops.h"
#include "util/status.h"

namespace crowdrl::testing {

/// Verbatim copy of the serial `JointInference::Infer` loop as it was
/// before the classifier-prior hoist and the E-step log tables: phi's class
/// probabilities are re-predicted in every M-step and once more for the
/// final likelihood, and the E-step takes one `std::log` per answer. Kept
/// as the golden reference the production loop must match bit for bit.
/// Do not "fix" or speed it up. Compute-backend installation and spans are
/// left out (they never change results).
inline Status ReferenceJointInfer(const inference::JointInferenceOptions& o,
                                  const inference::InferenceInput& input,
                                  inference::InferenceResult* result) {
  constexpr double kLogFloor = 1e-12;
  CROWDRL_RETURN_IF_ERROR(inference::ValidateInput(input));
  const size_t n = input.objects.size();
  const size_t c = static_cast<size_t>(input.num_classes);
  Matrix target_features(n, input.features->cols());
  for (size_t row = 0; row < n; ++row) {
    target_features.SetRow(row, input.features->RowVector(static_cast<size_t>(
                                    input.objects[row])));
  }
  auto e_step = [&](const std::vector<crowd::ConfusionMatrix>& confusions,
                    const Matrix& class_probs, Matrix* posteriors,
                    std::vector<double>* row_lse) {
    row_lse->assign(n, 0.0);
    std::vector<double> log_post(c);
    for (size_t row = 0; row < n; ++row) {
      const crowd::AnswerSpan answers =
          input.answers->AnswersFor(input.objects[row]);
      bool use_prior = o.classifier_prior_on_unanimous;
      if (!use_prior) {
        for (size_t a = 1; a < answers.size(); ++a) {
          if (answers[a].second != answers[0].second) {
            use_prior = true;
            break;
          }
        }
        if (answers.empty()) use_prior = true;
      }
      for (size_t truth = 0; truth < c; ++truth) {
        double lp = use_prior ? o.classifier_weight *
                                    std::log(std::max(
                                        class_probs.At(row, truth), kLogFloor))
                              : 0.0;
        for (const auto& [annotator, label] : answers) {
          lp += std::log(std::max(
              confusions[static_cast<size_t>(annotator)].At(
                  static_cast<int>(truth), label),
              kLogFloor));
        }
        log_post[truth] = lp;
      }
      double lse = LogSumExp(log_post);
      (*row_lse)[row] = lse;
      for (size_t truth = 0; truth < c; ++truth) {
        posteriors->At(row, truth) = std::exp(log_post[truth] - lse);
      }
    }
  };

  Matrix posteriors = inference::MajorityPosteriors(input);
  if (!input.classifier->is_trained()) {
    CROWDRL_RETURN_IF_ERROR(
        input.classifier->Train(target_features, posteriors, {}));
  }
  std::vector<crowd::ConfusionMatrix> confusions;
  double log_likelihood = 0.0;
  int iteration = 0;
  for (; iteration < o.em.max_iterations; ++iteration) {
    confusions =
        inference::EstimateConfusions(input, posteriors, o.em.smoothing);
    if (input.annotator_types != nullptr) {
      inference::BoundExpertQuality(*input.annotator_types, o.expert_epsilon,
                                    o.expert_floor_slack, &confusions);
    }
    if (iteration > 0 && iteration % o.classifier_retrain_period == 0) {
      CROWDRL_RETURN_IF_ERROR(
          input.classifier->Train(target_features, posteriors, {}));
    }
    Matrix class_probs = input.classifier->PredictProbsBatch(target_features);
    Matrix next(n, c);
    std::vector<double> row_lse;
    e_step(confusions, class_probs, &next, &row_lse);
    log_likelihood = 0.0;
    for (double lse : row_lse) log_likelihood += lse;
    double max_change = 0.0;
    for (size_t i = 0; i < next.size(); ++i) {
      max_change = std::max(max_change,
                            std::fabs(next.data()[i] - posteriors.data()[i]));
    }
    posteriors = std::move(next);
    if (max_change < o.em.tolerance) {
      ++iteration;
      break;
    }
  }
  confusions =
      inference::EstimateConfusions(input, posteriors, o.em.smoothing);
  if (input.annotator_types != nullptr) {
    inference::BoundExpertQuality(*input.annotator_types, o.expert_epsilon,
                                  o.expert_floor_slack, &confusions);
  }
  {
    Matrix final_probs = input.classifier->PredictProbsBatch(target_features);
    Matrix unused(n, c);
    std::vector<double> row_lse;
    e_step(confusions, final_probs, &unused, &row_lse);
    log_likelihood = 0.0;
    for (double lse : row_lse) log_likelihood += lse;
  }
  if (o.final_fit_on_hard_labels) {
    Matrix hard(n, c);
    for (size_t row = 0; row < n; ++row) {
      hard.At(row, Argmax(posteriors.RowVector(row))) = 1.0;
    }
    CROWDRL_RETURN_IF_ERROR(
        input.classifier->Train(target_features, hard, {}));
  } else {
    CROWDRL_RETURN_IF_ERROR(
        input.classifier->Train(target_features, posteriors, {}));
  }
  result->posteriors = std::move(posteriors);
  result->labels.resize(n);
  for (size_t row = 0; row < n; ++row) {
    result->labels[row] =
        static_cast<int>(Argmax(result->posteriors.RowVector(row)));
  }
  result->confusions = std::move(confusions);
  result->qualities.clear();
  for (const auto& cm : result->confusions) {
    result->qualities.push_back(cm.Quality());
  }
  result->log_likelihood = log_likelihood;
  result->iterations = iteration;
  return Status::Ok();
}

}  // namespace crowdrl::testing

#endif  // CROWDRL_TESTS_TESTING_REFERENCE_JOINT_INFERENCE_H_
