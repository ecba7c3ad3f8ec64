#include "perfbench/ledger.h"

#include <atomic>
#include <mutex>

#include "classifier/mlp_classifier.h"
#include "core/enrichment.h"
#include "core/environment.h"
#include "core/run_state.h"
#include "inference/joint_inference.h"
#include "obs/metrics.h"
#include "rl/dqn_agent.h"
#include "rl/q_network.h"
#include "rl/replay_buffer.h"
#include "util/status.h"

namespace crowdrl::perfbench::ledger {
namespace {

struct Accumulator {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> inclusive_ns{0};
  std::atomic<uint64_t> exclusive_ns{0};
  std::atomic<uint64_t> units{0};
  std::atomic<uint64_t> failed{0};
};

std::atomic<bool> g_enabled{false};
std::array<Accumulator, kNumLayers> g_acc;
std::atomic<uint64_t> g_attributed_ns{0};
std::mutex g_samples_mu;
// Guarded by g_samples_mu.
std::array<std::vector<double>, kNumLayers> g_call_ms;

thread_local Span* t_open = nullptr;
thread_local bool t_driving = false;

bool KeepsCallSamples(Layer layer) {
  return layer == Layer::kSelect || layer == Layer::kTi ||
         layer == Layer::kTrainBatch;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kPlan: return "serve.plan";
    case Layer::kSelect: return "rl.select";
    case Layer::kQForward: return "rl.q_forward";
    case Layer::kTrain: return "rl.train";
    case Layer::kTrainBatch: return "rl.train.batch";
    case Layer::kReplaySample: return "rl.replay.sample";
    case Layer::kTi: return "inference.ti";
    case Layer::kClassifier: return "classifier.predict";
    case Layer::kEnrich: return "core.enrich";
    case Layer::kCrowdAnswer: return "crowd.answer";
    case Layer::kCkptWrite: return "io.ckpt_write";
    case Layer::kTiSnapshot: return "serve.ti_snapshot";
    case Layer::kTiApply: return "serve.ti_apply";
    case Layer::kCount: break;
  }
  return "?";
}

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetDrivingThread(bool driving) { t_driving = driving; }

void Reset() {
  for (Accumulator& acc : g_acc) {
    acc.calls = 0;
    acc.inclusive_ns = 0;
    acc.exclusive_ns = 0;
    acc.units = 0;
    acc.failed = 0;
  }
  g_attributed_ns = 0;
  std::lock_guard<std::mutex> lock(g_samples_mu);
  for (std::vector<double>& samples : g_call_ms) samples.clear();
}

Totals Snapshot() {
  Totals totals;
  for (size_t i = 0; i < kNumLayers; ++i) {
    LayerTotals& out = totals.layers[i];
    out.calls = g_acc[i].calls.load();
    out.inclusive_ns = g_acc[i].inclusive_ns.load();
    out.exclusive_ns = g_acc[i].exclusive_ns.load();
    out.units = g_acc[i].units.load();
    out.failed = g_acc[i].failed.load();
  }
  totals.attributed_ns = g_attributed_ns.load();
  std::lock_guard<std::mutex> lock(g_samples_mu);
  for (size_t i = 0; i < kNumLayers; ++i) {
    totals.layers[i].call_ms = g_call_ms[i];
  }
  return totals;
}

Span::Span(Layer layer) : layer_(layer), active_(Enabled()) {
  if (!active_) return;
  parent_ = t_open;
  t_open = this;
  start_ns_ = obs::NowNs();
}

Span::~Span() {
  if (!active_) return;
  const uint64_t duration = obs::NowNs() - start_ns_;
  Accumulator& acc = g_acc[static_cast<size_t>(layer_)];
  acc.calls.fetch_add(1, std::memory_order_relaxed);
  acc.inclusive_ns.fetch_add(duration, std::memory_order_relaxed);
  acc.exclusive_ns.fetch_add(duration - child_ns_, std::memory_order_relaxed);
  acc.units.fetch_add(units_, std::memory_order_relaxed);
  if (failed_) acc.failed.fetch_add(1, std::memory_order_relaxed);
  if (KeepsCallSamples(layer_)) {
    std::lock_guard<std::mutex> lock(g_samples_mu);
    g_call_ms[static_cast<size_t>(layer_)].push_back(
        static_cast<double>(duration) / 1e6);
  }
  t_open = parent_;
  if (parent_ != nullptr) {
    parent_->child_ns_ += duration;
  } else if (t_driving) {
    g_attributed_ns.fetch_add(duration, std::memory_order_relaxed);
  }
}

}  // namespace crowdrl::perfbench::ledger

// ---------------------------------------------------------------------------
// Link-time wrappers. Each `__wrap_<symbol>` replaces every call to
// <symbol> made from another object file; `__real_<symbol>` is the original
// definition. The declarations spell member functions as free functions
// taking the object pointer first, which is how the Itanium C++ ABI passes
// `this` (after the hidden return slot, when there is one) on every target
// this repository builds for. The symbol names must match
// wrapped_symbols.txt one for one: a name missing there leaves its wrapper
// unused, and the tests check that every layer records calls.
// ---------------------------------------------------------------------------

namespace {

namespace core = crowdrl::core;
namespace rl = crowdrl::rl;
using crowdrl::Matrix;
using crowdrl::Status;
using crowdrl::perfbench::ledger::Layer;
using crowdrl::perfbench::ledger::Span;

}  // namespace

extern "C" {

// void RunState::PlanIteration(const std::vector<bool>*, bool, IterationPlan*)
void __real__ZN7crowdrl4core8RunState13PlanIterationEPKSt6vectorIbSaIbEEbPNS0_13IterationPlanE(
    core::RunState*, const std::vector<bool>*, bool, core::IterationPlan*);
void __wrap__ZN7crowdrl4core8RunState13PlanIterationEPKSt6vectorIbSaIbEEbPNS0_13IterationPlanE(
    core::RunState* self, const std::vector<bool>* connected,
    bool observe_pending, core::IterationPlan* plan) {
  Span span(Layer::kPlan);
  __real__ZN7crowdrl4core8RunState13PlanIterationEPKSt6vectorIbSaIbEEbPNS0_13IterationPlanE(
      self, connected, observe_pending, plan);
}

// std::vector<Assignment> DqnAgent::SelectBatch(const StateView&, int, int,
//                                               const std::vector<bool>&)
std::vector<rl::Assignment>
__real__ZN7crowdrl2rl8DqnAgent11SelectBatchERKNS0_9StateViewEiiRKSt6vectorIbSaIbEE(
    rl::DqnAgent*, const rl::StateView&, int, int, const std::vector<bool>&);
std::vector<rl::Assignment>
__wrap__ZN7crowdrl2rl8DqnAgent11SelectBatchERKNS0_9StateViewEiiRKSt6vectorIbSaIbEE(
    rl::DqnAgent* self, const rl::StateView& view, int k, int num_objects,
    const std::vector<bool>& affordable) {
  Span span(Layer::kSelect);
  return __real__ZN7crowdrl2rl8DqnAgent11SelectBatchERKNS0_9StateViewEiiRKSt6vectorIbSaIbEE(
      self, view, k, num_objects, affordable);
}

// std::vector<double> QNetwork::PredictBatch(const Matrix&) const
std::vector<double> __real__ZNK7crowdrl2rl8QNetwork12PredictBatchERKNS_6MatrixE(
    const rl::QNetwork*, const Matrix&);
std::vector<double> __wrap__ZNK7crowdrl2rl8QNetwork12PredictBatchERKNS_6MatrixE(
    const rl::QNetwork* self, const Matrix& features) {
  Span span(Layer::kQForward);
  span.AddUnits(features.rows());
  return __real__ZNK7crowdrl2rl8QNetwork12PredictBatchERKNS_6MatrixE(self,
                                                                     features);
}

// std::vector<double> QNetwork::PredictBatchServing(const Matrix&) const
std::vector<double>
__real__ZNK7crowdrl2rl8QNetwork19PredictBatchServingERKNS_6MatrixE(
    const rl::QNetwork*, const Matrix&);
std::vector<double>
__wrap__ZNK7crowdrl2rl8QNetwork19PredictBatchServingERKNS_6MatrixE(
    const rl::QNetwork* self, const Matrix& features) {
  Span span(Layer::kQForward);
  span.AddUnits(features.rows());
  return __real__ZNK7crowdrl2rl8QNetwork19PredictBatchServingERKNS_6MatrixE(
      self, features);
}

// std::vector<double> QNetwork::PredictBatchFactorized(
//     const FeatureBlocks&, const std::vector<Action>&, bool, bool)
std::vector<double>
__real__ZN7crowdrl2rl8QNetwork22PredictBatchFactorizedERKNS0_13FeatureBlocksERKSt6vectorINS0_6ActionESaIS6_EEbb(
    rl::QNetwork*, const rl::FeatureBlocks&, const std::vector<rl::Action>&,
    bool, bool);
std::vector<double>
__wrap__ZN7crowdrl2rl8QNetwork22PredictBatchFactorizedERKNS0_13FeatureBlocksERKSt6vectorINS0_6ActionESaIS6_EEbb(
    rl::QNetwork* self, const rl::FeatureBlocks& blocks,
    const std::vector<rl::Action>& pairs, bool use_target, bool serving) {
  Span span(Layer::kQForward);
  span.AddUnits(pairs.size());
  return __real__ZN7crowdrl2rl8QNetwork22PredictBatchFactorizedERKNS0_13FeatureBlocksERKSt6vectorINS0_6ActionESaIS6_EEbb(
      self, blocks, pairs, use_target, serving);
}

// void DqnAgent::ObservePerPair(const std::vector<double>&, const StateView&,
//                               const std::vector<bool>&, bool)
void __real__ZN7crowdrl2rl8DqnAgent14ObservePerPairERKSt6vectorIdSaIdEERKNS0_9StateViewERKS2_IbSaIbEEb(
    rl::DqnAgent*, const std::vector<double>&, const rl::StateView&,
    const std::vector<bool>&, bool);
void __wrap__ZN7crowdrl2rl8DqnAgent14ObservePerPairERKSt6vectorIdSaIdEERKNS0_9StateViewERKS2_IbSaIbEEb(
    rl::DqnAgent* self, const std::vector<double>& rewards,
    const rl::StateView& view, const std::vector<bool>& affordable,
    bool terminal) {
  Span span(Layer::kTrain);
  __real__ZN7crowdrl2rl8DqnAgent14ObservePerPairERKSt6vectorIdSaIdEERKNS0_9StateViewERKS2_IbSaIbEEb(
      self, rewards, view, affordable, terminal);
}

// void DqnAgent::ObserveOldestPairs(size_t, const std::vector<double>&,
//     const StateView&, const std::vector<bool>&, bool)
void __real__ZN7crowdrl2rl8DqnAgent18ObserveOldestPairsEmRKSt6vectorIdSaIdEERKNS0_9StateViewERKS2_IbSaIbEEb(
    rl::DqnAgent*, size_t, const std::vector<double>&, const rl::StateView&,
    const std::vector<bool>&, bool);
void __wrap__ZN7crowdrl2rl8DqnAgent18ObserveOldestPairsEmRKSt6vectorIdSaIdEERKNS0_9StateViewERKS2_IbSaIbEEb(
    rl::DqnAgent* self, size_t count, const std::vector<double>& rewards,
    const rl::StateView& view, const std::vector<bool>& affordable,
    bool terminal) {
  Span span(Layer::kTrain);
  __real__ZN7crowdrl2rl8DqnAgent18ObserveOldestPairsEmRKSt6vectorIdSaIdEERKNS0_9StateViewERKS2_IbSaIbEEb(
      self, count, rewards, view, affordable, terminal);
}

// double QNetwork::TrainBatch(const std::vector<const Transition*>&)
double __real__ZN7crowdrl2rl8QNetwork10TrainBatchERKSt6vectorIPKNS0_10TransitionESaIS5_EE(
    rl::QNetwork*, const std::vector<const rl::Transition*>&);
double __wrap__ZN7crowdrl2rl8QNetwork10TrainBatchERKSt6vectorIPKNS0_10TransitionESaIS5_EE(
    rl::QNetwork* self, const std::vector<const rl::Transition*>& batch) {
  Span span(Layer::kTrainBatch);
  span.AddUnits(batch.size());
  return __real__ZN7crowdrl2rl8QNetwork10TrainBatchERKSt6vectorIPKNS0_10TransitionESaIS5_EE(
      self, batch);
}

// std::vector<const Transition*> ReplayBuffer::Sample(size_t, Rng*) const
std::vector<const rl::Transition*>
__real__ZNK7crowdrl2rl12ReplayBuffer6SampleEmPNS_3RngE(const rl::ReplayBuffer*,
                                                       size_t, crowdrl::Rng*);
std::vector<const rl::Transition*>
__wrap__ZNK7crowdrl2rl12ReplayBuffer6SampleEmPNS_3RngE(
    const rl::ReplayBuffer* self, size_t batch, crowdrl::Rng* rng) {
  Span span(Layer::kReplaySample);
  span.AddUnits(batch);
  return __real__ZNK7crowdrl2rl12ReplayBuffer6SampleEmPNS_3RngE(self, batch,
                                                                rng);
}

// Status JointInference::Infer(const InferenceInput&, InferenceResult*)
Status
__real__ZN7crowdrl9inference14JointInference5InferERKNS0_14InferenceInputEPNS0_15InferenceResultE(
    crowdrl::inference::JointInference*,
    const crowdrl::inference::InferenceInput&,
    crowdrl::inference::InferenceResult*);
Status
__wrap__ZN7crowdrl9inference14JointInference5InferERKNS0_14InferenceInputEPNS0_15InferenceResultE(
    crowdrl::inference::JointInference* self,
    const crowdrl::inference::InferenceInput& input,
    crowdrl::inference::InferenceResult* result) {
  Span span(Layer::kTi);
  Status status =
      __real__ZN7crowdrl9inference14JointInference5InferERKNS0_14InferenceInputEPNS0_15InferenceResultE(
          self, input, result);
  if (!status.ok()) span.MarkFailed();
  if (result != nullptr && result->iterations > 0) {
    span.AddUnits(static_cast<uint64_t>(result->iterations));
  }
  return status;
}

// Matrix MlpClassifier::PredictProbsBatch(const Matrix&) const
Matrix
__real__ZNK7crowdrl10classifier13MlpClassifier17PredictProbsBatchERKNS_6MatrixE(
    const crowdrl::classifier::MlpClassifier*, const Matrix&);
Matrix
__wrap__ZNK7crowdrl10classifier13MlpClassifier17PredictProbsBatchERKNS_6MatrixE(
    const crowdrl::classifier::MlpClassifier* self, const Matrix& features) {
  Span span(Layer::kClassifier);
  span.AddUnits(features.rows());
  return __real__ZNK7crowdrl10classifier13MlpClassifier17PredictProbsBatchERKNS_6MatrixE(
      self, features);
}

// size_t core::EnrichLabelledSet(const Classifier&, const Matrix&,
//                                const EnrichmentOptions&, LabelState*)
size_t
__real__ZN7crowdrl4core17EnrichLabelledSetERKNS_10classifier10ClassifierERKNS_6MatrixERKNS0_17EnrichmentOptionsEPNS0_10LabelStateE(
    const crowdrl::classifier::Classifier&, const Matrix&,
    const core::EnrichmentOptions&, core::LabelState*);
size_t
__wrap__ZN7crowdrl4core17EnrichLabelledSetERKNS_10classifier10ClassifierERKNS_6MatrixERKNS0_17EnrichmentOptionsEPNS0_10LabelStateE(
    const crowdrl::classifier::Classifier& phi, const Matrix& features,
    const core::EnrichmentOptions& options, core::LabelState* state) {
  Span span(Layer::kEnrich);
  const size_t labels =
      __real__ZN7crowdrl4core17EnrichLabelledSetERKNS_10classifier10ClassifierERKNS_6MatrixERKNS0_17EnrichmentOptionsEPNS0_10LabelStateE(
          phi, features, options, state);
  span.AddUnits(labels);
  return labels;
}

// Status Environment::RequestAnswer(int, int)
Status __real__ZN7crowdrl4core11Environment13RequestAnswerEii(
    core::Environment*, int, int);
Status __wrap__ZN7crowdrl4core11Environment13RequestAnswerEii(
    core::Environment* self, int object, int annotator) {
  Span span(Layer::kCrowdAnswer);
  Status status = __real__ZN7crowdrl4core11Environment13RequestAnswerEii(
      self, object, annotator);
  if (status.ok()) {
    span.AddUnits(1);
  } else {
    span.MarkFailed();
  }
  return status;
}

// void RunState::SnapshotInference(TruthInferenceJob*) const
void __real__ZNK7crowdrl4core8RunState17SnapshotInferenceEPNS0_17TruthInferenceJobE(
    const core::RunState*, core::TruthInferenceJob*);
void __wrap__ZNK7crowdrl4core8RunState17SnapshotInferenceEPNS0_17TruthInferenceJobE(
    const core::RunState* self, core::TruthInferenceJob* job) {
  Span span(Layer::kTiSnapshot);
  __real__ZNK7crowdrl4core8RunState17SnapshotInferenceEPNS0_17TruthInferenceJobE(
      self, job);
}

// Status RunState::ApplyInference(TruthInferenceJob*)
Status __real__ZN7crowdrl4core8RunState14ApplyInferenceEPNS0_17TruthInferenceJobE(
    core::RunState*, core::TruthInferenceJob*);
Status __wrap__ZN7crowdrl4core8RunState14ApplyInferenceEPNS0_17TruthInferenceJobE(
    core::RunState* self, core::TruthInferenceJob* job) {
  Span span(Layer::kTiApply);
  Status status =
      __real__ZN7crowdrl4core8RunState14ApplyInferenceEPNS0_17TruthInferenceJobE(
          self, job);
  if (!status.ok()) span.MarkFailed();
  return status;
}

}  // extern "C"
