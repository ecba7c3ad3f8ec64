#ifndef CROWDRL_PERFBENCH_LEDGER_H_
#define CROWDRL_PERFBENCH_LEDGER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

/// \file
/// \brief Outside-in layer ledger for the benchmark's traced runs.
///
/// The link step redirects every entry point listed in
/// wrapped_symbols.txt (`-Wl,--wrap=<symbol>`) to a wrapper in ledger.cc
/// that opens a Span and forwards the call unchanged. Nothing inside the
/// libraries is instrumented, so a calling path that stays inside one
/// translation unit is invisible here by construction; the residual
/// (run time not covered by any top-level span of the driving thread)
/// states how much that is.
///
/// Spans nest per thread, so every layer gets an inclusive time (all of
/// its calls) and an exclusive time (minus the time of layers called from
/// inside it). Recording is off unless Enable(true): a disabled wrapper
/// costs one relaxed atomic load per call and records nothing.
/// Thread-safe: truth inference runs its spans on the service's worker
/// thread while the pump records its own.

namespace crowdrl::perfbench::ledger {

enum class Layer : int {
  kPlan,          ///< RunState::PlanIteration.
  kSelect,        ///< DqnAgent::SelectBatch.
  kQForward,      ///< QNetwork::PredictBatch{,Serving,Factorized}.
  kTrain,         ///< DqnAgent::ObservePerPair / ObserveOldestPairs.
  kTrainBatch,    ///< QNetwork::TrainBatch.
  kReplaySample,  ///< ReplayBuffer::Sample.
  kTi,            ///< JointInference::Infer.
  kClassifier,    ///< MlpClassifier::PredictProbsBatch.
  kEnrich,        ///< core::EnrichLabelledSet.
  kCrowdAnswer,   ///< Environment::RequestAnswer.
  kCkptWrite,     ///< RunState::MaybeCheckpoint (timed by the driver).
  kTiSnapshot,    ///< RunState::SnapshotInference.
  kTiApply,       ///< RunState::ApplyInference.
  kCount,
};
constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

/// Ledger name of a layer ("rl.select", "inference.ti", ...).
const char* LayerName(Layer layer);

/// Turns recording on or off process-wide.
void Enable(bool on);
bool Enabled();

/// Marks the calling thread as the one whose wall time run_s measures
/// (the batch loop or the service pump). Only that thread's top-level
/// spans count toward the attributed time the residual is taken from.
void SetDrivingThread(bool driving);

/// Zeroes every accumulator (call between runs, with no span open).
void Reset();

struct LayerTotals {
  uint64_t calls = 0;
  uint64_t inclusive_ns = 0;
  uint64_t exclusive_ns = 0;
  /// Layer-specific work count: rows for kQForward / kClassifier, labels
  /// for kEnrich, answers granted for kCrowdAnswer, bytes for kCkptWrite,
  /// EM iterations for kTi.
  uint64_t units = 0;
  /// Calls that returned a non-OK Status (kCrowdAnswer: refusals).
  uint64_t failed = 0;
  /// Per-call durations in ms, kept for kSelect, kTi and kTrainBatch only.
  std::vector<double> call_ms;
};

struct Totals {
  std::array<LayerTotals, kNumLayers> layers;
  /// Sum of the driving thread's top-level span durations.
  uint64_t attributed_ns = 0;

  const LayerTotals& operator[](Layer layer) const {
    return layers[static_cast<size_t>(layer)];
  }
};

/// Copies the accumulators (call with no span open on any thread).
Totals Snapshot();

/// \brief RAII layer span. Inactive (records nothing) when recording was
/// off at construction. Not copyable; must be destroyed on the thread
/// that created it, in LIFO order with other spans of that thread.
class Span {
 public:
  explicit Span(Layer layer);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void AddUnits(uint64_t units) { units_ += units; }
  void MarkFailed() { failed_ = true; }

 private:
  Layer layer_;
  bool active_;
  bool failed_ = false;
  uint64_t start_ns_ = 0;
  uint64_t child_ns_ = 0;
  uint64_t units_ = 0;
  Span* parent_ = nullptr;
};

}  // namespace crowdrl::perfbench::ledger

#endif  // CROWDRL_PERFBENCH_LEDGER_H_
