#ifndef CROWDRL_NN_OPTIMIZER_H_
#define CROWDRL_NN_OPTIMIZER_H_

#include <cstddef>
#include <vector>

#include "nn/mlp.h"

namespace crowdrl::nn {

/// \brief Base class for gradient-descent optimizers over an Mlp.
///
/// State (momentum buffers etc.) is lazily sized to the first network the
/// optimizer steps and then bound to it; stepping a differently sized
/// network afterwards is a programming error.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies one update from the gradients accumulated in `net`, then
  /// zeroes them.
  void Step(Mlp* net);

  /// Checkpointable surface: the bound parameter count plus all moment
  /// buffers (and the step counter for Adam), bit-exact. Restore into an
  /// optimizer constructed with the same hyperparameters; hyperparameters
  /// themselves are config, not state, and are not serialized.
  virtual void SaveState(io::Writer* writer) const;
  virtual Status LoadState(io::Reader* reader);

 protected:
  virtual void ApplyUpdate(std::vector<ParamView>* views) = 0;

  static void SaveBuffers(io::Writer* writer,
                          const std::vector<std::vector<double>>& buffers);
  static Status LoadBuffers(io::Reader* reader,
                            std::vector<std::vector<double>>* buffers);

  size_t bound_size_ = 0;
};

/// SGD with optional momentum and L2 weight decay.
class Sgd : public Optimizer {
 public:
  explicit Sgd(double learning_rate, double momentum = 0.0,
               double weight_decay = 0.0);

  void SaveState(io::Writer* writer) const override;
  Status LoadState(io::Reader* reader) override;

 protected:
  void ApplyUpdate(std::vector<ParamView>* views) override;

 private:
  double learning_rate_;
  double momentum_;
  double weight_decay_;
  std::vector<std::vector<double>> velocity_;
};

/// Adam (Kingma & Ba) with bias correction. The update runs the SIMD
/// elementwise kernel of math/elementwise.h, bit-identical to the scalar
/// per-parameter loop at every tier.
class Adam : public Optimizer {
 public:
  explicit Adam(double learning_rate, double beta1 = 0.9,
                double beta2 = 0.999, double epsilon = 1e-8,
                double weight_decay = 0.0);

  void SaveState(io::Writer* writer) const override;
  Status LoadState(io::Reader* reader) override;

 protected:
  void ApplyUpdate(std::vector<ParamView>* views) override;

 private:
  double learning_rate_;
  double beta1_;
  double beta2_;
  double epsilon_;
  double weight_decay_;
  size_t step_ = 0;
  std::vector<std::vector<double>> m_;
  std::vector<std::vector<double>> v_;
};

}  // namespace crowdrl::nn

#endif  // CROWDRL_NN_OPTIMIZER_H_
