#include "nn/optimizer.h"

#include <cmath>

#include "math/elementwise.h"
#include "util/logging.h"

namespace crowdrl::nn {

void Optimizer::Step(Mlp* net) {
  CROWDRL_CHECK(net != nullptr);
  // Refilled in place every step, so steady-state steps do not allocate;
  // the pointers are never used past this call.
  thread_local std::vector<ParamView> views;
  net->ParamViews(&views);
  size_t total = 0;
  for (const ParamView& v : views) total += v.size;
  if (bound_size_ == 0) {
    bound_size_ = total;
  } else {
    CROWDRL_CHECK(bound_size_ == total)
        << "optimizer bound to a network of " << bound_size_
        << " parameters, got " << total;
  }
  ApplyUpdate(&views);
  net->ZeroGrad();
}

void Optimizer::SaveState(io::Writer* writer) const {
  CROWDRL_CHECK(writer != nullptr);
  writer->WriteSize(bound_size_);
}

Status Optimizer::LoadState(io::Reader* reader) {
  CROWDRL_CHECK(reader != nullptr);
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&bound_size_));
  return Status::Ok();
}

void Optimizer::SaveBuffers(io::Writer* writer,
                            const std::vector<std::vector<double>>& buffers) {
  writer->WriteSize(buffers.size());
  for (const std::vector<double>& buffer : buffers) {
    writer->WriteDoubleVector(buffer);
  }
}

Status Optimizer::LoadBuffers(io::Reader* reader,
                              std::vector<std::vector<double>>* buffers) {
  size_t count = 0;
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&count));
  std::vector<std::vector<double>> loaded(count);
  for (std::vector<double>& buffer : loaded) {
    CROWDRL_RETURN_IF_ERROR(reader->ReadDoubleVector(&buffer));
  }
  *buffers = std::move(loaded);
  return Status::Ok();
}

Sgd::Sgd(double learning_rate, double momentum, double weight_decay)
    : learning_rate_(learning_rate),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  CROWDRL_CHECK(learning_rate > 0.0);
  CROWDRL_CHECK(momentum >= 0.0 && momentum < 1.0);
  CROWDRL_CHECK(weight_decay >= 0.0);
}

void Sgd::ApplyUpdate(std::vector<ParamView>* views) {
  if (velocity_.empty()) {
    velocity_.resize(views->size());
    for (size_t i = 0; i < views->size(); ++i) {
      velocity_[i].assign((*views)[i].size, 0.0);
    }
  }
  CROWDRL_CHECK(velocity_.size() == views->size());
  for (size_t i = 0; i < views->size(); ++i) {
    ParamView& view = (*views)[i];
    std::vector<double>& vel = velocity_[i];
    for (size_t j = 0; j < view.size; ++j) {
      double g = view.grad[j] + weight_decay_ * view.value[j];
      vel[j] = momentum_ * vel[j] + g;
      view.value[j] -= learning_rate_ * vel[j];
    }
  }
}

void Sgd::SaveState(io::Writer* writer) const {
  Optimizer::SaveState(writer);
  SaveBuffers(writer, velocity_);
}

Status Sgd::LoadState(io::Reader* reader) {
  CROWDRL_RETURN_IF_ERROR(Optimizer::LoadState(reader));
  return LoadBuffers(reader, &velocity_);
}

Adam::Adam(double learning_rate, double beta1, double beta2, double epsilon,
           double weight_decay)
    : learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      weight_decay_(weight_decay) {
  CROWDRL_CHECK(learning_rate > 0.0);
  CROWDRL_CHECK(beta1 >= 0.0 && beta1 < 1.0);
  CROWDRL_CHECK(beta2 >= 0.0 && beta2 < 1.0);
  CROWDRL_CHECK(epsilon > 0.0);
}

void Adam::SaveState(io::Writer* writer) const {
  Optimizer::SaveState(writer);
  writer->WriteSize(step_);
  SaveBuffers(writer, m_);
  SaveBuffers(writer, v_);
}

Status Adam::LoadState(io::Reader* reader) {
  CROWDRL_RETURN_IF_ERROR(Optimizer::LoadState(reader));
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&step_));
  CROWDRL_RETURN_IF_ERROR(LoadBuffers(reader, &m_));
  return LoadBuffers(reader, &v_);
}

void Adam::ApplyUpdate(std::vector<ParamView>* views) {
  if (m_.empty()) {
    m_.resize(views->size());
    v_.resize(views->size());
    for (size_t i = 0; i < views->size(); ++i) {
      m_[i].assign((*views)[i].size, 0.0);
      v_[i].assign((*views)[i].size, 0.0);
    }
  }
  CROWDRL_CHECK(m_.size() == views->size());
  ++step_;
  const elementwise::AdamStep step = {
      learning_rate_,
      beta1_,
      beta2_,
      epsilon_,
      weight_decay_,
      1.0 - std::pow(beta1_, static_cast<double>(step_)),
      1.0 - std::pow(beta2_, static_cast<double>(step_))};
  for (size_t i = 0; i < views->size(); ++i) {
    ParamView& view = (*views)[i];
    elementwise::AdamUpdate(step, view.size, view.value, view.grad,
                            m_[i].data(), v_[i].data());
  }
}

}  // namespace crowdrl::nn
