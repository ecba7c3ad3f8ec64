#ifndef CROWDRL_MATH_ELEMENTWISE_H_
#define CROWDRL_MATH_ELEMENTWISE_H_

#include <cstddef>

#include "math/gemm_internal.h"

namespace crowdrl::elementwise {

/// \brief SIMD elementwise kernels, bit-identical to their scalar loops.
///
/// Each kernel is stamped out per ISA tier (portable / AVX2 / AVX-512) the
/// way gemm.cc stamps out its micro-kernel, and runs the tier the one cpuid
/// probe in gemm_internal.h selected. The bit-identity argument: every
/// lane evaluates its element's scalar expression tree unchanged (same
/// operations, same operand order); IEEE add, mul, div and sqrt are
/// correctly rounded in vector form exactly as in scalar form; the file is
/// compiled with -ffp-contract=off, so no tier fuses a mul and an add into
/// one FMA rounding; and lanes never combine. Every tier therefore writes
/// the bits of the scalar loop, at any length and alignment.

/// The per-step constants of one Adam update (Kingma & Ba, with bias
/// correction and L2 weight decay folded into the gradient).
struct AdamStep {
  double learning_rate;
  double beta1;
  double beta2;
  double epsilon;
  double weight_decay;
  double bias_correction1;  ///< 1 - beta1^t
  double bias_correction2;  ///< 1 - beta2^t
};

/// One Adam update over `n` parameters, in place. Per element j:
///
///   g = grad[j] + weight_decay * value[j]
///   m[j] = beta1 * m[j] + (1 - beta1) * g
///   v[j] = beta2 * v[j] + (1 - beta2) * g * g
///   value[j] -= learning_rate * (m[j] / bc1) / (sqrt(v[j] / bc2) + epsilon)
void AdamUpdate(const AdamStep& step, size_t n, double* value,
                const double* grad, double* m, double* v);

namespace internal {

/// Internal surface for the tier conformance tests, which drive every
/// compiled tier directly. Production code calls AdamUpdate.
using AdamKernel = void (*)(const AdamStep& step, size_t n, double* value,
                            const double* grad, double* m, double* v);

/// The Adam kernel for `tier`, or nullptr when it is not compiled into
/// this build. Whether the host CPU can run it is the caller's question.
AdamKernel CompiledAdamKernel(gemm::internal::SimdTier tier);

}  // namespace internal

}  // namespace crowdrl::elementwise

#endif  // CROWDRL_MATH_ELEMENTWISE_H_
