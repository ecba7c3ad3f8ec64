#include "math/elementwise.h"

#include <cmath>
#include <cstring>

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define CROWDRL_ELEMENTWISE_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace crowdrl::elementwise {

namespace {

#define CROWDRL_ELEMENTWISE_INLINE inline __attribute__((always_inline))

// Elements [j, n) through the scalar expression tree: the portable tier,
// the vector tiers' tails, and the reference every tier must match. The
// kernels pass a local copy of the step, which no parameter store can
// alias, so its loop-invariant terms stay in registers.
CROWDRL_ELEMENTWISE_INLINE void AdamScalar(const AdamStep& s, size_t j,
                                           size_t n, double* value,
                                           const double* grad, double* m,
                                           double* v) {
  for (; j < n; ++j) {
    double g = grad[j] + s.weight_decay * value[j];
    m[j] = s.beta1 * m[j] + (1.0 - s.beta1) * g;
    v[j] = s.beta2 * v[j] + (1.0 - s.beta2) * g * g;
    double m_hat = m[j] / s.bias_correction1;
    double v_hat = v[j] / s.bias_correction2;
    value[j] -= s.learning_rate * m_hat / (std::sqrt(v_hat) + s.epsilon);
  }
}

void AdamPortable(const AdamStep& step, size_t n, double* value,
                  const double* grad, double* m, double* v) {
  const AdamStep s = step;
  AdamScalar(s, 0, n, value, grad, m, v);
}

#ifdef CROWDRL_ELEMENTWISE_X86_DISPATCH

typedef double Vec4 __attribute__((vector_size(32)));
typedef double Vec8 __attribute__((vector_size(64)));

// The vector form of AdamScalar, split around the square root so each
// tier can call its own sqrt intrinsic: the helpers use only generic
// vector arithmetic and inline into the target-attributed kernels below.
// Lane i of every operation is the scalar operation on element j + i.
template <typename V>
CROWDRL_ELEMENTWISE_INLINE void AdamMoments(const AdamStep& s, size_t j,
                                            const double* value,
                                            const double* grad, double* m,
                                            double* v, V* m_hat, V* v_hat) {
  V w, g, mj, vj;
  std::memcpy(&w, value + j, sizeof(V));
  std::memcpy(&g, grad + j, sizeof(V));
  std::memcpy(&mj, m + j, sizeof(V));
  std::memcpy(&vj, v + j, sizeof(V));
  g = g + s.weight_decay * w;
  mj = s.beta1 * mj + (1.0 - s.beta1) * g;
  vj = s.beta2 * vj + (1.0 - s.beta2) * g * g;
  std::memcpy(m + j, &mj, sizeof(V));
  std::memcpy(v + j, &vj, sizeof(V));
  *m_hat = mj / s.bias_correction1;
  *v_hat = vj / s.bias_correction2;
}

template <typename V>
CROWDRL_ELEMENTWISE_INLINE void AdamApply(const AdamStep& s, size_t j,
                                          const V& m_hat, const V& root,
                                          double* value) {
  V w;
  std::memcpy(&w, value + j, sizeof(V));
  w = w - s.learning_rate * m_hat / (root + s.epsilon);
  std::memcpy(value + j, &w, sizeof(V));
}

__attribute__((target("avx2"))) void AdamAvx2(const AdamStep& step,
                                                size_t n, double* value,
                                                const double* grad,
                                                double* m, double* v) {
  const AdamStep s = step;
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    Vec4 m_hat, v_hat;
    AdamMoments(s, j, value, grad, m, v, &m_hat, &v_hat);
    const Vec4 root = (Vec4)_mm256_sqrt_pd((__m256d)v_hat);
    AdamApply(s, j, m_hat, root, value);
  }
  AdamScalar(s, j, n, value, grad, m, v);
}

__attribute__((target("avx512f"))) void AdamAvx512(const AdamStep& step,
                                                    size_t n, double* value,
                                                    const double* grad,
                                                    double* m, double* v) {
  const AdamStep s = step;
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    Vec8 m_hat, v_hat;
    AdamMoments(s, j, value, grad, m, v, &m_hat, &v_hat);
    // All-lanes maskz form: _mm512_sqrt_pd's undefined passthrough operand
    // trips GCC 12's -Wmaybe-uninitialized.
    const Vec8 root = (Vec8)_mm512_maskz_sqrt_pd(0xFF, (__m512d)v_hat);
    AdamApply(s, j, m_hat, root, value);
  }
  AdamScalar(s, j, n, value, grad, m, v);
}

#endif  // CROWDRL_ELEMENTWISE_X86_DISPATCH

#undef CROWDRL_ELEMENTWISE_INLINE

}  // namespace

void AdamUpdate(const AdamStep& step, size_t n, double* value,
                const double* grad, double* m, double* v) {
  static const internal::AdamKernel kernel =
      internal::CompiledAdamKernel(gemm::internal::ActiveSimdTier());
  kernel(step, n, value, grad, m, v);
}

namespace internal {

AdamKernel CompiledAdamKernel(gemm::internal::SimdTier tier) {
  using gemm::internal::SimdTier;
#ifdef CROWDRL_ELEMENTWISE_X86_DISPATCH
  if (tier == SimdTier::kAvx512) return AdamAvx512;
  if (tier == SimdTier::kAvx2) return AdamAvx2;
#endif
  return tier == SimdTier::kPortable ? AdamPortable : nullptr;
}

}  // namespace internal

}  // namespace crowdrl::elementwise
