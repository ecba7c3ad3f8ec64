#ifndef CROWDRL_MATH_GEMM_INTERNAL_H_
#define CROWDRL_MATH_GEMM_INTERNAL_H_

#include <cstddef>

#include "math/matrix.h"

namespace crowdrl::gemm::internal {

/// Internal surface of gemm.cc: the per-tier micro-kernels, exposed so the
/// tier conformance tests can drive every compiled tier directly instead of
/// only the one the host CPU selects. Production code calls gemm.h.

/// SIMD ISA tier of the micro-kernel. The process runs the highest tier its
/// CPU supports, probed once via cpuid (gemm.h's SimdTierName reports it).
enum class SimdTier { kPortable = 0, kAvx2 = 1, kAvx512 = 2 };

/// "portable", "avx2", or "avx512".
const char* SimdTierName(SimdTier tier);

/// The highest tier this CPU runs and this build compiles: the one cpuid
/// probe of the process, cached on first use. The gemm micro-kernel and
/// the elementwise kernels (math/elementwise.h) both dispatch on it.
SimdTier ActiveSimdTier();

/// One k panel of C = op(A) · op(B) over a block of output rows.
struct PanelArgs {
  const double* a;       ///< A(first row, k0); element (i, t) of the
  size_t a_rs;           ///< block sits at a[i * a_rs + t * a_cs], so A
  size_t a_cs;           ///< and Aᵀ are both read in place.
  const double* packed;  ///< ceil(n / nr) blocks of kc x nr packed op(B).
  double* c;             ///< C(first row, 0); rows are `n` apart.
  size_t rows;
  size_t kc;             ///< Depth of this k panel.
  size_t n;              ///< Output columns.
  bool accumulate;       ///< false on the first k panel: C = product.
};

/// A compiled SIMD tier of the register-tiled micro-kernel.
struct Tier {
  const char* name;
  size_t mr;  ///< Output rows per register tile.
  size_t nr;  ///< Output columns per register tile (packed panel width).
  void (*panel)(const PanelArgs& args);
};

/// The kernel for `tier`, or nullptr when it is not compiled into this
/// build (non-x86-64 or non-GCC builds carry only the portable tier).
/// Whether the host CPU can run it is the caller's question.
const Tier* CompiledTier(SimdTier tier);

enum class Layout { kNN, kNT, kTN };

/// Serial C = A·B, A·Bᵀ or Aᵀ·B through one specific tier.
void MatMulWithTier(const Tier& tier, Layout layout, const Matrix& a,
                    const Matrix& b, Matrix* out);

}  // namespace crowdrl::gemm::internal

#endif  // CROWDRL_MATH_GEMM_INTERNAL_H_
