#ifndef CROWDRL_MATH_GEMM_H_
#define CROWDRL_MATH_GEMM_H_

#include <cstddef>
#include <functional>

#include "math/matrix.h"
#include "util/thread_pool.h"

namespace crowdrl::gemm {

/// \brief Transpose-aware, register-tiled GEMM kernels.
///
/// The numeric core behind `Mlp::Forward/Infer/Backward` and everything that
/// funnels through them (Q-network action scoring, classifier retrains in
/// the joint-inference EM loop). Three layout variants so callers never
/// materialize a transposed operand:
///
///   * `MatMulInto`   — C = A · B          (A: m x k, B: k x n)
///   * `MatMulNTInto` — C = A · Bᵀ         (A: m x k, B: n x k)
///   * `MatMulTNInto` — C = Aᵀ · B         (A: k x m, B: k x n)
///
/// **Accumulation-order guarantee (load-bearing).** Every output element is
/// produced by one accumulator that consumes its k terms in ascending-k
/// order, as a separate mul and add per term, exactly like the historical
/// naive triple loop. The kernels only reorganize *which elements* are
/// computed when (register tiles, column blocks, k panels, row-range
/// threading) — never the order of adds within an element, and never
/// partial-sum trees. Results are therefore bit-identical to the pre-kernel
/// implementation at every SIMD tier and thread count, which is what keeps
/// the checkpoint-resume property tests' bit-exact trajectories valid.
///
/// **One micro-kernel, three layouts.** All three variants run the same
/// register-tiled micro-kernel: op(B) is packed once per call into
/// zero-padded column panels, op(A) is read in place through strides, and
/// an mr x nr tile of C lives in SIMD registers while its k panel is swept.
/// The kernel is compiled per ISA tier (portable / AVX2 / AVX-512, selected
/// once at runtime via cpuid); wider vectors evaluate independent output
/// elements in parallel with the same IEEE mul + add sequence per element,
/// and FMA contraction is disabled for the whole kernel file because fused
/// rounding would break the guarantee above.
///
/// **Threading.** Passing a `ThreadPool` row-tiles the output across
/// workers; each output row is written by exactly one chunk, so threaded
/// results are bit-identical to serial (the same contract as
/// `Mlp::Infer(batch, pool)` relies on, pushed down to the kernel layer).
///
/// The destination must not alias either input. Outputs are reshaped with
/// `Matrix::Resize` (the allocation is reused while the element count is
/// unchanged) and the B panels live in a per-thread buffer, so
/// steady-state calls are allocation-free.

/// Called after each block of output rows [row_begin, row_end) is fully
/// computed, while the block is still cache-hot — the MLP fuses its
/// bias + activation epilogue through this. Under a pool, blocks complete
/// concurrently: the epilogue must touch only its own rows.
using RowEpilogue = std::function<void(size_t row_begin, size_t row_end)>;

/// C = A · B. `out` is zeroed and overwritten.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                ThreadPool* pool = nullptr);

/// C = A · Bᵀ with B stored row-major (n x k) — the MLP forward layout
/// (activations x weights), computed without materializing Bᵀ: the kernel
/// packs B straight into its per-thread panel buffer. `bt_scratch`, when
/// set, additionally receives Bᵀ (any shape; resized and reused) for
/// callers that want the transpose. `epilogue`, when set, runs per
/// completed row block.
void MatMulNTInto(const Matrix& a, const Matrix& b, Matrix* out,
                  ThreadPool* pool = nullptr,
                  const RowEpilogue& epilogue = nullptr,
                  Matrix* bt_scratch = nullptr);

/// C = Aᵀ · B with A stored row-major (k x m) — the MLP weight-gradient
/// layout (gradᵀ x activations), computed directly from the untransposed
/// operand (the micro-kernel reads Aᵀ through strides).
void MatMulTNInto(const Matrix& a, const Matrix& b, Matrix* out,
                  ThreadPool* pool = nullptr);

/// Value-returning conveniences for the Into forms above.
Matrix MatMulNT(const Matrix& a, const Matrix& b);
Matrix MatMulTN(const Matrix& a, const Matrix& b);

/// Writes the transpose of `m` into `out` (resized as needed).
void TransposeInto(const Matrix& m, Matrix* out);

/// Name of the SIMD tier selected at runtime: "avx512", "avx2", or
/// "portable". Recorded in BENCH_kernels.json so perf baselines are
/// comparable across machines.
const char* SimdTierName();

}  // namespace crowdrl::gemm

#endif  // CROWDRL_MATH_GEMM_H_
