#include "math/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "math/gemm_internal.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace crowdrl::gemm {

namespace {

// Per-variant flop-count histograms (2*m*k*n per call), registered
// eagerly so metrics snapshots always carry the gemm keys. Recording is
// one bounds scan + two relaxed atomics per GEMM call — noise next to
// even the smallest kernel — and no spans here: these entry points are
// far too hot for clock reads per call.
struct GemmMetrics {
  obs::Counter* calls;
  obs::Histogram* nn_flops;
  obs::Histogram* nt_flops;
  obs::Histogram* tn_flops;

  GemmMetrics() {
    auto& registry = obs::MetricsRegistry::Get();
    const std::vector<double> flop_bounds = {1e4, 1e5, 1e6, 1e7, 1e8, 1e9};
    calls = registry.GetCounter("crowdrl.gemm.calls");
    nn_flops = registry.GetHistogram("crowdrl.gemm.nn.flops", flop_bounds);
    nt_flops = registry.GetHistogram("crowdrl.gemm.nt.flops", flop_bounds);
    tn_flops = registry.GetHistogram("crowdrl.gemm.tn.flops", flop_bounds);
  }
};

GemmMetrics& Metrics() {
  static GemmMetrics* const metrics = new GemmMetrics();
  return *metrics;
}

[[maybe_unused]] const GemmMetrics& g_eager_gemm_metrics = Metrics();

inline void RecordGemmCall(obs::Histogram* flops, size_t m, size_t k,
                           size_t n) {
  if (!obs::Enabled()) return;
  Metrics().calls->Inc();
  flops->Record(2.0 * static_cast<double>(m) * static_cast<double>(k) *
                static_cast<double>(n));
}

// Depth of one k panel: a kKPanel x nr block of packed B (32 KB at the
// AVX-512 tier's nr = 16) stays L1-resident while every register tile of
// a row block sweeps it. The paper's shapes (k = 12 .. 208) fit in one
// panel; deeper products continue the same accumulators panel by panel.
constexpr size_t kKPanel = 256;

// Output rows per cache block: the block's A rows (64 x kKPanel doubles,
// 128 KB) stay L2-resident across the column blocks of a panel. Also the
// minimum rows per threaded chunk and the serial epilogue granularity.
constexpr size_t kRowBlock = 64;

// Target chunks per lane when a pool is supplied. Profiling the
// threadpool task_wait_us/task_run_us histograms at scoring batch shapes
// (81920 x 12 features) showed fixed 64-row chunks produce 1280 chunks —
// each so short that dispatch wake-up latency dominates run time and the
// 4-thread speedup collapses to ~1.07x. Sizing the grain so each lane
// claims ~4 chunks keeps claim overhead negligible while still load
// balancing; because every chunk computes its rows independently with the
// same per-element ascending-k order, grain size never changes bits.
constexpr size_t kChunksPerLane = 4;

// ---------------------------------------------------------------------------
// Register-tiled micro-kernel.
//
// A tile holds an MR x (NV vectors) block of C in SIMD registers and
// sweeps its k panel in ascending order: per t, one broadcast A element
// per row times one packed B row, as a separate IEEE mul and add per
// element (vectorization runs across independent output columns only).
// The templates below are stamped out once per ISA tier by inlining them
// into the target-attributed Panel* functions; gemm.cc is compiled with
// -ffp-contract=off so no tier can fuse the mul and add into an FMA, which
// rounds once instead of twice. Every tier therefore produces the bits of
// the scalar reference loop.
// ---------------------------------------------------------------------------

#define CROWDRL_GEMM_INLINE inline __attribute__((always_inline))

typedef double Vec2 __attribute__((vector_size(16)));
typedef double Vec4 __attribute__((vector_size(32)));
typedef double Vec8 __attribute__((vector_size(64)));

template <typename V>
constexpr size_t kLanes = sizeof(V) / sizeof(double);

// Loads/stores the first `count` columns of one vector (zero-filled past
// them on load), so column tails never touch memory past the row's end.
template <typename V>
CROWDRL_GEMM_INLINE void LoadCols(const double* src, size_t count, V* v) {
  if (count >= kLanes<V>) {
    std::memcpy(v, src, sizeof(V));
  } else {
    *v = V{};
    std::memcpy(v, src, count * sizeof(double));
  }
}

template <typename V>
CROWDRL_GEMM_INLINE void StoreCols(const V& v, size_t count, double* dst) {
  std::memcpy(dst, &v, std::min(count, kLanes<V>) * sizeof(double));
}

struct TileArgs {
  const double* a;   // A(tile's first row, k0)
  size_t a_rs;       // A element (i, t) sits at a[i * a_rs + t * a_cs]
  size_t a_cs;
  const double* bp;  // packed B block: kc rows of the tier's nr doubles
  size_t kc;
  double* c;         // C(tile's first row, block's first column)
  size_t ldc;
  size_t cols;       // valid columns in this block (<= the tier's nr)
  bool accumulate;
};

// C[MR x cols] (+)= A[MR x kc] · Bp[kc x cols]. NVP is the tier's panel
// width in vectors (the packed row stride); NV <= NVP vectors are computed.
template <typename V, int MR, int NV, int NVP>
CROWDRL_GEMM_INLINE void Tile(const TileArgs& t) {
  constexpr size_t kW = kLanes<V>;
  constexpr size_t kStride = NVP * kW;
  V acc[MR][NV];
#pragma GCC unroll 16
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      if (t.accumulate) {
        LoadCols(t.c + r * t.ldc + v * kW, t.cols - v * kW, &acc[r][v]);
      } else {
        acc[r][v] = V{};
      }
    }
  }
  const double* a = t.a;
  const double* bp = t.bp;
  for (size_t k = 0; k < t.kc; ++k, a += t.a_cs, bp += kStride) {
    V b[NV];
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) std::memcpy(&b[v], bp + v * kW, sizeof(V));
#pragma GCC unroll 16
    for (int r = 0; r < MR; ++r) {
      const double x = a[r * t.a_rs];
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) acc[r][v] = acc[r][v] + x * b[v];
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      StoreCols(acc[r][v], t.cols - v * kW, t.c + r * t.ldc + v * kW);
    }
  }
}

// Tail dispatch: the tile with `nv` <= NV column vectors ...
template <typename V, int MR, int NV, int NVP>
CROWDRL_GEMM_INLINE void TileCols(size_t nv, const TileArgs& t) {
  if constexpr (NV > 1) {
    if (nv < NV) {
      TileCols<V, MR, NV - 1, NVP>(nv, t);
      return;
    }
  }
  Tile<V, MR, NV, NVP>(t);
}

// ... and with `mr` <= MR rows.
template <typename V, int MR, int NVP>
CROWDRL_GEMM_INLINE void TileRows(size_t mr, size_t nv, const TileArgs& t) {
  if constexpr (MR > 1) {
    if (mr < MR) {
      TileRows<V, MR - 1, NVP>(mr, nv, t);
      return;
    }
  }
  TileCols<V, MR, NVP, NVP>(nv, t);
}

// One k panel over a row block: column blocks outer (each packed block is
// reused by every row tile), MR-row tiles inner, tails via TileRows.
template <typename V, int MR, int NVP>
CROWDRL_GEMM_INLINE void Panel(const internal::PanelArgs& p) {
  constexpr size_t kW = kLanes<V>;
  constexpr size_t kNr = NVP * kW;
  const double* bp = p.packed;
  for (size_t j0 = 0; j0 < p.n; j0 += kNr, bp += p.kc * kNr) {
    TileArgs t{p.a, p.a_rs, p.a_cs, bp, p.kc, p.c + j0, p.n,
               std::min(kNr, p.n - j0), p.accumulate};
    const size_t nv = (t.cols + kW - 1) / kW;
    size_t i = 0;
    for (; i + MR <= p.rows; i += MR) {
      TileCols<V, MR, NVP, NVP>(nv, t);
      t.a += MR * p.a_rs;
      t.c += MR * p.n;
    }
    if (i < p.rows) TileRows<V, MR, NVP>(p.rows - i, nv, t);
  }
}

// Register budgets: MR x NV accumulators + NV B vectors + a broadcast fit
// the 16 xmm/ymm registers of SSE2/AVX2 and the 32 zmm of AVX-512.
void PanelPortable(const internal::PanelArgs& p) { Panel<Vec2, 4, 2>(p); }

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define CROWDRL_GEMM_X86_DISPATCH 1

__attribute__((target("avx2"))) void PanelAvx2(const internal::PanelArgs& p) {
  Panel<Vec4, 4, 2>(p);
}

__attribute__((target("avx512f"))) void PanelAvx512(
    const internal::PanelArgs& p) {
  Panel<Vec8, 8, 2>(p);
}
#endif  // x86-64 GCC

#undef CROWDRL_GEMM_INLINE

constexpr internal::Tier kPortableTier = {"portable", 4, 4, PanelPortable};
#ifdef CROWDRL_GEMM_X86_DISPATCH
constexpr internal::Tier kAvx2Tier = {"avx2", 4, 8, PanelAvx2};
constexpr internal::Tier kAvx512Tier = {"avx512", 8, 16, PanelAvx512};
#endif

// The highest tier this CPU runs. Probed under the same guard that compiles
// the x86 tiers, so a tier is only returned when its kernel exists.
internal::SimdTier DetectSimdTier() {
#ifdef CROWDRL_GEMM_X86_DISPATCH
  if (__builtin_cpu_supports("avx512f")) return internal::SimdTier::kAvx512;
  if (__builtin_cpu_supports("avx2")) return internal::SimdTier::kAvx2;
#endif
  return internal::SimdTier::kPortable;
}

const internal::Tier& ActiveTier() {
  static const internal::Tier* const tier =
      internal::CompiledTier(internal::ActiveSimdTier());
  return *tier;
}

// A strided view of an m x k (or k x n) operand: element (i, t) sits at
// data[i * rs + t * cs]. Lets one code path read A and Aᵀ, B and Bᵀ in
// place.
struct Operand {
  const double* data;
  size_t rs;
  size_t cs;
};

// Packs op(B) (k x n) into k panels of kKPanel rows; a panel holds
// ceil(n / nr) column blocks of kc x nr doubles, zero-padded past column
// n, so a tile reads its B rows contiguously.
void PackB(Operand b, size_t k, size_t n, size_t nr,
           std::vector<double>* packed) {
  const size_t blocks = (n + nr - 1) / nr;
  packed->resize(k * blocks * nr);
  double* dst = packed->data();
  for (size_t k0 = 0; k0 < k; k0 += kKPanel) {
    const size_t k1 = std::min(k0 + kKPanel, k);
    for (size_t j0 = 0; j0 < n; j0 += nr) {
      const size_t cols = std::min(nr, n - j0);
      for (size_t t = k0; t < k1; ++t, dst += nr) {
        const double* src = b.data + t * b.rs + j0 * b.cs;
        if (b.cs == 1) {
          std::copy(src, src + cols, dst);
        } else {
          for (size_t j = 0; j < cols; ++j) dst[j] = src[j * b.cs];
        }
        std::fill(dst + cols, dst + nr, 0.0);
      }
    }
  }
}

// C rows [r0, r1) of op(A) · op(B) from op(B) packed by PackB: row blocks
// outer, k panels ascending inside, so every element's terms arrive in
// ascending k.
void MultiplyRows(const internal::Tier& tier, Operand a, size_t k,
                  const double* packed, Matrix* out, size_t r0, size_t r1) {
  const size_t n = out->cols();
  const size_t padded_n = (n + tier.nr - 1) / tier.nr * tier.nr;
  for (size_t i0 = r0; i0 < r1; i0 += kRowBlock) {
    const size_t rows = std::min(kRowBlock, r1 - i0);
    for (size_t k0 = 0; k0 < k; k0 += kKPanel) {
      tier.panel({a.data + i0 * a.rs + k0 * a.cs, a.rs, a.cs,
                  packed + k0 * padded_n, out->Row(i0), rows,
                  std::min(kKPanel, k - k0), n, k0 > 0});
    }
  }
}

// Runs `body(r0, r1)` over [0, rows) in row chunks — on the pool when one
// is supplied and the range is worth splitting, serially otherwise. The
// threaded grain adapts to the batch: at least kRowBlock rows, at most
// rows / (lanes * kChunksPerLane), so huge batches get a few large chunks
// per lane instead of thousands of tiny ones. Chunks write disjoint rows,
// so neither threading nor grain choice ever changes results.
void RunRowChunks(ThreadPool* pool, size_t rows,
                  const std::function<void(size_t, size_t)>& body) {
  if (pool != nullptr && rows > kRowBlock) {
    const size_t lanes = static_cast<size_t>(pool->num_threads());
    const size_t grain =
        std::max(kRowBlock, rows / (lanes * kChunksPerLane));
    pool->ParallelFor(0, rows, grain, body);
    return;
  }
  for (size_t r0 = 0; r0 < rows; r0 += kRowBlock) {
    body(r0, std::min(r0 + kRowBlock, rows));
  }
}

// C = op(A) · op(B) for every layout, then `epilogue` per completed row
// chunk: B is packed once per call (into a per-thread buffer the row
// chunks share), A is read in place.
void Dispatch(const internal::Tier& tier, internal::Layout layout,
              const Matrix& a, const Matrix& b, Matrix* out,
              ThreadPool* pool, const RowEpilogue& epilogue) {
  const bool tn = layout == internal::Layout::kTN;
  const bool nt = layout == internal::Layout::kNT;
  const size_t m = tn ? a.cols() : a.rows();
  const size_t k = tn ? a.rows() : a.cols();
  const size_t n = nt ? b.rows() : b.cols();
  const Operand op_a = tn ? Operand{a.data().data(), 1, m}
                          : Operand{a.data().data(), k, 1};
  const Operand op_b = nt ? Operand{b.data().data(), 1, k}
                          : Operand{b.data().data(), n, 1};
  out->Resize(m, n);
  thread_local std::vector<double> local_packed;
  if (k == 0) {
    out->Fill(0.0);
  } else {
    PackB(op_b, k, n, tier.nr, &local_packed);
  }
  const double* packed = local_packed.data();
  RunRowChunks(pool, m, [&](size_t r0, size_t r1) {
    if (k > 0) MultiplyRows(tier, op_a, k, packed, out, r0, r1);
    if (epilogue) epilogue(r0, r1);
  });
}

}  // namespace

void TransposeInto(const Matrix& m, Matrix* out) {
  CROWDRL_CHECK(out != nullptr);
  CROWDRL_DCHECK(out != &m);
  out->Resize(m.cols(), m.rows());
  const size_t rows = m.rows();
  const size_t cols = m.cols();
  for (size_t r = 0; r < rows; ++r) {
    const double* src = m.Row(r);
    double* dst = out->data().data() + r;
    for (size_t c = 0; c < cols; ++c) dst[c * rows] = src[c];
  }
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                ThreadPool* pool) {
  CROWDRL_CHECK(out != nullptr);
  CROWDRL_CHECK(a.cols() == b.rows())
      << "matmul shape mismatch: " << a.cols() << " vs " << b.rows();
  CROWDRL_DCHECK(out != &a && out != &b);
  RecordGemmCall(Metrics().nn_flops, a.rows(), a.cols(), b.cols());
  Dispatch(ActiveTier(), internal::Layout::kNN, a, b, out, pool, nullptr);
}

void MatMulNTInto(const Matrix& a, const Matrix& b, Matrix* out,
                  ThreadPool* pool, const RowEpilogue& epilogue) {
  CROWDRL_CHECK(out != nullptr);
  CROWDRL_CHECK(a.cols() == b.cols())
      << "matmul shape mismatch (NT): " << a.cols() << " vs " << b.cols();
  CROWDRL_DCHECK(out != &a && out != &b);
  RecordGemmCall(Metrics().nt_flops, a.rows(), a.cols(), b.rows());
  Dispatch(ActiveTier(), internal::Layout::kNT, a, b, out, pool, epilogue);
}

void MatMulTNInto(const Matrix& a, const Matrix& b, Matrix* out,
                  ThreadPool* pool) {
  CROWDRL_CHECK(out != nullptr);
  CROWDRL_CHECK(a.rows() == b.rows())
      << "matmul shape mismatch (TN): " << a.rows() << " vs " << b.rows();
  CROWDRL_DCHECK(out != &a && out != &b);
  RecordGemmCall(Metrics().tn_flops, a.cols(), a.rows(), b.cols());
  Dispatch(ActiveTier(), internal::Layout::kTN, a, b, out, pool, nullptr);
}

Matrix MatMulNT(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulNTInto(a, b, &out);
  return out;
}

Matrix MatMulTN(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulTNInto(a, b, &out);
  return out;
}

const char* SimdTierName() { return ActiveTier().name; }

namespace internal {

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kAvx512:
      return "avx512";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kPortable:
      break;
  }
  return "portable";
}

SimdTier ActiveSimdTier() {
  static const SimdTier tier = DetectSimdTier();
  return tier;
}

const Tier* CompiledTier(SimdTier tier) {
#ifdef CROWDRL_GEMM_X86_DISPATCH
  if (tier == SimdTier::kAvx512) return &kAvx512Tier;
  if (tier == SimdTier::kAvx2) return &kAvx2Tier;
#endif
  return tier == SimdTier::kPortable ? &kPortableTier : nullptr;
}

void MatMulWithTier(const Tier& tier, Layout layout, const Matrix& a,
                    const Matrix& b, Matrix* out) {
  Dispatch(tier, layout, a, b, out, nullptr, nullptr);
}

}  // namespace internal

}  // namespace crowdrl::gemm
