#include "core/kernel_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <vector>

#include "core/minplus.h"
#include "util/rng.h"

namespace gapsp::core {
namespace {

std::atomic<KernelVariant> g_variant{KernelVariant::kTensor};
std::atomic<int> g_threads{0};

/// True when the tensor entry point may run the vector TU: either it was
/// built without AVX2 codegen (NEON/autovec — always safe), or the CPU we
/// actually landed on supports AVX2. Checked once, outside the AVX2 TU.
bool simd_runtime_ok() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  static const bool ok =
      !simd_kernels_built_avx2() || __builtin_cpu_supports("avx2");
#else
  static const bool ok = true;
#endif
  return ok;
}

KernelTuning measure_kernel_tuning() {
  // FW-shaped working set: 128³ is large enough to expose the cache/register
  // behaviour and small enough (~2 ms per variant) to pay once per process.
  constexpr vidx_t n = 128;
  const std::size_t elems = static_cast<std::size_t>(n) * n;
  std::vector<dist_t> a(elems), b(elems), c0(elems), c(elems);
  Rng rng(0x9e3779b9u);
  for (auto& x : a) x = static_cast<dist_t>(rng.next_in(1, 1000));
  for (auto& x : b) x = static_cast<dist_t>(rng.next_in(1, 1000));
  for (auto& x : c0) x = static_cast<dist_t>(rng.next_in(500, 2000));

  const double ops = minplus_ops(n, n, n);
  KernelTuning tuning;
  for (const KernelVariant v : {KernelVariant::kNaive, KernelVariant::kTensor}) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      c = c0;
      const auto t0 = std::chrono::steady_clock::now();
      minplus_accum_variant(v, c.data(), n, a.data(), n, b.data(), n, n, n,
                            n);
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    tuning.seconds_per_op[kernel_variant_index(v)] = best / ops;
  }
  return tuning;
}

}  // namespace

const char* kernel_variant_name(KernelVariant v) {
  switch (v) {
    case KernelVariant::kNaive:
      return "naive";
    case KernelVariant::kTensor:
      return "tensor";
  }
  return "?";
}

int kernel_variant_index(KernelVariant v) {
  return v == KernelVariant::kNaive ? 0 : 1;
}

KernelVariant parse_kernel_variant(const std::string& name) {
  if (name == "naive") return KernelVariant::kNaive;
  if (name == "tensor") return KernelVariant::kTensor;
  throw Error("unknown kernel variant: " + name + " (want naive | tensor)");
}

void set_kernel_config(const KernelConfig& cfg) {
  g_variant.store(cfg.variant, std::memory_order_relaxed);
  g_threads.store(cfg.threads, std::memory_order_relaxed);
}

KernelConfig kernel_config() {
  KernelConfig cfg;
  cfg.variant = g_variant.load(std::memory_order_relaxed);
  cfg.threads = g_threads.load(std::memory_order_relaxed);
  return cfg;
}

KernelVariant resolved_kernel_variant() {
  return g_variant.load(std::memory_order_relaxed);
}

KernelTuning kernel_tuning() {
  static const KernelTuning tuning = measure_kernel_tuning();
  return tuning;
}

double kernel_variant_rel_speed(KernelVariant v) {
  if (v == KernelVariant::kNaive) return 1.0;  // the reference
  const KernelTuning tuning = kernel_tuning();
  const double naive = tuning.seconds_per_op[0];
  const double mine = tuning.seconds_per_op[kernel_variant_index(v)];
  if (!(naive > 0.0) || !(mine > 0.0)) return 1.0;
  return naive / mine;
}

void minplus_accum_naive(dist_t* c, std::size_t ldc, const dist_t* a,
                         std::size_t lda, const dist_t* b, std::size_t ldb,
                         vidx_t nr, vidx_t nk, vidx_t nc) {
  // The tensor kernel's ragged tails land here, often zero columns wide:
  // return before scanning A for nothing.
  if (nr <= 0 || nk <= 0 || nc <= 0) return;
  // r-k-c loop order: A[r][k] is hoisted, B row k and C row r stream
  // sequentially — cache-friendly and auto-vectorizable.
  for (vidx_t r = 0; r < nr; ++r) {
    dist_t* __restrict crow = c + static_cast<std::size_t>(r) * ldc;
    const dist_t* __restrict arow = a + static_cast<std::size_t>(r) * lda;
    for (vidx_t k = 0; k < nk; ++k) {
      const dist_t aval = arow[k];
      if (aval >= kInf) continue;
      const dist_t* __restrict brow = b + static_cast<std::size_t>(k) * ldb;
      for (vidx_t col = 0; col < nc; ++col) {
        // brow[col] may be kInf: aval + kInf stays >= kInf and the min is a
        // no-op because crow is never above kInf. Guarded by the sentinel
        // headroom of kInf (max/4), so no overflow check is needed here.
        const dist_t cand = aval + brow[col];
        crow[col] = std::min(crow[col], cand);
      }
    }
  }
}

void minplus_accum_tensor(dist_t* c, std::size_t ldc, const dist_t* a,
                          std::size_t lda, const dist_t* b, std::size_t ldb,
                          vidx_t nr, vidx_t nk, vidx_t nc) {
  // Bit-identical fallback when the binary's vector TU outruns this CPU:
  // both variants compute the same entrywise min, so swapping kernels here
  // changes host wall-clock only.
  if (!simd_runtime_ok()) {
    minplus_accum_naive(c, ldc, a, lda, b, ldb, nr, nk, nc);
    return;
  }
  detail::minplus_accum_tensor_impl(c, ldc, a, lda, b, ldb, nr, nk, nc);
}

void minplus_accum_variant(KernelVariant v, dist_t* c, std::size_t ldc,
                           const dist_t* a, std::size_t lda, const dist_t* b,
                           std::size_t ldb, vidx_t nr, vidx_t nk, vidx_t nc) {
  if (nr <= 0 || nk <= 0 || nc <= 0) return;
  if (v == KernelVariant::kNaive) {
    minplus_accum_naive(c, ldc, a, lda, b, ldb, nr, nk, nc);
  } else {
    minplus_accum_tensor(c, ldc, a, lda, b, ldb, nr, nk, nc);
  }
}

}  // namespace gapsp::core
