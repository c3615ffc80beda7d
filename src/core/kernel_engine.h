// Kernel engine: the min-plus microkernel behind every dense kernel (DESIGN.md
// §9, §12). minplus_accum() dispatches through the engine, so every dense
// step — OOC FW panels, boundary dist4 chains, the in-core baseline — runs
// the configured variant: `tensor`, the vector kernel over a lane-major
// packed k-panel, or `naive`, the scalar reference the tests compare against.
// Both are bit-identical: a cell's result is the min over the same candidate
// set, and integer min is order-independent.
#pragma once

#include <cstddef>
#include <string>

#include "util/common.h"

namespace gapsp::core {

enum class KernelVariant {
  kNaive,   ///< scalar r-k-c triple loop (the reference oracle)
  kTensor,  ///< 8×16 lane-vector register tile over a packed k-panel
};

/// Number of variants; kernel_variant_index() maps into [0, this).
inline constexpr int kNumKernelVariants = 2;

const char* kernel_variant_name(KernelVariant v);

/// Dense index of a variant (kNaive = 0, kTensor = 1). Used to address
/// KernelTuning::seconds_per_op.
int kernel_variant_index(KernelVariant v);

/// Parses "naive" | "tensor"; throws on anything else. Both the CLI and the
/// bench route their --kernel-variant values through here so an unknown name
/// is an error everywhere, never a silent skip.
KernelVariant parse_kernel_variant(const std::string& name);

/// Process-wide kernel engine configuration. `threads` is the grid-parallel
/// execution width handed to sim::Device::set_kernel_threads by
/// configure_kernels (0 = whole pool, 1 = serial); it never changes results
/// or the simulated timeline, only host wall-clock.
struct KernelConfig {
  KernelVariant variant = KernelVariant::kTensor;
  int threads = 0;
};

void set_kernel_config(const KernelConfig& cfg);
KernelConfig kernel_config();

/// The variant minplus_accum runs: the configured one.
KernelVariant resolved_kernel_variant();

/// Host-measured per-variant timings on a 128³ FW-shaped working set:
/// seconds_per_op[kernel_variant_index(v)] is the best-of-3 host seconds
/// divided by the minplus_ops() of that shape — the per-element constant the
/// cost model scales by (DESIGN.md §12). Purely host wall-clock; the
/// simulated timeline never depends on it.
struct KernelTuning {
  double seconds_per_op[kNumKernelVariants] = {};
};

/// Returns the tuning table, measuring it first if this process has not yet
/// (lazy, thread-safe, once per process).
KernelTuning kernel_tuning();

/// Measured speed of `v` relative to kNaive on the tuning working set
/// (e.g. 2.0 = half the host time per element). 1.0 for kNaive by
/// definition.
double kernel_variant_rel_speed(KernelVariant v);

// ---- vector-lane backend introspection (simd_lane.h) ----

/// ISA the tensor kernel was compiled against ("avx2" | "neon" | "autovec")
/// and its lane width in dist_t elements.
const char* simd_lane_isa();
int simd_lane_width();
/// True when the tensor kernel's TU was built with AVX2 code generation —
/// the dispatcher then requires runtime AVX2 support (and falls back to the
/// naive kernel, bit-identically, when the CPU lacks it).
bool simd_kernels_built_avx2();

// ---- variant-explicit kernels (both compute C = min(C, A ⊗ B)) ----

void minplus_accum_naive(dist_t* c, std::size_t ldc, const dist_t* a,
                         std::size_t lda, const dist_t* b, std::size_t ldb,
                         vidx_t nr, vidx_t nk, vidx_t nc);

/// Fused-tile layout kernel (simd_lane.h backend): packs each k-panel of B
/// into contiguous lane-major tiles and runs the batched vector min-plus
/// over them. Requires operands in [0, kInf] — the invariant every distance
/// matrix here satisfies.
void minplus_accum_tensor(dist_t* c, std::size_t ldc, const dist_t* a,
                          std::size_t lda, const dist_t* b, std::size_t ldb,
                          vidx_t nr, vidx_t nk, vidx_t nc);

/// Runs one explicit variant.
void minplus_accum_variant(KernelVariant v, dist_t* c, std::size_t ldc,
                           const dist_t* a, std::size_t lda, const dist_t* b,
                           std::size_t ldb, vidx_t nr, vidx_t nk, vidx_t nc);

namespace detail {

/// Backend entry point defined in kernel_engine_simd.cpp (possibly built
/// with AVX2 codegen). Call only through minplus_accum_tensor, which applies
/// the runtime CPU gate.
void minplus_accum_tensor_impl(dist_t* c, std::size_t ldc, const dist_t* a,
                               std::size_t lda, const dist_t* b,
                               std::size_t ldb, vidx_t nr, vidx_t nk,
                               vidx_t nc);

}  // namespace detail

}  // namespace gapsp::core
