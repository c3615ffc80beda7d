// Dense min-plus (tropical) matrix kernels — the functional bodies of the
// simulator's regular "GPU" kernels. All matrices are row-major with an
// explicit leading dimension.
#pragma once

#include <cstddef>

#include "util/common.h"

namespace gapsp::core {

/// C = min(C, A ⊗ B) where ⊗ is min-plus product.
/// C is nr×nc (ldc), A is nr×nk (lda), B is nk×nc (ldb).
/// Dispatches to the kernel-engine variant selected by set_kernel_config
/// (see core/kernel_engine.h); both variants are bit-identical.
void minplus_accum(dist_t* c, std::size_t ldc, const dist_t* a,
                   std::size_t lda, const dist_t* b, std::size_t ldb,
                   vidx_t nr, vidx_t nk, vidx_t nc);

/// In-place Floyd–Warshall on an n×n matrix (intermediate vertices = all n
/// local indices). Used for the smallest diagonal sub-tiles.
void fw_inplace(dist_t* m, std::size_t ld, vidx_t n);

/// Floyd–Warshall panel update with external diagonal block: for every local
/// k in [0, nk): row-panel form  P = min(P, D[:,k] row-broadcast ...).
/// Computes P (nk×nc) = min(P, D ⊗ P) *iterated in k order*, where D (nk×nk)
/// is the already-closed diagonal block. Because D is transitively closed a
/// single min-plus accumulation is sufficient; this helper exists so panel
/// updates read naturally at call sites.
inline void fw_row_panel(dist_t* p, std::size_t ldp, const dist_t* d,
                         std::size_t ldd, vidx_t nk, vidx_t nc) {
  minplus_accum(p, ldp, d, ldd, p, ldp, nk, nk, nc);
}

/// Column-panel form: P (nr×nk) = min(P, P ⊗ D) with closed diagonal D.
inline void fw_col_panel(dist_t* p, std::size_t ldp, const dist_t* d,
                         std::size_t ldd, vidx_t nr, vidx_t nk) {
  minplus_accum(p, ldp, p, ldp, d, ldd, nr, nk, nk);
}

/// Number of scalar operations of a min-plus product (add + compare per
/// inner element) — used to build kernel profiles.
inline double minplus_ops(vidx_t nr, vidx_t nk, vidx_t nc) {
  return 2.0 * static_cast<double>(nr) * static_cast<double>(nk) *
         static_cast<double>(nc);
}

/// Approximate device-memory traffic of a tiled min-plus product with square
/// shared-memory tiles of side `tile` (each operand tile loaded once per
/// tile-step, output written once).
inline double minplus_bytes(vidx_t nr, vidx_t nk, vidx_t nc, int tile) {
  const double steps = static_cast<double>((nk + tile - 1) / tile);
  return sizeof(dist_t) *
         (steps * (static_cast<double>(nr) * tile + static_cast<double>(nc) * tile) +
          2.0 * static_cast<double>(nr) * static_cast<double>(nc));
}

}  // namespace gapsp::core
