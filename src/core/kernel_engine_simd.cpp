// Vectorized min-plus microkernel (DESIGN.md §12): the `tensor` fused-tile-
// layout kernel, written against the portable lane API in simd_lane.h.
// src/core/CMakeLists.txt compiles this translation unit with -mavx2 when the
// compiler supports it, so the lane backend here may be AVX2 even though the
// rest of the library is baseline; kernel_engine.cpp gates every call behind
// a runtime CPU check and falls back to the scalar naive kernel
// (bit-identical by contract) on hosts the build outruns. Keep this TU free
// of global initializers — nothing in it may execute before the gate.
//
// The kernel requires operands in [0, kInf] (every distance matrix in this
// system satisfies that: weights are non-negative and sat_add clamps at
// kInf). Under that precondition kInf needs no per-lane branch: a candidate
// through an unreachable entry sums to >= kInf without wrapping (kInf is
// INT32_MAX/4, so a+b <= 2·kInf fits comfortably), and the lane-wise min
// against an accumulator that never exceeds kInf discards it — exactly what
// the naive kernel's `aval >= kInf` skip does, computed branch-free.
#include <algorithm>
#include <cstring>
#include <vector>

#include "core/kernel_engine.h"
#include "core/simd_lane.h"

namespace gapsp::core {
namespace {

/// Depth of a packed k-panel, which is also the k-strip granularity of the
/// hoisted liveness skip (all-kInf strips cost one scan).
constexpr vidx_t kSimdKTile = 64;
/// Register tile: 8 output rows × 16 output columns held in lane vectors
/// across a whole k-panel (C read and written once per tile and panel).
constexpr int kSimdRows = 8;
constexpr int kSimdCols = 16;
constexpr int kColVecs = kSimdCols / lanes::kWidth;
static_assert(kSimdCols % lanes::kWidth == 0,
              "register tile must be a whole number of lanes");

/// True when any entry of the rows×(k1-k0) strip of A is reachable; an
/// all-kInf strip contributes no candidate below kInf, so the caller skips
/// the whole (row-block, k-tile) at O(strip) cost instead of O(strip · nc).
bool strip_live(const dist_t* a, std::size_t lda, vidx_t r0, int rows,
                vidx_t k0, vidx_t k1) {
  for (int i = 0; i < rows; ++i) {
    const dist_t* arow = a + static_cast<std::size_t>(r0 + i) * lda;
    for (vidx_t k = k0; k < k1; ++k) {
      if (arow[k] < kInf) return true;
    }
  }
  return false;
}

}  // namespace

bool simd_kernels_built_avx2() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

const char* simd_lane_isa() { return lanes::kIsa; }
int simd_lane_width() { return lanes::kWidth; }

namespace detail {

void minplus_accum_tensor_impl(dist_t* c, std::size_t ldc, const dist_t* a,
                               std::size_t lda, const dist_t* b,
                               std::size_t ldb, vidx_t nr, vidx_t nk,
                               vidx_t nc) {
  using lanes::VI32;
  const vidx_t c_main = nc - nc % kSimdCols;
  const vidx_t r_main = nr - nr % kSimdRows;
  const vidx_t num_ctiles = c_main / kSimdCols;

  // Fused-tile B layout: per k-panel, the panel is repacked into contiguous
  // lane-major tiles — tile t holds its 16 columns for every local k back to
  // back (one cache line per k at dist_t=4B), so the inner loop streams the
  // pack buffer sequentially instead of striding ldb between k's. This is
  // the 3D-tensor recasting of the panel update: a batch of (k × 16) tiles
  // swept by the same register-tile min-plus. The pack cost (read the panel
  // once) amortizes over all nr rows.
  thread_local std::vector<dist_t> pack;

  for (vidx_t k0 = 0; k0 < nk; k0 += kSimdKTile) {
    const vidx_t k1 = std::min<vidx_t>(nk, k0 + kSimdKTile);
    const vidx_t kt = k1 - k0;
    if (num_ctiles > 0) {
      pack.resize(static_cast<std::size_t>(num_ctiles) * kt * kSimdCols);
      for (vidx_t k = 0; k < kt; ++k) {
        const dist_t* brow = b + static_cast<std::size_t>(k0 + k) * ldb;
        for (vidx_t t = 0; t < num_ctiles; ++t) {
          std::memcpy(pack.data() +
                          (static_cast<std::size_t>(t) * kt + k) * kSimdCols,
                      brow + static_cast<std::size_t>(t) * kSimdCols,
                      sizeof(dist_t) * kSimdCols);
        }
      }
    }
    for (vidx_t r = 0; r < r_main; r += kSimdRows) {
      if (!strip_live(a, lda, r, kSimdRows, k0, k1)) continue;
      for (vidx_t t = 0; t < num_ctiles; ++t) {
        const dist_t* ptile =
            pack.data() + static_cast<std::size_t>(t) * kt * kSimdCols;
        dist_t* ctile =
            c + static_cast<std::size_t>(r) * ldc + t * kSimdCols;
        VI32 acc[kSimdRows][kColVecs];
        for (int i = 0; i < kSimdRows; ++i) {
          for (int j = 0; j < kColVecs; ++j) {
            acc[i][j] = lanes::load(ctile + static_cast<std::size_t>(i) * ldc +
                                    j * lanes::kWidth);
          }
        }
        for (vidx_t k = 0; k < kt; ++k) {
          const dist_t* brow = ptile + static_cast<std::size_t>(k) * kSimdCols;
          for (int j = 0; j < kColVecs; ++j) {
            const VI32 bv = lanes::load(brow + j * lanes::kWidth);
            for (int i = 0; i < kSimdRows; ++i) {
              const VI32 av = lanes::splat(
                  a[static_cast<std::size_t>(r + i) * lda + k0 + k]);
              acc[i][j] = lanes::vmin(acc[i][j], lanes::add(av, bv));
            }
          }
        }
        for (int i = 0; i < kSimdRows; ++i) {
          for (int j = 0; j < kColVecs; ++j) {
            lanes::store(ctile + static_cast<std::size_t>(i) * ldc +
                             j * lanes::kWidth,
                         acc[i][j]);
          }
        }
      }
    }
  }
  // Ragged tails, full k depth in one pass: columns past the last whole tile
  // for the blocked rows, then the leftover rows across the full width.
  minplus_accum_naive(c + c_main, ldc, a, lda, b + c_main, ldb, r_main, nk,
                      nc - c_main);
  minplus_accum_naive(c + static_cast<std::size_t>(r_main) * ldc, ldc,
                      a + static_cast<std::size_t>(r_main) * lda, lda, b, ldb,
                      nr - r_main, nk, nc);
}

}  // namespace detail

}  // namespace gapsp::core
