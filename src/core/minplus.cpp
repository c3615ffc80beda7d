#include "core/minplus.h"

#include <algorithm>

#include "core/kernel_engine.h"

namespace gapsp::core {

void minplus_accum(dist_t* c, std::size_t ldc, const dist_t* a,
                   std::size_t lda, const dist_t* b, std::size_t ldb,
                   vidx_t nr, vidx_t nk, vidx_t nc) {
  // Dispatches through the kernel engine: the configured microkernel variant
  // runs here. Both variants are bit-identical — they take the min over the
  // same candidate set and integer min is order-independent — so callers
  // never observe which one executed.
  minplus_accum_variant(resolved_kernel_variant(), c, ldc, a, lda, b, ldb,
                        nr, nk, nc);
}

void fw_inplace(dist_t* m, std::size_t ld, vidx_t n) {
  for (vidx_t k = 0; k < n; ++k) {
    const dist_t* __restrict krow = m + static_cast<std::size_t>(k) * ld;
    for (vidx_t i = 0; i < n; ++i) {
      dist_t* __restrict irow = m + static_cast<std::size_t>(i) * ld;
      const dist_t dik = irow[k];
      if (dik >= kInf) continue;
      for (vidx_t j = 0; j < n; ++j) {
        const dist_t cand = dik + krow[j];
        irow[j] = std::min(irow[j], cand);
      }
    }
  }
}

}  // namespace gapsp::core
