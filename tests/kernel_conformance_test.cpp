// Differential kernel-conformance harness: the tensor min-plus microkernel
// must be bit-identical to kNaive — same distances for every cell, no
// tolerance — across a corpus chosen to hit the places vector kernels break: ragged tails at every blocking boundary,
// kInf-dense strips (the hoisted liveness skip must not change results),
// aliased closed-operand panel forms (the FW call sites), and plain directed
// asymmetry. The contract closes end-to-end with full solve_apsp parity,
// including under a chaos fault schedule: the variant may only move host
// wall-clock, never distances, the simulated timeline, or the fault/retry
// sequence.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/apsp.h"
#include "core/kernel_engine.h"
#include "core/minplus.h"
#include "graph/generators.h"
#include "test_util.h"
#include "util/rng.h"

namespace gapsp::core {
namespace {

using test::expect_store_matches_reference;
using test::tiny_device;

// Exercise the parallel grid path even on single-hardware-thread containers
// (must precede the first ThreadPool::global(); see kernel_engine_test.cpp).
[[maybe_unused]] const bool g_pool_env = [] {
  ::setenv("GAPSP_THREADS", "4", /*overwrite=*/0);
  return true;
}();

class KernelConformance : public ::testing::Test {
 protected:
  void TearDown() override { set_kernel_config(KernelConfig{}); }
};

std::vector<dist_t> random_matrix(vidx_t rows, vidx_t cols,
                                  std::uint64_t seed, double p_inf) {
  Rng rng(seed);
  std::vector<dist_t> m(static_cast<std::size_t>(rows) * cols);
  for (auto& x : m) {
    x = rng.next_bool(p_inf) ? kInf
                             : static_cast<dist_t>(rng.next_in(1, 1000));
  }
  return m;
}

/// Runs the tensor kernel against the naive oracle on one operand set and
/// asserts bit-identical output.
void expect_tensor_matches(const std::vector<dist_t>& a,
                               const std::vector<dist_t>& b,
                               const std::vector<dist_t>& c0, vidx_t nr,
                               vidx_t nk, vidx_t nc,
                               const std::string& what) {
  auto want = c0;
  minplus_accum_naive(want.data(), nc, a.data(), nk, b.data(), nc, nr, nk,
                      nc);
  auto got = c0;
  minplus_accum_tensor(got.data(), nc, a.data(), nk, b.data(), nc, nr, nk,
                       nc);
  ASSERT_EQ(got, want) << "tensor diverges on " << what << " (" << nr << "x"
                       << nk << "x" << nc << ")";
}

TEST_F(KernelConformance, RandomizedRaggedCorpus) {
  // Shapes straddle every blocking boundary in play: the 8-row / 16-column
  // vector register tile, the lane width and the 64-deep k-panel — plus
  // asymmetric nr/nk/nc so row, column and depth tails all appear,
  // separately and together. Random directed
  // weights are asymmetric by construction (d(i,j) independent of d(j,i)).
  const vidx_t sizes[] = {1, 2, 7, 8, 9, 15, 17, 31, 64, 65, 97};
  int case_no = 0;
  for (const vidx_t nr : sizes) {
    for (const vidx_t nk : {sizes[2], sizes[8], sizes[10]}) {
      for (const vidx_t nc : {sizes[0], sizes[5], sizes[9], sizes[10]}) {
        for (const double p_inf : {0.0, 0.4, 0.95}) {
          const std::uint64_t seed = 0xC0FFEEu + 7919u * ++case_no;
          expect_tensor_matches(
              random_matrix(nr, nk, seed, p_inf),
              random_matrix(nk, nc, seed + 1, p_inf),
              random_matrix(nr, nc, seed + 2, p_inf / 3), nr, nk, nc,
              "random corpus p_inf=" + std::to_string(p_inf));
        }
      }
    }
  }
}

TEST_F(KernelConformance, KInfDenseStrips) {
  // Whole (row-block × k-tile) strips of A dead, in several patterns: the
  // hoisted liveness skip must fire without ever changing a cell, including
  // when a strip is dead except for a single lane at its edge.
  const vidx_t nr = 80, nk = 192, nc = 80;
  for (const int pattern : {0, 1, 2, 3}) {
    auto a = random_matrix(nr, nk, 0xDEAD + pattern, 0.0);
    for (vidx_t r = 0; r < nr; ++r) {
      for (vidx_t k = 0; k < nk; ++k) {
        const vidx_t tile = k / 64;
        const bool dead =
            pattern == 0 ||                         // all strips dead
            (pattern == 1 && tile % 2 == 0) ||      // alternating tiles
            (pattern == 2 && r >= 32) ||            // dead row blocks
            (pattern == 3 && !(tile == 1 && r == 33 && k == 127));
        if (dead) a[static_cast<std::size_t>(r) * nk + k] = kInf;
      }
    }
    expect_tensor_matches(a, random_matrix(nk, nc, 0xBEEF, 0.2),
                              random_matrix(nr, nc, 0xF00D, 0.5), nr, nk, nc,
                              "kInf strips pattern " + std::to_string(pattern));
  }
}

TEST_F(KernelConformance, AliasedClosedOperandForms) {
  // The FW panel forms run the product in place: row-panel P = min(P, D⊗P)
  // (C aliases B) and col-panel P = min(P, P⊗D) (C aliases A), with D the
  // transitively closed diagonal block. Closure makes every read
  // interleaving — including tensor's pack-then-sweep and the deferred
  // scalar tails — converge to the same entrywise min (DESIGN.md §9), so
  // bit-identicality must hold here exactly as in the unaliased case.
  const vidx_t n = 150;  // ragged against every tile width in play
  auto d = random_matrix(n, n, 41, 0.3);
  fw_inplace(d.data(), n, n);
  const auto p0 = random_matrix(n, n, 42, 0.3);
  auto closed_p0 = p0;
  fw_inplace(closed_p0.data(), n, n);

  struct Form {
    const char* name;
    bool c_is_a, c_is_b, close_c;
  };
  for (const Form f : {Form{"row-panel", false, true, false},
                       Form{"col-panel", true, false, false},
                       Form{"self", true, true, true}}) {
    const auto& init = f.close_c ? closed_p0 : p0;
    auto want = init;
    {
      const dist_t* a = f.c_is_a ? want.data() : d.data();
      const dist_t* b = f.c_is_b ? want.data() : d.data();
      minplus_accum_naive(want.data(), n, a, n, b, n, n, n, n);
    }
    auto got = init;
    const dist_t* a = f.c_is_a ? got.data() : d.data();
    const dist_t* b = f.c_is_b ? got.data() : d.data();
    minplus_accum_tensor(got.data(), n, a, n, b, n, n, n, n);
    ASSERT_EQ(got, want) << "tensor diverges on aliased " << f.name;
  }
}

TEST_F(KernelConformance, TuningTableCoversEveryVariant) {
  const KernelTuning tuning = kernel_tuning();
  for (int i = 0; i < kNumKernelVariants; ++i) {
    EXPECT_GT(tuning.seconds_per_op[i], 0.0) << "variant index " << i;
  }
  EXPECT_DOUBLE_EQ(kernel_variant_rel_speed(KernelVariant::kNaive), 1.0);
  EXPECT_DOUBLE_EQ(kernel_variant_rel_speed(KernelVariant::kTensor),
                   tuning.seconds_per_op[0] / tuning.seconds_per_op[1]);
}

TEST_F(KernelConformance, LaneBackendReportsSanely) {
  const std::string isa = simd_lane_isa();
  EXPECT_TRUE(isa == "avx2" || isa == "neon" || isa == "autovec") << isa;
  EXPECT_TRUE(simd_lane_width() == 4 || simd_lane_width() == 8);
  if (simd_kernels_built_avx2()) {
    EXPECT_EQ(isa, "avx2");
  }
}

void expect_stores_identical(const DistStore& sa, const DistStore& sb) {
  ASSERT_EQ(sa.n(), sb.n());
  const vidx_t n = sa.n();
  std::vector<dist_t> a(static_cast<std::size_t>(n));
  std::vector<dist_t> b(static_cast<std::size_t>(n));
  for (vidx_t r = 0; r < n; ++r) {
    sa.read_block(r, 0, 1, n, a.data(), a.size());
    sb.read_block(r, 0, 1, n, b.data(), b.size());
    ASSERT_EQ(a, b) << "row " << r;
  }
}

class SolveConformance : public ::testing::TestWithParam<Algorithm> {
 protected:
  void TearDown() override { set_kernel_config(KernelConfig{}); }
};

TEST_P(SolveConformance, FullSolveParityForVectorVariants) {
  const auto g = graph::make_erdos_renyi(140, 850, 51);
  ApspOptions opts;
  opts.device = tiny_device(512u << 10);
  opts.fw_tile = 32;
  opts.algorithm = GetParam();
  opts.kernel_variant = KernelVariant::kNaive;
  opts.kernel_threads = 1;
  auto s_base = make_ram_store(g.num_vertices());
  const auto base = solve_apsp(g, opts, *s_base);
  expect_store_matches_reference(g, *s_base, base);

  for (const int threads : {1, 0}) {
    ApspOptions alt = opts;
    alt.kernel_variant = KernelVariant::kTensor;
    alt.kernel_threads = threads;
    auto s_alt = make_ram_store(g.num_vertices());
    const auto r = solve_apsp(g, alt, *s_alt);
    EXPECT_EQ(r.metrics.kernel_variant, "tensor");
    EXPECT_DOUBLE_EQ(r.metrics.sim_seconds, base.metrics.sim_seconds);
    EXPECT_EQ(r.metrics.kernels, base.metrics.kernels);
    EXPECT_EQ(r.metrics.total_ops, base.metrics.total_ops);
    expect_stores_identical(*s_base, *s_alt);
  }
}

TEST_P(SolveConformance, ChaosScheduleParityForVectorVariants) {
  // Faults gate at launch granularity, before kernel bodies run: an
  // identical launch sequence implies an identical fault/retry schedule, so
  // swapping in the vector microkernel must reproduce the whole chaotic run
  // bit-for-bit.
  const auto g = graph::make_erdos_renyi(130, 700, 52);
  ApspOptions opts;
  opts.device = tiny_device(256u << 10);
  opts.fw_tile = 32;
  opts.algorithm = GetParam();
  sim::FaultPlan plan;
  plan.seed = 77;
  plan.p_kernel = 0.02;
  plan.p_h2d = 0.02;
  plan.p_d2h = 0.02;
  opts.faults = &plan;
  opts.retry.max_retries = 8;
  opts.kernel_variant = KernelVariant::kNaive;
  opts.kernel_threads = 1;
  auto s_base = make_ram_store(g.num_vertices());
  const auto base = solve_apsp(g, opts, *s_base);

  ApspOptions alt = opts;
  alt.kernel_variant = KernelVariant::kTensor;
  alt.kernel_threads = 0;
  auto s_alt = make_ram_store(g.num_vertices());
  const auto r = solve_apsp(g, alt, *s_alt);
  EXPECT_EQ(r.metrics.faults_injected, base.metrics.faults_injected);
  EXPECT_EQ(r.metrics.kernel_retries, base.metrics.kernel_retries);
  EXPECT_EQ(r.metrics.transfer_retries, base.metrics.transfer_retries);
  EXPECT_DOUBLE_EQ(r.metrics.sim_seconds, base.metrics.sim_seconds);
  expect_stores_identical(*s_base, *s_alt);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, SolveConformance,
                         ::testing::Values(Algorithm::kBlockedFloydWarshall,
                                           Algorithm::kJohnson,
                                           Algorithm::kBoundary));

}  // namespace
}  // namespace gapsp::core
