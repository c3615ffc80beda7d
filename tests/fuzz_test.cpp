// Randomized cross-checking ("fuzz") sweep: random graph family × random
// size × random device memory × every algorithm, validated on sampled rows
// against the Dijkstra oracle. Complements the deterministic property
// tests with breadth across the configuration space.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/apsp.h"
#include "core/compressed_store.h"
#include "core/kernel_engine.h"
#include "graph/generators.h"
#include "service/query_engine.h"
#include "test_util.h"

namespace gapsp::core {
namespace {

graph::CsrGraph random_graph(Rng& rng) {
  const int family = static_cast<int>(rng.next_below(7));
  const auto seed = rng.next_u64();
  switch (family) {
    case 0: {
      const vidx_t side = static_cast<vidx_t>(rng.next_in(8, 16));
      return graph::make_road(side, side + 1, seed);
    }
    case 1:
      return graph::make_mesh(static_cast<vidx_t>(rng.next_in(120, 280)),
                              static_cast<int>(rng.next_in(6, 16)), seed);
    case 2:
      return graph::make_rmat(static_cast<int>(rng.next_in(6, 8)),
                              rng.next_in(300, 1200), seed);
    case 3:
      return graph::make_erdos_renyi(
          static_cast<vidx_t>(rng.next_in(100, 260)), rng.next_in(150, 900),
          seed, /*connect=*/rng.next_bool(0.5));
    case 4:
      return graph::make_small_world(
          static_cast<vidx_t>(rng.next_in(100, 260)),
          static_cast<int>(rng.next_in(1, 4)), rng.next_double() * 0.5, seed);
    case 5:
      return graph::make_preferential(
          static_cast<vidx_t>(rng.next_in(100, 260)),
          static_cast<int>(rng.next_in(1, 4)), seed);
    default: {
      const vidx_t side = static_cast<vidx_t>(rng.next_in(4, 7));
      return graph::make_grid3d(side, side, side - 1, seed);
    }
  }
}

class ApspFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ApspFuzz, RandomConfigurationMatchesOracle) {
  Rng rng(0xF00D + static_cast<std::uint64_t>(GetParam()) * 7919);
  const auto g = random_graph(rng);

  ApspOptions opts;
  // Random device memory between 256 KiB and 4 MiB; occasionally K80.
  const std::size_t mem = (256u << 10)
                          << static_cast<unsigned>(rng.next_below(5));
  opts.device = rng.next_bool(0.3) ? sim::DeviceSpec::k80_scaled(mem)
                                   : sim::DeviceSpec::v100_scaled(mem);
  opts.fw_tile = rng.next_bool(0.5) ? 32 : 64;
  opts.delta = static_cast<dist_t>(rng.next_in(0, 120));
  opts.heavy_degree_threshold = static_cast<int>(rng.next_in(4, 64));
  opts.dynamic_parallelism = rng.next_bool(0.7);
  opts.batch_transfers = rng.next_bool(0.8);
  opts.overlap_transfers = rng.next_bool(0.8);
  opts.num_components = rng.next_bool(0.5)
                            ? 0
                            : static_cast<int>(rng.next_in(2, 12));
  opts.johnson_queue_factor = 1.0 + rng.next_double() * 2.0;

  const Algorithm algos[] = {Algorithm::kBlockedFloydWarshall,
                             Algorithm::kJohnson, Algorithm::kBoundary};
  opts.algorithm = algos[rng.next_below(3)];

  auto store = make_ram_store(g.num_vertices());
  ApspResult r;
  try {
    r = solve_apsp(g, opts, *store);
  } catch (const Error&) {
    // Legitimately infeasible configuration (device too small for this
    // graph/algorithm) — acceptable, but it must be *reported*, not wrong.
    return;
  }
  test::expect_store_rows_match(g, *store, r, /*samples=*/6, rng.next_u64());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApspFuzz, ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Fault-schedule fuzzer: random FaultPlan (probabilistic faults, occasional
// device kill) × random graph × random recovery budget. The invariant is the
// DESIGN.md §8 contract: every run either completes with distances
// bit-identical to a fault-free twin — possibly after checkpointed resume
// attempts — or surfaces a typed sim::FaultError. Crashes, hangs and silently
// wrong matrices are the bugs this sweep exists to catch.
// ---------------------------------------------------------------------------

class FaultFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FaultFuzz, RandomFaultScheduleRecoversOrFailsTyped) {
  Rng rng(0xFA17 + static_cast<std::uint64_t>(GetParam()) * 104729);
  const auto g = random_graph(rng);

  ApspOptions opts;
  const std::size_t mem = (256u << 10)
                          << static_cast<unsigned>(rng.next_below(4));
  opts.device = sim::DeviceSpec::v100_scaled(mem);
  opts.fw_tile = 32;
  opts.overlap_transfers = rng.next_bool(0.7);
  opts.num_components = rng.next_bool(0.5)
                            ? 0
                            : static_cast<int>(rng.next_in(2, 8));
  const Algorithm algos[] = {Algorithm::kBlockedFloydWarshall,
                             Algorithm::kJohnson, Algorithm::kBoundary};
  opts.algorithm = algos[rng.next_below(3)];

  auto clean_store = make_ram_store(g.num_vertices());
  ApspResult clean;
  try {
    clean = solve_apsp(g, opts, *clean_store);
  } catch (const Error&) {
    return;  // infeasible configuration — covered by ApspFuzz above
  }

  sim::FaultPlan plan;
  plan.seed = rng.next_u64();
  if (rng.next_bool(0.7)) plan.p_h2d = rng.next_double() * 0.03;
  if (rng.next_bool(0.7)) plan.p_d2h = rng.next_double() * 0.03;
  if (rng.next_bool(0.5)) plan.p_kernel = rng.next_double() * 0.02;
  if (rng.next_bool(0.2)) plan.p_alloc = rng.next_double() * 0.1;
  if (rng.next_bool(0.4)) {
    plan.kill_device = 0;
    plan.kill_at_op = static_cast<long long>(rng.next_in(1, 500));
  }

  auto injector = std::make_unique<sim::FaultInjector>(plan);
  ApspOptions faulty = opts;
  faulty.fault_injector = injector.get();
  faulty.retry.max_retries = static_cast<int>(rng.next_below(4));
  faulty.max_degradations = static_cast<int>(rng.next_below(3));
  faulty.checkpoint_path = ::testing::TempDir() + "gapsp_fault_fuzz_" +
                           std::to_string(GetParam()) + ".ck";

  auto store = make_ram_store(g.num_vertices());
  bool completed = false;
  ApspResult r;
  for (int attempt = 0; attempt < 6 && !completed; ++attempt) {
    try {
      r = solve_apsp(g, faulty, *store);
      completed = true;
    } catch (const sim::FaultError& e) {
      // Typed failure — resume from the checkpoint. A killed device stays
      // dead, so model its replacement with a fresh injector whose kill
      // rule already fired.
      if (e.op() == sim::FaultOp::kDeviceLost) {
        sim::FaultPlan replacement = plan;
        replacement.kill_device = -1;
        injector = std::make_unique<sim::FaultInjector>(replacement);
        faulty.fault_injector = injector.get();
      }
      faulty.resume = true;
    }
    // Any exception that is not a gapsp::Error escapes and fails the test.
  }
  if (completed) {
    ASSERT_EQ(r.perm, clean.perm);
    const vidx_t n = g.num_vertices();
    std::vector<dist_t> a(static_cast<std::size_t>(n));
    std::vector<dist_t> b(static_cast<std::size_t>(n));
    for (vidx_t row = 0; row < n; ++row) {
      clean_store->read_block(row, 0, 1, n, a.data(), a.size());
      store->read_block(row, 0, 1, n, b.data(), b.size());
      ASSERT_EQ(a, b) << "row " << row;
    }
  }
  std::remove(faulty.checkpoint_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzz, ::testing::Range(0, 24));

// ---------------------------------------------------------------------------
// z1 codec fuzzer (compressed_store.h). Two invariants: (a) any input —
// random noise, adversarially repetitive, all-kInf, or mixed — round-trips
// bit-exactly; (b) any damaged frame (truncation, byte flips, bit flips)
// either round-trips to checksum-valid output or throws IoError. It must
// never read or write out of bounds — the CI chaos job runs this suite
// under ASan/UBSan, which turns an over-read into a hard failure.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> random_z1_input(Rng& rng) {
  const int shape = static_cast<int>(rng.next_below(7));
  std::vector<std::uint8_t> buf(
      static_cast<std::size_t>(rng.next_in(0, 20000)));
  switch (shape) {
    case 5: {  // degenerate tiles: empty, 1 byte, below-minimum-match sizes
      buf.resize(static_cast<std::size_t>(rng.next_in(0, 4)));
      for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
      return buf;
    }
    case 6: {  // repeats separated by ~the u16 match-offset limit (65535)
      const std::size_t gap =
          static_cast<std::size_t>(rng.next_in(65535 - 80, 65535 + 80));
      buf.assign(gap + 128, 0);
      for (std::size_t i = 0; i < 64; ++i) {
        const auto m = static_cast<std::uint8_t>(rng.next_u64());
        buf[i] = m;
        buf[gap + 64 + i] = m;
      }
      return buf;
    }
    default:
      break;
  }
  switch (shape) {
    case 0:  // incompressible noise
      for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
      break;
    case 1: {  // all-kInf distance data, the dominant store pattern
      const dist_t inf = kInf;
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = reinterpret_cast<const std::uint8_t*>(&inf)[i % sizeof(inf)];
      }
      break;
    }
    case 2: {  // short period just off the 4-byte fast path
      const std::size_t period = static_cast<std::size_t>(rng.next_in(1, 9));
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<std::uint8_t>(i % period);
      }
      break;
    }
    case 3: {  // adversarial: long runs broken by noise at random points
      std::uint8_t fill = 0xff;
      for (auto& b : buf) {
        if (rng.next_bool(0.01)) fill = static_cast<std::uint8_t>(rng.next_u64());
        b = rng.next_bool(0.02) ? static_cast<std::uint8_t>(rng.next_u64())
                                : fill;
      }
      break;
    }
    default: {  // plausible distance matrix rows: small values + kInf gaps
      std::vector<dist_t> d(buf.size() / sizeof(dist_t) + 1);
      for (auto& v : d) {
        v = rng.next_bool(0.6) ? kInf
                               : static_cast<dist_t>(rng.next_below(1000));
      }
      std::memcpy(buf.data(), d.data(), buf.size());
      break;
    }
  }
  return buf;
}

class Z1Fuzz : public ::testing::TestWithParam<int> {};

TEST_P(Z1Fuzz, RoundTripsExactlyAndRejectsDamageTyped) {
  Rng rng(0x21F0 + static_cast<std::uint64_t>(GetParam()) * 6151);
  const auto raw = random_z1_input(rng);
  const auto frame = z1_compress(raw.data(), raw.size());

  ASSERT_EQ(z1_raw_size(frame.data(), frame.size()), raw.size());
  std::vector<std::uint8_t> back(raw.size());
  z1_decompress(frame.data(), frame.size(), back.data(), back.size());
  ASSERT_EQ(back, raw);

  // Random truncations: always a typed error.
  for (int i = 0; i < 16; ++i) {
    const auto cut = static_cast<std::size_t>(rng.next_below(frame.size()));
    EXPECT_THROW(
        z1_decompress(frame.data(), cut, back.data(), back.size()), IoError)
        << "cut " << cut;
  }

  // Random damage: flips in header, token stream, and literals. Decoding
  // either throws IoError or — if the flip cancels out semantically —
  // reproduces the exact input (the content checksum gates everything
  // else). `raw_len` flips also hit the destination-size check.
  for (int i = 0; i < 32; ++i) {
    auto bad = frame;
    const int edits = static_cast<int>(rng.next_in(1, 4));
    for (int e = 0; e < edits; ++e) {
      const auto at = static_cast<std::size_t>(rng.next_below(bad.size()));
      bad[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    try {
      std::vector<std::uint8_t> out(raw.size());
      z1_decompress(bad.data(), bad.size(), out.data(), out.size());
      EXPECT_EQ(out, raw) << "damaged frame decoded to different content";
    } catch (const IoError&) {
      // typed rejection is the expected outcome
    }
  }
}

// 36 seeds so the degenerate shapes (5: empty/1-byte, 6: u16-offset
// boundary) each land several times per run.
INSTANTIATE_TEST_SUITE_P(Seeds, Z1Fuzz, ::testing::Range(0, 36));

// ---------------------------------------------------------------------------
// Vector microkernel fuzzer (kernel_engine.h kTensor): random tile
// shapes × random kInf density × random leading dimensions and base-pointer
// offsets, checked elementwise against the scalar naive oracle. The shapes
// deliberately straddle the 8×16 register tile, the lane width and the
// 64-deep k tile so lane tails, strip-liveness edges and the branch-free
// saturation path all get hit; the random offsets make the unaligned
// load/store paths real (an aligned-only assumption would fault or corrupt
// here). Comparing the *whole* padded buffer also proves the kernel never
// writes outside the logical nr×nc window.
// ---------------------------------------------------------------------------

class SimdFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SimdFuzz, VectorKernelsMatchScalarOracleAtAnyAlignment) {
  Rng rng(0x51D0 + static_cast<std::uint64_t>(GetParam()) * 9176);
  auto fill = [&rng](std::vector<dist_t>& buf, double p_inf) {
    for (auto& x : buf) {
      x = rng.next_bool(p_inf) ? kInf
                               : static_cast<dist_t>(rng.next_in(0, 1000));
    }
  };
  for (int trial = 0; trial < 8; ++trial) {
    const vidx_t nr = static_cast<vidx_t>(rng.next_in(1, 90));
    const vidx_t nk = static_cast<vidx_t>(rng.next_in(1, 150));
    const vidx_t nc = static_cast<vidx_t>(rng.next_in(1, 90));
    const double p_inf = rng.next_double();
    // Random pad past each logical row and a random base offset: every
    // combination of leading dimension and pointer alignment mod the vector
    // width shows up across the sweep.
    const std::size_t lda = nk + rng.next_below(18);
    const std::size_t ldb = nc + rng.next_below(18);
    const std::size_t ldc = nc + rng.next_below(18);
    const std::size_t offa = rng.next_below(8);
    const std::size_t offb = rng.next_below(8);
    const std::size_t offc = rng.next_below(8);
    std::vector<dist_t> abuf(offa + static_cast<std::size_t>(nr) * lda);
    std::vector<dist_t> bbuf(offb + static_cast<std::size_t>(nk) * ldb);
    std::vector<dist_t> cbuf(offc + static_cast<std::size_t>(nr) * ldc);
    fill(abuf, p_inf);
    fill(bbuf, p_inf);
    fill(cbuf, p_inf / 2);

    auto want = cbuf;
    minplus_accum_naive(want.data() + offc, ldc, abuf.data() + offa, lda,
                        bbuf.data() + offb, ldb, nr, nk, nc);
    auto got = cbuf;
    minplus_accum_tensor(got.data() + offc, ldc, abuf.data() + offa, lda,
                         bbuf.data() + offb, ldb, nr, nk, nc);
    ASSERT_EQ(got, want) << "tensor diverges at " << nr << "x" << nk << "x"
                         << nc << " ld=(" << lda << "," << ldb << "," << ldc
                         << ") off=(" << offa << "," << offb << "," << offc
                         << ") p_inf=" << p_inf;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdFuzz, ::testing::Range(0, 24));

// ---------------------------------------------------------------------------
// Kept-store damage fuzzer (DESIGN.md §13): random truncations of a GAPSPZ1
// store are rejected typed at open (the last frame no longer fits the file),
// and random bit flips either fail the header/directory checks at open or
// make the serving tier answer every query exactly right or with a typed
// per-query status — no crash, no silently wrong distance.
// ---------------------------------------------------------------------------

class StoreFuzz : public ::testing::TestWithParam<int> {};

TEST_P(StoreFuzz, DamageIsTypedOrExact) {
  Rng rng(0x4A57 + static_cast<std::uint64_t>(GetParam()) * 7877);
  const auto g = random_graph(rng);
  const vidx_t n = g.num_vertices();
  const std::string path = ::testing::TempDir() + "gapsp_storefuzz_" +
                           std::to_string(GetParam()) + ".bin";

  ApspOptions o;
  o.device = sim::DeviceSpec::v100_scaled(2u << 20);
  o.algorithm = Algorithm::kJohnson;  // identity layout
  const vidx_t tile = static_cast<vidx_t>(rng.next_in(16, 96));
  {
    auto store = make_ram_store(n);
    solve_apsp(g, o, *store);
    write_compressed_store(*store, path, tile);
  }
  std::vector<std::uint8_t> pristine;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    pristine.resize(static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    ASSERT_EQ(std::fread(pristine.data(), 1, pristine.size(), f),
              pristine.size());
    std::fclose(f);
  }
  const auto rewrite = [&](const std::vector<std::uint8_t>& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  };

  // Truncations: the header, the directory or the last frame is cut short,
  // so open is always a typed rejection, never a short-read garbage serve.
  for (int i = 0; i < 4; ++i) {
    auto bytes = pristine;
    bytes.resize(static_cast<std::size_t>(rng.next_below(bytes.size())));
    rewrite(bytes);
    EXPECT_THROW(open_store(path), IoError) << "cut at " << bytes.size();
  }

  // Bit flips: open rejects header/directory damage typed; otherwise every
  // point query comes back exact or typed.
  for (int round = 0; round < 4; ++round) {
    auto bytes = pristine;
    const int flips = static_cast<int>(rng.next_in(1, 5));
    for (int e = 0; e < flips; ++e) {
      const auto at = static_cast<std::size_t>(rng.next_below(bytes.size()));
      bytes[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    rewrite(bytes);

    std::unique_ptr<DistStore> store;
    try {
      store = open_store(path);
    } catch (const IoError&) {
      continue;  // header/directory damage: typed rejection at open
    }
    service::QueryEngineOptions qopt;
    qopt.retry.max_retries = 1;
    qopt.retry.backoff_s = 1e-6;
    const service::QueryEngine engine(*store, qopt);
    std::vector<service::Query> queries;
    for (int i = 0; i < 32; ++i) {
      queries.push_back({service::QueryKind::kPoint,
                         static_cast<vidx_t>(rng.next_below(n)),
                         static_cast<vidx_t>(rng.next_below(n))});
    }
    const auto report = engine.run_batch(queries);
    for (const auto& r : report.results) {
      if (r.status == service::QueryStatus::kOk) {
        const auto ref = test::ref_row(g, r.query.u);
        ASSERT_EQ(r.dist, ref[r.query.v])
            << "round " << round << ": damaged store served a wrong distance"
            << " for (" << r.query.u << ", " << r.query.v << ")";
      } else {
        EXPECT_EQ(r.status, service::QueryStatus::kQuarantined);
        EXPECT_FALSE(r.error.empty());
      }
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreFuzz, ::testing::Range(0, 12));

}  // namespace
}  // namespace gapsp::core
