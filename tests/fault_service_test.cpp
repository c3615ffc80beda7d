// Serving-tier fault tolerance (DESIGN.md §13): the CheckedTileReader's
// retry ladder and its corrupt-is-not-retried rule on GAPSPZ1 frame
// checksum mismatches, BlockCache quarantine + racing-publish rescue,
// QueryEngine degraded serving / on-demand repair / overload shedding, and
// the offline scrubber.
//
// The headline invariant, checked by the corrupt-at-every-tile sweep:
// whatever single tile frame rots on disk, every query either returns the
// correct distance or a typed per-query error — the process never dies,
// sibling queries never degrade, and untouched tiles stay bit-identical.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/apsp.h"
#include "core/compressed_store.h"
#include "core/scrub.h"
#include "core/tile_reader.h"
#include "graph/generators.h"
#include "service/query_engine.h"
#include "sim/fault.h"
#include "test_util.h"

namespace gapsp::service {
namespace {

using core::BlockData;
using core::TileError;
using core::TileFailure;

std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "gapsp_fault_service_" + tag + ".bin";
}

BlockData make_block(std::size_t elems, dist_t fill) {
  return std::make_shared<const std::vector<dist_t>>(elems, fill);
}

util::RetryPolicy fast_retry(int max_retries = 3) {
  util::RetryPolicy p;
  p.max_retries = max_retries;
  p.backoff_s = 1e-6;  // keep retry ladders fast in tests
  return p;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), f), b.size());
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// BlockCache: racing-publish rescue (the pre-existing bug) and quarantine.
// ---------------------------------------------------------------------------

// Regression: a loader failure used to propagate even when a racing thread
// had already published a valid copy of the same key — the caller saw an
// error for data the cache could serve. Simulated deterministically: the
// loader itself publishes the key (as the racing winner would) and then
// fails.
TEST(BlockCacheFault, LoaderFailureRescuedByRacingPublish) {
  core::BlockCache cache(1u << 20, /*shards=*/1);
  const auto winner = make_block(16, 7);
  const auto got = cache.get_or_load(3, 4, [&]() -> BlockData {
    cache.get_or_load(3, 4, [&] { return winner; });  // racing thread wins
    throw IoError("loser's read failed after the winner published");
  });
  EXPECT_EQ(got, winner);
  EXPECT_FALSE(cache.is_quarantined(3, 4));
  // The served entry is a real hit for later readers.
  int loads = 0;
  EXPECT_EQ(cache.get_or_load(3, 4, [&] { ++loads; return winner; }), winner);
  EXPECT_EQ(loads, 0);
}

TEST(BlockCacheFault, PlainErrorPropagatesWithoutQuarantine) {
  core::BlockCache cache(1u << 20, 2);
  // A plain IoError is not evidence of persistent damage (the checked
  // reader throws TileError once it *is*): propagate but allow re-tries.
  EXPECT_THROW(cache.get_or_load(0, 0,
                                 []() -> BlockData {
                                   throw IoError("transient hiccup");
                                 }),
               IoError);
  EXPECT_FALSE(cache.is_quarantined(0, 0));
  const auto got = cache.get_or_load(0, 0, [] { return make_block(4, 1); });
  EXPECT_EQ(got->at(0), 1);
}

TEST(BlockCacheFault, TileErrorQuarantinesAndPublishHeals) {
  core::BlockCache cache(1u << 20, 2);
  EXPECT_THROW(cache.get_or_load(1, 2,
                                 []() -> BlockData {
                                   throw TileError(TileFailure::kCorrupt, 1, 2,
                                                   "checksum mismatch");
                                 }),
               TileError);
  EXPECT_TRUE(cache.is_quarantined(1, 2));

  // Later misses fail fast without re-reading the sick byte range.
  int loads = 0;
  try {
    cache.get_or_load(1, 2, [&] { ++loads; return make_block(4, 9); });
    FAIL() << "quarantined tile served";
  } catch (const TileError& e) {
    EXPECT_EQ(e.kind(), TileFailure::kQuarantined);
    EXPECT_EQ(e.row_block(), 1);
    EXPECT_EQ(e.col_block(), 2);
  }
  EXPECT_EQ(loads, 0);
  auto s = cache.stats();
  EXPECT_EQ(s.quarantined_tiles, 1);
  EXPECT_EQ(s.quarantine_hits, 1);

  // Repair path: publish() replaces the mark with served data.
  const auto fixed = make_block(4, 5);
  cache.publish(1, 2, fixed);
  EXPECT_FALSE(cache.is_quarantined(1, 2));
  EXPECT_EQ(cache.get_or_load(1, 2, [&] { ++loads; return fixed; }), fixed);
  EXPECT_EQ(loads, 0);
  EXPECT_EQ(cache.stats().quarantined_tiles, 0);
}

TEST(BlockCacheFault, ClearQuarantineDropsAllMarks) {
  core::BlockCache cache(1u << 20, 4);
  for (vidx_t k = 0; k < 3; ++k) {
    EXPECT_THROW(cache.get_or_load(k, k,
                                   [k]() -> BlockData {
                                     throw TileError(TileFailure::kTransient,
                                                     k, k, "dead disk");
                                   }),
                 TileError);
  }
  EXPECT_EQ(cache.stats().quarantined_tiles, 3);
  EXPECT_EQ(cache.clear_quarantine(), 3);
  EXPECT_EQ(cache.stats().quarantined_tiles, 0);
  EXPECT_NE(cache.get_or_load(0, 0, [] { return make_block(4, 2); }), nullptr);
}

// ---------------------------------------------------------------------------
// CheckedTileReader: retry ladder and checksum verification.
// ---------------------------------------------------------------------------

TEST(CheckedTileReader, RetriesTransientFaultsThenSucceeds) {
  const auto store = core::make_ram_store(32);
  sim::FaultPlan plan;
  // Fail the first two physical reads, transiently.
  plan.scripted.push_back({sim::FaultOp::kStoreRead, 1, -1, true});
  plan.scripted.push_back({sim::FaultOp::kStoreRead, 2, -1, true});
  sim::FaultInjector injector(plan);

  core::TileReaderOptions opt;
  opt.retry = fast_retry(3);
  opt.faults = &injector;
  core::CheckedTileReader reader(*store, opt);
  std::vector<dist_t> buf(16 * 16);
  reader.read_tile(0, 0, 0, 0, 16, 16, buf.data());
  EXPECT_EQ(buf[0], kInf);
  const auto s = reader.stats();
  EXPECT_EQ(s.reads, 1);
  EXPECT_EQ(s.retries, 2);
  EXPECT_EQ(s.transient_failures, 0);
}

TEST(CheckedTileReader, ExhaustedRetriesThrowTransientTileError) {
  const auto store = core::make_ram_store(32);
  sim::FaultPlan plan;
  plan.p_store_read = 1.0;  // every read faults
  sim::FaultInjector injector(plan);
  core::TileReaderOptions opt;
  opt.retry = fast_retry(2);
  opt.faults = &injector;
  core::CheckedTileReader reader(*store, opt);
  std::vector<dist_t> buf(32 * 32);
  try {
    reader.read_tile(0, 0, 0, 0, 32, 32, buf.data());
    FAIL() << "read succeeded under p=1.0 faults";
  } catch (const TileError& e) {
    EXPECT_EQ(e.kind(), TileFailure::kTransient);
  }
  const auto s = reader.stats();
  EXPECT_EQ(s.retries, 2);
  EXPECT_EQ(s.transient_failures, 1);
}

/// Damages the z1 frame at `offset` in `bytes`. Bytes 8..15 of a frame hold
/// the FNV-1a checksum of its decoded content (z1_codec.h): flipping one
/// leaves the sequences parseable and the decoded tile unchanged, so only
/// the content checksum check can catch it.
void damage_frame(std::vector<std::uint8_t>& bytes, std::uint64_t offset,
                  std::uint64_t frame_bytes) {
  ASSERT_GT(frame_bytes, 16u) << "all-kInf tiles have no frame to damage";
  bytes[static_cast<std::size_t>(offset) + 8] ^= 0x01;
}

TEST(CheckedTileReader, ChecksumMismatchIsCorruptNotRetried) {
  const vidx_t n = 40;
  const auto ram = core::make_ram_store(n);
  std::vector<dist_t> row(static_cast<std::size_t>(n), 5);
  for (vidx_t r = 0; r < n; ++r) {
    ram->write_block(r, 0, 1, n, row.data(), row.size());
  }
  const std::string path = temp_path("reader_corrupt");
  core::write_compressed_store(*ram, path, /*tile=*/16);

  // Damage the frame of tile (1, 1).
  const auto dir = core::read_compressed_directory(path);
  const auto& victim = dir.entries[1 * dir.tiles_per_side + 1];
  auto bytes = read_file(path);
  damage_frame(bytes, victim.offset, victim.bytes);
  write_file(path, bytes);

  const auto damaged = core::open_store(path);
  core::TileReaderOptions opt;
  opt.retry = fast_retry(3);
  core::CheckedTileReader reader(*damaged, opt);
  std::vector<dist_t> buf(16 * 16);
  reader.read_tile(0, 0, 0, 0, 16, 16, buf.data());  // clean tile is fine
  try {
    reader.read_tile(1, 1, 16, 16, 16, 16, buf.data());
    FAIL() << "corrupt tile served";
  } catch (const TileError& e) {
    EXPECT_EQ(e.kind(), TileFailure::kCorrupt);
  }
  const auto s = reader.stats();
  EXPECT_EQ(s.corrupt_tiles, 1);
  EXPECT_EQ(s.retries, 0);  // corruption is persistent: no retry ladder
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// End-to-end serving under damage. One solved store, every tile corrupted
// in turn; the engine must give a correct answer or a typed error for every
// query, keep siblings untouched, and never crash.
// ---------------------------------------------------------------------------

struct ServedStore {
  graph::CsrGraph g;
  std::string path;
  core::CompressedDirectory dir;       ///< where each tile's frame lives
  std::vector<std::uint8_t> pristine;  ///< GAPSPZ1 file bytes before damage
  vidx_t n = 0;
  vidx_t tile = 0;
  vidx_t tps = 0;

  /// Damages tile (bi, bj)'s frame in `bytes`; false for an all-kInf tile,
  /// which stores no frame and is served from the directory alone.
  bool damage_tile(std::vector<std::uint8_t>& bytes, vidx_t bi,
                   vidx_t bj) const {
    const auto& e = dir.entries[static_cast<std::size_t>(bi) * tps + bj];
    if (e.bytes == 0) return false;
    damage_frame(bytes, e.offset, e.bytes);
    return true;
  }
};

/// Solves er:N (disconnected, kInf-rich) with the identity-permutation
/// Johnson algorithm and keeps it as a GAPSPZ1 store of `tile`-wide tiles.
ServedStore solve_kept(const std::string& tag, vidx_t tile) {
  ServedStore s;
  s.g = graph::make_erdos_renyi(150, 450, 99, /*connect=*/false);
  s.n = s.g.num_vertices();
  s.path = temp_path(tag);
  {
    core::ApspOptions o;
    o.device = sim::DeviceSpec::v100_scaled(2u << 20);
    o.algorithm = core::Algorithm::kJohnson;  // identity permutation
    auto store = core::make_ram_store(s.n);
    const auto r = core::solve_apsp(s.g, o, *store);
    EXPECT_TRUE(r.perm.empty());
    core::write_compressed_store(*store, s.path, tile);
  }
  s.dir = core::read_compressed_directory(s.path);
  s.tile = tile;
  s.tps = s.dir.tiles_per_side;
  s.pristine = read_file(s.path);
  return s;
}

/// One point query per tile, at the tile's top-left corner.
std::vector<Query> tile_corner_queries(const ServedStore& s) {
  std::vector<Query> qs;
  for (vidx_t bi = 0; bi < s.tps; ++bi) {
    for (vidx_t bj = 0; bj < s.tps; ++bj) {
      qs.push_back({QueryKind::kPoint, bi * s.tile, bj * s.tile});
    }
  }
  return qs;
}

TEST(FaultServing, CorruptAtEveryTileSweep) {
  auto s = solve_kept("sweep", /*tile=*/64);
  ASSERT_GE(s.tps, 3);
  const auto queries = tile_corner_queries(s);

  // Reference answers from the pristine store.
  std::vector<dist_t> want(queries.size());
  {
    const auto z = core::open_store(s.path);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      want[i] = z->at(queries[i].u, queries[i].v);
    }
  }

  int swept = 0;
  for (vidx_t bi = 0; bi < s.tps; ++bi) {
    for (vidx_t bj = 0; bj < s.tps; ++bj) {
      auto bytes = s.pristine;
      if (!s.damage_tile(bytes, bi, bj)) continue;
      ++swept;
      write_file(s.path, bytes);

      const auto store = core::open_store(s.path);
      QueryEngineOptions opt;
      opt.retry = fast_retry(1);
      const QueryEngine engine(*store, opt);
      const auto report = engine.run_batch(queries);

      for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto& r = report.results[i];
        const bool hit_victim =
            queries[i].u / s.tile == bi && queries[i].v / s.tile == bj;
        if (hit_victim) {
          // The query that needs the damaged tile degrades typed...
          EXPECT_EQ(r.status, QueryStatus::kQuarantined)
              << "tile (" << bi << "," << bj << ") query " << i;
          EXPECT_FALSE(r.error.empty());
        } else {
          // ...and every sibling stays bit-identical to the pristine store.
          ASSERT_EQ(r.status, QueryStatus::kOk)
              << "tile (" << bi << "," << bj << ") poisoned sibling " << i
              << ": " << r.error;
          ASSERT_EQ(r.dist, want[i]);
        }
      }
      const auto cs = report.cache;
      EXPECT_EQ(cs.quarantined_tiles, 1)
          << "tile (" << bi << "," << bj << ")";
      EXPECT_GE(report.service.corrupt_tiles, 1);
    }
  }
  EXPECT_GE(swept, s.tps);  // at least the diagonal tiles carry frames
  std::remove(s.path.c_str());
}

TEST(FaultServing, RepairRecomputeServesThroughDamage) {
  auto s = solve_kept("repair", /*tile=*/64);
  // Corrupt tile (1, 1), which holds diagonal entries and so a frame.
  auto bytes = s.pristine;
  ASSERT_TRUE(s.damage_tile(bytes, 1, 1));
  write_file(s.path, bytes);

  const auto store = core::open_store(s.path);
  QueryEngineOptions opt;
  opt.retry = fast_retry(1);
  opt.repair = core::make_sssp_repair(s.g);
  const QueryEngine engine(*store, opt);

  const auto queries = tile_corner_queries(s);
  const auto report = engine.run_batch(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(report.results[i].status, QueryStatus::kOk)
        << report.results[i].error;
    const auto ref = test::ref_row(s.g, queries[i].u);
    ASSERT_EQ(report.results[i].dist, ref[queries[i].v]) << "query " << i;
  }
  EXPECT_GE(report.service.repaired, 1);
  EXPECT_EQ(report.cache.quarantined_tiles, 0);  // publish() healed it

  // The repaired tile is a plain cache entry now: a second batch re-serves
  // it without another repair.
  const auto again = engine.run_batch(queries);
  EXPECT_EQ(again.service.repaired, report.service.repaired);
  std::remove(s.path.c_str());
}

TEST(FaultServing, OverloadShedsTypedBeyondMaxQueue) {
  const auto g = graph::make_road(8, 8, 7);
  const auto store = core::make_ram_store(g.num_vertices());
  core::ApspOptions o;
  o.device = sim::DeviceSpec::v100_scaled(2u << 20);
  o.algorithm = core::Algorithm::kJohnson;
  core::solve_apsp(g, o, *store);

  QueryEngineOptions opt;
  opt.max_queue = 4;
  const QueryEngine engine(*store, opt);
  std::vector<Query> queries;
  for (vidx_t i = 0; i < 10; ++i) {
    queries.push_back({QueryKind::kPoint, i, i + 1});
  }
  const auto report = engine.run_batch(queries);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(report.results[i].status, QueryStatus::kOk);
    const auto ref = test::ref_row(g, queries[i].u);
    EXPECT_EQ(report.results[i].dist, ref[queries[i].v]);
  }
  for (std::size_t i = 4; i < 10; ++i) {
    EXPECT_EQ(report.results[i].status, QueryStatus::kShed);
    EXPECT_FALSE(report.results[i].error.empty());
  }
  EXPECT_EQ(report.service.shed, 6);
  EXPECT_EQ(report.service.served, 4);
}

TEST(FaultServing, NeverDiesUnderInjectedReadFaults) {
  auto s = solve_kept("chaos", /*tile=*/64);
  const auto store = core::open_store(s.path);

  // p = 0.4 with a retry budget: most reads heal, a few tiles quarantine.
  sim::FaultPlan plan;
  plan.seed = 1234;
  plan.p_store_read = 0.4;
  sim::FaultInjector injector(plan);
  QueryEngineOptions opt;
  opt.retry = fast_retry(4);
  opt.faults = &injector;
  const QueryEngine engine(*store, opt);

  std::vector<Query> queries;
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    queries.push_back({QueryKind::kPoint,
                       static_cast<vidx_t>(rng.next_below(s.n)),
                       static_cast<vidx_t>(rng.next_below(s.n))});
  }
  queries.push_back({QueryKind::kRow, 3, 0});
  const auto report = engine.run_batch(queries);

  long long ok = 0;
  long long degraded = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& r = report.results[i];
    if (r.status == QueryStatus::kOk) {
      ++ok;
      if (r.query.kind == QueryKind::kPoint) {
        const auto ref = test::ref_row(s.g, r.query.u);
        ASSERT_EQ(r.dist, ref[r.query.v]) << "faulted read served garbage";
      }
    } else {
      ASSERT_EQ(r.status, QueryStatus::kQuarantined);
      EXPECT_FALSE(r.error.empty());
      ++degraded;
    }
  }
  EXPECT_EQ(ok + degraded, static_cast<long long>(queries.size()));
  EXPECT_GT(ok, 0);                            // retries healed most reads
  EXPECT_GT(report.service.retries, 0);
  EXPECT_EQ(report.service.served, ok);
  EXPECT_EQ(report.service.degraded, degraded);

  // p = 1.0: nothing is servable, everything degrades typed, no crash.
  sim::FaultPlan always;
  always.p_store_read = 1.0;
  sim::FaultInjector kill(always);
  QueryEngineOptions dead_opt;
  dead_opt.retry = fast_retry(1);
  dead_opt.faults = &kill;
  const QueryEngine dead(*store, dead_opt);
  const auto dead_report = dead.run_batch(queries);
  for (const auto& r : dead_report.results) {
    EXPECT_EQ(r.status, QueryStatus::kQuarantined);
  }
  std::remove(s.path.c_str());
}

// ---------------------------------------------------------------------------
// Scrub & repair.
// ---------------------------------------------------------------------------

TEST(Scrub, CleanCorruptRepairCycle) {
  auto s = solve_kept("scrub", /*tile=*/64);

  core::ScrubOptions sopt;
  sopt.retry = fast_retry(1);
  auto report = core::scrub_store(s.path, sopt);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.tile, 64);
  EXPECT_EQ(report.tiles,
            static_cast<long long>(s.tps) * static_cast<long long>(s.tps));

  // Corrupt two tiles.
  auto bytes = s.pristine;
  ASSERT_TRUE(s.damage_tile(bytes, 0, 0));
  ASSERT_TRUE(s.damage_tile(bytes, 1, 1));
  write_file(s.path, bytes);

  report = core::scrub_store(s.path, sopt);
  EXPECT_EQ(report.corrupt, 2);
  EXPECT_EQ(report.unrepaired, 2);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.damaged.size(), 2u);

  // Repair from the kept CSR: the rebuilt store is bit-identical to the
  // pristine one (recomputed tiles equal the solve's, and the GAPSPZ1
  // encoder is deterministic).
  sopt.repair = true;
  sopt.repair_fn = core::make_sssp_repair(s.g);
  report = core::scrub_store(s.path, sopt);
  EXPECT_EQ(report.corrupt, 2);
  EXPECT_EQ(report.repaired, 2);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(read_file(s.path), s.pristine);

  report = core::scrub_store(s.path, core::ScrubOptions{});
  EXPECT_TRUE(report.clean());
  std::remove(s.path.c_str());
}

TEST(Scrub, RawMatrixIsRejectedTyped) {
  const std::string path = temp_path("rawmatrix_scrub");
  {
    auto raw = core::make_file_store(8, path, /*keep_file=*/true);
  }
  try {
    core::scrub_store(path, core::ScrubOptions{});
    FAIL() << "scrub walked a raw matrix";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("apsp_cli compact"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gapsp::service
