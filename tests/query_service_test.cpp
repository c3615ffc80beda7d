// Query-service coverage: the block cache's LRU/counter semantics, the
// QueryEngine against DistStore::at() as the oracle (including permuted
// boundary solves and file-backed stores opened read-only), and the
// open_file_store entry point's validation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "core/apsp.h"
#include "core/compressed_store.h"
#include "graph/generators.h"
#include "service/query_engine.h"
#include "test_util.h"
#include "util/rng.h"

namespace gapsp::service {
namespace {

using core::DistStore;

BlockData make_block(std::size_t elems, dist_t fill) {
  return std::make_shared<const std::vector<dist_t>>(elems, fill);
}

TEST(BlockCache, HitMissCounters) {
  BlockCache cache(1u << 20, /*shards=*/2);
  int loads = 0;
  auto loader = [&] {
    ++loads;
    return make_block(16, 7);
  };
  const auto a = cache.get_or_load(0, 0, loader);
  const auto b = cache.get_or_load(0, 0, loader);
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(a.get(), b.get());
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.evictions, 0);
  EXPECT_EQ(s.bytes_cached, 16 * sizeof(dist_t));
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(BlockCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  // One shard, room for exactly two 64-element blocks.
  BlockCache cache(2 * 64 * sizeof(dist_t), /*shards=*/1);
  auto load = [](dist_t v) { return [v] { return make_block(64, v); }; };
  cache.get_or_load(0, 0, load(0));
  cache.get_or_load(0, 1, load(1));
  cache.get_or_load(0, 0, load(0));   // touch (0,0): (0,1) is now LRU
  cache.get_or_load(0, 2, load(2));   // evicts (0,1)
  int reloaded = 0;
  cache.get_or_load(0, 0, [&] { ++reloaded; return make_block(64, 0); });
  cache.get_or_load(0, 2, [&] { ++reloaded; return make_block(64, 2); });
  EXPECT_EQ(reloaded, 0);  // survivors still cached
  cache.get_or_load(0, 1, [&] { ++reloaded; return make_block(64, 1); });
  EXPECT_EQ(reloaded, 1);  // the LRU victim was really gone
  EXPECT_GE(cache.stats().evictions, 1);
}

TEST(BlockCache, OversizedSingleBlockStillServed) {
  // A block larger than a whole shard's budget must be served (and counted),
  // not thrashed into an infinite load loop.
  BlockCache cache(32 * sizeof(dist_t), /*shards=*/1);
  const auto big = cache.get_or_load(0, 0, [] { return make_block(4096, 9); });
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big->size(), 4096u);
  // The just-inserted entry is kept even though it exceeds the budget.
  int reloaded = 0;
  cache.get_or_load(0, 0, [&] { ++reloaded; return make_block(4096, 9); });
  EXPECT_EQ(reloaded, 0);
}

TEST(BlockCache, EvictionKeepsDataAliveForHolders) {
  BlockCache cache(64 * sizeof(dist_t), /*shards=*/1);
  const auto held = cache.get_or_load(0, 0, [] { return make_block(64, 3); });
  cache.get_or_load(0, 1, [] { return make_block(64, 4); });  // evicts (0,0)
  // The shared_ptr we still hold is untouched by the eviction.
  EXPECT_EQ(held->at(0), 3);
  EXPECT_EQ(held->size(), 64u);
}

TEST(BlockCache, ClearDropsEntriesKeepsCounters) {
  BlockCache cache(1u << 20, 4);
  cache.get_or_load(1, 2, [] { return make_block(8, 1); });
  cache.get_or_load(1, 2, [] { return make_block(8, 1); });
  cache.clear();
  auto s = cache.stats();
  EXPECT_EQ(s.bytes_cached, 0u);
  EXPECT_EQ(s.hits, 1);
  int reloaded = 0;
  cache.get_or_load(1, 2, [&] { ++reloaded; return make_block(8, 1); });
  EXPECT_EQ(reloaded, 1);
}

/// Solves a graph and returns (store, result) for engine tests.
struct Solved {
  std::unique_ptr<DistStore> store;
  core::ApspResult result;
};

Solved solve(const graph::CsrGraph& g, core::Algorithm algo) {
  core::ApspOptions o;
  o.device = sim::DeviceSpec::v100_scaled(2u << 20);
  o.fw_tile = 32;
  o.algorithm = algo;
  Solved s;
  s.store = core::make_ram_store(g.num_vertices());
  s.result = core::solve_apsp(g, o, *s.store);
  return s;
}

TEST(QueryEngine, PointAndRowMatchStore) {
  const auto g = graph::make_road(12, 12, 501);
  const auto s = solve(g, core::Algorithm::kJohnson);
  QueryEngineOptions opt;
  opt.block_size = 37;  // force ragged multi-tile coverage
  opt.cache_bytes = 1u << 20;
  const QueryEngine engine(*s.store, opt, s.result.perm);
  Rng rng(11);
  const vidx_t n = g.num_vertices();
  for (int t = 0; t < 200; ++t) {
    const auto u = static_cast<vidx_t>(rng.next_below(n));
    const auto v = static_cast<vidx_t>(rng.next_below(n));
    EXPECT_EQ(engine.point(u, v),
              s.store->at(s.result.stored_id(u), s.result.stored_id(v)));
  }
  const vidx_t u = 5;
  const auto row = engine.row(u);
  ASSERT_EQ(row.size(), static_cast<std::size_t>(n));
  for (vidx_t v = 0; v < n; ++v) {
    EXPECT_EQ(row[v],
              s.store->at(s.result.stored_id(u), s.result.stored_id(v)));
  }
}

TEST(QueryEngine, PermutedBoundarySolveAnswersInOriginalIds) {
  // The boundary algorithm relabels vertices; the engine must translate so
  // callers query in the graph's own ids.
  const auto g = graph::make_road(14, 14, 502);
  const auto s = solve(g, core::Algorithm::kBoundary);
  ASSERT_FALSE(s.result.perm.empty());  // the permutation is real here
  QueryEngineOptions opt;
  opt.block_size = 64;
  const QueryEngine engine(*s.store, opt, s.result.perm);
  const vidx_t n = g.num_vertices();
  Rng rng(12);
  for (int t = 0; t < 100; ++t) {
    const auto u = static_cast<vidx_t>(rng.next_below(n));
    const auto ref = test::ref_row(g, u);
    const auto v = static_cast<vidx_t>(rng.next_below(n));
    EXPECT_EQ(engine.point(u, v), ref[v]);
  }
  const auto row = engine.row(3);
  const auto ref = test::ref_row(g, 3);
  for (vidx_t v = 0; v < n; ++v) EXPECT_EQ(row[v], ref[v]);
}

TEST(QueryEngine, BlockReadsStoredTile) {
  const auto g = graph::make_mesh(90, 6, 503);
  const auto s = solve(g, core::Algorithm::kJohnson);
  QueryEngineOptions opt;
  opt.block_size = 32;
  const QueryEngine engine(*s.store, opt, s.result.perm);
  // A tile straddling four cache blocks, ragged at the matrix edge.
  const vidx_t row0 = 25, col0 = 17, rows = 40, cols = 50;
  std::vector<dist_t> got(static_cast<std::size_t>(rows) * cols, -1);
  engine.block(row0, col0, rows, cols, got.data(), cols);
  std::vector<dist_t> want(got.size(), -2);
  s.store->read_block(row0, col0, rows, cols, want.data(), cols);
  EXPECT_EQ(got, want);
}

TEST(QueryEngine, WarmBatchHitsCacheOnly) {
  const auto g = graph::make_road(10, 10, 504);
  const auto s = solve(g, core::Algorithm::kJohnson);
  const QueryEngine engine(*s.store, {}, s.result.perm);
  std::vector<Query> qs;
  Rng rng(13);
  for (int i = 0; i < 300; ++i) {
    qs.push_back({QueryKind::kPoint, static_cast<vidx_t>(rng.next_below(100)),
                  static_cast<vidx_t>(rng.next_below(100))});
  }
  qs.push_back({QueryKind::kRow, 7, 0});
  const auto cold = engine.run_batch(qs);
  const auto warm = engine.run_batch(qs);
  EXPECT_EQ(warm.cache.misses, cold.cache.misses);  // nothing new loaded
  EXPECT_GT(warm.cache.hits, cold.cache.hits);
  EXPECT_EQ(warm.results.size(), qs.size());
  EXPECT_GT(warm.qps, 0.0);
  EXPECT_EQ(warm.latency.count, qs.size());
  EXPECT_GE(warm.latency.p95_s, warm.latency.p50_s);
  EXPECT_GE(warm.latency.max_s, warm.latency.p95_s);
  // Batch results equal direct calls, in input order.
  for (std::size_t i = 0; i + 1 < qs.size(); ++i) {
    EXPECT_EQ(warm.results[i].dist, engine.point(qs[i].u, qs[i].v));
  }
  EXPECT_EQ(warm.results.back().row, engine.row(7));
}

TEST(QueryEngine, ConcurrentBatchUnderTinyCacheMatchesStore) {
  // A cache far smaller than the matrix forces constant eviction while the
  // pool fans out; answers must still match the store exactly.
  const auto g = graph::make_mesh(150, 5, 505);
  const auto s = solve(g, core::Algorithm::kJohnson);
  QueryEngineOptions opt;
  opt.block_size = 24;
  opt.cache_bytes = 4 * 24 * 24 * sizeof(dist_t);  // ~4 tiles
  opt.cache_shards = 2;
  const QueryEngine engine(*s.store, opt, s.result.perm);
  std::vector<Query> qs;
  Rng rng(14);
  const vidx_t n = g.num_vertices();
  for (int i = 0; i < 1500; ++i) {
    qs.push_back({QueryKind::kPoint, static_cast<vidx_t>(rng.next_below(n)),
                  static_cast<vidx_t>(rng.next_below(n))});
  }
  const auto rep = engine.run_batch(qs);
  EXPECT_GT(rep.cache.evictions, 0);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(rep.results[i].dist,
              s.store->at(s.result.stored_id(qs[i].u),
                          s.result.stored_id(qs[i].v)))
        << "query " << i;
  }
}

TEST(QueryService, FileStoreEndToEnd) {
  // Solve into a kept file store, reopen it read-only via open_file_store,
  // and serve queries: the engine runs over any DistStore, not only the
  // GAPSPZ1 stores the CLI keeps.
  const std::string path = "query_service_e2e.bin";
  const auto g = graph::make_road(11, 11, 506);
  const vidx_t n = g.num_vertices();
  core::ApspOptions o;
  o.device = sim::DeviceSpec::v100_scaled(2u << 20);
  o.fw_tile = 32;
  o.algorithm = core::Algorithm::kJohnson;
  core::ApspResult result;
  {
    auto store = core::make_file_store(n, path, /*keep_file=*/true);
    result = core::solve_apsp(g, o, *store);
  }  // store closed; file kept
  auto reopened = core::open_file_store(path);
  ASSERT_EQ(reopened->n(), n);
  QueryEngineOptions opt;
  opt.block_size = 48;
  const QueryEngine engine(*reopened, opt, result.perm);
  Rng rng(15);
  for (int t = 0; t < 150; ++t) {
    const auto u = static_cast<vidx_t>(rng.next_below(n));
    const auto ref = test::ref_row(g, u);
    const auto v = static_cast<vidx_t>(rng.next_below(n));
    ASSERT_EQ(engine.point(u, v), ref[v]) << u << "," << v;
  }
  std::remove(path.c_str());
}

TEST(QueryService, OpenFileStoreRejectsMissingAndMisSized) {
  EXPECT_THROW(core::open_file_store("no_such_store_file.bin"), IoError);
  const std::string path = "query_service_badsize.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    // 7 dist_t elements: not a square matrix of any integer dimension.
    const dist_t junk[7] = {};
    std::fwrite(junk, sizeof(dist_t), 7, f);
    std::fclose(f);
  }
  EXPECT_THROW(core::open_file_store(path), IoError);
  std::remove(path.c_str());
}

TEST(BlockCache, NegativeTileEntriesChargeNoBytes) {
  // Budget fits exactly one real 16-element block; the shared all-kInf
  // tile is far larger, yet caching it must cost nothing and never evict.
  BlockCache cache(16 * sizeof(dist_t), /*shards=*/1);
  const auto inf = make_block(1024, kInf);
  cache.set_negative_tile(inf);
  int neg_loads = 0;
  auto neg_loader = [&] {
    ++neg_loads;
    return inf;
  };
  const auto a = cache.get_or_load(0, 0, neg_loader);
  EXPECT_EQ(a.get(), inf.get());
  cache.get_or_load(0, 0, neg_loader);  // now a hit
  EXPECT_EQ(neg_loads, 1);
  cache.get_or_load(5, 5, [] { return make_block(16, 3); });
  // A flood of negative tiles must not push the real block out.
  for (vidx_t i = 1; i < 40; ++i) cache.get_or_load(i, 0, neg_loader);
  int reloaded = 0;
  cache.get_or_load(5, 5, [&] {
    ++reloaded;
    return make_block(16, 3);
  });
  EXPECT_EQ(reloaded, 0);
  const auto s = cache.stats();
  EXPECT_EQ(s.negative_loads, 40);
  EXPECT_EQ(s.bytes_cached, 16 * sizeof(dist_t));
  EXPECT_EQ(s.evictions, 0);
}

TEST(QueryEngine, NegativeTilesServeDisconnectedRegionsAtZeroCost) {
  // Two disjoint line components over a raw RAM store: the engine's
  // scan-on-load path must collapse every cross-component tile to the
  // shared all-kInf tile instead of spending cache budget on it.
  std::vector<graph::Edge> edges;
  const vidx_t half = 60;
  for (vidx_t v = 0; v + 1 < half; ++v) {
    edges.push_back({v, v + 1, 2});
    edges.push_back({half + v, half + v + 1, 3});
  }
  const auto g = graph::CsrGraph::from_edges(2 * half, std::move(edges), true);
  const auto s = solve(g, core::Algorithm::kJohnson);
  QueryEngineOptions opt;
  opt.block_size = 30;  // cross-component tiles are pure kInf
  const QueryEngine engine(*s.store, opt, s.result.perm);
  for (vidx_t u = 0; u < half; u += 11) {
    for (vidx_t v = half; v < 2 * half; v += 13) {
      ASSERT_EQ(engine.point(u, v), kInf);
      ASSERT_EQ(engine.point(v, u), kInf);
    }
  }
  const auto cs = engine.cache_stats();
  EXPECT_GT(cs.negative_loads, 0);
  EXPECT_EQ(cs.bytes_cached, 0u);  // only all-kInf tiles were touched
}

TEST(QueryEngine, CompressedStoreServesIdenticalAnswers) {
  // Solve → compress → serve: the engine snaps its grid to the stored
  // tiling and must answer exactly like the raw store, point and row.
  const auto g = graph::make_road(13, 12, 507);
  const auto s = solve(g, core::Algorithm::kBoundary);
  const std::string zpath = ::testing::TempDir() + "gapsp_query_z.bin";
  const auto cstats = core::write_compressed_store(*s.store, zpath,
                                                   /*tile=*/40);
  EXPECT_GT(cstats.ratio(), 1.0);
  const auto z = core::open_store(zpath);
  QueryEngineOptions opt;
  opt.block_size = 64;  // deliberately misaligned: the engine must snap
  const QueryEngine raw(*s.store, {}, s.result.perm);
  const QueryEngine zq(*z, opt, s.result.perm);
  std::vector<Query> qs;
  Rng rng(16);
  const vidx_t n = g.num_vertices();
  for (int i = 0; i < 400; ++i) {
    qs.push_back({QueryKind::kPoint, static_cast<vidx_t>(rng.next_below(n)),
                  static_cast<vidx_t>(rng.next_below(n))});
  }
  qs.push_back({QueryKind::kRow, 9, 0});
  const auto want = raw.run_batch(qs);
  const auto got = zq.run_batch(qs);
  ASSERT_EQ(got.results.size(), want.results.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(got.results[i].dist, want.results[i].dist) << "query " << i;
    ASSERT_EQ(got.results[i].row, want.results[i].row) << "query " << i;
  }
  std::remove(zpath.c_str());
}

TEST(BlockCache, ByteBudgetDistributesDivisionRemainder) {
  // Regression: the per-shard budget used to be the truncating
  // capacity/shards, silently dropping capacity%shards bytes — with small
  // budgets and many shards most of the configured capacity vanished.
  // 60 bytes over 8 shards truncated to 7 bytes/shard, so no shard could
  // ever hold two 4-byte tiles: at most 8 × 4 = 32 bytes cached. With the
  // remainder spread to the leading shards (4 shards of 8 bytes, 4 of 7),
  // half the shards hold two tiles and a full sweep settles above 32.
  BlockCache cache(60, /*shards=*/8);
  for (vidx_t i = 0; i < 400; ++i) {
    cache.get_or_load(i, i, [] { return make_block(1, 1); });
  }
  const auto s = cache.stats();
  EXPECT_GT(s.bytes_cached, 32u);   // pre-fix ceiling
  EXPECT_LE(s.bytes_cached, 60u);   // never above the configured budget
}

TEST(BlockCache, TinyBudgetStillServesEveryShard) {
  // capacity < shards: every shard's budget rounds to 0 or 1 byte; each
  // still keeps its most recent (oversized) block instead of thrashing.
  BlockCache cache(3, /*shards=*/8);
  for (vidx_t i = 0; i < 64; ++i) {
    const auto b = cache.get_or_load(i, 0, [] { return make_block(4, 2); });
    ASSERT_NE(b, nullptr);
    int reloaded = 0;
    cache.get_or_load(i, 0, [&] { ++reloaded; return make_block(4, 2); });
    EXPECT_EQ(reloaded, 0) << "block " << i << " not retained";
  }
}

TEST(LatencyStats, PercentileInterpolatesBetweenRanks) {
  // Regression: percentile() used nearest-rank (llround(q·(n−1))), so with
  // few samples p95 collapsed onto the max and p50 onto an arbitrary
  // neighbor. Linear interpolation gives the textbook values.
  const std::vector<double> four = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(latency_percentile(four, 0.50), 2.5);   // was 3
  EXPECT_DOUBLE_EQ(latency_percentile(four, 0.95), 3.85);  // was 4 == max
  EXPECT_DOUBLE_EQ(latency_percentile(four, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(latency_percentile(four, 1.0), 4.0);
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(latency_percentile(ten, 0.95), 9.55);
  EXPECT_DOUBLE_EQ(latency_percentile(ten, 0.25), 3.25);
  EXPECT_DOUBLE_EQ(latency_percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(latency_percentile({7.0}, 0.95), 7.0);
}

TEST(QueryService, ReadOnlyStoreRejectsWrites) {
  const std::string path = "query_service_ro.bin";
  {
    auto store = core::make_file_store(4, path, /*keep_file=*/true);
    std::vector<dist_t> row(4, 1);
    for (vidx_t r = 0; r < 4; ++r) {
      store->write_block(r, 0, 1, 4, row.data(), 4);
    }
  }
  auto ro = core::open_file_store(path);
  EXPECT_EQ(ro->at(2, 3), 1);
  dist_t one = 5;
  EXPECT_THROW(ro->write_block(0, 0, 1, 1, &one, 1), IoError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gapsp::service
