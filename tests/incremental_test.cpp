// IncrementalEngine correctness: bit-parity against a from-scratch solve on
// every graph × update-pattern cell, kill-mid-update resume, threshold
// fallback, permuted layouts, and the QueryEngine::apply_updates serving
// path. The oracle is a Dijkstra sweep over the updated graph — the same
// master oracle the solver tests use.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/checkpoint.h"
#include "core/compressed_store.h"
#include "core/cost_model.h"
#include "core/incremental.h"
#include "core/tile_error.h"
#include "graph/generators.h"
#include "sim/device_spec.h"
#include "sssp/dijkstra.h"
#include "service/query_engine.h"
#include "test_util.h"
#include "util/rng.h"

namespace gapsp {
namespace {

using core::DistStore;
using core::EdgeUpdate;
using core::IncrementalEngine;
using core::IncrementalOptions;
using core::UpdateOutcome;
using graph::CsrGraph;

// Exact APSP by Dijkstra sweep, written in stored order (perm[v] = stored
// id, empty = identity).
void fill_exact(const CsrGraph& g, DistStore& store,
                const std::vector<vidx_t>& perm = {}) {
  const vidx_t n = g.num_vertices();
  std::vector<dist_t> by_vertex(static_cast<std::size_t>(n));
  std::vector<dist_t> row(static_cast<std::size_t>(n));
  for (vidx_t u = 0; u < n; ++u) {
    sssp::dijkstra_into(g, u, by_vertex);
    const vidx_t su = perm.empty() ? u : perm[static_cast<std::size_t>(u)];
    if (perm.empty()) {
      store.write_block(su, 0, 1, n, by_vertex.data(),
                        static_cast<std::size_t>(n));
    } else {
      for (vidx_t v = 0; v < n; ++v) {
        row[perm[static_cast<std::size_t>(v)]] =
            by_vertex[static_cast<std::size_t>(v)];
      }
      store.write_block(su, 0, 1, n, row.data(), static_cast<std::size_t>(n));
    }
  }
}

void expect_stores_equal(const DistStore& got, const DistStore& want) {
  const vidx_t n = got.n();
  ASSERT_EQ(n, want.n());
  std::vector<dist_t> a(static_cast<std::size_t>(n));
  std::vector<dist_t> b(static_cast<std::size_t>(n));
  for (vidx_t i = 0; i < n; ++i) {
    got.read_block(i, 0, 1, n, a.data(), a.size());
    want.read_block(i, 0, 1, n, b.data(), b.size());
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(dist_t)))
        << "row " << i << " differs";
  }
}

enum class Pattern { kDecrease, kIncrease, kMixed, kDeleteInsert };

std::vector<EdgeUpdate> make_batch(const CsrGraph& g, Pattern pattern,
                                   std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  const vidx_t n = g.num_vertices();
  std::vector<EdgeUpdate> batch;
  while (batch.size() < count) {
    const auto u = static_cast<vidx_t>(rng.next_below(n));
    const auto nbrs = g.neighbors(u);
    const auto ws = g.weights(u);
    const bool want_decrease =
        pattern == Pattern::kDecrease ||
        (pattern == Pattern::kMixed && rng.next_below(2) == 0);
    if (pattern == Pattern::kDeleteInsert) {
      if (rng.next_below(2) == 0 && !nbrs.empty()) {
        const auto e = rng.next_below(nbrs.size());
        batch.push_back({u, nbrs[e], kInf});  // delete
      } else {
        const auto v = static_cast<vidx_t>(rng.next_below(n));
        if (v == u) continue;
        batch.push_back(
            {u, v, static_cast<dist_t>(1 + rng.next_below(40))});  // insert
      }
      continue;
    }
    if (nbrs.empty()) continue;
    const auto e = rng.next_below(nbrs.size());
    const dist_t w = ws[e];
    if (want_decrease) {
      if (w <= 1) continue;
      batch.push_back(
          {u, nbrs[e], static_cast<dist_t>(rng.next_below(
                           static_cast<std::uint64_t>(w)))});  // [0, w)
    } else {
      batch.push_back(
          {u, nbrs[e],
           static_cast<dist_t>(w + 1 + rng.next_below(60))});  // grow
    }
  }
  return batch;
}

struct Cell {
  const char* graph;
  CsrGraph g;
};

std::vector<Cell> parity_graphs() {
  std::vector<Cell> cells;
  cells.push_back({"road", graph::make_road(12, 10, 7)});
  cells.push_back({"er", graph::make_erdos_renyi(130, 420, 11)});
  cells.push_back({"mesh", graph::make_mesh(110, 6, 13)});
  return cells;
}

void run_parity(Pattern pattern, std::size_t count) {
  for (auto& cell : parity_graphs()) {
    for (std::uint64_t seed : {1u, 2u}) {
      SCOPED_TRACE(std::string(cell.graph) + " seed " + std::to_string(seed));
      const auto batch = make_batch(cell.g, pattern, count, seed);
      const vidx_t n = cell.g.num_vertices();
      auto store = core::make_ram_store(n);
      fill_exact(cell.g, *store);

      IncrementalOptions opt;
      opt.tile = 32;
      IncrementalEngine engine(cell.g, opt);
      const UpdateOutcome out = engine.apply_in_place(*store, batch);

      const CsrGraph updated = core::apply_edge_updates(cell.g, batch);
      auto want = core::make_ram_store(n);
      fill_exact(updated, *want);
      expect_stores_equal(*store, *want);
      EXPECT_GT(out.decreases + out.increases, 0);
      EXPECT_GE(out.seconds, 0.0);
    }
  }
}

TEST(Incremental, ParityDecreaseOnly) { run_parity(Pattern::kDecrease, 8); }
TEST(Incremental, ParityIncreaseOnly) { run_parity(Pattern::kIncrease, 8); }
TEST(Incremental, ParityMixed) { run_parity(Pattern::kMixed, 12); }
TEST(Incremental, ParityDeleteInsert) {
  run_parity(Pattern::kDeleteInsert, 10);
}

TEST(Incremental, ParityLargeBatch) { run_parity(Pattern::kMixed, 60); }

TEST(Incremental, NoopBatchTouchesNothing) {
  const CsrGraph g = graph::make_road(8, 8, 3);
  const vidx_t n = g.num_vertices();
  auto store = core::make_ram_store(n);
  fill_exact(g, *store);
  // Re-assert every existing weight plus a self-loop insert.
  std::vector<EdgeUpdate> batch;
  for (vidx_t u = 0; u < std::min<vidx_t>(n, 10); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto ws = g.weights(u);
    for (std::size_t e = 0; e < nbrs.size(); ++e) {
      batch.push_back({u, nbrs[e], ws[e]});
    }
  }
  batch.push_back({0, 0, 5});
  IncrementalEngine engine(g);
  bool emitted = false;
  const UpdateOutcome out = engine.apply(
      *store, batch,
      [&](vidx_t, vidx_t, vidx_t, vidx_t, vidx_t, vidx_t, const dist_t*) {
        emitted = true;
      });
  EXPECT_FALSE(emitted);
  EXPECT_EQ(out.tiles_touched, 0);
  EXPECT_EQ(out.decreases, 0);
  EXPECT_EQ(out.increases, 0);
  EXPECT_GT(out.noops, 0);
}

TEST(Incremental, DecreaseOnlySkipsProbeAndSssp) {
  const CsrGraph g = graph::make_road(10, 10, 5);
  const vidx_t n = g.num_vertices();
  auto store = core::make_ram_store(n);
  fill_exact(g, *store);
  const auto batch = make_batch(g, Pattern::kDecrease, 6, 9);
  IncrementalEngine engine(g);
  const UpdateOutcome out = engine.apply_in_place(*store, batch);
  EXPECT_EQ(out.damaged_rows, 0);
  EXPECT_GT(out.sources, 0);
  auto want = core::make_ram_store(n);
  fill_exact(core::apply_edge_updates(g, batch), *want);
  expect_stores_equal(*store, *want);
}

TEST(Incremental, ThresholdZeroForcesFullSolve) {
  const CsrGraph g = graph::make_road(9, 9, 17);
  const vidx_t n = g.num_vertices();
  auto store = core::make_ram_store(n);
  fill_exact(g, *store);
  const auto batch = make_batch(g, Pattern::kIncrease, 4, 21);
  IncrementalOptions opt;
  opt.damage_threshold = 0.0;
  IncrementalEngine engine(g, opt);
  const UpdateOutcome out = engine.apply_in_place(*store, batch);
  EXPECT_TRUE(out.full_solve);
  auto want = core::make_ram_store(n);
  fill_exact(core::apply_edge_updates(g, batch), *want);
  expect_stores_equal(*store, *want);
}

TEST(Incremental, ThresholdOneNeverFallsBack) {
  const CsrGraph g = graph::make_road(9, 9, 17);
  const vidx_t n = g.num_vertices();
  auto store = core::make_ram_store(n);
  fill_exact(g, *store);
  const auto batch = make_batch(g, Pattern::kIncrease, 20, 23);
  IncrementalOptions opt;
  opt.damage_threshold = 1.0;
  IncrementalEngine engine(g, opt);
  const UpdateOutcome out = engine.apply_in_place(*store, batch);
  EXPECT_FALSE(out.full_solve);
  auto want = core::make_ram_store(n);
  fill_exact(core::apply_edge_updates(g, batch), *want);
  expect_stores_equal(*store, *want);
}

TEST(Incremental, PermutedStoreRepairs) {
  const CsrGraph g = graph::make_road(9, 8, 29);
  const vidx_t n = g.num_vertices();
  // A deterministic non-trivial permutation (reversal).
  std::vector<vidx_t> perm(static_cast<std::size_t>(n));
  for (vidx_t v = 0; v < n; ++v) {
    perm[static_cast<std::size_t>(v)] = n - 1 - v;
  }
  auto store = core::make_ram_store(n);
  fill_exact(g, *store, perm);
  const auto batch = make_batch(g, Pattern::kMixed, 10, 31);
  IncrementalEngine engine(g, {}, perm);
  engine.apply_in_place(*store, batch);
  auto want = core::make_ram_store(n);
  fill_exact(core::apply_edge_updates(g, batch), *want, perm);
  expect_stores_equal(*store, *want);
}

TEST(Incremental, PermutedStoreFullSolveFallbackPreservesLayout) {
  const CsrGraph g = graph::make_road(8, 8, 37);
  const vidx_t n = g.num_vertices();
  std::vector<vidx_t> perm(static_cast<std::size_t>(n));
  for (vidx_t v = 0; v < n; ++v) {
    perm[static_cast<std::size_t>(v)] = (v * 7 + 3) % n;  // 7 coprime to 64
  }
  auto store = core::make_ram_store(n);
  fill_exact(g, *store, perm);
  const auto batch = make_batch(g, Pattern::kIncrease, 4, 41);
  IncrementalOptions opt;
  opt.damage_threshold = 0.0;
  IncrementalEngine engine(g, opt, perm);
  const UpdateOutcome out = engine.apply_in_place(*store, batch);
  EXPECT_TRUE(out.full_solve);
  auto want = core::make_ram_store(n);
  fill_exact(core::apply_edge_updates(g, batch), *want, perm);
  expect_stores_equal(*store, *want);
}

TEST(Incremental, DisconnectedComponentsBridgedByInsert) {
  // Two disjoint 3-cycles; the update inserts a bridge, turning all-kInf
  // cross tiles finite — the inf fast path and a large frontier at once.
  std::vector<graph::Edge> edges = {{0, 1, 2}, {1, 2, 2}, {2, 0, 2},
                                    {3, 4, 3}, {4, 5, 3}, {5, 3, 3}};
  const CsrGraph g = CsrGraph::from_edges(6, edges, true);
  auto store = core::make_ram_store(6);
  fill_exact(g, *store);
  const std::vector<EdgeUpdate> batch = {{2, 3, 1}, {3, 2, 1}};
  IncrementalOptions opt;
  opt.tile = 2;
  IncrementalEngine engine(g, opt);
  const UpdateOutcome out = engine.apply_in_place(*store, batch);
  EXPECT_GT(out.tiles_touched, 0);
  auto want = core::make_ram_store(6);
  fill_exact(core::apply_edge_updates(g, batch), *want);
  expect_stores_equal(*store, *want);
}

TEST(Incremental, CompressedPristineSource) {
  const CsrGraph g = graph::make_road(10, 9, 43);
  const vidx_t n = g.num_vertices();
  auto ram = core::make_ram_store(n);
  fill_exact(g, *ram);
  const std::string path =
      (std::filesystem::temp_directory_path() / "gapsp_inc_z1.bin").string();
  core::write_compressed_store(*ram, path, /*tile=*/16);
  auto pristine = core::open_store(path);
  ASSERT_EQ(pristine->tile_size(), 16);

  const auto batch = make_batch(g, Pattern::kMixed, 10, 47);
  // Repair into a copy, reading tiles from the compressed store.
  auto target = core::make_ram_store(n);
  fill_exact(g, *target);
  IncrementalEngine engine(g);
  engine.apply(*pristine, batch,
               [&](vidx_t, vidx_t, vidx_t r0, vidx_t c0, vidx_t rows,
                   vidx_t cols, const dist_t* data) {
                 target->write_block(r0, c0, rows, cols, data,
                                     static_cast<std::size_t>(cols));
               });
  auto want = core::make_ram_store(n);
  fill_exact(core::apply_edge_updates(g, batch), *want);
  expect_stores_equal(*target, *want);
  std::filesystem::remove(path);
}

TEST(Incremental, UpdatedGraphAndEditSemantics) {
  std::vector<graph::Edge> edges = {{0, 1, 5}, {1, 2, 5}};
  const CsrGraph g = CsrGraph::from_edges(3, edges, false);
  // Last update of an arc wins; delete removes; insert adds.
  const std::vector<EdgeUpdate> batch = {
      {0, 1, 9}, {0, 1, 2}, {1, 2, kInf}, {2, 0, 4}};
  const CsrGraph u = core::apply_edge_updates(g, batch);
  EXPECT_EQ(u.num_edges(), 2);  // (0,1) kept at 2, (1,2) deleted, (2,0) new
  auto store = core::make_ram_store(3);
  fill_exact(g, *store);
  IncrementalEngine engine(g);
  engine.apply_in_place(*store, batch);
  EXPECT_EQ(store->at(0, 1), 2);
  EXPECT_EQ(store->at(1, 2), kInf);  // only path was the deleted arc
  EXPECT_EQ(store->at(2, 1), 4 + 2);
  // updated_graph() is the post-batch graph.
  EXPECT_EQ(engine.updated_graph().num_edges(), 2);
}

// ---- checkpointed resume (kill-mid-update chaos) ----------------------

struct CrashAfter {
  explicit CrashAfter(int limit) : limit(limit) {}
  int limit;
  int emitted = 0;
};

// Runs the repair against `pristine` writing into `target`, crashing
// (throwing) after `crash_after` emitted tiles; then resumes and checks
// bit-parity. Mirrors what `apsp_cli update --resume` does after a kill.
void run_crash_resume(int crash_after) {
  const CsrGraph g = graph::make_road(10, 10, 53);
  const vidx_t n = g.num_vertices();
  auto pristine = core::make_ram_store(n);
  fill_exact(g, *pristine);
  const auto batch = make_batch(g, Pattern::kMixed, 14, 59);

  const std::string ck =
      (std::filesystem::temp_directory_path() /
       ("gapsp_inc_ck_" + std::to_string(crash_after) + ".ck"))
          .string();
  std::filesystem::remove(ck);

  auto target = core::make_ram_store(n);
  fill_exact(g, *target);  // the CLI's tmp copy of the pristine store

  IncrementalOptions opt;
  opt.tile = 16;
  opt.checkpoint_path = ck;
  opt.checkpoint_every_tiles = 1;  // checkpoint after every tile

  CrashAfter crash(crash_after);
  bool crashed = false;
  try {
    IncrementalEngine engine(g, opt);
    engine.apply(*pristine, batch,
                 [&](vidx_t, vidx_t, vidx_t r0, vidx_t c0, vidx_t rows,
                     vidx_t cols, const dist_t* data) {
                   if (crash.emitted >= crash.limit) {
                     throw std::runtime_error("injected crash");
                   }
                   ++crash.emitted;
                   target->write_block(r0, c0, rows, cols, data,
                                       static_cast<std::size_t>(cols));
                 });
  } catch (const std::runtime_error&) {
    crashed = true;
  }

  UpdateOutcome out2;
  {
    IncrementalOptions ropt = opt;
    ropt.resume = true;
    IncrementalEngine engine(g, ropt);
    out2 = engine.apply(*pristine, batch,
                        [&](vidx_t, vidx_t, vidx_t r0, vidx_t c0, vidx_t rows,
                            vidx_t cols, const dist_t* data) {
                          target->write_block(r0, c0, rows, cols, data,
                                              static_cast<std::size_t>(cols));
                        });
  }
  // With checkpoint_every_tiles=1 every candidate processed before the
  // crashing emission was checkpointed, so resuming skips at least those.
  // (crash_after==0 dies on the very first emission — the checkpoint may
  // legitimately still sit at progress 0.)
  if (crashed && crash_after >= 1) {
    EXPECT_GT(out2.tiles_resumed, 0) << "crash_after=" << crash_after;
  }

  auto want = core::make_ram_store(n);
  fill_exact(core::apply_edge_updates(g, batch), *want);
  expect_stores_equal(*target, *want);
  // The sidecar is removed once the repair completes.
  core::Checkpoint unused;
  EXPECT_FALSE(core::read_checkpoint(ck, &unused));
  std::filesystem::remove(ck);
}

TEST(IncrementalResume, KillAtEveryTile) {
  // First find how many tiles an uninterrupted run emits, then crash at
  // every prefix (bounded to keep the sweep fast).
  const CsrGraph g = graph::make_road(10, 10, 53);
  const vidx_t n = g.num_vertices();
  auto pristine = core::make_ram_store(n);
  fill_exact(g, *pristine);
  const auto batch = make_batch(g, Pattern::kMixed, 14, 59);
  IncrementalOptions opt;
  opt.tile = 16;
  IncrementalEngine engine(g, opt);
  long long emitted = 0;
  engine.apply(*pristine, batch,
               [&](vidx_t, vidx_t, vidx_t, vidx_t, vidx_t, vidx_t,
                   const dist_t*) { ++emitted; });
  ASSERT_GT(emitted, 1);
  for (int k = 0; k <= std::min<long long>(emitted, 8); ++k) {
    SCOPED_TRACE("crash after " + std::to_string(k) + " tiles");
    run_crash_resume(k);
  }
}

TEST(IncrementalResume, CheckpointFingerprintMatchesRawBatch) {
  // apsp_cli gates its keep-the-tmp-copy decision on
  // incremental_fingerprint(raw batch); the engine must write exactly that
  // fingerprint into the sidecar even though it classifies (dedups,
  // canonicalizes) the batch internally. A mismatch makes the CLI re-copy
  // the pristine matrix over tiles the checkpoint then skips — stale data.
  const CsrGraph g = graph::make_road(8, 8, 21);
  const vidx_t n = g.num_vertices();
  auto pristine = core::make_ram_store(n);
  fill_exact(g, *pristine);
  // Duplicate + noop entries guarantee the classified batch differs from
  // the raw one.
  std::vector<core::EdgeUpdate> batch = make_batch(g, Pattern::kMixed, 6, 77);
  batch.push_back(batch.front());
  const auto arc_w = [&](vidx_t u, vidx_t v) {  // kInf when absent -> noop
    const auto nbrs = g.neighbors(u);
    const auto ws = g.weights(u);
    for (std::size_t e = 0; e < nbrs.size(); ++e) {
      if (nbrs[e] == v) return ws[e];
    }
    return kInf;
  };
  batch.push_back({0, 1, arc_w(0, 1)});

  const std::string ck = (std::filesystem::temp_directory_path() /
                          "gapsp_inc_rawfp.ck")
                             .string();
  std::filesystem::remove(ck);
  IncrementalOptions opt;
  opt.tile = 16;
  opt.checkpoint_path = ck;
  IncrementalEngine engine(g, opt);
  try {
    engine.apply(*pristine, batch,
                 [&](vidx_t, vidx_t, vidx_t, vidx_t, vidx_t, vidx_t,
                     const dist_t*) {
                   throw std::runtime_error("stop after first emission");
                 });
  } catch (const std::runtime_error&) {
  }
  core::Checkpoint saved;
  ASSERT_TRUE(core::read_checkpoint(ck, &saved));
  EXPECT_EQ(saved.fingerprint,
            core::incremental_fingerprint(g, batch, opt.tile,
                                          opt.damage_threshold));
  std::filesystem::remove(ck);
}

TEST(IncrementalResume, SyncHookRunsBeforeEveryCheckpoint) {
  // apsp_cli flushes the buffered tmp store through this hook; a checkpoint
  // written without it can claim tiles a SIGKILL then discards from the
  // stdio buffer (the store resumes past bytes that never reached disk).
  const CsrGraph g = graph::make_road(8, 8, 91);
  const vidx_t n = g.num_vertices();
  auto store = core::make_ram_store(n);
  fill_exact(g, *store);
  const auto batch = make_batch(g, Pattern::kMixed, 8, 93);
  const std::string ck =
      (std::filesystem::temp_directory_path() / "gapsp_inc_sync.ck").string();
  IncrementalOptions opt;
  opt.tile = 16;
  opt.checkpoint_path = ck;
  opt.checkpoint_every_tiles = 1;
  long long syncs = 0;
  long long emitted_at_last_sync = -1;
  long long emitted = 0;
  opt.sync_before_checkpoint = [&] {
    ++syncs;
    emitted_at_last_sync = emitted;
  };
  IncrementalEngine engine(g, opt);
  const UpdateOutcome out = engine.apply(
      *store, batch,
      [&](vidx_t, vidx_t, vidx_t, vidx_t, vidx_t, vidx_t, const dist_t*) {
        ++emitted;
      });
  EXPECT_EQ(syncs, out.checkpoints_written);
  EXPECT_GT(syncs, 0);
  // The final checkpoint came after the last emit — nothing was claimed
  // while still unflushed.
  EXPECT_EQ(emitted_at_last_sync, emitted);
  std::filesystem::remove(ck);
}

TEST(IncrementalResume, TamperedCheckpointStartsFresh) {
  const CsrGraph g = graph::make_road(8, 8, 61);
  const vidx_t n = g.num_vertices();
  auto pristine = core::make_ram_store(n);
  fill_exact(g, *pristine);
  const auto batch = make_batch(g, Pattern::kMixed, 8, 67);
  const std::string ck =
      (std::filesystem::temp_directory_path() / "gapsp_inc_tamper.ck")
          .string();
  {
    std::ofstream out(ck, std::ios::binary);
    out << "GARBAGE NOT A CHECKPOINT";
  }
  auto target = core::make_ram_store(n);
  fill_exact(g, *target);
  IncrementalOptions opt;
  opt.tile = 16;
  opt.checkpoint_path = ck;
  opt.resume = true;
  IncrementalEngine engine(g, opt);
  const UpdateOutcome out = engine.apply_in_place(*target, batch);
  EXPECT_EQ(out.tiles_resumed, 0);
  auto want = core::make_ram_store(n);
  fill_exact(core::apply_edge_updates(g, batch), *want);
  expect_stores_equal(*target, *want);
  std::filesystem::remove(ck);
}

TEST(IncrementalResume, MismatchedBatchStartsFresh) {
  const CsrGraph g = graph::make_road(8, 8, 71);
  const vidx_t n = g.num_vertices();
  auto pristine = core::make_ram_store(n);
  fill_exact(g, *pristine);
  const auto batch_a = make_batch(g, Pattern::kMixed, 8, 73);
  const auto batch_b = make_batch(g, Pattern::kMixed, 8, 79);
  const std::string ck =
      (std::filesystem::temp_directory_path() / "gapsp_inc_mismatch.ck")
          .string();
  std::filesystem::remove(ck);
  // Crash a run of batch_a immediately so a checkpoint exists.
  IncrementalOptions opt;
  opt.tile = 16;
  opt.checkpoint_path = ck;
  opt.checkpoint_every_tiles = 1;
  try {
    IncrementalEngine engine(g, opt);
    engine.apply(*pristine, batch_a,
                 [&](vidx_t, vidx_t, vidx_t, vidx_t, vidx_t, vidx_t,
                     const dist_t*) { throw std::runtime_error("crash"); });
  } catch (const std::runtime_error&) {
  }
  // Resuming with a different batch must ignore the sidecar.
  auto target = core::make_ram_store(n);
  fill_exact(g, *target);
  IncrementalOptions ropt = opt;
  ropt.resume = true;
  IncrementalEngine engine(g, ropt);
  const UpdateOutcome out = engine.apply_in_place(*target, batch_b);
  EXPECT_EQ(out.tiles_resumed, 0);
  auto want = core::make_ram_store(n);
  fill_exact(core::apply_edge_updates(g, batch_b), *want);
  expect_stores_equal(*target, *want);
  std::filesystem::remove(ck);
}

// ---- update-file parsing ----------------------------------------------

TEST(Incremental, ReadEdgeUpdatesParsesAndRejects) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "gapsp_updates.txt").string();
  {
    std::ofstream out(path);
    out << "# comment\n"
        << "0 1 7\n"
        << "\n"
        << "2 3 inf\n"
        << "4 5 -1\n"
        << "6 7 x\n";
  }
  const auto ups = core::read_edge_updates(path);
  ASSERT_EQ(ups.size(), 4u);
  EXPECT_EQ(ups[0].w, 7);
  EXPECT_EQ(ups[1].w, kInf);
  EXPECT_EQ(ups[2].w, kInf);
  EXPECT_EQ(ups[3].w, kInf);
  {
    std::ofstream out(path);
    out << "0 1 notaweight\n";
  }
  EXPECT_THROW(core::read_edge_updates(path), Error);
  {
    std::ofstream out(path);
    out << "0 1 -7\n";
  }
  EXPECT_THROW(core::read_edge_updates(path), Error);
  EXPECT_THROW(core::read_edge_updates(path + ".missing"), IoError);
  std::filesystem::remove(path);
}

// ---- cost-model term ---------------------------------------------------

TEST(Incremental, CostModelTermScales) {
  const auto spec = sim::DeviceSpec::v100();
  const auto small =
      core::estimate_incremental(1000, 4000, 10, 5, 12, 256, spec);
  const auto more_tiles =
      core::estimate_incremental(1000, 4000, 10, 5, 120, 256, spec);
  EXPECT_GT(small.total(), 0.0);
  EXPECT_GT(more_tiles.total(), small.total());
  EXPECT_GT(more_tiles.tile_s, small.tile_s);
  // A 1%-churn repair must model far below the full re-solve.
  const double full = core::incremental_full_solve_model(1000, spec);
  EXPECT_GT(full, small.total());
  // Compressed wire ratio only lowers the transfer leg.
  const auto wired =
      core::estimate_incremental(1000, 4000, 10, 5, 12, 256, spec, 4.0);
  EXPECT_LT(wired.transfer_s, small.transfer_s);
}

TEST(Incremental, OutcomeReportsModeledWin) {
  const CsrGraph g = graph::make_road(12, 12, 83);
  const vidx_t n = g.num_vertices();
  auto store = core::make_ram_store(n);
  fill_exact(g, *store);
  const auto batch = make_batch(g, Pattern::kDecrease, 3, 89);
  IncrementalOptions opt;
  opt.tile = 16;
  IncrementalEngine engine(g, opt);
  const UpdateOutcome out = engine.apply_in_place(*store, batch);
  // At toy n the per-transfer latency legitimately dominates and the model
  // can favor the full solve; the crossover at realistic n is asserted in
  // CostModelTermScales. Here: both legs populated and finite.
  EXPECT_GT(out.modeled_repair_seconds, 0.0);
  EXPECT_GT(out.modeled_full_seconds, 0.0);
}

// ---- serving-path updates ----------------------------------------------

TEST(IncrementalServing, ApplyUpdatesServesNewDistances) {
  const CsrGraph g = graph::make_road(10, 10, 97);
  const vidx_t n = g.num_vertices();
  auto store = core::make_ram_store(n);
  fill_exact(g, *store);
  service::QueryEngineOptions qopt;
  qopt.block_size = 16;
  // Tiny budget: a tile is evicted almost immediately — the overlay, not
  // the stale store, must satisfy the re-miss.
  qopt.cache_bytes = 2 * 16 * 16 * sizeof(dist_t);
  qopt.cache_shards = 1;
  service::QueryEngine engine(*store, qopt);

  const auto batch = make_batch(g, Pattern::kMixed, 12, 101);
  const UpdateOutcome out = engine.apply_updates(g, batch);
  EXPECT_GT(out.tiles_touched, 0);

  const CsrGraph updated = core::apply_edge_updates(g, batch);
  std::vector<dist_t> want(static_cast<std::size_t>(n));
  for (vidx_t u = 0; u < n; ++u) {
    sssp::dijkstra_into(updated, u, want);
    const auto got = engine.row(u);
    for (vidx_t v = 0; v < n; ++v) {
      ASSERT_EQ(got[static_cast<std::size_t>(v)],
                want[static_cast<std::size_t>(v)])
          << "dist(" << u << "," << v << ")";
    }
  }
  // Thrash the cache with scattered points; evictions must reload overlay
  // tiles, never stale store bytes.
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const auto u = static_cast<vidx_t>(rng.next_below(n));
    const auto v = static_cast<vidx_t>(rng.next_below(n));
    sssp::dijkstra_into(updated, u, want);
    ASSERT_EQ(engine.point(u, v), want[static_cast<std::size_t>(v)]);
  }
}

// A store wrapper whose tile (0,0) read throws CorruptError until healed —
// drives a tile into quarantine, then checks apply_updates republishes it.
class FlakyStore : public core::DistStore {
 public:
  explicit FlakyStore(const core::DistStore& inner)
      : core::DistStore(inner.n()), inner_(inner) {}
  bool broken = true;

  void write_block(vidx_t, vidx_t, vidx_t, vidx_t, const dist_t*,
                   std::size_t) override {
    throw IoError("read-only");
  }
  void read_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                  dist_t* dst, std::size_t dst_ld) const override {
    if (broken && row0 < 16 && col0 < 16) {
      throw CorruptError("injected tile damage");
    }
    inner_.read_block(row0, col0, rows, cols, dst, dst_ld);
  }

 private:
  const core::DistStore& inner_;
};

TEST(IncrementalServing, ApplyUpdatesClearsQuarantine) {
  const CsrGraph g = graph::make_road(10, 10, 103);
  const vidx_t n = g.num_vertices();
  auto ram = core::make_ram_store(n);
  fill_exact(g, *ram);
  FlakyStore flaky(*ram);
  service::QueryEngineOptions qopt;
  qopt.block_size = 16;
  qopt.retry.max_retries = 0;
  service::QueryEngine engine(flaky, qopt);

  // Quarantine tile (0,0): queries in it degrade.
  EXPECT_THROW(engine.point(0, 1), core::TileError);
  flaky.broken = false;  // storage heals, but the quarantine mark persists
  EXPECT_THROW(engine.point(0, 1), core::TileError);

  // Dropping arc (0,1) to weight 0 is guaranteed to change dist(0,1)
  // (weights are ≥1, so the old distance was ≥1), which lives in the
  // quarantined tile (0,0): apply_updates must republish it, and publish
  // clears the quarantine so the query serves again.
  const std::vector<EdgeUpdate> batch = {{0, 1, 0}};
  const UpdateOutcome out = engine.apply_updates(g, batch);
  EXPECT_GT(out.tiles_touched, 0);

  const CsrGraph updated = core::apply_edge_updates(g, batch);
  std::vector<dist_t> want(static_cast<std::size_t>(n));
  sssp::dijkstra_into(updated, 0, want);
  EXPECT_EQ(engine.point(0, 1), want[1]);
}

}  // namespace
}  // namespace gapsp
