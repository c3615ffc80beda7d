// Distance-oracle query engine: serves point, row, block, and batched
// queries out of a solved DistStore without re-running the solver.
//
// This is the read side of the system the ROADMAP asks for — the solver
// produces the n×n matrix once (hours of simulated work at production
// scale), and this engine turns it into a servable artifact: a block-
// granular LRU cache (block_cache.h) absorbs the file-backed store's
// per-element seek cost, and batches fan out across ThreadPool::global()
// with a latency sample per query.
//
// Fault tolerance (DESIGN.md §13): every miss-path read goes through a
// CheckedTileReader — checksum-verified by the GAPSPZ1 frame decoder,
// retried under a RetryPolicy on transient I/O faults. Tiles
// that stay unreadable are quarantined in the cache; queries touching them
// come back with a typed per-query status instead of an exception (batch)
// and never poison sibling queries. With a repair source configured the
// engine recomputes a damaged tile on demand and republishes it. Batches
// admit at most `max_queue` queries; the overflow is shed with
// QueryStatus::kShed so overload degrades predictably instead of queueing
// without bound.
#pragma once

#include <atomic>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/block_cache.h"
#include "core/dist_store.h"
#include "core/incremental.h"
#include "core/tile_reader.h"

namespace gapsp::service {

// The cache moved to core (core/block_cache.h) so PathExtractor can share
// it; these aliases keep service callers source-compatible.
using core::BlockCache;
using core::BlockData;
using core::CacheStats;

enum class QueryKind {
  kPoint,  ///< dist(u, v)
  kRow,    ///< all of row u, in original vertex order
};

struct Query {
  QueryKind kind = QueryKind::kPoint;
  vidx_t u = 0;
  vidx_t v = 0;  ///< unused for row queries
};

/// Per-query outcome. Anything other than kOk leaves dist/row unspecified
/// and `error` set; the batch as a whole always completes.
enum class QueryStatus {
  kOk,
  kQuarantined,  ///< a tile this query needs is unserveable (corrupt or
                 ///< persistently unreadable) and no repair source is set
  kShed,         ///< rejected by admission control before any read
  kError,        ///< unexpected failure (bug surface, not a data fault)
};

const char* query_status_name(QueryStatus s);

struct QueryResult {
  Query query;
  QueryStatus status = QueryStatus::kOk;
  dist_t dist = kInf;       ///< point queries
  std::vector<dist_t> row;  ///< row queries, indexed by original vertex id
  double latency_s = 0.0;
  std::string error;  ///< empty when status == kOk
};

struct LatencyStats {
  std::size_t count = 0;
  double mean_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double max_s = 0.0;
};

/// Linear-interpolation percentile over an ascending-sorted sample (the
/// "exclusive max" convention: q lands at rank q·(n−1) and fractional ranks
/// interpolate between neighbors). The earlier nearest-rank rounding made
/// small batches report the max as p95 — with 4 samples, rank llround(0.95·3)
/// = 3 IS the max — and biased even p50 upward. Shared by the engine, the
/// shard router's merged report, and the stats tests.
double latency_percentile(const std::vector<double>& sorted, double q);

/// Engine-cumulative serving counters (atomically maintained across
/// batches and threads; reader stats come from the CheckedTileReader).
struct ServiceStats {
  long long served = 0;    ///< queries answered with kOk
  long long degraded = 0;  ///< queries failed kQuarantined/kError
  long long shed = 0;      ///< queries rejected by admission control
  long long repaired = 0;  ///< tiles recomputed and republished on demand
  long long retries = 0;   ///< physical re-reads after transient faults
  long long transient_failures = 0;  ///< reads that exhausted the budget
  long long corrupt_tiles = 0;       ///< reads that hit persistent damage
};

struct BatchReport {
  std::vector<QueryResult> results;  ///< same order as the input span
  double wall_seconds = 0.0;
  double qps = 0.0;
  LatencyStats latency;
  CacheStats cache;      ///< snapshot after the batch (cumulative counters)
  ServiceStats service;  ///< snapshot after the batch (cumulative counters)
};

struct QueryEngineOptions {
  /// Cache tile side length in elements; edge tiles are smaller. Ignored
  /// when the store is natively tiled (a GAPSPZ1 store or shard slice): the
  /// engine snaps to that tiling so one cache miss never spans two frames.
  vidx_t block_size = 256;
  std::size_t cache_bytes = 64u << 20;
  int cache_shards = 8;
  /// Batch fan-out width over ThreadPool::global(): 0 = the whole pool,
  /// 1 = serial.
  int max_threads = 0;

  // ---- fault tolerance ----
  /// Backoff-retry budget for transient miss-path I/O failures.
  util::RetryPolicy retry;
  /// Optional chaos hook applied to every physical store read.
  sim::FaultInjector* faults = nullptr;
  /// Admission bound for run_batch: at most this many queries per batch
  /// are admitted, the rest are shed with QueryStatus::kShed. 0 = no bound.
  std::size_t max_queue = 0;
  /// Optional on-demand repair source (core/scrub.h::make_sssp_repair):
  /// a quarantined tile is recomputed, republished, and the query served.
  core::TileRepairFn repair;
};

class QueryEngine {
 public:
  /// `store` must outlive the engine and must not be written while serving.
  /// `perm` is the solve's vertex permutation (ApspResult::perm; empty =
  /// identity): point and row queries take *original* vertex ids and
  /// translate internally, so callers never see the boundary algorithm's
  /// relabeling.
  explicit QueryEngine(const core::DistStore& store,
                       QueryEngineOptions opt = {},
                       std::vector<vidx_t> perm = {});

  vidx_t n() const { return store_.n(); }

  /// point/row/block throw core::TileError when a needed tile is
  /// unserveable and unrepaired; run_batch converts that into per-query
  /// statuses instead.
  dist_t point(vidx_t u, vidx_t v) const;

  /// Row of `u` with result[v] = dist(u, v) for original vertex ids v.
  std::vector<dist_t> row(vidx_t u) const;

  /// Copies the stored-order tile [row0, row0+rows) × [col0, col0+cols)
  /// into dst (leading dimension dst_ld, elements) through the cache.
  /// Addresses *stored* coordinates: a rectangle is only rectangular in the
  /// solve's own layout.
  void block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols, dist_t* dst,
             std::size_t dst_ld) const;

  /// Runs `queries` concurrently over ThreadPool::global(), timing each.
  /// Results come back in input order. Point queries are grouped by cache
  /// tile: each tile is resolved once per batch (the first query of the
  /// bucket pays it) and the rest of the bucket reads the pinned tile
  /// directly, so cache counters move per *tile*, not per query. Never
  /// throws for data faults: a query touching an unserveable tile comes
  /// back kQuarantined, overflow beyond max_queue comes back kShed, and
  /// sibling queries are unaffected either way.
  BatchReport run_batch(std::span<const Query> queries) const;

  CacheStats cache_stats() const { return cache_.stats(); }
  ServiceStats service_stats() const;

  /// Applies a batch of edge-weight updates to the served matrix without a
  /// restart: an IncrementalEngine (core/incremental.h) repairs the
  /// distances against the read-only store, and every changed tile lands in
  /// an in-memory overlay that the miss path consults before the store — so
  /// an evicted tile can never resurrect stale disk bytes. Each repaired
  /// tile is also republished through BlockCache::publish, which clears its
  /// quarantine mark: a tile that was unserveable before the update serves
  /// again afterwards. `g_before` is the graph the store was solved from
  /// (pre-update); opt.tile is forced to the engine's cache grid. Quiesce
  /// queries for the duration of the call: the repair reads the store
  /// directly (file-backed stores have one stateful stream, so concurrent
  /// miss-path reads would race), and repaired tiles become visible one at
  /// a time, not transactionally. A configured repair source still recomputes
  /// from the graph it captured — swap it via set_repair(make_sssp_repair(
  /// updated_graph, perm)) after the batch.
  core::UpdateOutcome apply_updates(const graph::CsrGraph& g_before,
                                    std::span<const core::EdgeUpdate> updates,
                                    core::IncrementalOptions opt = {});

  /// Replaces the on-demand repair source (used after apply_updates so
  /// repairs recompute from the updated graph).
  void set_repair(core::TileRepairFn fn) { opt_.repair = std::move(fn); }

 private:
  vidx_t stored_id(vidx_t v) const {
    return perm_.empty() ? v : perm_[static_cast<std::size_t>(v)];
  }
  BlockData fetch(vidx_t block_row, vidx_t block_col) const;
  /// Recomputes tile (bi, bj) from opt_.repair and republishes it.
  BlockData repair_tile(vidx_t block_row, vidx_t block_col) const;
  /// Collapses an all-kInf tile to the shared negative tile.
  BlockData collapse_inf(std::shared_ptr<std::vector<dist_t>> data) const;

  const core::DistStore& store_;
  QueryEngineOptions opt_;
  std::vector<vidx_t> perm_;
  vidx_t num_blocks_ = 0;  ///< tiles per side
  /// The one shared all-kInf tile; loaders return it for tiles the store
  /// directory marks empty or that scan as all-kInf, and the cache charges
  /// it no bytes (core/block_cache.h).
  BlockData inf_tile_;
  mutable BlockCache cache_;
  /// All miss-path reads funnel through the checked reader: it serializes
  /// access to the one stateful store stream, injects chaos faults, and
  /// retries transients. Hits never touch it.
  mutable core::CheckedTileReader reader_;
  mutable std::atomic<long long> served_{0};
  mutable std::atomic<long long> degraded_{0};
  mutable std::atomic<long long> shed_{0};
  mutable std::atomic<long long> repaired_{0};
  /// Tiles rewritten by apply_updates, keyed bi·num_blocks+bj. The truth
  /// for those tiles lives here, not in the (stale) store: the miss path
  /// checks the overlay first, so cache evictions stay correct.
  mutable std::mutex overlay_mu_;
  std::unordered_map<std::uint64_t, BlockData> overlay_;
};

}  // namespace gapsp::service
