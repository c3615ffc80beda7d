#include "service/query_engine.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "util/thread_pool.h"
#include "util/timer.h"

namespace gapsp::service {

const char* query_status_name(QueryStatus s) {
  switch (s) {
    case QueryStatus::kOk:
      return "ok";
    case QueryStatus::kQuarantined:
      return "quarantined";
    case QueryStatus::kShed:
      return "shed";
    case QueryStatus::kError:
      return "error";
  }
  return "?";
}

QueryEngine::QueryEngine(const core::DistStore& store, QueryEngineOptions opt,
                         std::vector<vidx_t> perm)
    : store_(store),
      opt_(std::move(opt)),
      perm_(std::move(perm)),
      cache_(opt_.cache_bytes, opt_.cache_shards),
      reader_(store, core::TileReaderOptions{opt_.retry, opt_.faults}) {
  GAPSP_CHECK(opt_.block_size > 0, "cache block size must be positive");
  GAPSP_CHECK(perm_.empty() ||
                  perm_.size() == static_cast<std::size_t>(store_.n()),
              "permutation length does not match the store");
  // A natively tiled store (GAPSPZ1) decompresses whole tiles on the miss
  // path: align the cache grid to the stored tiling so one miss never
  // touches two stored tiles.
  if (store_.tile_size() > 0) opt_.block_size = store_.tile_size();
  opt_.block_size = std::min<vidx_t>(opt_.block_size, std::max<vidx_t>(1, n()));
  num_blocks_ = n() == 0 ? 0 : (n() + opt_.block_size - 1) / opt_.block_size;
  // Edge tiles index at most rows×cols ≤ block_size² elements into this
  // buffer, so one full-sized constant tile serves every negative block.
  inf_tile_ = std::make_shared<const std::vector<dist_t>>(
      static_cast<std::size_t>(opt_.block_size) *
          static_cast<std::size_t>(opt_.block_size),
      kInf);
  cache_.set_negative_tile(inf_tile_);
}

core::UpdateOutcome QueryEngine::apply_updates(
    const graph::CsrGraph& g_before,
    std::span<const core::EdgeUpdate> updates, core::IncrementalOptions opt) {
  // The engine's dirty-tile granularity must be the cache grid so every
  // emitted tile is exactly one overlay/cache entry. (A tiled store already
  // dictates the same side to both.)
  opt.tile = opt_.block_size;
  core::IncrementalEngine engine(g_before, std::move(opt), perm_);
  return engine.apply(
      store_, updates,
      [this](vidx_t bi, vidx_t bj, vidx_t, vidx_t, vidx_t rows, vidx_t cols,
             const dist_t* data) {
        auto tile = std::make_shared<std::vector<dist_t>>(
            data, data + static_cast<std::size_t>(rows) * cols);
        const BlockData fixed = collapse_inf(std::move(tile));
        {
          std::lock_guard<std::mutex> lock(overlay_mu_);
          overlay_[static_cast<std::uint64_t>(bi) *
                       static_cast<std::uint64_t>(num_blocks_) +
                   static_cast<std::uint64_t>(bj)] = fixed;
        }
        // Republish: later misses hit the overlay, current cache readers
        // swap to the new tile, and a quarantine mark — this tile may have
        // been unserveable — is cleared.
        cache_.publish(bi, bj, fixed);
      });
}

ServiceStats QueryEngine::service_stats() const {
  ServiceStats out;
  out.served = served_.load(std::memory_order_relaxed);
  out.degraded = degraded_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.repaired = repaired_.load(std::memory_order_relaxed);
  const core::TileReaderStats r = reader_.stats();
  out.retries = r.retries;
  out.transient_failures = r.transient_failures;
  out.corrupt_tiles = r.corrupt_tiles;
  return out;
}

BlockData QueryEngine::collapse_inf(
    std::shared_ptr<std::vector<dist_t>> data) const {
  // Scan-on-load for untiled (RAM) stores and repaired or updated tiles: an
  // all-kInf tile collapses to the shared tile instead of occupying cache
  // budget.
  for (const dist_t d : *data) {
    if (d != kInf) return data;
  }
  return inf_tile_;
}

BlockData QueryEngine::repair_tile(vidx_t block_row, vidx_t block_col) const {
  const vidx_t b = opt_.block_size;
  const vidx_t row0 = block_row * b;
  const vidx_t col0 = block_col * b;
  const vidx_t rows = std::min<vidx_t>(b, n() - row0);
  const vidx_t cols = std::min<vidx_t>(b, n() - col0);
  auto data = std::make_shared<std::vector<dist_t>>(
      opt_.repair(row0, col0, rows, cols));
  GAPSP_CHECK(data->size() == static_cast<std::size_t>(rows) * cols,
              "repair source returned a wrong-sized tile");
  BlockData fixed = collapse_inf(std::move(data));
  // Republish: clears the quarantine mark, so the whole service heals —
  // later queries for this tile are plain cache hits.
  cache_.publish(block_row, block_col, fixed);
  repaired_.fetch_add(1, std::memory_order_relaxed);
  return fixed;
}

BlockData QueryEngine::fetch(vidx_t block_row, vidx_t block_col) const {
  try {
    return cache_.get_or_load(block_row, block_col, [&]() -> BlockData {
      // Tiles rewritten by apply_updates live in the overlay, not the
      // store — an evicted tile must reload the repaired truth.
      {
        std::lock_guard<std::mutex> lock(overlay_mu_);
        const auto it = overlay_.find(
            static_cast<std::uint64_t>(block_row) *
                static_cast<std::uint64_t>(num_blocks_) +
            static_cast<std::uint64_t>(block_col));
        if (it != overlay_.end()) return it->second;
      }
      const vidx_t b = opt_.block_size;
      const vidx_t row0 = block_row * b;
      const vidx_t col0 = block_col * b;
      const vidx_t rows = std::min<vidx_t>(b, n() - row0);
      const vidx_t cols = std::min<vidx_t>(b, n() - col0);
      // Directory-backed stores answer "all kInf" without any I/O; the
      // shared tile is cached at zero byte cost.
      if (store_.block_known_inf(row0, col0, rows, cols)) return inf_tile_;
      auto data = std::make_shared<std::vector<dist_t>>(
          static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols));
      reader_.read_tile(block_row, block_col, row0, col0, rows, cols,
                        data->data());
      return collapse_inf(std::move(data));
    });
  } catch (const core::TileError&) {
    // The cache has quarantined the tile (or it already was). With a
    // repair source the engine recomputes it on demand and the query is
    // served; without one the typed error propagates for the caller to
    // turn into a degraded per-query status.
    if (opt_.repair) return repair_tile(block_row, block_col);
    throw;
  }
}

dist_t QueryEngine::point(vidx_t u, vidx_t v) const {
  GAPSP_CHECK(u >= 0 && u < n() && v >= 0 && v < n(),
              "query vertex out of range");
  const vidx_t su = stored_id(u);
  const vidx_t sv = stored_id(v);
  const vidx_t b = opt_.block_size;
  const vidx_t bi = su / b;
  const vidx_t bj = sv / b;
  const BlockData tile = fetch(bi, bj);
  const vidx_t cols = std::min<vidx_t>(b, n() - bj * b);
  return (*tile)[static_cast<std::size_t>(su - bi * b) *
                     static_cast<std::size_t>(cols) +
                 static_cast<std::size_t>(sv - bj * b)];
}

std::vector<dist_t> QueryEngine::row(vidx_t u) const {
  GAPSP_CHECK(u >= 0 && u < n(), "query vertex out of range");
  const vidx_t su = stored_id(u);
  const vidx_t b = opt_.block_size;
  const vidx_t bi = su / b;
  const vidx_t local_row = su - bi * b;
  std::vector<dist_t> stored_row(static_cast<std::size_t>(n()));
  for (vidx_t bj = 0; bj < num_blocks_; ++bj) {
    const BlockData tile = fetch(bi, bj);
    const vidx_t col0 = bj * b;
    const vidx_t cols = std::min<vidx_t>(b, n() - col0);
    std::copy_n(tile->data() + static_cast<std::size_t>(local_row) *
                                   static_cast<std::size_t>(cols),
                static_cast<std::size_t>(cols),
                stored_row.data() + static_cast<std::size_t>(col0));
  }
  if (perm_.empty()) return stored_row;
  std::vector<dist_t> out(static_cast<std::size_t>(n()));
  for (vidx_t v = 0; v < n(); ++v) {
    out[static_cast<std::size_t>(v)] =
        stored_row[static_cast<std::size_t>(perm_[static_cast<std::size_t>(v)])];
  }
  return out;
}

void QueryEngine::block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                        dist_t* dst, std::size_t dst_ld) const {
  GAPSP_CHECK(row0 >= 0 && col0 >= 0 && rows >= 0 && cols >= 0 &&
                  row0 + rows <= n() && col0 + cols <= n(),
              "block query out of bounds");
  if (rows == 0 || cols == 0) return;
  const vidx_t b = opt_.block_size;
  for (vidx_t bi = row0 / b; bi * b < row0 + rows; ++bi) {
    for (vidx_t bj = col0 / b; bj * b < col0 + cols; ++bj) {
      const BlockData tile = fetch(bi, bj);
      const vidx_t tile_cols = std::min<vidx_t>(b, n() - bj * b);
      // Intersection of the requested rectangle with tile (bi, bj).
      const vidx_t r0 = std::max(row0, bi * b);
      const vidx_t r1 = std::min<vidx_t>(row0 + rows, (bi + 1) * b);
      const vidx_t c0 = std::max(col0, bj * b);
      const vidx_t c1 = std::min<vidx_t>(col0 + cols, (bj + 1) * b);
      for (vidx_t r = r0; r < r1; ++r) {
        std::copy_n(tile->data() +
                        static_cast<std::size_t>(r - bi * b) *
                            static_cast<std::size_t>(tile_cols) +
                        static_cast<std::size_t>(c0 - bj * b),
                    static_cast<std::size_t>(c1 - c0),
                    dst + static_cast<std::size_t>(r - row0) * dst_ld +
                        static_cast<std::size_t>(c0 - col0));
      }
    }
  }
}

double latency_percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

BatchReport QueryEngine::run_batch(std::span<const Query> queries) const {
  BatchReport report;
  report.results.resize(queries.size());
  const auto fanout = static_cast<std::size_t>(std::max(0, opt_.max_threads));
  const auto tiles = static_cast<std::size_t>(num_blocks_) *
                     static_cast<std::size_t>(num_blocks_);

  // Admission control: the batch IS the queue. Everything past max_queue
  // is shed up front with a typed status — bounded work per batch, and the
  // caller can resubmit or spill to another replica.
  std::size_t admitted = queries.size();
  if (opt_.max_queue > 0 && queries.size() > opt_.max_queue) {
    admitted = opt_.max_queue;
    for (std::size_t i = admitted; i < queries.size(); ++i) {
      QueryResult& r = report.results[i];
      r.query = queries[i];
      r.status = QueryStatus::kShed;
      r.error = "shed: batch exceeds admission queue of " +
                std::to_string(opt_.max_queue);
    }
    shed_.fetch_add(static_cast<long long>(queries.size() - admitted),
                    std::memory_order_relaxed);
  }

  // Workers run on ThreadPool::global(), where an escaping exception is
  // fatal (util/thread_pool.h): every failure must become a per-query
  // status here, never a throw.
  const auto run_one = [&](std::size_t i) {
    const Query& q = queries[i];
    QueryResult& r = report.results[i];
    r.query = q;
    Timer t;
    try {
      switch (q.kind) {
        case QueryKind::kPoint:
          r.dist = point(q.u, q.v);
          break;
        case QueryKind::kRow:
          r.row = row(q.u);
          break;
      }
    } catch (const core::TileError& e) {
      r.status = QueryStatus::kQuarantined;
      r.error = e.what();
      r.row.clear();
      r.dist = kInf;
    } catch (const std::exception& e) {
      r.status = QueryStatus::kError;
      r.error = e.what();
      r.row.clear();
      r.dist = kInf;
    }
    r.latency_s = t.seconds();
  };

  // Point queries are grouped by tile so each tile goes through the cache
  // once per batch; the rest of a bucket is answered by direct array reads.
  // A batch much smaller than the tile grid would pay more for the counting
  // pass than it saves — those (and empty stores) take the per-query path.
  const bool grouped =
      tiles > 0 && tiles <= std::max<std::size_t>(1024, 8 * admitted);
  Timer wall;
  if (!grouped) {
    ThreadPool::global().parallel_for(admitted, run_one, /*grain=*/1, fanout);
  } else {
    const vidx_t b = opt_.block_size;
    // Counting sort of point-query indices by tile (validated up front, on
    // the calling thread, so workers never throw for bad arguments).
    std::vector<std::uint32_t> tile_of(admitted);
    std::vector<std::uint32_t> count(tiles, 0);
    std::vector<std::uint32_t> row_queries;
    std::size_t num_points = 0;
    for (std::size_t i = 0; i < admitted; ++i) {
      const Query& q = queries[i];
      GAPSP_CHECK(q.u >= 0 && q.u < n(), "query vertex out of range");
      if (q.kind == QueryKind::kRow) {
        row_queries.push_back(static_cast<std::uint32_t>(i));
        continue;
      }
      GAPSP_CHECK(q.v >= 0 && q.v < n(), "query vertex out of range");
      const auto t = static_cast<std::uint32_t>(
          static_cast<std::size_t>(stored_id(q.u) / b) * num_blocks_ +
          static_cast<std::size_t>(stored_id(q.v) / b));
      tile_of[i] = t;
      ++count[t];
      ++num_points;
    }
    std::vector<std::uint32_t> start(tiles + 1, 0);
    std::vector<std::uint32_t> bucket_tiles;  // non-empty, in tile order
    for (std::size_t t = 0; t < tiles; ++t) {
      start[t + 1] = start[t] + count[t];
      if (count[t] > 0) bucket_tiles.push_back(static_cast<std::uint32_t>(t));
    }
    std::vector<std::uint32_t> order(num_points);
    {
      std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
      for (std::size_t i = 0; i < admitted; ++i) {
        if (queries[i].kind == QueryKind::kPoint) {
          order[cursor[tile_of[i]]++] = static_cast<std::uint32_t>(i);
        }
      }
    }
    // One work item per non-empty bucket, plus one per row query. The first
    // query of a bucket pays the (timed) cache resolution; the rest read the
    // pinned tile directly. A tile failure degrades exactly its bucket —
    // the typed error is copied to each query that needed the tile.
    ThreadPool::global().parallel_for(
        bucket_tiles.size() + row_queries.size(),
        [&](std::size_t w) {
          if (w >= bucket_tiles.size()) {
            run_one(row_queries[w - bucket_tiles.size()]);
            return;
          }
          const std::uint32_t tl = bucket_tiles[w];
          const auto bi = static_cast<vidx_t>(tl / static_cast<std::uint32_t>(num_blocks_));
          const auto bj = static_cast<vidx_t>(tl % static_cast<std::uint32_t>(num_blocks_));
          const vidx_t cols = std::min<vidx_t>(b, n() - bj * b);
          Timer t_fetch;
          BlockData tile;
          try {
            tile = fetch(bi, bj);
          } catch (const core::TileError& e) {
            for (std::uint32_t p = start[tl]; p < start[tl + 1]; ++p) {
              QueryResult& r = report.results[order[p]];
              r.query = queries[order[p]];
              r.status = QueryStatus::kQuarantined;
              r.error = e.what();
              r.latency_s = p == start[tl] ? t_fetch.seconds() : 0.0;
            }
            return;
          } catch (const std::exception& e) {
            for (std::uint32_t p = start[tl]; p < start[tl + 1]; ++p) {
              QueryResult& r = report.results[order[p]];
              r.query = queries[order[p]];
              r.status = QueryStatus::kError;
              r.error = e.what();
              r.latency_s = p == start[tl] ? t_fetch.seconds() : 0.0;
            }
            return;
          }
          const double fetch_s = t_fetch.seconds();
          // Per-query latency is amortized over the bucket (timing each
          // ~100ns array read individually would cost more than the read);
          // the tile resolution is billed to the bucket's first query.
          Timer t_reads;
          for (std::uint32_t p = start[tl]; p < start[tl + 1]; ++p) {
            const std::uint32_t i = order[p];
            const Query& q = queries[i];
            QueryResult& r = report.results[i];
            r.query = q;
            r.dist = (*tile)[static_cast<std::size_t>(stored_id(q.u) - bi * b) *
                                 static_cast<std::size_t>(cols) +
                             static_cast<std::size_t>(stored_id(q.v) - bj * b)];
          }
          const auto bucket_n = start[tl + 1] - start[tl];
          const double per_read = t_reads.seconds() / bucket_n;
          for (std::uint32_t p = start[tl]; p < start[tl + 1]; ++p) {
            report.results[order[p]].latency_s =
                per_read + (p == start[tl] ? fetch_s : 0.0);
          }
        },
        /*grain=*/1, fanout);
  }
  report.wall_seconds = wall.seconds();
  report.qps = report.wall_seconds > 0.0
                   ? static_cast<double>(queries.size()) / report.wall_seconds
                   : 0.0;

  long long ok = 0;
  long long bad = 0;
  std::vector<double> lat;
  lat.reserve(admitted);
  double sum = 0.0;
  for (std::size_t i = 0; i < admitted; ++i) {
    const QueryResult& r = report.results[i];
    (r.status == QueryStatus::kOk ? ok : bad) += 1;
    lat.push_back(r.latency_s);
    sum += r.latency_s;
  }
  served_.fetch_add(ok, std::memory_order_relaxed);
  degraded_.fetch_add(bad, std::memory_order_relaxed);
  std::sort(lat.begin(), lat.end());
  report.latency.count = lat.size();
  report.latency.mean_s = lat.empty() ? 0.0 : sum / static_cast<double>(lat.size());
  report.latency.p50_s = latency_percentile(lat, 0.50);
  report.latency.p95_s = latency_percentile(lat, 0.95);
  report.latency.max_s = lat.empty() ? 0.0 : lat.back();
  report.cache = cache_.stats();
  report.service = service_stats();
  return report;
}

}  // namespace gapsp::service
