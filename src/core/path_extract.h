// Shortest-path reconstruction from a completed distance matrix.
//
// The out-of-core solvers produce distances only (like the paper); storing a
// predecessor matrix would double the already output-dominated footprint.
// Instead, paths are reconstructed on demand by distance backtracking: a
// vertex w is the predecessor of v on a shortest u→v path iff
// dist(u,w) + weight(w,v) == dist(u,v). Each query costs
// O(path_length · max_in_degree) distance lookups — served through a
// BlockCache tile front (core/block_cache.h) rather than one
// DistStore::at() seek+read per element, since backtracking hammers row u
// of the store and, on a file-backed or compressed store, per-element
// reads pay a seek (or a whole tile decompression) each.
#pragma once

#include <vector>

#include "core/apsp_options.h"
#include "core/block_cache.h"
#include "core/dist_store.h"
#include "core/tile_reader.h"
#include "graph/csr_graph.h"

namespace gapsp::core {

class PathExtractor {
 public:
  /// `store`/`result` must come from a completed solve over `g`. The graph
  /// is transposed once at construction. `cache_bytes` bounds the tile
  /// cache; the tile side follows the store's native tiling when it has one
  /// (GAPSPZ1), 256 otherwise. Tile reads run through a CheckedTileReader
  /// (retry; a GAPSPZ1 store verifies its frame checksums); an unserveable
  /// tile surfaces as core::TileError from distance()/path().
  PathExtractor(const graph::CsrGraph& g, const DistStore& store,
                const ApspResult& result,
                std::size_t cache_bytes = 8u << 20,
                TileReaderOptions reader_opt = {});

  /// Shortest distance u → v (kInf when unreachable).
  dist_t distance(vidx_t u, vidx_t v) const;

  /// Vertex sequence of one shortest u → v path, inclusive of both
  /// endpoints. Returns {u} when u == v and {} when v is unreachable.
  std::vector<vidx_t> path(vidx_t u, vidx_t v) const;

  /// Sum of edge weights along `path` as stored in the graph; kInf if the
  /// sequence is not a valid walk. Exposed for verification.
  dist_t walk_length(const std::vector<vidx_t>& path) const;

 private:
  BlockData fetch(vidx_t block_row, vidx_t block_col) const;

  const graph::CsrGraph& g_;
  graph::CsrGraph reverse_;
  const DistStore& store_;
  std::vector<vidx_t> perm_;  // empty = identity
  vidx_t block_ = 0;          // cache tile side
  vidx_t num_blocks_ = 0;
  BlockData inf_tile_;  // shared all-kInf tile (charges no cache bytes)
  mutable BlockCache cache_;
  mutable CheckedTileReader reader_;  // serialized, retried reads
};

}  // namespace gapsp::core
