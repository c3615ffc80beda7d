// Fault-tolerant tile reads over a DistStore.
//
// The serving tier's single chokepoint for pulling bytes off disk. One
// CheckedTileReader wraps one store and runs the full DESIGN.md §13 read
// ladder per tile:
//
//   1. optional injected fault (sim::FaultInjector, op class kStoreRead) —
//      chaos sweeps exercise this path deterministically;
//   2. the actual DistStore::read_block, serialized by an internal mutex
//      (a store is one stateful stdio stream). A GAPSPZ1 store or shard
//      slice verifies each z1 frame's content checksum while decoding it,
//      so a bit flip on disk surfaces here as CorruptError.
//
// Transient failures (IoError, transient FaultError) are retried under a
// util::RetryPolicy with real exponential-backoff sleeps; exhausting the
// budget raises TileError(kTransient). Persistent damage (CorruptError,
// non-transient FaultError) raises TileError(kCorrupt) immediately —
// retrying a checksum mismatch cannot help. Callers (BlockCache loaders)
// turn those into quarantine marks.
#pragma once

#include <mutex>

#include "core/dist_store.h"
#include "core/tile_error.h"
#include "util/retry.h"

namespace gapsp::sim {
class FaultInjector;
}  // namespace gapsp::sim

namespace gapsp::core {

struct TileReaderOptions {
  util::RetryPolicy retry;
  /// Optional chaos hook; fires before every physical read attempt.
  sim::FaultInjector* faults = nullptr;
};

struct TileReaderStats {
  long long reads = 0;       ///< successful tile reads
  long long retries = 0;     ///< physical re-reads after a transient failure
  long long transient_failures = 0;  ///< reads that exhausted the retry budget
  long long corrupt_tiles = 0;       ///< reads that hit persistent damage
};

class CheckedTileReader {
 public:
  CheckedTileReader(const DistStore& store, TileReaderOptions opt)
      : store_(store), opt_(opt) {}

  /// Reads the rows×cols rectangle at (row0, col0) into dst (row-major,
  /// leading dimension cols), retrying per the options.
  /// (row_block, col_block) is the caller's grid coordinate for the tile; it
  /// is carried verbatim on any TileError so the caller can map the failure
  /// back to its own cache key.
  void read_tile(vidx_t row_block, vidx_t col_block, vidx_t row0, vidx_t col0,
                 vidx_t rows, vidx_t cols, dist_t* dst);

  TileReaderStats stats() const;

 private:
  const DistStore& store_;
  TileReaderOptions opt_;
  mutable std::mutex mu_;  ///< serializes store reads and guards stats
  TileReaderStats stats_;
};

}  // namespace gapsp::core
