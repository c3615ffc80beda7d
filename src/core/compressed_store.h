// Block-compressed distance store ("GAPSPZ1") and its codec.
//
// The solved n×n matrix is the object the paper says we cannot afford to
// move: output bytes dominate both the disk footprint and the host I/O time
// of every out-of-core run. Road-like and kInf-dominated matrices are highly
// compressible (unreachable pairs are a single repeated 4-byte pattern), so
// the kept store is compressed — but only at the *sinks*. Blocked FW
// rewrites every tile O(n_d) times, so the solve loop keeps writing the raw
// FileStore; compression happens where bytes leave the hot loop for good:
// checkpoint sidecar payloads, the post-solve `--keep-store` compaction, and
// the read-only serving path (QueryEngine/BlockCache decompress tiles on the
// cache miss path). See DESIGN.md §11.
//
// File layout (same-machine binary, like the GAPSPCK1 sidecars):
//   ZHeader (64 bytes: magic "GAPSPZ1\0", n, tile, tiles_per_side,
//            payload_bytes, directory checksum, frame_format, 8 reserved
//            bytes; frame_format must equal kZ1FrameFormat, see z1_codec.h)
//   directory: tiles_per_side² × {u64 offset, u64 bytes}, row-major tiles;
//              bytes == 0 marks an all-kInf tile with no stored payload
//   payload: concatenated z1 frames, one per non-empty tile
//
// Codec ("z1"): a hand-rolled LZ4-style byte stream — no new dependencies.
// The codec itself lives in core/z1_codec.h (shared with the compressed
// host↔device transfer path); this header re-exports it for existing users.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dist_store.h"
#include "core/z1_codec.h"
#include "util/common.h"

namespace gapsp::core {

// ---- GAPSPZ1 store ----

/// Outcome of one compaction, surfaced in ApspMetrics and the CLI summary.
struct StoreCompactionStats {
  std::uint64_t raw_bytes = 0;         ///< n² · sizeof(dist_t)
  std::uint64_t compressed_bytes = 0;  ///< whole output file, header included
  long long tiles = 0;
  long long inf_tiles = 0;  ///< all-kInf tiles stored as zero-length entries
  double seconds = 0.0;
  double ratio() const {
    return compressed_bytes == 0
               ? 0.0
               : static_cast<double>(raw_bytes) /
                     static_cast<double>(compressed_bytes);
  }
};

/// Writes `src` to `out_path` as a GAPSPZ1 store with `tile`-sided tiles
/// (clamped to n; edge tiles are ragged). Atomic: a sibling tmp file is
/// renamed over `out_path` only once complete.
StoreCompactionStats write_compressed_store(const DistStore& src,
                                            const std::string& out_path,
                                            vidx_t tile = 256);

/// Compacts the raw matrix at `raw_path` — a checkpointed solve's leftover
/// FileStore, or a kept store written by an older build — into a GAPSPZ1
/// store at `out_path` (the same path compacts in place). The one converter
/// into the kept-store format. Throws IoError when `raw_path` is already
/// compressed or is not a square dist_t matrix.
StoreCompactionStats compact_store(const std::string& raw_path,
                                   const std::string& out_path,
                                   vidx_t tile = 256);

/// True when the file at `path` starts with the GAPSPZ1 magic.
bool is_compressed_store(const std::string& path);

/// Header-level facts about a compressed store, without decompressing.
struct CompressedStoreInfo {
  vidx_t n = 0;
  vidx_t tile = 0;
  vidx_t tiles_per_side = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t raw_bytes = 0;
  long long tiles = 0;
  long long inf_tiles = 0;
};

/// Reads and validates the header+directory. Throws IoError on corruption.
CompressedStoreInfo compressed_store_info(const std::string& path);

/// One tile's frame location inside a GAPSPZ1 file (bytes == 0 marks an
/// all-kInf tile with no stored payload).
struct CompressedTileEntry {
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
};

/// The validated geometry + tile directory of a GAPSPZ1 store, for tools
/// that relocate compressed frames without decompressing them (the
/// row-range shard slicer, core/shard_store.h). Throws IoError/CorruptError
/// exactly like open_store.
struct CompressedDirectory {
  vidx_t n = 0;
  vidx_t tile = 0;
  vidx_t tiles_per_side = 0;
  std::vector<CompressedTileEntry> entries;  ///< row-major tile grid
};
CompressedDirectory read_compressed_directory(const std::string& path);

/// Serving entry point: opens a GAPSPZ1 kept store read-only. read_block
/// decompresses the overlapped tiles, verifying each frame's checksum (all-
/// kInf tiles are synthesized from the directory without I/O); write_block
/// throws IoError. Like FileStore, the returned store is one stateful
/// stream — callers serialize concurrent reads (QueryEngine's miss path
/// already does). tile_size() reports the stored tiling so caches can align
/// to it, and block_known_inf() answers from the directory alone. A raw
/// matrix is rejected with IoError naming `apsp_cli compact`, a store of
/// another frame format with IoError naming the re-solve; a damaged header
/// or directory is CorruptError.
std::unique_ptr<DistStore> open_store(const std::string& path);

}  // namespace gapsp::core
