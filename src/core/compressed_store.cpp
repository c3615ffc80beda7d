#include "core/compressed_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/checkpoint.h"  // fnv1a
#include "util/timer.h"

namespace gapsp::core {

// ---- GAPSPZ1 store ----
// (The z1 codec itself lives in core/z1_codec.cpp; this TU only frames
// tiles into the GAPSPZ1 container.)

namespace {

constexpr char kZMagic[8] = {'G', 'A', 'P', 'S', 'P', 'Z', '1', '\0'};

struct ZHeader {
  char magic[8];
  std::int64_t n;
  std::int64_t tile;
  std::int64_t tiles_per_side;
  std::uint64_t payload_bytes;  ///< sum of directory entry sizes
  std::uint64_t dir_checksum;   ///< fnv1a over the directory array
  std::uint64_t frame_format;   ///< kZ1FrameFormat; other values rejected
  std::uint64_t reserved;
};
static_assert(sizeof(ZHeader) == 64, "GAPSPZ1 header layout drifted");

struct ZDirEntry {
  std::uint64_t offset = 0;  ///< absolute file offset of the tile's frame
  std::uint64_t bytes = 0;   ///< 0 = all-kInf tile, nothing stored
};
static_assert(sizeof(ZDirEntry) == 16, "GAPSPZ1 directory layout drifted");

/// RAII stdio handle (mirrors checkpoint.cpp) so error paths cannot leak.
struct File {
  std::FILE* f = nullptr;
  explicit File(std::FILE* f) : f(f) {}
  ~File() {
    if (f != nullptr) std::fclose(f);
  }
  std::FILE* release() {
    std::FILE* out = f;
    f = nullptr;
    return out;
  }
};

bool all_inf(const dist_t* p, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (p[i] != kInf) return false;
  }
  return true;
}

void seek_to(std::FILE* f, std::uint64_t off, const std::string& path) {
  if (std::fseek(f, static_cast<long>(off), SEEK_SET) != 0) {
    throw IoError("seek failed in " + path);
  }
}

/// Header + validated directory, shared by the reader and the info probe.
struct ZIndex {
  ZHeader h{};
  std::vector<ZDirEntry> dir;
  std::uint64_t file_bytes = 0;
};

ZIndex read_index(std::FILE* f, const std::string& path) {
  ZIndex ix;
  if (std::fread(&ix.h, sizeof(ix.h), 1, f) != 1 ||
      std::memcmp(ix.h.magic, kZMagic, sizeof(kZMagic)) != 0) {
    throw IoError(path +
                  ": not a GAPSPZ1 store (a raw distance matrix? convert it "
                  "with `apsp_cli compact --store-path " +
                  path + "`)");
  }
  const std::int64_t n = ix.h.n;
  const std::int64_t tile = ix.h.tile;
  const std::int64_t tps = ix.h.tiles_per_side;
  if (n <= 0 || tile <= 0 || tile > n || tps != (n + tile - 1) / tile) {
    throw CorruptError(path + ": corrupt GAPSPZ1 geometry");
  }
  z1_require_frame_format(ix.h.frame_format, path);
  const auto num_tiles =
      static_cast<std::uint64_t>(tps) * static_cast<std::uint64_t>(tps);
  ix.dir.resize(static_cast<std::size_t>(num_tiles));
  if (std::fread(ix.dir.data(), sizeof(ZDirEntry), ix.dir.size(), f) !=
      ix.dir.size()) {
    throw IoError(path + ": short read of GAPSPZ1 directory");
  }
  if (fnv1a(ix.dir.data(), ix.dir.size() * sizeof(ZDirEntry)) !=
      ix.h.dir_checksum) {
    throw CorruptError(path + ": GAPSPZ1 directory checksum mismatch");
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    throw IoError("seek failed in " + path);
  }
  const long fend = std::ftell(f);
  if (fend < 0) throw IoError("tell failed in " + path);
  ix.file_bytes = static_cast<std::uint64_t>(fend);
  const std::uint64_t data_start =
      sizeof(ZHeader) + num_tiles * sizeof(ZDirEntry);
  std::uint64_t payload = 0;
  for (const ZDirEntry& e : ix.dir) {
    if (e.bytes == 0) continue;
    if (e.offset < data_start || e.offset + e.bytes < e.offset ||
        e.offset + e.bytes > ix.file_bytes) {
      throw CorruptError(path + ": GAPSPZ1 directory entry out of bounds");
    }
    payload += e.bytes;
  }
  if (payload != ix.h.payload_bytes) {
    throw CorruptError(path + ": GAPSPZ1 payload size mismatch");
  }
  return ix;
}

class CompressedStore final : public DistStore {
 public:
  CompressedStore(ZIndex ix, std::FILE* f, std::string path)
      : DistStore(static_cast<vidx_t>(ix.h.n)),
        ix_(std::move(ix)),
        file_(f),
        path_(std::move(path)),
        tile_(static_cast<vidx_t>(ix_.h.tile)),
        tps_(static_cast<vidx_t>(ix_.h.tiles_per_side)) {}

  ~CompressedStore() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  void write_block(vidx_t, vidx_t, vidx_t, vidx_t, const dist_t*,
                   std::size_t) override {
    throw IoError("compressed store " + path_ + " is read-only");
  }

  void read_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                  dist_t* dst, std::size_t dst_ld) const override {
    check_block(row0, col0, rows, cols);
    if (rows == 0 || cols == 0) return;
    for (vidx_t bi = row0 / tile_; bi * tile_ < row0 + rows; ++bi) {
      for (vidx_t bj = col0 / tile_; bj * tile_ < col0 + cols; ++bj) {
        // Intersection of the request with tile (bi, bj).
        const vidx_t r0 = std::max(row0, bi * tile_);
        const vidx_t r1 = std::min<vidx_t>(row0 + rows, (bi + 1) * tile_);
        const vidx_t c0 = std::max(col0, bj * tile_);
        const vidx_t c1 = std::min<vidx_t>(col0 + cols, (bj + 1) * tile_);
        const vidx_t tile_cols = std::min<vidx_t>(tile_, n() - bj * tile_);
        const std::size_t t = tile_index(bi, bj);
        if (ix_.dir[t].bytes == 0) {
          for (vidx_t r = r0; r < r1; ++r) {
            std::fill_n(dst + static_cast<std::size_t>(r - row0) * dst_ld +
                            static_cast<std::size_t>(c0 - col0),
                        static_cast<std::size_t>(c1 - c0), kInf);
          }
          continue;
        }
        const std::vector<dist_t>& buf = load_tile(bi, bj);
        for (vidx_t r = r0; r < r1; ++r) {
          std::copy_n(buf.data() +
                          static_cast<std::size_t>(r - bi * tile_) *
                              static_cast<std::size_t>(tile_cols) +
                          static_cast<std::size_t>(c0 - bj * tile_),
                      static_cast<std::size_t>(c1 - c0),
                      dst + static_cast<std::size_t>(r - row0) * dst_ld +
                          static_cast<std::size_t>(c0 - col0));
        }
      }
    }
  }

  vidx_t tile_size() const override { return tile_; }

  bool block_known_inf(vidx_t row0, vidx_t col0, vidx_t rows,
                       vidx_t cols) const override {
    check_block(row0, col0, rows, cols);
    if (rows == 0 || cols == 0) return true;
    for (vidx_t bi = row0 / tile_; bi * tile_ < row0 + rows; ++bi) {
      for (vidx_t bj = col0 / tile_; bj * tile_ < col0 + cols; ++bj) {
        if (ix_.dir[tile_index(bi, bj)].bytes != 0) return false;
      }
    }
    return true;
  }

 private:
  std::size_t tile_index(vidx_t bi, vidx_t bj) const {
    return static_cast<std::size_t>(bi) * static_cast<std::size_t>(tps_) +
           static_cast<std::size_t>(bj);
  }

  /// Decompresses tile (bi, bj) into the single-tile memo. Repeated reads
  /// from one tile (a row sweep, an at() loop) decode it once; callers
  /// wanting real caching put a BlockCache in front (QueryEngine does).
  const std::vector<dist_t>& load_tile(vidx_t bi, vidx_t bj) const {
    const std::size_t t = tile_index(bi, bj);
    if (memo_tile_ == static_cast<std::int64_t>(t)) return memo_;
    const ZDirEntry& e = ix_.dir[t];
    comp_.resize(static_cast<std::size_t>(e.bytes));
    seek_to(file_, e.offset, path_);
    if (std::fread(comp_.data(), 1, comp_.size(), file_) != comp_.size()) {
      throw IoError("short read from " + path_);
    }
    const vidx_t trows = std::min<vidx_t>(tile_, n() - bi * tile_);
    const vidx_t tcols = std::min<vidx_t>(tile_, n() - bj * tile_);
    const std::size_t elems =
        static_cast<std::size_t>(trows) * static_cast<std::size_t>(tcols);
    if (z1_raw_size(comp_.data(), comp_.size()) != elems * sizeof(dist_t)) {
      throw CorruptError(path_ + ": tile frame size does not match geometry");
    }
    memo_.resize(elems);
    memo_tile_ = -1;  // invalid while the buffer is being overwritten
    z1_decompress(comp_.data(), comp_.size(), memo_.data(),
                  elems * sizeof(dist_t));
    memo_tile_ = static_cast<std::int64_t>(t);
    return memo_;
  }

  ZIndex ix_;
  std::FILE* file_ = nullptr;
  std::string path_;
  vidx_t tile_ = 0;
  vidx_t tps_ = 0;
  // One stateful stream, like FileStore: concurrent readers must serialize.
  mutable std::vector<std::uint8_t> comp_;
  mutable std::vector<dist_t> memo_;
  mutable std::int64_t memo_tile_ = -1;
};

}  // namespace

StoreCompactionStats write_compressed_store(const DistStore& src,
                                            const std::string& out_path,
                                            vidx_t tile) {
  const vidx_t n = src.n();
  GAPSP_CHECK(n > 0, "cannot compress an empty store");
  GAPSP_CHECK(tile > 0, "tile side must be positive");
  tile = std::min(tile, n);
  const vidx_t tps = (n + tile - 1) / tile;

  Timer timer;
  StoreCompactionStats stats;
  stats.raw_bytes = static_cast<std::uint64_t>(n) *
                    static_cast<std::uint64_t>(n) * sizeof(dist_t);

  ZHeader h{};
  std::memcpy(h.magic, kZMagic, sizeof(kZMagic));
  h.n = n;
  h.tile = tile;
  h.tiles_per_side = tps;
  h.frame_format = kZ1FrameFormat;
  std::vector<ZDirEntry> dir(static_cast<std::size_t>(tps) *
                             static_cast<std::size_t>(tps));

  const std::string tmp = out_path + ".ztmp";
  File file(std::fopen(tmp.c_str(), "wb"));
  if (file.f == nullptr) {
    throw IoError("cannot open " + tmp + " for writing");
  }
  const auto write_all = [&](const void* p, std::size_t bytes) {
    if (bytes != 0 && std::fwrite(p, 1, bytes, file.f) != bytes) {
      std::remove(tmp.c_str());
      throw IoError("short write to " + tmp);
    }
  };
  try {
    // Placeholder header+directory; rewritten once the offsets are known.
    write_all(&h, sizeof(h));
    write_all(dir.data(), dir.size() * sizeof(ZDirEntry));
    std::uint64_t offset = sizeof(ZHeader) + dir.size() * sizeof(ZDirEntry);
    std::vector<dist_t> buf;
    std::vector<std::uint8_t> frame;
    for (vidx_t bi = 0; bi < tps; ++bi) {
      for (vidx_t bj = 0; bj < tps; ++bj) {
        const vidx_t rows = std::min<vidx_t>(tile, n - bi * tile);
        const vidx_t cols = std::min<vidx_t>(tile, n - bj * tile);
        const std::size_t elems =
            static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
        buf.resize(elems);
        src.read_block(bi * tile, bj * tile, rows, cols, buf.data(),
                       static_cast<std::size_t>(cols));
        ++stats.tiles;
        ZDirEntry& e = dir[static_cast<std::size_t>(bi) * tps + bj];
        if (all_inf(buf.data(), elems)) {
          ++stats.inf_tiles;
          continue;  // zero-length entry: the directory is the payload
        }
        z1_compress(buf.data(), elems * sizeof(dist_t), frame);
        e.offset = offset;
        e.bytes = frame.size();
        offset += frame.size();
        h.payload_bytes += frame.size();
        write_all(frame.data(), frame.size());
      }
    }
    h.dir_checksum = fnv1a(dir.data(), dir.size() * sizeof(ZDirEntry));
    stats.compressed_bytes = offset;
    seek_to(file.f, 0, tmp);
    write_all(&h, sizeof(h));
    write_all(dir.data(), dir.size() * sizeof(ZDirEntry));
    if (std::fflush(file.f) != 0) {
      throw IoError("flush failed for " + tmp);
    }
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  const bool closed = std::fclose(file.release()) == 0;
  if (!closed) {
    std::remove(tmp.c_str());
    throw IoError("close failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), out_path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("cannot rename " + tmp + " to " + out_path);
  }
  stats.seconds = timer.seconds();
  return stats;
}

StoreCompactionStats compact_store(const std::string& raw_path,
                                   const std::string& out_path, vidx_t tile) {
  if (is_compressed_store(raw_path)) {
    throw IoError(raw_path + " is already a GAPSPZ1 compressed store");
  }
  const auto src = open_file_store(raw_path);
  return write_compressed_store(*src, out_path, tile);
}

bool is_compressed_store(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file.f == nullptr) return false;
  char magic[8] = {};
  if (std::fread(magic, 1, sizeof(magic), file.f) != sizeof(magic)) {
    return false;
  }
  return std::memcmp(magic, kZMagic, sizeof(kZMagic)) == 0;
}

CompressedStoreInfo compressed_store_info(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file.f == nullptr) {
    throw IoError("cannot open dist store file " + path);
  }
  const ZIndex ix = read_index(file.f, path);
  CompressedStoreInfo info;
  info.n = static_cast<vidx_t>(ix.h.n);
  info.tile = static_cast<vidx_t>(ix.h.tile);
  info.tiles_per_side = static_cast<vidx_t>(ix.h.tiles_per_side);
  info.file_bytes = ix.file_bytes;
  info.raw_bytes = static_cast<std::uint64_t>(ix.h.n) *
                   static_cast<std::uint64_t>(ix.h.n) * sizeof(dist_t);
  info.tiles = static_cast<long long>(ix.dir.size());
  for (const ZDirEntry& e : ix.dir) {
    if (e.bytes == 0) ++info.inf_tiles;
  }
  return info;
}

CompressedDirectory read_compressed_directory(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file.f == nullptr) {
    throw IoError("cannot open dist store file " + path);
  }
  const ZIndex ix = read_index(file.f, path);
  CompressedDirectory dir;
  dir.n = static_cast<vidx_t>(ix.h.n);
  dir.tile = static_cast<vidx_t>(ix.h.tile);
  dir.tiles_per_side = static_cast<vidx_t>(ix.h.tiles_per_side);
  dir.entries.reserve(ix.dir.size());
  for (const ZDirEntry& e : ix.dir) {
    dir.entries.push_back({e.offset, e.bytes});
  }
  return dir;
}

std::unique_ptr<DistStore> open_store(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file.f == nullptr) {
    throw IoError("cannot open dist store file " + path);
  }
  ZIndex ix = read_index(file.f, path);
  return std::make_unique<CompressedStore>(std::move(ix), file.release(),
                                           path);
}

}  // namespace gapsp::core
