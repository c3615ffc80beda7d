#include "core/shard_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/checkpoint.h"  // fnv1a
#include "core/compressed_store.h"
#include "core/z1_codec.h"
#include "util/timer.h"

namespace gapsp::core {
namespace {

constexpr char kManifestMagic[8] = {'G', 'A', 'P', 'S', 'P', 'S', 'H', '1'};
constexpr char kShardMagic[8] = {'G', 'A', 'P', 'S', 'P', 'S', 'D', '1'};
constexpr std::uint64_t kFlagCompressed = 1;

struct ManifestHeader {
  char magic[8];
  std::int64_t n;
  std::int64_t tile;
  std::int64_t num_shards;
  std::uint64_t flags;
  std::uint64_t dir_checksum;  ///< fnv1a over the entry array
  std::uint64_t reserved[2];
};
static_assert(sizeof(ManifestHeader) == 64, "GAPSPSH1 header layout drifted");

struct ManifestEntry {
  std::int64_t row_begin;
  std::int64_t row_end;
  std::uint64_t bytes;
  std::uint64_t checksum;
};
static_assert(sizeof(ManifestEntry) == 32, "GAPSPSH1 entry layout drifted");

struct ShardHeader {
  char magic[8];
  std::int64_t n;
  std::int64_t tile;
  std::int64_t row_begin;
  std::int64_t row_end;
  std::uint64_t flags;
  std::uint64_t dir_checksum;  ///< fnv1a over the slice directory
  std::uint64_t reserved;
};
static_assert(sizeof(ShardHeader) == 64, "GAPSPSD1 header layout drifted");

struct SliceDirEntry {
  std::uint64_t offset = 0;  ///< absolute shard-file offset of the frame
  std::uint64_t bytes = 0;   ///< 0 = all-kInf tile, nothing stored
};
static_assert(sizeof(SliceDirEntry) == 16, "GAPSPSD1 directory layout drifted");

/// RAII stdio handle (mirrors compressed_store.cpp) so error paths cannot
/// leak.
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
  File(const File&) = delete;
  File& operator=(const File&) = delete;
};

std::uint64_t file_size_of(std::FILE* f, const std::string& path) {
  if (std::fseek(f, 0, SEEK_END) != 0) {
    throw IoError(path + ": seek failed");
  }
  const long bytes = std::ftell(f);
  GAPSP_CHECK(bytes >= 0, "ftell failed on " + path);
  return static_cast<std::uint64_t>(bytes);
}

/// Streams the whole file through fnv1a. Also reports the size.
std::uint64_t checksum_file(const std::string& path, std::uint64_t& bytes_out) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file.f == nullptr) {
    throw IoError("cannot open shard file " + path);
  }
  std::vector<std::uint8_t> buf(1u << 20);
  std::uint64_t sum = fnv1a(nullptr, 0);
  std::uint64_t total = 0;
  for (;;) {
    const std::size_t got = std::fread(buf.data(), 1, buf.size(), file.f);
    if (got == 0) break;
    sum = fnv1a(buf.data(), got, sum);
    total += got;
  }
  if (std::ferror(file.f) != 0) {
    throw IoError(path + ": read failed while checksumming");
  }
  bytes_out = total;
  return sum;
}

/// Balanced row ranges: B tile rows split as evenly as whole tiles allow,
/// remainder tiles going to the leading shards. The last shard's range is
/// ragged when tile does not divide n.
std::vector<ShardRange> split_rows(vidx_t n, vidx_t tile, int num_shards) {
  const long long blocks = (static_cast<long long>(n) + tile - 1) / tile;
  GAPSP_CHECK(num_shards >= 1, "need at least one shard");
  GAPSP_CHECK(num_shards <= blocks,
              "more shards than tile rows: " + std::to_string(num_shards) +
                  " shards over " + std::to_string(blocks) +
                  " tile rows of " + std::to_string(tile));
  const long long base = blocks / num_shards;
  const long long rem = blocks % num_shards;
  std::vector<ShardRange> out(static_cast<std::size_t>(num_shards));
  long long cursor = 0;
  for (int i = 0; i < num_shards; ++i) {
    const long long take = base + (i < rem ? 1 : 0);
    out[static_cast<std::size_t>(i)].row_begin =
        static_cast<vidx_t>(cursor * tile);
    cursor += take;
    out[static_cast<std::size_t>(i)].row_end = static_cast<vidx_t>(
        std::min<long long>(n, cursor * tile));
  }
  return out;
}

void write_exact(std::FILE* f, const void* data, std::size_t bytes,
                 const std::string& path) {
  if (bytes != 0 && std::fwrite(data, 1, bytes, f) != bytes) {
    throw IoError(path + ": short write");
  }
}

void read_exact(std::FILE* f, void* data, std::size_t bytes,
                const std::string& path) {
  if (bytes != 0 && std::fread(data, 1, bytes, f) != bytes) {
    throw IoError(path + ": short read");
  }
}

void seek_to(std::FILE* f, std::uint64_t offset, const std::string& path) {
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) {
    throw IoError(path + ": seek failed");
  }
}

/// Every manifest and slice carries z1 frames; a clear flag marks the raw
/// row payload of an older build.
void require_compressed(std::uint64_t flags, const std::string& path) {
  if ((flags & kFlagCompressed) == 0) {
    throw CorruptError(path +
                       ": raw shard payloads are no longer served; re-run "
                       "`apsp_cli shard` on the GAPSPZ1 store");
  }
}

/// Atomically replaces `path` with the fully-written tmp file.
void commit_tmp(const std::string& tmp, const std::string& path) {
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("cannot rename " + tmp + " to " + path);
  }
}

/// Writes one GAPSPZ1-sliced shard file: the source directory rows for the
/// shard's tile rows with offsets rebased, then the frames copied verbatim.
void write_z1_shard(std::FILE* src, const std::string& src_path,
                    const CompressedDirectory& dir, const std::string& out_path,
                    const ShardRange& r) {
  const vidx_t tps = dir.tiles_per_side;
  const vidx_t bb0 = r.row_begin / dir.tile;
  const vidx_t bb1 = (r.row_end + dir.tile - 1) / dir.tile;
  const std::size_t entries =
      static_cast<std::size_t>(bb1 - bb0) * static_cast<std::size_t>(tps);

  std::vector<SliceDirEntry> slice(entries);
  std::uint64_t cursor = sizeof(ShardHeader) + entries * sizeof(SliceDirEntry);
  for (std::size_t i = 0; i < entries; ++i) {
    const CompressedTileEntry& e =
        dir.entries[static_cast<std::size_t>(bb0) * tps + i];
    slice[i].bytes = e.bytes;
    slice[i].offset = e.bytes == 0 ? 0 : cursor;
    cursor += e.bytes;
  }

  const std::string tmp = out_path + ".tmp";
  File file(std::fopen(tmp.c_str(), "wb"));
  if (file.f == nullptr) {
    throw IoError("cannot create " + tmp);
  }
  ShardHeader h{};
  std::memcpy(h.magic, kShardMagic, sizeof(kShardMagic));
  h.n = dir.n;
  h.tile = dir.tile;
  h.row_begin = r.row_begin;
  h.row_end = r.row_end;
  h.flags = kFlagCompressed;
  h.dir_checksum = fnv1a(slice.data(), entries * sizeof(SliceDirEntry));
  write_exact(file.f, &h, sizeof(h), tmp);
  write_exact(file.f, slice.data(), entries * sizeof(SliceDirEntry), tmp);

  std::vector<std::uint8_t> frame;
  for (std::size_t i = 0; i < entries; ++i) {
    const CompressedTileEntry& e =
        dir.entries[static_cast<std::size_t>(bb0) * tps + i];
    if (e.bytes == 0) continue;
    frame.resize(e.bytes);
    seek_to(src, e.offset, src_path);
    read_exact(src, frame.data(), e.bytes, src_path);
    write_exact(file.f, frame.data(), e.bytes, tmp);
  }
  if (std::fflush(file.f) != 0) {
    throw IoError(tmp + ": flush failed");
  }
  std::fclose(file.release());
  commit_tmp(tmp, out_path);
}

void save_manifest(const std::string& path, const ShardManifest& m) {
  std::vector<ManifestEntry> entries(m.shards.size());
  for (std::size_t i = 0; i < m.shards.size(); ++i) {
    entries[i].row_begin = m.shards[i].row_begin;
    entries[i].row_end = m.shards[i].row_end;
    entries[i].bytes = m.shards[i].bytes;
    entries[i].checksum = m.shards[i].checksum;
  }
  ManifestHeader h{};
  std::memcpy(h.magic, kManifestMagic, sizeof(kManifestMagic));
  h.n = m.n;
  h.tile = m.tile;
  h.num_shards = m.num_shards();
  h.flags = kFlagCompressed;
  h.dir_checksum = fnv1a(entries.data(), entries.size() * sizeof(ManifestEntry));

  const std::string tmp = path + ".tmp";
  File file(std::fopen(tmp.c_str(), "wb"));
  if (file.f == nullptr) {
    throw IoError("cannot create " + tmp);
  }
  write_exact(file.f, &h, sizeof(h), tmp);
  write_exact(file.f, entries.data(), entries.size() * sizeof(ManifestEntry),
              tmp);
  if (std::fflush(file.f) != 0) {
    throw IoError(tmp + ": flush failed");
  }
  std::fclose(file.release());
  commit_tmp(tmp, path);
}

/// Read-only DistStore over one shard file. Full dimension n; rows outside
/// the shard's range throw IoError so routing bugs surface typed. Reports
/// the manifest tile as tile_size() — the serving cache grid must align to
/// shard boundaries.
class ShardSliceStore final : public DistStore {
 public:
  ShardSliceStore(std::FILE* f, std::string path, vidx_t n, vidx_t tile,
                  vidx_t row_begin, vidx_t row_end,
                  std::vector<SliceDirEntry> dir)
      : DistStore(n),
        f_(f),
        path_(std::move(path)),
        tile_(tile),
        row_begin_(row_begin),
        row_end_(row_end),
        dir_(std::move(dir)),
        tiles_per_side_((n + tile - 1) / tile),
        first_block_(row_begin / tile) {}

  ~ShardSliceStore() override {
    if (f_ != nullptr) std::fclose(f_);
  }

  void write_block(vidx_t, vidx_t, vidx_t, vidx_t, const dist_t*,
                   std::size_t) override {
    throw IoError(path_ + ": shard slices are read-only");
  }

  void read_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                  dist_t* dst, std::size_t dst_ld) const override {
    check_block(row0, col0, rows, cols);
    if (rows == 0 || cols == 0) return;
    check_owned(row0, rows);
    read_z1(row0, col0, rows, cols, dst, dst_ld);
  }

  vidx_t tile_size() const override { return tile_; }

  bool block_known_inf(vidx_t row0, vidx_t col0, vidx_t rows,
                       vidx_t cols) const override {
    check_block(row0, col0, rows, cols);
    if (rows == 0 || cols == 0) return false;
    if (row0 < row_begin_ || row0 + rows > row_end_) return false;
    const vidx_t bi0 = row0 / tile_;
    const vidx_t bi1 = (row0 + rows - 1) / tile_;
    const vidx_t bj0 = col0 / tile_;
    const vidx_t bj1 = (col0 + cols - 1) / tile_;
    for (vidx_t bi = bi0; bi <= bi1; ++bi) {
      for (vidx_t bj = bj0; bj <= bj1; ++bj) {
        if (entry(bi, bj).bytes != 0) return false;
      }
    }
    return true;
  }

 private:
  void check_owned(vidx_t row0, vidx_t rows) const {
    if (row0 < row_begin_ || row0 + rows > row_end_) {
      throw IoError(path_ + ": rows [" + std::to_string(row0) + ", " +
                    std::to_string(row0 + rows) + ") outside shard rows [" +
                    std::to_string(row_begin_) + ", " +
                    std::to_string(row_end_) +
                    ") — route the query to the owning shard");
    }
  }

  const SliceDirEntry& entry(vidx_t bi, vidx_t bj) const {
    return dir_[static_cast<std::size_t>(bi - first_block_) * tiles_per_side_ +
                bj];
  }

  void read_z1(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols, dist_t* dst,
               std::size_t dst_ld) const {
    const vidx_t bi0 = row0 / tile_;
    const vidx_t bi1 = (row0 + rows - 1) / tile_;
    const vidx_t bj0 = col0 / tile_;
    const vidx_t bj1 = (col0 + cols - 1) / tile_;
    for (vidx_t bi = bi0; bi <= bi1; ++bi) {
      for (vidx_t bj = bj0; bj <= bj1; ++bj) {
        const vidx_t tr0 = bi * tile_;
        const vidx_t tc0 = bj * tile_;
        const vidx_t trows = std::min<vidx_t>(tile_, n() - tr0);
        const vidx_t tcols = std::min<vidx_t>(tile_, n() - tc0);
        const vidx_t r0 = std::max(row0, tr0);
        const vidx_t r1 = std::min(row0 + rows, tr0 + trows);
        const vidx_t c0 = std::max(col0, tc0);
        const vidx_t c1 = std::min(col0 + cols, tc0 + tcols);
        const SliceDirEntry& e = entry(bi, bj);
        if (e.bytes == 0) {
          for (vidx_t r = r0; r < r1; ++r) {
            dist_t* out = dst + static_cast<std::size_t>(r - row0) * dst_ld +
                          (c0 - col0);
            std::fill(out, out + (c1 - c0), kInf);
          }
          continue;
        }
        decode_tile(bi, bj, e, trows, tcols);
        for (vidx_t r = r0; r < r1; ++r) {
          const dist_t* in = memo_tile_.data() +
                             static_cast<std::size_t>(r - tr0) * tcols +
                             (c0 - tc0);
          std::copy(in, in + (c1 - c0),
                    dst + static_cast<std::size_t>(r - row0) * dst_ld +
                        (c0 - col0));
        }
      }
    }
  }

  /// Decompresses the (bi, bj) tile into the single-tile memo, reusing the
  /// previous decode when the same tile is read again (row sweeps hit every
  /// tile `tile_` consecutive times).
  void decode_tile(vidx_t bi, vidx_t bj, const SliceDirEntry& e, vidx_t trows,
                   vidx_t tcols) const {
    if (memo_bi_ == bi && memo_bj_ == bj) return;
    frame_.resize(e.bytes);
    seek_to(f_, e.offset, path_);
    read_exact(f_, frame_.data(), e.bytes, path_);
    const std::size_t raw = static_cast<std::size_t>(trows) * tcols;
    if (z1_raw_size(frame_.data(), frame_.size()) != raw * sizeof(dist_t)) {
      throw CorruptError(path_ + ": tile (" + std::to_string(bi) + ", " +
                         std::to_string(bj) + ") frame does not decode to " +
                         std::to_string(raw * sizeof(dist_t)) + " bytes");
    }
    memo_tile_.resize(raw);
    z1_decompress(frame_.data(), frame_.size(), memo_tile_.data(),
                  raw * sizeof(dist_t));
    memo_bi_ = bi;
    memo_bj_ = bj;
  }

  std::FILE* f_ = nullptr;
  std::string path_;
  vidx_t tile_;
  vidx_t row_begin_;
  vidx_t row_end_;
  std::vector<SliceDirEntry> dir_;
  vidx_t tiles_per_side_;
  vidx_t first_block_;
  mutable std::vector<std::uint8_t> frame_;
  mutable std::vector<dist_t> memo_tile_;
  mutable vidx_t memo_bi_ = -1;
  mutable vidx_t memo_bj_ = -1;
};

}  // namespace

int ShardManifest::shard_of_row(vidx_t stored_row) const {
  if (stored_row < 0 || stored_row >= n || shards.empty()) return -1;
  int lo = 0;
  int hi = num_shards() - 1;
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (stored_row < shards[static_cast<std::size_t>(mid)].row_end) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const ShardRange& r = shards[static_cast<std::size_t>(lo)];
  return stored_row >= r.row_begin && stored_row < r.row_end ? lo : -1;
}

std::string shard_manifest_path(const std::string& store_path) {
  return store_path + ".shards";
}

std::string shard_file_path(const std::string& store_path, int shard) {
  return store_path + ".shard." + std::to_string(shard);
}

ShardManifest shard_store_file(const std::string& store_path, int num_shards,
                               vidx_t /*tile*/, ShardingStats* stats) {
  Timer timer;
  // Frames are copied verbatim, so the source tiling is the only valid
  // routing granularity.
  const CompressedDirectory dir = read_compressed_directory(store_path);
  ShardManifest m;
  m.n = dir.n;
  m.tile = dir.tile;
  m.shards = split_rows(m.n, m.tile, num_shards);
  {
    File src(std::fopen(store_path.c_str(), "rb"));
    if (src.f == nullptr) {
      throw IoError("cannot open dist store file " + store_path);
    }
    for (int k = 0; k < num_shards; ++k) {
      write_z1_shard(src.f, store_path, dir, shard_file_path(store_path, k),
                     m.shards[static_cast<std::size_t>(k)]);
    }
  }

  std::uint64_t total = 0;
  for (int k = 0; k < num_shards; ++k) {
    ShardRange& r = m.shards[static_cast<std::size_t>(k)];
    r.checksum = checksum_file(shard_file_path(store_path, k), r.bytes);
    total += r.bytes;
  }
  const std::string manifest = shard_manifest_path(store_path);
  save_manifest(manifest, m);
  {
    File f(std::fopen(manifest.c_str(), "rb"));
    if (f.f != nullptr) total += file_size_of(f.f, manifest);
  }
  if (stats != nullptr) {
    stats->shards = num_shards;
    stats->bytes_written = total;
    stats->seconds = timer.seconds();
  }
  return m;
}

bool load_shard_manifest(const std::string& path, ShardManifest& out) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file.f == nullptr) return false;
  ManifestHeader h{};
  if (std::fread(&h, sizeof(h), 1, file.f) != 1) {
    throw CorruptError(path + ": short read of GAPSPSH1 header");
  }
  if (std::memcmp(h.magic, kManifestMagic, sizeof(kManifestMagic)) != 0) {
    throw CorruptError(path + ": not a GAPSPSH1 shard manifest");
  }
  if (h.n <= 0 || h.tile <= 0 || h.tile > h.n || h.num_shards < 1 ||
      h.num_shards > (h.n + h.tile - 1) / h.tile) {
    throw CorruptError(path + ": implausible shard manifest geometry");
  }
  std::vector<ManifestEntry> entries(static_cast<std::size_t>(h.num_shards));
  read_exact(file.f, entries.data(), entries.size() * sizeof(ManifestEntry),
             path);
  if (fnv1a(entries.data(), entries.size() * sizeof(ManifestEntry)) !=
      h.dir_checksum) {
    throw CorruptError(path + ": shard manifest checksum mismatch");
  }
  require_compressed(h.flags, path);
  ShardManifest m;
  m.n = static_cast<vidx_t>(h.n);
  m.tile = static_cast<vidx_t>(h.tile);
  std::int64_t cursor = 0;
  for (const ManifestEntry& e : entries) {
    if (e.row_begin != cursor || e.row_end <= e.row_begin ||
        e.row_begin % h.tile != 0) {
      throw CorruptError(path + ": shard row ranges not contiguous");
    }
    cursor = e.row_end;
    m.shards.push_back({static_cast<vidx_t>(e.row_begin),
                        static_cast<vidx_t>(e.row_end), e.bytes, e.checksum});
  }
  if (cursor != h.n) {
    throw CorruptError(path + ": shard row ranges do not cover the matrix");
  }
  out = std::move(m);
  return true;
}

std::unique_ptr<DistStore> open_shard_slice(const std::string& store_path,
                                            const ShardManifest& manifest,
                                            int k, bool verify) {
  GAPSP_CHECK(manifest.present(), "shard manifest is empty");
  GAPSP_CHECK(k >= 0 && k < manifest.num_shards(),
              "shard " + std::to_string(k) + " out of range [0, " +
                  std::to_string(manifest.num_shards()) + ")");
  const ShardRange& r = manifest.shards[static_cast<std::size_t>(k)];
  const std::string path = shard_file_path(store_path, k);
  if (verify) {
    std::uint64_t bytes = 0;
    const std::uint64_t sum = checksum_file(path, bytes);
    if (bytes != r.bytes) {
      throw CorruptError(path + ": shard file does not match its manifest (" +
                         std::to_string(bytes) + " bytes vs " +
                         std::to_string(r.bytes) + " expected)");
    }
    if (sum != r.checksum) {
      throw CorruptError(path +
                         ": shard file checksum mismatch against its "
                         "manifest — the slice is damaged; re-run `apsp_cli "
                         "shard` to rebuild it");
    }
  }
  File file(std::fopen(path.c_str(), "rb"));
  if (file.f == nullptr) {
    throw IoError("cannot open shard file " + path);
  }
  const std::uint64_t file_bytes = file_size_of(file.f, path);
  seek_to(file.f, 0, path);
  ShardHeader h{};
  if (std::fread(&h, sizeof(h), 1, file.f) != 1) {
    throw CorruptError(path + ": short read of GAPSPSD1 header");
  }
  if (std::memcmp(h.magic, kShardMagic, sizeof(kShardMagic)) != 0) {
    throw CorruptError(path + ": not a GAPSPSD1 shard file");
  }
  if (h.n != manifest.n || h.tile != manifest.tile ||
      h.row_begin != r.row_begin || h.row_end != r.row_end) {
    throw CorruptError(path + ": shard header disagrees with the manifest");
  }
  require_compressed(h.flags, path);

  const std::int64_t tps = (h.n + h.tile - 1) / h.tile;
  const std::int64_t row_blocks =
      (h.row_end + h.tile - 1) / h.tile - h.row_begin / h.tile;
  std::vector<SliceDirEntry> dir(static_cast<std::size_t>(row_blocks * tps));
  read_exact(file.f, dir.data(), dir.size() * sizeof(SliceDirEntry), path);
  if (fnv1a(dir.data(), dir.size() * sizeof(SliceDirEntry)) !=
      h.dir_checksum) {
    throw CorruptError(path + ": shard directory checksum mismatch");
  }
  const std::uint64_t data_start =
      sizeof(ShardHeader) + dir.size() * sizeof(SliceDirEntry);
  for (const SliceDirEntry& e : dir) {
    if (e.bytes == 0) continue;
    if (e.offset < data_start || e.offset + e.bytes > file_bytes) {
      throw CorruptError(path + ": shard directory entry out of bounds");
    }
  }
  return std::make_unique<ShardSliceStore>(
      file.release(), path, manifest.n, manifest.tile, r.row_begin, r.row_end,
      std::move(dir));
}

bool is_shard_file(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file.f == nullptr) return false;
  char magic[sizeof(kShardMagic)] = {};
  return std::fread(magic, 1, sizeof(magic), file.f) == sizeof(magic) &&
         std::memcmp(magic, kShardMagic, sizeof(kShardMagic)) == 0;
}

}  // namespace gapsp::core
