#include "core/scrub.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "core/compressed_store.h"
#include "core/dist_store.h"
#include "core/tile_reader.h"
#include "graph/csr_graph.h"
#include "sssp/dijkstra.h"

namespace gapsp::core {

namespace {

constexpr std::size_t kMaxReportedTiles = 64;

void note_damage(ScrubReport& report, vidx_t bi, vidx_t bj,
                 const std::string& reason) {
  ++report.corrupt;
  if (report.damaged.size() < kMaxReportedTiles) {
    report.damaged.push_back(DamagedTile{bi, bj, false, reason});
  }
}

void mark_repaired(ScrubReport& report) {
  report.repaired = report.corrupt;
  for (DamagedTile& t : report.damaged) t.repaired = true;
}

/// Scans every tile of `store` through `reader`, recording damage.
/// Returns the damaged tile keys (bi * tiles_per_side + bj).
std::unordered_set<std::uint64_t> scan_tiles(CheckedTileReader& reader,
                                             const DistStore& store,
                                             vidx_t tile, ScrubReport& report) {
  std::unordered_set<std::uint64_t> damaged;
  const vidx_t n = store.n();
  const vidx_t tps = (n + tile - 1) / tile;
  std::vector<dist_t> buf(static_cast<std::size_t>(tile) * tile);
  for (vidx_t bi = 0; bi < tps; ++bi) {
    const vidx_t row0 = bi * tile;
    const vidx_t rows = std::min<vidx_t>(tile, n - row0);
    for (vidx_t bj = 0; bj < tps; ++bj) {
      const vidx_t col0 = bj * tile;
      const vidx_t cols = std::min<vidx_t>(tile, n - col0);
      ++report.tiles;
      try {
        reader.read_tile(bi, bj, row0, col0, rows, cols, buf.data());
      } catch (const TileError& e) {
        note_damage(report, bi, bj, e.what());
        damaged.insert(static_cast<std::uint64_t>(bi) * tps + bj);
      }
    }
  }
  return damaged;
}

/// Serves damaged tiles from the repair source and everything else from the
/// underlying (partially corrupt) store. write_compressed_store walks the
/// source in store-tile-aligned rectangles, so forwarding by tile key is
/// exact.
class PatchedSource final : public DistStore {
 public:
  PatchedSource(const DistStore& base, vidx_t tile,
                std::unordered_set<std::uint64_t> damaged,
                const TileRepairFn& repair)
      : DistStore(base.n()), base_(base), tile_(tile),
        damaged_(std::move(damaged)), repair_(repair) {}

  void write_block(vidx_t, vidx_t, vidx_t, vidx_t, const dist_t*,
                   std::size_t) override {
    throw IoError("PatchedSource is read-only");
  }

  void read_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                  dist_t* dst, std::size_t dst_ld) const override {
    check_block(row0, col0, rows, cols);
    GAPSP_CHECK(row0 % tile_ == 0 && col0 % tile_ == 0 && rows <= tile_ &&
                    cols <= tile_,
                "patched scrub source requires tile-aligned reads");
    const vidx_t tps = (n() + tile_ - 1) / tile_;
    const std::uint64_t key =
        static_cast<std::uint64_t>(row0 / tile_) * tps + col0 / tile_;
    if (damaged_.count(key) == 0) {
      base_.read_block(row0, col0, rows, cols, dst, dst_ld);
      return;
    }
    const std::vector<dist_t> fixed = repair_(row0, col0, rows, cols);
    GAPSP_CHECK(fixed.size() == static_cast<std::size_t>(rows) * cols,
                "repair source returned a wrong-sized tile");
    for (vidx_t r = 0; r < rows; ++r) {
      std::copy_n(fixed.data() + static_cast<std::size_t>(r) * cols, cols,
                  dst + static_cast<std::size_t>(r) * dst_ld);
    }
  }

  vidx_t tile_size() const override { return tile_; }

 private:
  const DistStore& base_;
  vidx_t tile_;
  std::unordered_set<std::uint64_t> damaged_;
  const TileRepairFn& repair_;
};

}  // namespace

ScrubReport scrub_store(const std::string& path, const ScrubOptions& opt) {
  GAPSP_CHECK(!opt.repair || static_cast<bool>(opt.repair_fn),
              "scrub repair requested without a repair source");
  // Store-level validation (header + directory) happens at open; damage
  // there prevents the walk and propagates as CorruptError per contract.
  auto store = open_store(path);
  ScrubReport report;
  report.n = store->n();
  report.tile = store->tile_size();
  TileReaderOptions ropt;
  ropt.retry = opt.retry;
  ropt.faults = opt.faults;
  // The z1 decoder verifies every frame's content checksum.
  CheckedTileReader reader(*store, ropt);
  std::unordered_set<std::uint64_t> damaged =
      scan_tiles(reader, *store, report.tile, report);

  if (opt.repair && !damaged.empty()) {
    const PatchedSource patched(*store, report.tile, std::move(damaged),
                                opt.repair_fn);
    // Atomic: the rebuilt store replaces `path` only once fully written;
    // our open handle keeps reading the old inode meanwhile.
    write_compressed_store(patched, path, report.tile);
    mark_repaired(report);
  }
  report.unrepaired = report.corrupt - report.repaired;
  return report;
}

TileRepairFn make_sssp_repair(const graph::CsrGraph& g,
                              std::vector<vidx_t> perm) {
  const vidx_t n = g.num_vertices();
  GAPSP_CHECK(perm.empty() || static_cast<vidx_t>(perm.size()) == n,
              "permutation size does not match the graph");
  // stored index = perm[vertex]  ⇒  vertex = inv[stored index]
  auto inv = std::make_shared<std::vector<vidx_t>>(n);
  if (perm.empty()) {
    for (vidx_t v = 0; v < n; ++v) (*inv)[v] = v;
  } else {
    for (vidx_t v = 0; v < n; ++v) (*inv)[perm[v]] = v;
  }
  return [&g, inv, n](vidx_t row0, vidx_t col0, vidx_t rows,
                      vidx_t cols) -> std::vector<dist_t> {
    std::vector<dist_t> out(static_cast<std::size_t>(rows) * cols);
    std::vector<dist_t> dist(static_cast<std::size_t>(n));
    for (vidx_t r = 0; r < rows; ++r) {
      sssp::dijkstra_into(g, (*inv)[row0 + r], dist);
      for (vidx_t c = 0; c < cols; ++c) {
        out[static_cast<std::size_t>(r) * cols + c] = dist[(*inv)[col0 + c]];
      }
    }
    return out;
  };
}

}  // namespace gapsp::core
