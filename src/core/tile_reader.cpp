#include "core/tile_reader.h"

#include <chrono>
#include <string>
#include <thread>

#include "sim/fault.h"

namespace gapsp::core {

namespace {

std::string tile_tag(vidx_t row_block, vidx_t col_block) {
  return "tile (" + std::to_string(row_block) + "," +
         std::to_string(col_block) + ")";
}

}  // namespace

TileReaderStats CheckedTileReader::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void CheckedTileReader::read_tile(vidx_t row_block, vidx_t col_block,
                                  vidx_t row0, vidx_t col0, vidx_t rows,
                                  vidx_t cols, dist_t* dst) {
  for (int attempt = 0;; ++attempt) {
    try {
      std::lock_guard<std::mutex> lk(mu_);
      if (opt_.faults != nullptr) {
        opt_.faults->on_op(sim::FaultOp::kStoreRead, /*device_now=*/0.0,
                           tile_tag(row_block, col_block).c_str());
      }
      store_.read_block(row0, col0, rows, cols, dst, cols);
      ++stats_.reads;
      return;
    } catch (const CorruptError& e) {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.corrupt_tiles;
      throw TileError(TileFailure::kCorrupt, row_block, col_block, e.what());
    } catch (const sim::FaultError& e) {
      if (!e.transient()) {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.corrupt_tiles;
        throw TileError(TileFailure::kCorrupt, row_block, col_block, e.what());
      }
      if (attempt >= opt_.retry.max_retries) {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.transient_failures;
        throw TileError(TileFailure::kTransient, row_block, col_block,
                        std::string(e.what()) + " (retries exhausted)");
      }
    } catch (const IoError& e) {
      if (attempt >= opt_.retry.max_retries) {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.transient_failures;
        throw TileError(TileFailure::kTransient, row_block, col_block,
                        std::string(e.what()) + " (retries exhausted)");
      }
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.retries;
    }
    const double backoff = util::retry_backoff_s(opt_.retry, attempt + 1);
    if (backoff > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
  }
}

}  // namespace gapsp::core
