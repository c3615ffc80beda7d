// Benchmark of the sharded serving tier (DESIGN.md §15).
//
// Solves one road graph, keeps it as a GAPSPZ1 store (the CLI's
// --keep-store flow), slices it into row-range shards, and measures the same warm point/row batch through three serving
// topologies: a single QueryEngine over the whole store, a ShardRouter over
// in-process engines (one per shard), and a ShardRouter over forked worker
// processes speaking the wire protocol. Every routed run is checked
// bit-identical to the single engine before its throughput is reported —
// a routed number that disagrees with the oracle is a failure, not a row.
//
// A final degraded row kills one worker mid-run (no retries) and measures
// the surviving throughput plus the typed-quarantine count, so the cost of
// losing a shard is a measured number. Writes BENCH_shard.json.
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/apsp.h"
#include "core/compressed_store.h"
#include "core/shard_store.h"
#include "graph/generators.h"
#include "service/query_engine.h"
#include "service/shard_router.h"
#include "util/rng.h"

namespace {

using namespace gapsp;

struct Row {
  std::string mode;
  int shards = 0;
  std::size_t queries = 0;
  double seconds = 0.0;
  double qps = 0.0;
  long long degraded = 0;
};

void write_json(const std::vector<Row>& rows, const std::string& path) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "  {\"mode\": \"" << r.mode << "\", \"shards\": " << r.shards
        << ", \"queries\": " << r.queries << ", \"seconds\": " << r.seconds
        << ", \"qps\": " << r.qps << ", \"degraded\": " << r.degraded << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::cout << rows.size() << " rows -> " << path << "\n";
}

bool same_results(const service::BatchReport& got,
                  const service::BatchReport& want) {
  if (got.results.size() != want.results.size()) return false;
  for (std::size_t i = 0; i < got.results.size(); ++i) {
    if (got.results[i].status != want.results[i].status ||
        got.results[i].dist != want.results[i].dist ||
        got.results[i].row != want.results[i].row) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double min_parity_qps_ratio = 0.0;  // routed-local floor vs single engine
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--assert-min-local-ratio=", 25) == 0) {
      min_parity_qps_ratio = std::stod(argv[i] + 25);
    }
  }

  const auto g = graph::make_road(40, 40, 23);
  const vidx_t n = g.num_vertices();
  core::ApspOptions opts;
  opts.device = sim::DeviceSpec::v100_scaled();
  opts.algorithm = core::Algorithm::kJohnson;
  const std::string store_path = "bench_shard_dist.bin";
  {
    auto store = core::make_file_store(n, store_path, /*keep_file=*/true);
    core::solve_apsp(g, opts, *store);
  }
  core::compact_store(store_path, store_path);
  constexpr int kShards = 4;
  const auto manifest = core::shard_store_file(store_path, kShards, 256);
  std::cout << "solved n=" << n << ", sharded " << store_path << " into "
            << manifest.num_shards() << " row-range slices\n";

  constexpr std::size_t kPoints = 20000;
  constexpr std::size_t kRows = 64;
  Rng rng(29);
  std::vector<service::Query> queries;
  queries.reserve(kPoints + kRows);
  for (std::size_t i = 0; i < kPoints; ++i) {
    queries.push_back({service::QueryKind::kPoint,
                       static_cast<vidx_t>(rng.next_below(n)),
                       static_cast<vidx_t>(rng.next_below(n))});
  }
  for (std::size_t i = 0; i < kRows; ++i) {
    queries.push_back(
        {service::QueryKind::kRow, static_cast<vidx_t>(rng.next_below(n)), 0});
  }

  std::vector<Row> rows;
  service::QueryEngineOptions qopt;
  qopt.cache_bytes = 16u << 20;

  // --- oracle: one engine over the whole store ---
  const auto whole = core::open_store(store_path);
  const service::QueryEngine single(*whole, qopt);
  single.run_batch(queries);  // cold fill
  const auto want = single.run_batch(queries);
  rows.push_back({"single", 1, queries.size(), want.wall_seconds, want.qps,
                  want.service.degraded});
  std::cout << "single engine (warm): " << static_cast<long long>(want.qps)
            << " qps\n";

  // --- local router: per-shard engines in-process ---
  auto shard_opt = qopt;
  shard_opt.cache_bytes = qopt.cache_bytes / kShards;
  {
    service::ShardRouter router(
        manifest, service::make_local_backends(store_path, manifest,
                                               shard_opt));
    router.run_batch(queries);  // cold fill
    const auto got = router.run_batch(queries);
    if (!same_results(got, want)) {
      std::cerr << "FAILED: local router disagrees with the single engine\n";
      return 1;
    }
    rows.push_back({"router_local", kShards, queries.size(),
                    got.wall_seconds, got.qps, got.service.degraded});
    std::cout << "local router (warm, parity-checked): "
              << static_cast<long long>(got.qps) << " qps\n";
    if (min_parity_qps_ratio > 0.0 &&
        got.qps < want.qps * min_parity_qps_ratio) {
      std::cerr << "FAILED: local router below " << min_parity_qps_ratio
                << "x of single-engine throughput\n";
      return 1;
    }
  }

  // --- process router: one forked worker per shard ---
  {
    service::ShardWorkerOptions wopt;
    wopt.engine = shard_opt;
    auto spawner = service::make_fork_worker_spawner(store_path, wopt);
    std::vector<std::unique_ptr<service::ShardBackend>> backends;
    for (int k = 0; k < manifest.num_shards(); ++k) {
      backends.push_back(service::make_process_backend(spawner, k, manifest));
    }
    service::ShardRouter router(manifest, std::move(backends));
    router.run_batch(queries);  // cold fill (worker-side caches)
    const auto got = router.run_batch(queries);
    if (!same_results(got, want)) {
      std::cerr << "FAILED: process router disagrees with the single "
                   "engine\n";
      return 1;
    }
    rows.push_back({"router_process", kShards, queries.size(),
                    got.wall_seconds, got.qps, got.service.degraded});
    std::cout << "process router (warm, parity-checked): "
              << static_cast<long long>(got.qps) << " qps\n";
  }

  // --- degraded: worker 1 dies on its first batch, no retries ---
  {
    service::ProcessBackendOptions popt;
    popt.retries = 0;
    popt.respawn = false;
    std::vector<std::unique_ptr<service::ShardBackend>> backends;
    for (int k = 0; k < manifest.num_shards(); ++k) {
      service::ShardWorkerOptions wk;
      wk.engine = shard_opt;
      wk.exit_after = (k == 1) ? 1 : 0;
      backends.push_back(service::make_process_backend(
          service::make_fork_worker_spawner(store_path, wk), k, manifest,
          popt));
    }
    service::ShardRouter router(manifest, std::move(backends));
    const auto got = router.run_batch(queries);
    if (got.results.size() != queries.size()) {
      std::cerr << "FAILED: degraded batch lost results\n";
      return 1;
    }
    rows.push_back({"router_killed_worker", kShards, queries.size(),
                    got.wall_seconds, got.qps, got.service.degraded});
    std::cout << "process router, one worker killed: "
              << static_cast<long long>(got.qps) << " qps, "
              << got.service.degraded << " typed-quarantined of "
              << queries.size() << "\n";
  }

  write_json(rows, "BENCH_shard.json");

  std::remove(core::shard_manifest_path(store_path).c_str());
  for (int k = 0; k < manifest.num_shards(); ++k) {
    std::remove(core::shard_file_path(store_path, k).c_str());
  }
  std::remove(store_path.c_str());
  return 0;
}
