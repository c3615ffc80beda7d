// apsp_cli — the command-line front end of the gapsp library: solve APSP on
// a simulated GPU, then query, shard, serve, scrub, update, inspect (info) or
// compact the kept store (DESIGN.md §8, §10, §11, §13, §15, §16). Each flag
// is declared once in the table below; a usage error prints the command's
// flags. Exit codes: 1 bad value or contradictory flags, 2 usage error,
// 3 verify or scrub failure, 4 I/O error or corruption.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string_view>

#include <unistd.h>

#include "core/apsp.h"
#include "core/checkpoint.h"
#include "core/incremental.h"
#include "core/kernel_engine.h"
#include "core/component_solver.h"
#include "core/compressed_store.h"
#include "core/cost_model.h"
#include "core/dist_io.h"
#include "core/multi_device.h"
#include "core/path_extract.h"
#include "core/scrub.h"
#include "core/shard_store.h"
#include "core/verify.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/matrix_market.h"
#include "partition/boundary.h"
#include "service/query_engine.h"
#include "service/shard_router.h"
#include "service/shard_worker.h"
#include "util/args.h"

namespace {

using namespace gapsp;
using enum FlagKind;
constexpr double kNoMax = std::numeric_limits<double>::infinity();

// Every flag, once: {name, kind, default (one-of: the values, the first being
// the default), help, bounds}. A flag several commands accept is named here;
// the others are written in their command's list.
const Flag kInput{"input", kText, "", "Matrix Market graph file"};
const Flag kGenerate{"generate", kText, "road:40x40",
                     "road:RxC | mesh:N:DEG | rmat:SCALE:EDGES | "
                     "er:N:M[:0 = leave disconnected] | dense:N:PCT"};
const Flag kSeed{"seed", kInteger, "1", "generator and solve seed", 0, kNoMax};
const Flag kStorePath{"store-path", kText, "apsp_dist.bin",
                      "distance store file (a kept GAPSPZ1 store)"};
const Flag kRetries{"retries", kInteger, "3", "retries per fault", 0, 1000};
const Flag kFaultSeed{"fault-seed", kInteger, "1", "fault seed", 0, kNoMax};
const Flag kResume{"resume", kSwitch, "", "resume from a checkpoint"};
const Flag kCacheMb{"cache-mb", kInteger, "64", "block cache MiB", 1, 1e6};
const Flag kCacheShards{"shards", kInteger, "8", "block cache shards", 1, 4096};
const Flag kThreads{"threads", kInteger, "0",
                    "batch fan-out threads (0 = whole pool)", 0, 4096};
const Flag kRepair{"repair", kOneOf, "off|recompute",
                   "re-derive damaged tiles from --generate/--input/--seed; "
                   "query ids address the store's own layout; boundary "
                   "solves permute"};
const Flag kFaultStoreRead{"fault-store-read", kNumber, "0",
                           "chance a store read faults", 0, 1};
const Flag kShard{"shard", kInteger, "", "serve shard slice N alone", 0, 4095};
const Flag kNoVerifyShard{"no-verify-shard", kSwitch, "",
                          "skip the shard file checksum at open"};

const Command kSolveCommand{
    "",
    "solve APSP; subcommands: query shard serve scrub update info compact",
    {kInput, kGenerate, kSeed,
     {"algorithm", kOneOf, "auto|fw|johnson|boundary", "auto = the selector"},
     {"device", kOneOf, "v100|k80", "simulated GPU preset"},
     {"memory-mb", kInteger, "", "device MiB (default 8 v100, 6 k80)", 1, 1e6},
     {"components", kInteger, "0", "component count (0 = sqrt(n)/4)", 0, 1e6},
     {"no-batching", kSwitch, "", "disable boundary transfer batching"},
     {"no-overlap", kSwitch, "", "disable compute/transfer overlap"},
     {"no-dp", kSwitch, "", "disable Johnson dynamic parallelism"},
     {"sparse-threshold", kNumber, "0.8", "selector sparse band, %", 0, 100},
     {"dense-threshold", kNumber, "4", "selector dense band, %", 0, 100},
     {"store", kOneOf, "ram|file", "distance store of the solve"},
     kStorePath,
     {"keep-store", kSwitch, "", "keep the file store, as GAPSPZ1, and .cal"},
     {"store-ratio", kNumber, "1", "assumed store compression", 1, kNoMax},
     {"query", kText, "", "print distances \"U,V;U2,V2\""},
     {"path", kText, "", "print one shortest path U,V"},
     {"trace", kText, "", "write a chrome://tracing JSON timeline"},
     {"stats", kSwitch, "", "print graph statistics and exit"},
     {"sssp-kernel", kOneOf, "near-far|delta-stepping|bellman-ford",
      "Johnson's SSSP kernel"},
     {"partitioner", kOneOf, "kway|rb", "boundary graph partitioner"},
     {"devices", kInteger, "1", "multi-GPU boundary device count", 1, 64},
     {"per-component", kSwitch, "", "solve each connected component alone"},
     {"save", kText, "", "write the distance matrix as GAPSPDM1"},
     {"verify", kSwitch, "", "check 8 rows against Dijkstra (exit 3)"},
     kFaultSeed,
     {"fault-h2d", kNumber, "0", "chance an H2D transfer faults", 0, 1},
     {"fault-d2h", kNumber, "0", "chance a D2H transfer faults", 0, 1},
     {"fault-kernel", kNumber, "0", "chance a kernel launch faults", 0, 1},
     {"fault-alloc", kNumber, "0", "chance an allocation faults", 0, 1},
     {"fault-decode", kNumber, "0", "chance a z1 decode faults", 0, 1},
     {"kill-device", kText, "", "D:N: device D dies at its N-th operation"},
     kRetries,
     {"checkpoint", kText, "", "checkpoint sidecar (needs --store file)"},
     kResume,
     {"kernel-variant", kText, "tensor", "tensor | naive min-plus kernel"},
     {"kernel-threads", kInteger, "0", "grid threads (0 = pool)", 0, 4096},
     {"transfer-compression", kText, "auto", "auto | on | off z1 transfers"}}};
constexpr core::Algorithm kAlgorithmOf[] = {  // by --algorithm's values
    core::Algorithm::kAuto, core::Algorithm::kBlockedFloydWarshall,
    core::Algorithm::kJohnson, core::Algorithm::kBoundary};
constexpr core::SsspKernel kSsspKernelOf[] = {  // by --sssp-kernel's values
    core::SsspKernel::kNearFar, core::SsspKernel::kDeltaStepping,
    core::SsspKernel::kBellmanFord};
constexpr part::Method kPartitionerOf[] = {  // by --partitioner's values
    part::Method::kMultilevelKway, part::Method::kRecursiveBisection};

const Command kQueryCommand{
    "query",
    "serve queries from a kept store; query ids address the store's own "
    "layout; boundary solves permute",
    {kStorePath,
     {"point", kText, "", "point queries \"U,V;U2,V2\""},
     {"row", kText, "", "row queries \"U;U2\""},
     {"batch", kText, "", "query file: \"U V\" | \"U,V\" | \"row U\" lines"},
     kCacheMb, kCacheShards, kThreads,
     {"repeat", kInteger, "1", "run the batch N times", 1, 1000000},
     kRetries,
     {"max-queue", kInteger, "0", "shed past N a batch (0 = off)", 0, kNoMax},
     kRepair, kGenerate, kInput, kSeed, kFaultStoreRead, kFaultSeed,
     {"route", kOneOf, "none|local|process", "serve all shards via a router"},
     kShard, kNoVerifyShard,
     {"worker-retries", kInteger, "1", "respawns per dead worker", 0, 1000},
     {"worker-timeout-ms", kInteger, "30000", "worker reply wait", 1, 864e5},
     {"kill-worker", kText, "", "K:N: worker K exits on batch N (chaos)"}}};
const Command kShardCommand{
    "shard",
    "split a kept store into row-range shard files plus a manifest",
    {kStorePath, {"shards", kInteger, "2", "shard files", 1, 4096}}};
const Command kServeCommand{
    "serve",
    "one shard worker on stdin/stdout (query --route process spawns them)",
    {kStorePath, kShard, kCacheMb, kCacheShards, kThreads, kRetries,
     kNoVerifyShard,
     {"exit-after", kInteger, "0", "internal: exit at batch N", 0, 1e9}}};
const Command kScrubCommand{
    "scrub",
    "check (and repair) every tile of a kept store; exit 3 on damage",
    {kStorePath, kRepair, kGenerate, kInput, kSeed, kRetries, kFaultStoreRead,
     kFaultSeed}};
const Command kUpdateCommand{
    "update",
    "repair a kept store after edge updates, given the solve's graph flags; "
    "query ids address the store's own layout; boundary solves permute",
    {kStorePath,
     {"updates", kText, "", "`u v w` arcs per line; w = inf | x | -1 deletes"},
     {"update-threshold", kNumber, "1", "re-solve past F*n bad rows", 0, 1},
     {"checkpoint", kText, "", "delta sidecar (empty = <store-path>.updck)"},
     {"checkpoint-every", kInteger, "64", "tiles per checkpoint", 1, kNoMax},
     kResume, kGenerate, kInput, kSeed,
     {"save-graph", kText, "", "write the updated graph (Matrix Market)"}}};
const Command kInfoCommand{
    "info", "print a kept store's format and sidecar health", {kStorePath}};
const Command kCompactCommand{
    "compact",
    "convert a raw matrix into a GAPSPZ1 store",
    {kStorePath,
     {"out", kText, "", "output store (empty = in place)"},
     {"block", kInteger, "256", "stored tile side", 1, 1e6}}};

/// Splits "A<sep>B" into two integers; `form` (e.g. "U,V") names the
/// expected input in errors.
std::pair<long long, long long> parse_pair(const std::string& s, char sep,
                                           const std::string& form) {
  const auto at = s.find(sep);
  GAPSP_CHECK(at != std::string::npos, "expected " + form + " but got " + s);
  return {parse_integer(s.substr(0, at), form),
          parse_integer(s.substr(at + 1), form)};
}

std::pair<vidx_t, vidx_t> parse_vertex_pair(const std::string& s) {
  const auto [u, v] = parse_pair(s, ',', "U,V");
  return {static_cast<vidx_t>(u), static_cast<vidx_t>(v)};
}

graph::CsrGraph make_graph(const Args& args) {
  if (args.has("input")) {
    return graph::read_matrix_market_file(args.text("input"));
  }
  const std::string spec = args.text("generate");
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  std::istringstream ss(spec);
  std::string kind;
  std::getline(ss, kind, ':');
  GAPSP_CHECK(kind == "road" || kind == "mesh" || kind == "rmat" ||
                  kind == "er" || kind == "dense",
              "unknown generator kind: " + kind);
  auto next_num = [&](char sep) {
    std::string tok;
    GAPSP_CHECK(static_cast<bool>(std::getline(ss, tok, sep)),
                "bad --generate spec: " + spec);
    return parse_integer(tok, "--generate " + spec);
  };
  // Every kind has two fields: road:RxC, mesh:N:DEG, rmat:SCALE:EDGES,
  // er:N:M, dense:N:PCT.
  const long long a = next_num(kind == "road" ? 'x' : ':');
  const long long b = next_num(':');
  const auto n = static_cast<vidx_t>(a);
  if (kind == "road") return graph::make_road(n, static_cast<vidx_t>(b), seed);
  if (kind == "mesh") return graph::make_mesh(n, static_cast<int>(b), seed);
  if (kind == "rmat") return graph::make_rmat(static_cast<int>(a), b, seed);
  if (kind == "dense") {
    return graph::make_dense(n, static_cast<double>(b), seed);
  }
  // Optional 3rd er field: er:N:M:0 skips the connecting spanning walk, so a
  // sub-critical M leaves many components (a kInf-dominated store).
  std::string tok;
  const bool connect = !std::getline(ss, tok, ':') ||
                       parse_integer(tok, "--generate " + spec) != 0;
  return graph::make_erdos_renyi(n, b, seed, connect);
}

std::string us(double seconds) {
  std::ostringstream os;
  os << seconds * 1e6 << "us";
  return os.str();
}

// ---- flag relations: one check per command, before any file or graph ----

void check_repair_source(const Args& args) {
  GAPSP_CHECK(args.text("repair") == "off" || args.has("generate") ||
                  args.has("input"),
              "--repair recompute re-derives tiles from the input graph: "
              "pass the solve's --generate/--input (and --seed)");
}

void check_solve(const Args& args) {
  // A checkpoint sidecar only records *progress*; the completed rounds live
  // in the distance store. Across processes that store must be durable — a
  // RAM store dies with the killed run, and resuming against a fresh one
  // would silently continue from an uninitialized matrix.
  const bool file_store = args.text("store") == "file";
  const bool checkpoint = !args.text("checkpoint").empty();
  GAPSP_CHECK(!checkpoint || file_store,
              "--checkpoint/--resume need a durable store: add "
              "--store file --store-path P (the file is kept across runs)");
  GAPSP_CHECK(!args.has("resume") || checkpoint,
              "--resume continues from a checkpoint sidecar: pass the "
              "--checkpoint FILE the interrupted run wrote");
  GAPSP_CHECK(!args.has("keep-store") || file_store,
              "--keep-store keeps a file store: add --store file "
              "--store-path P");
  if (args.integer("devices") > 1) {
    const std::string algorithm = args.text("algorithm");
    GAPSP_CHECK(algorithm == "auto" || algorithm == "boundary",
                "--devices N runs the multi-GPU boundary algorithm; it "
                "contradicts --algorithm " + algorithm);
    GAPSP_CHECK(!args.has("per-component"),
                "--devices N runs one multi-GPU boundary solve; it "
                "contradicts --per-component");
  }
}

// Serving-topology contradictions are typed usage errors (exit 1), caught
// before any store is opened.
void check_query(const Args& args) {
  const std::string route = args.text("route");
  const bool routed = route != "none";
  GAPSP_CHECK(!(args.has("shard") && routed),
              "--shard serves a single slice; it contradicts --route " +
                  route + " (the router already reaches every shard)");
  GAPSP_CHECK(!args.has("kill-worker") || route == "process",
              "--kill-worker kills a worker process; it needs --route "
              "process");
  GAPSP_CHECK(!(routed && args.text("repair") != "off"),
              "--repair recompute cannot cross the worker boundary; serve "
              "unrouted or repair offline with `apsp_cli scrub`");
  GAPSP_CHECK(!(routed && args.number("fault-store-read") > 0.0),
              "--fault-store-read injects into a single engine; chaos for "
              "routed serving is --kill-worker");
  GAPSP_CHECK(!args.has("no-verify-shard") || routed || args.has("shard"),
              "--no-verify-shard only applies to shard serving (--shard or "
              "--route)");
  check_repair_source(args);
}

/// Builds the SSSP repair source for --repair recompute: the same graph the
/// solve ran on, re-made from --generate/--input/--seed. Identity
/// permutation only (fw/johnson solves); the kept graph outlives the fn via
/// the shared_ptr capture.
core::TileRepairFn make_repair_source(const Args& args) {
  if (args.text("repair") == "off") return {};
  auto g = std::make_shared<graph::CsrGraph>(make_graph(args));
  core::TileRepairFn fn = core::make_sssp_repair(*g);
  return [g, fn](vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols) {
    return fn(row0, col0, rows, cols);
  };
}

/// The engine flags query and serve share. --max-queue is the caller's:
/// behind a router, the router is the one admission point.
service::QueryEngineOptions engine_options_from_flags(const Args& args) {
  service::QueryEngineOptions qopt;
  qopt.cache_bytes = static_cast<std::size_t>(args.integer("cache-mb")) << 20;
  qopt.cache_shards = static_cast<int>(args.integer("shards"));
  qopt.max_threads = static_cast<int>(args.integer("threads"));
  qopt.retry.max_retries = static_cast<int>(args.integer("retries"));
  return qopt;
}

struct ParsedQueries {
  std::vector<service::Query> queries;
  std::size_t inline_queries = 0;  // from --point/--row: echo each result
};

ParsedQueries parse_queries(const Args& args) {
  ParsedQueries out;
  auto& queries = out.queries;
  std::istringstream points(args.text("point"));
  for (std::string item; std::getline(points, item, ';');) {
    const auto [u, v] = parse_vertex_pair(item);
    queries.push_back({service::QueryKind::kPoint, u, v});
  }
  std::istringstream rows(args.text("row"));
  for (std::string item; std::getline(rows, item, ';');) {
    queries.push_back({service::QueryKind::kRow,
                       static_cast<vidx_t>(parse_integer(item, "--row")), 0});
  }
  out.inline_queries = queries.size();
  if (const std::string batch = args.text("batch"); !batch.empty()) {
    std::ifstream in(batch);
    GAPSP_CHECK(in.good(), "cannot open batch file " + batch);
    std::string line;
    while (std::getline(in, line)) {
      const auto first = line.find_first_not_of(" \t");
      if (first == std::string::npos || line[first] == '#') continue;
      std::istringstream ls(line.substr(first));
      std::string tok;
      ls >> tok;
      if (tok == "row") {
        long long u = 0;
        GAPSP_CHECK(static_cast<bool>(ls >> u), "bad batch line: " + line);
        queries.push_back(
            {service::QueryKind::kRow, static_cast<vidx_t>(u), 0});
      } else if (tok.find(',') != std::string::npos) {
        const auto [u, v] = parse_vertex_pair(tok);
        queries.push_back({service::QueryKind::kPoint, u, v});
      } else {
        long long v = 0;
        GAPSP_CHECK(static_cast<bool>(ls >> v), "bad batch line: " + line);
        queries.push_back(
            {service::QueryKind::kPoint,
             static_cast<vidx_t>(parse_integer(tok, "batch line " + line)),
             static_cast<vidx_t>(v)});
      }
    }
  }
  GAPSP_CHECK(!queries.empty(),
              "nothing to serve: give --point, --row, or --batch");
  return out;
}

/// Runs the queries --repeat times (cache counters accumulate across runs),
/// then prints the last run's --point/--row results and its summary.
template <class Server>
int serve_batches(const Args& args, Server& server, const ParsedQueries& pq,
                  vidx_t n) {
  auto report = server.run_batch(pq.queries);
  for (long long rep = 1; rep < args.integer("repeat"); ++rep) {
    report = server.run_batch(pq.queries);
  }
  for (std::size_t i = 0; i < pq.inline_queries; ++i) {
    const auto& r = report.results[i];
    const bool ok = r.status == service::QueryStatus::kOk;
    if (r.query.kind == service::QueryKind::kPoint) {
      std::cout << "dist(" << r.query.u << ", " << r.query.v << ") = ";
    } else {
      std::cout << "row " << r.query.u << (ok ? ": " : " = ");
    }
    if (!ok) {
      std::cout << "<" << service::query_status_name(r.status) << ": "
                << r.error << ">\n";
    } else if (r.query.kind == service::QueryKind::kPoint) {
      if (r.dist >= kInf) {
        std::cout << "unreachable\n";
      } else {
        std::cout << r.dist << "\n";
      }
    } else {
      vidx_t reachable = 0;
      dist_t far = 0;
      for (dist_t d : r.row) {
        if (d < kInf) {
          ++reachable;
          far = std::max(far, d);
        }
      }
      std::cout << reachable << "/" << n << " reachable, eccentricity " << far
                << "\n";
    }
  }
  const auto& cs = report.cache;
  std::cout << "batch: " << report.results.size() << " queries in "
            << report.wall_seconds * 1e3 << " ms ("
            << static_cast<long long>(report.qps) << " qps)\n"
            << "latency: mean " << us(report.latency.mean_s) << ", p50 "
            << us(report.latency.p50_s) << ", p95 " << us(report.latency.p95_s)
            << ", max " << us(report.latency.max_s) << "\n"
            << "cache: " << cs.hits << " hits, " << cs.misses << " misses ("
            << cs.hit_rate() * 100.0 << "% hit rate), " << cs.evictions
            << " evictions, " << cs.negative_loads
            << " all-kInf tiles at zero cost, " << (cs.bytes_cached >> 10)
            << " KiB of " << (cs.capacity_bytes >> 10) << " KiB used\n";
  const auto& sv = report.service;
  std::cout << "service: " << sv.served << " served, " << sv.degraded
            << " degraded, " << sv.shed << " shed, " << sv.repaired
            << " repaired; " << sv.retries << " retried, "
            << sv.transient_failures << " transient-failed, "
            << sv.corrupt_tiles << " corrupt, " << cs.quarantined_tiles
            << " quarantined\n";
  // Degradation is visible but non-fatal: every query got a typed answer.
  return 0;
}

core::ShardManifest require_manifest(const std::string& path) {
  core::ShardManifest manifest;
  if (!core::load_shard_manifest(core::shard_manifest_path(path), manifest)) {
    throw Error("no shard manifest next to " + path +
                " — run `apsp_cli shard --store-path " + path +
                " --shards N` first");
  }
  return manifest;
}

std::string self_exe_path() {
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  GAPSP_CHECK(len > 0, "cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(len));
}

/// `query --shard K`: serve one shard slice directly (no router). Queries
/// routing outside the shard's rows are a usage error — the slice cannot
/// answer them, and silently returning kInf would look like "unreachable".
int run_query_shard_slice(const Args& args, const std::string& path) {
  const auto manifest = require_manifest(path);
  const int k = static_cast<int>(args.integer("shard"));
  GAPSP_CHECK(k < manifest.num_shards(),
              "--shard " + std::to_string(k) + " out of range [0, " +
                  std::to_string(manifest.num_shards()) + ")");
  const auto& range = manifest.shards[static_cast<std::size_t>(k)];
  const auto slice = core::open_shard_slice(path, manifest, k);
  auto qopt = engine_options_from_flags(args);
  qopt.max_queue = static_cast<std::size_t>(args.integer("max-queue"));
  const service::QueryEngine engine(*slice, qopt);

  std::cout << "store: " << path << " shard " << k << "/"
            << manifest.num_shards() << " (rows [" << range.row_begin << ", "
            << range.row_end << ") of n=" << manifest.n
            << ", GAPSPZ1 slice, tile " << manifest.tile << ")\n";

  const auto pq = parse_queries(args);
  for (const auto& q : pq.queries) {
    GAPSP_CHECK(
        q.u >= range.row_begin && q.u < range.row_end,
        (q.kind == service::QueryKind::kPoint ? "--point " : "--row ") +
            std::to_string(q.u) + " routes outside --shard " +
            std::to_string(k) + " rows [" + std::to_string(range.row_begin) +
            ", " + std::to_string(range.row_end) +
            "); drop --shard or use --route local/process");
  }
  return serve_batches(args, engine, pq, manifest.n);
}

/// `query --route local|process`: a ShardRouter over every shard, either
/// in-process engines or one worker process per shard.
int run_query_routed(const Args& args, const std::string& path,
                     const std::string& route) {
  const auto manifest = require_manifest(path);
  const int shards = manifest.num_shards();

  // One logical cache budget, split across the shard engines like the
  // single-engine path would spend it (floor 1 MiB per shard).
  const auto cache_mb = args.integer("cache-mb");
  const auto per_shard_mb = std::max<long long>(1, cache_mb / shards);

  service::ShardRouterOptions ropt;
  ropt.max_queue = static_cast<std::size_t>(args.integer("max-queue"));

  int kill_shard = -1;
  long long kill_at = 0;
  if (args.has("kill-worker")) {
    const auto [shard, at] = parse_pair(args.text("kill-worker"), ':',
                                        "--kill-worker SHARD:NTHBATCH");
    GAPSP_CHECK(shard >= 0 && shard < shards,
                "--kill-worker shard " + std::to_string(shard) +
                    " out of range [0, " + std::to_string(shards) + ")");
    GAPSP_CHECK(at >= 1, "--kill-worker batch index must be >= 1");
    kill_shard = static_cast<int>(shard);
    kill_at = at;
  }

  std::vector<std::unique_ptr<service::ShardBackend>> backends;
  if (route == "local") {
    // The router sheds; its engines see bounded sub-batches.
    auto qopt = engine_options_from_flags(args);
    qopt.cache_bytes = static_cast<std::size_t>(per_shard_mb) << 20;
    backends = service::make_local_backends(path, manifest, qopt);
  } else {
    service::ProcessBackendOptions popt;
    popt.retries = static_cast<int>(args.integer("worker-retries"));
    popt.timeout_ms = static_cast<int>(args.integer("worker-timeout-ms"));
    const std::string exe = self_exe_path();
    for (int k = 0; k < shards; ++k) {
      std::vector<std::string> extra = {
          "--cache-mb", std::to_string(per_shard_mb),
          "--shards", std::to_string(args.integer("shards")),
          "--retries", std::to_string(args.integer("retries"))};
      if (args.has("no-verify-shard")) extra.push_back("--no-verify-shard");
      if (k == kill_shard) {
        extra.push_back("--exit-after");
        extra.push_back(std::to_string(kill_at));
      }
      backends.push_back(service::make_process_backend(
          service::make_cli_worker_spawner(exe, path, std::move(extra)), k,
          manifest, popt));
    }
  }
  service::ShardRouter router(manifest, std::move(backends), ropt);

  std::cout << "store: " << path << " (n=" << manifest.n << ", " << shards
            << " shards, tile " << manifest.tile << ", GAPSPZ1 slices)\n"
            << "route: " << route << ", cache " << cache_mb
            << " MiB split as " << per_shard_mb << " MiB/shard";
  if (route == "process") {
    std::cout << ", worker retries " << args.integer("worker-retries")
              << ", timeout " << args.integer("worker-timeout-ms") << " ms";
  }
  if (ropt.max_queue > 0) std::cout << ", max-queue " << ropt.max_queue;
  if (kill_shard >= 0) {
    std::cout << ", killing worker " << kill_shard << " at batch " << kill_at;
  }
  std::cout << "\n";
  return serve_batches(args, router, parse_queries(args), manifest.n);
}

int run_query(const Args& args) {
  check_query(args);
  const std::string path = args.text("store-path");
  const std::string route = args.text("route");
  if (route != "none") return run_query_routed(args, path, route);
  if (args.has("shard")) return run_query_shard_slice(args, path);

  const auto store = core::open_store(path);

  auto qopt = engine_options_from_flags(args);
  qopt.max_queue = static_cast<std::size_t>(args.integer("max-queue"));
  qopt.repair = make_repair_source(args);

  sim::FaultPlan chaos;
  chaos.seed = static_cast<std::uint64_t>(args.integer("fault-seed"));
  chaos.p_store_read = args.number("fault-store-read");
  sim::FaultInjector chaos_injector(chaos);
  if (chaos.p_store_read > 0.0) qopt.faults = &chaos_injector;

  const service::QueryEngine engine(*store, qopt);
  const auto info = core::compressed_store_info(path);
  std::cout << "store: " << path << " (n=" << store->n() << ", "
            << (info.raw_bytes >> 10) << " KiB raw; compressed to "
            << (info.file_bytes >> 10) << " KiB, "
            << static_cast<double>(info.raw_bytes) /
                   static_cast<double>(info.file_bytes)
            << "x, " << info.inf_tiles << "/" << info.tiles
            << " all-kInf tiles)\ncache: " << (qopt.cache_bytes >> 20)
            << " MiB in " << qopt.cache_shards << " shards, "
            << store->tile_size() << "-wide blocks\n"
            << "integrity: GAPSPZ1 frame checksums, "
            << qopt.retry.max_retries << " retries"
            << (qopt.repair ? ", repair=recompute" : "");
  if (qopt.max_queue > 0) std::cout << ", max-queue " << qopt.max_queue;
  if (chaos.p_store_read > 0.0) {
    std::cout << ", injecting store-read faults p=" << chaos.p_store_read;
  }
  std::cout << "\n";
  return serve_batches(args, engine, parse_queries(args), store->n());
}

/// `apsp_cli shard`: slice a kept store into row-range shard files plus the
/// GAPSPSH1 manifest, next to the store.
int run_shard(const Args& args) {
  const std::string path = args.text("store-path");
  const int num = static_cast<int>(args.integer("shards"));
  core::ShardingStats stats;
  const auto m = core::shard_store_file(path, num, /*tile=*/0, &stats);
  std::cout << "sharded: " << path << " -> " << m.num_shards()
            << " shards (GAPSPZ1, n=" << m.n
            << ", tile " << m.tile << ", " << (stats.bytes_written >> 10)
            << " KiB) in " << stats.seconds * 1e3 << " ms\n";
  for (int k = 0; k < m.num_shards(); ++k) {
    const auto& r = m.shards[static_cast<std::size_t>(k)];
    std::cout << "  shard " << k << ": rows [" << r.row_begin << ", "
              << r.row_end << "), " << (r.bytes >> 10) << " KiB -> "
              << core::shard_file_path(path, k) << "\n";
  }
  std::cout << "manifest: " << core::shard_manifest_path(path) << "\n"
            << "serve it with: apsp_cli query --store-path " << path
            << " --route process ...\n";
  return 0;
}

/// `apsp_cli serve --shard K`: one shard worker speaking the wire protocol
/// on stdin/stdout (spawned by the router; logs go to stderr).
int run_serve(const Args& args) {
  GAPSP_CHECK(args.has("shard"),
              "serve needs --shard K — it serves exactly one shard slice "
              "behind the wire protocol (the router spawns one per shard)");
  const std::string path = args.text("store-path");
  const int shard = static_cast<int>(args.integer("shard"));
  service::ShardWorkerOptions wopt;
  wopt.engine = engine_options_from_flags(args);
  wopt.verify_shard = !args.has("no-verify-shard");
  wopt.exit_after = static_cast<int>(args.integer("exit-after"));
  return service::run_shard_worker(path, shard, wopt, STDIN_FILENO,
                                   STDOUT_FILENO);
}

int run_scrub(const Args& args) {
  check_repair_source(args);
  const std::string path = args.text("store-path");
  core::ScrubOptions sopt;
  sopt.retry.max_retries = static_cast<int>(args.integer("retries"));
  sopt.repair_fn = make_repair_source(args);
  sopt.repair = static_cast<bool>(sopt.repair_fn);

  sim::FaultPlan chaos;
  chaos.seed = static_cast<std::uint64_t>(args.integer("fault-seed"));
  chaos.p_store_read = args.number("fault-store-read");
  sim::FaultInjector chaos_injector(chaos);
  if (chaos.p_store_read > 0.0) sopt.faults = &chaos_injector;

  const auto report = core::scrub_store(path, sopt);
  std::cout << "scrub: " << path << " (GAPSPZ1, n=" << report.n
            << ", tile=" << report.tile << ", " << report.tiles
            << " tiles)\n";
  std::cout << "damage: " << report.corrupt << " corrupt, " << report.repaired
            << " repaired, " << report.unrepaired << " unrepaired\n";
  for (const auto& t : report.damaged) {
    std::cout << "  tile (" << t.row_block << "," << t.col_block << ") "
              << (t.repaired ? "[repaired] " : "") << t.reason << "\n";
  }
  if (report.ok()) {
    std::cout << "result: " << (report.clean() ? "CLEAN" : "REPAIRED") << "\n";
    return 0;
  }
  std::cout << "result: DAMAGED (serve at your own risk, or repair with "
               "--repair recompute --generate/--input ...)\n";
  return 3;
}

int run_compact(const Args& args) {
  const std::string in = args.text("store-path");
  std::string out = args.text("out");
  if (out.empty()) out = in;
  const auto tile = static_cast<vidx_t>(args.integer("block"));
  const auto cs = core::compact_store(in, out, tile);
  std::cout << "compacted: " << in << " -> " << out << "\n"
            << "store compressed: " << (cs.raw_bytes >> 10) << " KiB -> "
            << (cs.compressed_bytes >> 10) << " KiB (" << cs.ratio() << "x, "
            << cs.inf_tiles << "/" << cs.tiles << " all-kInf tiles) in "
            << cs.seconds * 1e3 << " ms\n"
            << "serve it with: apsp_cli query --store-path " << out << "\n";
  return 0;
}

/// Bytes of the file at `path`, or 0 when missing/unreadable.
std::uint64_t file_size_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::uint64_t bytes = 0;
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long long end = std::ftell(f);
    if (end > 0) bytes = static_cast<std::uint64_t>(end);
  }
  std::fclose(f);
  return bytes;
}

/// Removes every shard sidecar of `path` (manifest + shard files), because
/// the bytes they slice are about to change. Tolerates a corrupt manifest:
/// the files are removed by probing, not by trusting its count.
void remove_shard_sidecars(const std::string& path) {
  const std::string manifest = core::shard_manifest_path(path);
  if (file_size_bytes(manifest) == 0) return;
  for (int k = 0;; ++k) {
    if (std::remove(core::shard_file_path(path, k).c_str()) != 0) break;
  }
  std::remove(manifest.c_str());
}

/// `apsp_cli update`: delta-repair a kept store after a batch of edge-weight
/// updates instead of re-solving (DESIGN.md §16). The repair writes into a
/// sibling tmp copy and atomically replaces the store only when complete, so
/// a kill mid-update leaves the pristine matrix plus a GAPSPCK1 delta
/// sidecar that --resume continues bit-identically. Sidecars derived from
/// the old bytes (.cal, .shards) are invalidated.
int run_update(const Args& args) {
  GAPSP_CHECK(args.has("updates"),
              "update needs --updates FILE (one `u v w` arc per line; w = "
              "inf/x/-1 deletes) plus the solve's --generate/--input/--seed");
  const std::string path = args.text("store-path");
  auto pristine = core::open_store(path);
  const graph::CsrGraph g = make_graph(args);
  const auto updates = core::read_edge_updates(args.text("updates"));
  const vidx_t n = pristine->n();
  GAPSP_CHECK(
      n == g.num_vertices(),
      "store " + path + " holds n=" + std::to_string(n) +
          " but the graph has n=" + std::to_string(g.num_vertices()) +
          " — pass the exact --generate/--input/--seed the solve used");

  core::IncrementalOptions opt;
  opt.damage_threshold = args.number("update-threshold");
  opt.tile = pristine->tile_size();
  opt.checkpoint_path = args.text("checkpoint");
  if (opt.checkpoint_path.empty()) opt.checkpoint_path = path + ".updck";
  opt.resume = args.has("resume");
  opt.checkpoint_every_tiles = args.integer("checkpoint-every");

  // The repair lands in a raw sibling copy; the pristine store — which a
  // resumed run must re-read byte-identically — is replaced only by the
  // final compaction.
  const std::string tmp = path + ".upd.tmp";
  const std::uint64_t raw_bytes = static_cast<std::uint64_t>(n) *
                                  static_cast<std::uint64_t>(n) *
                                  sizeof(dist_t);
  bool fresh_copy = true;
  if (opt.resume) {
    core::Checkpoint ck;
    if (core::read_checkpoint(opt.checkpoint_path, &ck) &&
        ck.fingerprint == core::incremental_fingerprint(
                              g, updates, opt.tile, opt.damage_threshold) &&
        file_size_bytes(tmp) == raw_bytes) {
      // The tmp copy already holds every tile the dead run emitted;
      // re-copying the pristine matrix would silently undo them.
      fresh_copy = false;
    }
  }
  auto target = core::make_file_store(n, tmp, /*keep_file=*/true);
  if (fresh_copy) {
    const vidx_t strip = std::min<vidx_t>(n, 256);
    std::vector<dist_t> buf(static_cast<std::size_t>(strip) *
                            static_cast<std::size_t>(n));
    for (vidx_t r0 = 0; r0 < n; r0 += strip) {
      const vidx_t rows = std::min(strip, n - r0);
      pristine->read_block(r0, 0, rows, n, buf.data(),
                           static_cast<std::size_t>(n));
      target->write_block(r0, 0, rows, n, buf.data(),
                          static_cast<std::size_t>(n));
    }
  } else {
    std::cout << "resume: continuing into " << tmp << " from "
              << opt.checkpoint_path << "\n";
  }

  // Checkpoint durability: the tmp copy's stdio buffers must land before a
  // checkpoint claims their tiles, or a SIGKILL resume would skip tiles
  // that never reached disk.
  opt.sync_before_checkpoint = [&target] { target->flush(); };

  core::IncrementalEngine engine(g, opt);
  const core::UpdateOutcome out = engine.apply(
      *pristine, updates,
      [&](vidx_t, vidx_t, vidx_t r0, vidx_t c0, vidx_t rows, vidx_t cols,
          const dist_t* data) {
        target->write_block(r0, c0, rows, cols, data,
                            static_cast<std::size_t>(cols));
      });

  // Swap the repaired matrix in and fix up every sidecar derived from the
  // old bytes (the invalidation matrix in DESIGN.md §16).
  target.reset();
  pristine.reset();
  core::compact_store(tmp, path, opt.tile);  // atomic tmp+rename inside
  std::remove(tmp.c_str());
  if (std::remove((path + ".cal").c_str()) == 0) {
    std::cout << "sidecar: invalidated " << path << ".cal (calibration was "
              << "fit against the old store)\n";
  }
  if (file_size_bytes(core::shard_manifest_path(path)) > 0) {
    remove_shard_sidecars(path);
    std::cout << "sidecar: invalidated " << core::shard_manifest_path(path)
              << " + shard files (re-shard with `apsp_cli shard`)\n";
  }

  std::cout << "update: " << path << " (n=" << n << ", GAPSPZ1, tile "
            << opt.tile << ")\n"
            << "batch: " << updates.size() << " updates -> " << out.decreases
            << " decreases, " << out.increases << " increases, " << out.noops
            << " noops\n";
  if (out.full_solve) {
    std::cout << "mode: full re-solve (" << out.damaged_rows << "/" << n
              << " rows damaged > threshold "
              << opt.damage_threshold << ")\n";
  } else {
    std::cout << "mode: delta repair (" << out.damaged_rows
              << " damaged rows, " << out.sources << " seed sources, AR "
              << out.affected_rows << " x AC " << out.affected_cols << ")\n";
  }
  std::cout << "tiles: " << out.tiles_touched << " changed of "
            << out.tiles_candidate << " candidates / " << out.tiles_total
            << " total";
  if (out.tiles_resumed > 0) {
    std::cout << " (" << out.tiles_resumed << " resumed from checkpoint)";
  }
  std::cout << "\ntime: " << out.seconds * 1e3 << " ms (probe "
            << out.probe_seconds * 1e3 << ", sssp " << out.sssp_seconds * 1e3
            << ", panels " << out.panel_seconds * 1e3 << ", tiles "
            << out.tile_seconds * 1e3 << ")\n"
            << "modeled: repair " << out.modeled_repair_seconds
            << " s vs full re-solve " << out.modeled_full_seconds << " s ("
            << out.modeled_full_seconds /
                   std::max(out.modeled_repair_seconds, 1e-12)
            << "x)\n";
  if (const std::string gpath = args.text("save-graph"); !gpath.empty()) {
    graph::write_matrix_market_file(engine.updated_graph(), gpath);
    std::cout << "graph: wrote updated graph to " << gpath
              << " (solve it fresh via --input to cross-check the repair)\n";
  }
  return 0;
}

/// `apsp_cli info`: describe a kept store and the health of its sidecars
/// without serving or mutating anything.
int run_info(const Args& args) {
  const std::string path = args.text("store-path");
  if (file_size_bytes(path) == 0) {
    throw IoError("no store at " + path);
  }
  std::cout << "store: " << path << " (" << (file_size_bytes(path) >> 10)
            << " KiB)\n";
  if (core::is_shard_file(path)) {
    std::cout << "format: GAPSPSD1 shard slice (one row range of a sharded "
              << "store; `info` on the parent store reads the manifest)\n";
    return 0;
  }
  // A raw matrix is an IoError here, naming `apsp_cli compact`.
  const auto info = core::compressed_store_info(path);
  std::cout << "format: GAPSPZ1 block-compressed\n"
            << "n: " << info.n << "\ntile: " << info.tile << " ("
            << info.tiles_per_side << " per side, " << info.inf_tiles << "/"
            << info.tiles << " all-kInf)\n"
            << "compression: " << (info.raw_bytes >> 10) << " KiB raw -> "
            << (info.file_bytes >> 10) << " KiB ("
            << static_cast<double>(info.raw_bytes) /
                   static_cast<double>(info.file_bytes)
            << "x)\n";

  // ---- sidecar health ---------------------------------------------------
  const std::string cal_path = path + ".cal";
  if (file_size_bytes(cal_path) == 0) {
    std::cout << "calibration: absent (" << cal_path << ")\n";
  } else {
    std::cout << "calibration: "
              << (core::calibration_file_valid(cal_path) ? "present"
                                                         : "INVALID")
              << " (" << cal_path << ")\n";
  }
  const std::string manifest_path = core::shard_manifest_path(path);
  if (file_size_bytes(manifest_path) == 0) {
    std::cout << "shards: absent (" << manifest_path << ")\n";
  } else {
    try {
      core::ShardManifest m;
      core::load_shard_manifest(manifest_path, m);
      int missing = 0;
      for (int k = 0; k < m.num_shards(); ++k) {
        if (file_size_bytes(core::shard_file_path(path, k)) !=
            m.shards[static_cast<std::size_t>(k)].bytes) {
          ++missing;
        }
      }
      std::cout << "shards: " << m.num_shards() << " (GAPSPZ1 payloads, tile "
                << m.tile << ")";
      if (missing > 0) {
        std::cout << " — " << missing << " shard file(s) missing or resized";
      }
      std::cout << "\n";
    } catch (const Error& e) {
      std::cout << "shards: INVALID (" << manifest_path << ": " << e.what()
                << ")\n";
    }
  }
  core::Checkpoint ck;
  if (core::read_checkpoint(path + ".updck", &ck)) {
    std::cout << "delta checkpoint: present (" << path << ".updck, "
              << ck.progress
              << " tiles done — an `apsp_cli update` died mid-repair; rerun "
              << "it with --resume)\n";
  }
  return 0;
}

int run_solve(const Args& args) {
  check_solve(args);
  const graph::CsrGraph g = make_graph(args);
  std::cout << "graph: n=" << g.num_vertices() << " m=" << g.num_edges()
            << " density=" << g.density_percent() << "%\n";

  if (args.has("stats")) {
    const auto deg = graph::degree_stats(g);
    std::cout << "degree: min=" << deg.min << " max=" << deg.max
              << " mean=" << deg.mean << "\n"
              << "components: " << graph::count_components(g) << "\n"
              << "separator ratio (#boundary / n^0.75): "
              << part::separator_ratio(g)
              << (part::has_small_separator(g) ? "  [small separator]\n"
                                               : "  [large separator]\n");
    return 0;
  }

  core::ApspOptions opts;
  opts.device = args.text("device") == "k80" ? sim::DeviceSpec::k80_scaled()
                                             : sim::DeviceSpec::v100_scaled();
  if (args.has("memory-mb")) {
    opts.device = opts.device.with_memory(
        static_cast<std::size_t>(args.integer("memory-mb")) << 20);
  }
  opts.algorithm = kAlgorithmOf[args.choice("algorithm")];
  opts.num_components = static_cast<int>(args.integer("components"));
  opts.batch_transfers = !args.has("no-batching");
  opts.overlap_transfers = !args.has("no-overlap");
  opts.transfer_compression =
      core::parse_transfer_compression(args.text("transfer-compression"));
  opts.dynamic_parallelism = !args.has("no-dp");
  opts.seed = static_cast<std::uint64_t>(args.integer("seed"));
  opts.sssp_kernel = kSsspKernelOf[args.choice("sssp-kernel")];
  opts.partition_method = kPartitionerOf[args.choice("partitioner")];

  sim::TraceRecorder trace;
  if (args.has("trace")) opts.trace = &trace;

  sim::FaultPlan faults;
  faults.seed = static_cast<std::uint64_t>(args.integer("fault-seed"));
  faults.p_h2d = args.number("fault-h2d");
  faults.p_d2h = args.number("fault-d2h");
  faults.p_kernel = args.number("fault-kernel");
  faults.p_alloc = args.number("fault-alloc");
  faults.p_decode = args.number("fault-decode");
  if (args.has("kill-device")) {
    const auto [device, op] =
        parse_pair(args.text("kill-device"), ':', "--kill-device D:NTHOP");
    faults.kill_device = static_cast<int>(device);
    faults.kill_at_op = op;
  }
  const bool any_faults = faults.p_h2d > 0 || faults.p_d2h > 0 ||
                          faults.p_kernel > 0 || faults.p_alloc > 0 ||
                          faults.p_decode > 0 || faults.kill_device >= 0;
  if (any_faults) opts.faults = &faults;
  opts.retry.max_retries = static_cast<int>(args.integer("retries"));
  opts.kernel_variant =
      core::parse_kernel_variant(args.text("kernel-variant"));
  opts.kernel_threads = static_cast<int>(args.integer("kernel-threads"));
  opts.checkpoint_path = args.text("checkpoint");
  opts.resume = args.has("resume");
  opts.store_bytes_per_element =
      sizeof(dist_t) / args.number("store-ratio");

  core::SelectorOptions sel;
  sel.sparse_percent = args.number("sparse-threshold");
  sel.dense_percent = args.number("dense-threshold");

  const std::string store_path = args.text("store-path");
  std::unique_ptr<core::DistStore> store;
  if (args.text("store") == "file") {
    // With a checkpoint in play the store must survive both the interrupted
    // run (exception unwinds this unique_ptr) and the resume run.
    const bool keep = args.has("keep-store") || !opts.checkpoint_path.empty();
    store = core::make_file_store(g.num_vertices(), store_path, keep);
    // A serving/resuming setup keeps state next to the store: reuse the
    // calibration sidecar a previous run saved so the selector's warm-up
    // solves are skipped.
    if (core::load_calibration(opts, store_path + ".cal")) {
      std::cout << "calibration: reused " << store_path << ".cal\n";
    }
  } else {
    store = core::make_ram_store(g.num_vertices());
  }

  core::SelectorReport report;
  core::ApspResult r;
  const int devices = static_cast<int>(args.integer("devices"));
  if (devices > 1) {
    auto multi = core::ooc_boundary_multi(g, opts, devices, *store);
    std::cout << "multi-GPU boundary: " << devices << " devices, makespan "
              << multi.result.metrics.sim_seconds * 1e3 << " ms\n";
    if (!multi.multi.failed_devices.empty()) {
      std::cout << "failover:";
      for (int d : multi.multi.failed_devices) {
        std::cout << " device " << d << " lost;";
      }
      std::cout << " " << multi.multi.failover_components
                << " components re-run on survivors ("
                << multi.multi.failover_cost_s * 1e3 << " ms)\n";
    }
    r = std::move(multi.result);
  } else if (args.has("per-component")) {
    auto comp = core::solve_apsp_per_component(g, opts, *store, sel);
    std::cout << "per-component: " << comp.num_components
              << " components, largest " << comp.largest_component << "\n";
    r = std::move(comp.result);
  } else {
    r = core::solve_apsp(g, opts, *store, &report, sel);
  }

  std::cout << "algorithm: " << core::algorithm_name(r.used);
  if (opts.algorithm == core::Algorithm::kAuto && devices == 1 &&
      !args.has("per-component")) {
    std::cout << " (selected; density " << report.density_percent << "%)";
  }
  std::cout << "\nsimulated time: " << r.metrics.sim_seconds * 1e3
            << " ms (kernels " << r.metrics.kernel_seconds * 1e3
            << " ms, transfers " << r.metrics.transfer_seconds * 1e3
            << " ms)\ntransfer overlap: "
            << r.metrics.hidden_transfer_seconds * 1e3 << " ms hidden, "
            << r.metrics.exposed_transfer_seconds * 1e3 << " ms exposed\n";
  const std::size_t wire_raw =
      r.metrics.bytes_h2d_raw + r.metrics.bytes_d2h_raw;
  const std::size_t wire = r.metrics.bytes_h2d_wire + r.metrics.bytes_d2h_wire;
  if (wire > 0) {
    std::cout << "transfer compression: " << (wire_raw >> 10) << " KiB -> "
              << (wire >> 10) << " KiB on the wire ("
              << static_cast<double>(wire_raw) / static_cast<double>(wire)
              << "x), decode busy " << r.metrics.decode_seconds * 1e3
              << " ms in " << r.metrics.decodes << " kernels\n";
  }
  std::cout << "device traffic: "
            << (r.metrics.bytes_h2d >> 10) << " KiB h2d in "
            << r.metrics.transfers_h2d << " transfers, "
            << (r.metrics.bytes_d2h >> 10) << " KiB d2h in "
            << r.metrics.transfers_d2h << " transfers\n"
            << "device peak memory: " << (r.metrics.device_peak_bytes >> 10)
            << " KiB of " << (opts.device.memory_bytes >> 10) << " KiB";
  if (r.metrics.pinned_peak_bytes > 0) {
    std::cout << " (+" << (r.metrics.pinned_peak_bytes >> 10)
              << " KiB pinned staging)";
  }
  std::cout << "\n";
  if (!r.metrics.kernel_variant.empty()) {
    std::cout << "kernel engine: " << r.metrics.kernel_variant
              << " microkernel, "
              << (opts.kernel_threads == 1
                      ? std::string("serial")
                      : opts.kernel_threads == 0
                            ? std::string("pooled")
                            : std::to_string(opts.kernel_threads) +
                                  "-thread")
              << " grid execution";
    std::cout << " (" << core::simd_lane_isa() << " lanes, " << std::fixed
              << std::setprecision(2)
              << core::kernel_variant_rel_speed(opts.kernel_variant)
              << "x vs naive)\n";
    std::cout.unsetf(std::ios::fixed);
  }
  if (r.metrics.johnson_batch_size > 0) {
    std::cout << "johnson: bat=" << r.metrics.johnson_batch_size << ", "
              << r.metrics.johnson_num_batches << " batches, "
              << r.metrics.child_kernels << " child kernels\n";
  }
  if (r.metrics.boundary_k > 0) {
    std::cout << "boundary: k=" << r.metrics.boundary_k << ", "
              << r.metrics.boundary_nodes << " boundary vertices\n";
  }
  if (r.metrics.faults_injected > 0 || r.metrics.degradations > 0) {
    std::cout << "recovery: " << r.metrics.faults_injected
              << " faults injected, " << r.metrics.transfer_retries
              << " transfer retries, " << r.metrics.kernel_retries
              << " kernel retries, " << r.metrics.decode_retries
              << " decode retries ("
              << r.metrics.retry_backoff_seconds * 1e3 << " ms backoff), "
              << r.metrics.degradations << " degradations\n";
  }
  if (r.metrics.checkpoints_written > 0 || r.metrics.resumed_progress > 0) {
    std::cout << "checkpoint: " << r.metrics.checkpoints_written
              << " written, resumed past " << r.metrics.resumed_progress
              << " completed units\n";
  }

  if (args.has("query")) {
    std::istringstream qs(args.text("query"));
    std::string item;
    while (std::getline(qs, item, ';')) {
      const auto [u, v] = parse_vertex_pair(item);
      const dist_t d = store->at(r.stored_id(u), r.stored_id(v));
      std::cout << "dist(" << u << ", " << v << ") = ";
      if (d >= kInf) {
        std::cout << "unreachable\n";
      } else {
        std::cout << d << "\n";
      }
    }
  }
  if (args.has("path")) {
    const auto [u, v] = parse_vertex_pair(args.text("path"));
    const core::PathExtractor extractor(g, *store, r);
    const auto path = extractor.path(u, v);
    std::cout << "path(" << u << " -> " << v << "): ";
    if (path.empty()) {
      std::cout << "unreachable\n";
    } else {
      for (std::size_t i = 0; i < path.size(); ++i) {
        std::cout << (i == 0 ? "" : " -> ") << path[i];
      }
      std::cout << "  (length " << extractor.walk_length(path) << ")\n";
    }
  }
  if (args.has("verify")) {
    const auto rep = core::verify_result(g, *store, r, 8, opts.seed);
    std::cout << "verify: " << (rep.ok ? "OK" : "FAILED") << " ("
              << rep.rows_checked << " rows, " << rep.entries_checked
              << " entries)\n";
    if (!rep.ok) {
      std::cerr << rep.detail;
      return 3;
    }
  }
  if (const std::string save = args.text("save"); !save.empty()) {
    core::save_distances(*store, r, save);
    const double mib = static_cast<double>(g.num_vertices()) *
                       g.num_vertices() * sizeof(dist_t) / (1 << 20);
    std::cout << "distances: " << mib << " MiB -> " << save << "\n";
  }
  if (args.has("keep-store")) {
    if (core::save_calibration(opts, store_path + ".cal")) {
      std::cout << "calibration: saved " << store_path << ".cal\n";
    }
    // The solve loop always writes the raw store (blocked FW rewrites every
    // tile O(n_d) times); compression happens here, at the sink, once the
    // matrix is final. Close the raw store first so buffered writes are
    // flushed before compaction re-reads the file.
    store.reset();
    const auto cs = core::compact_store(store_path, store_path);
    r.metrics.store_raw_bytes = static_cast<std::size_t>(cs.raw_bytes);
    r.metrics.store_compressed_bytes =
        static_cast<std::size_t>(cs.compressed_bytes);
    r.metrics.store_tiles = cs.tiles;
    r.metrics.store_inf_tiles = cs.inf_tiles;
    r.metrics.store_compact_seconds = cs.seconds;
    std::cout << "store compressed: " << (cs.raw_bytes >> 10) << " KiB -> "
              << (cs.compressed_bytes >> 10) << " KiB (" << cs.ratio() << "x, "
              << cs.inf_tiles << "/" << cs.tiles << " all-kInf tiles) in "
              << cs.seconds * 1e3 << " ms\n";
    std::cout << "store kept: " << store_path
              << " (serve it with: apsp_cli query --store-path ...)\n";
  }
  if (const std::string tpath = args.text("trace"); !tpath.empty()) {
    std::ofstream out(tpath);
    GAPSP_CHECK(out.good(), "cannot open " + tpath);
    trace.write_chrome_trace(out);
    std::cout << "timeline: " << trace.events().size() << " events -> "
              << tpath << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  static const std::pair<const Command*, int (*)(const Args&)> kCommands[] = {
      {&kSolveCommand, run_solve}, {&kQueryCommand, run_query},
      {&kShardCommand, run_shard}, {&kServeCommand, run_serve},
      {&kScrubCommand, run_scrub}, {&kUpdateCommand, run_update},
      {&kInfoCommand, run_info},   {&kCompactCommand, run_compact}};
  const auto* cmd = std::begin(kCommands);  // the solve, unless one is named
  const bool named = argc > 1 && std::string_view(argv[1]).rfind("--", 0) != 0;
  try {
    if (named) {
      cmd = std::find_if(cmd + 1, std::end(kCommands), [&](const auto& c) {
        return c.first->name == argv[1];
      });
      if (cmd == std::end(kCommands)) {
        cmd = std::begin(kCommands);
        throw UsageError(std::string("unknown subcommand '") + argv[1] + "'");
      }
    }
    const Args args(*cmd->first, argc, argv, named ? 2 : 1);
    return cmd->second(args);
  } catch (const gapsp::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n"
              << usage("apsp_cli", *cmd->first);
    return 2;
  } catch (const gapsp::CorruptError& e) {
    // Data failed an integrity check — retrying is useless; scrub instead.
    std::cerr << "corrupt store: " << e.what()
              << " (run `apsp_cli scrub --store-path ...` to locate and "
                 "repair the damage)\n";
    return 4;
  } catch (const gapsp::IoError& e) {
    // Host I/O failure (missing/truncated file, sick disk) — distinct exit
    // code so serving wrappers can tell an infrastructure fault from a
    // usage error.
    std::cerr << "io error: " << e.what()
              << " (check --store-path and that the file is readable)\n";
    return 4;
  } catch (const gapsp::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
