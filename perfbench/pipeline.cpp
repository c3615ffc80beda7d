// The pipeline benchmark: one seeded, in-process run of the path a gapsp
// user takes, timed end to end and (with --trace 1) layer by layer.
//
//   generate graph → cold selector calibration → solve_apsp (kAuto, the
//   apsp_cli selector thresholds 4% / 0.8%) → write_compressed_store →
//   open_store → serve (QueryEngine) → QueryEngine::apply_updates
//
//   perfbench_pipeline --workload NAME --seed N --seconds S --trace 0|1
//                      [--workdir DIR]
//
// One --seed drives the graph, the query stream and the update stream; the
// library sees only the generated inputs. The traced run also probes the
// shard split and a ShardRouter over fork-spawned workers. Every solve is checked on sampled
// sources, a sample of every served answer is checked, and the answers
// served after each update batch are checked, all against the benchmark's
// own unsaturated 64-bit Dijkstra (support.h), never against core::verify.
//
// The last stdout line is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics when
// --trace 1. Lines before it give the input record and, per metric, its
// sample count and the highest percentile those samples support.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/apsp.h"
#include "core/compressed_store.h"
#include "core/cost_model.h"
#include "core/incremental.h"
#include "core/kernel_engine.h"
#include "core/ooc_boundary.h"
#include "core/shard_store.h"
#include "core/z1_codec.h"
#include "graph/generators.h"
#include "partition/kway.h"
#include "service/query_engine.h"
#include "service/shard_router.h"
#include "sim/device.h"
#include "sim/trace.h"
#include "sssp/near_far.h"
#include "support.h"
#include "util/rng.h"

namespace {

using namespace gapsp;
using perfbench::ScopedSpan;
using perfbench::now_s;
using service::Query;
using service::QueryKind;

// ---- workloads --------------------------------------------------------------

enum class QueryMix {
  kLocal,    ///< point/row queries clustered around a random grid cell
  kHubZipf,  ///< both endpoints Zipf-skewed over the highest-degree vertices
};

struct Workload {
  const char* name;
  const char* graph_spec;
  std::function<graph::CsrGraph(std::uint64_t)> build;
  core::Algorithm expected;  ///< the selector's pick the rationale rests on
  QueryMix mix;
  /// Every row_every-th position of the query set is a row query, the rest
  /// are points: a fixed count at fixed positions, so the seed moves which
  /// vertices are read, not how much a pass over the set reads.
  std::size_t row_every;
  /// The warm reads of each round go to the engine that took the round's
  /// update batch, and batches mix increases with decreases. Otherwise the
  /// batches are decreases only and the warm tier stays read-only: an
  /// increase that reaches a hub damages every row, and whether a batch
  /// holds one would make the update cost bimodal by seed.
  bool serve_updated;
  /// Cache budget as a share of the kept store's bytes; 0 keeps the
  /// engine's default budget (which holds the whole store for these sizes).
  double cache_share;
};

// Why each workload exists:
//  road-boundary-rw  — boundary selected; partition, boundary driver,
//                      incremental repair, cache-hit and overlay reads.
//  rmat-johnson-miss — Johnson selected with visible regret; Near-Far SSSP,
//                      dynamic parallelism, D2H codec, cache miss path.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"road-boundary-rw", "road:48x48",
       [](std::uint64_t s) { return graph::make_road(48, 48, s); },
       core::Algorithm::kBoundary, QueryMix::kLocal, 10, true, 0.0},
      {"rmat-johnson-miss", "rmat:11:14000",
       [](std::uint64_t s) { return graph::make_rmat(11, 14000, s); },
       core::Algorithm::kJohnson, QueryMix::kHubZipf, 20, false, 0.125},
  };
  return w;
}

constexpr int kGridSide = 48;           // road:48x48
constexpr std::size_t kQuerySet = 4096;  // queries per pass over the set
constexpr std::size_t kSmallBatch = 8;   // latency probe batch
constexpr std::size_t kBulkBatch = 2048;
// The oracle checks every answer to the queries at set positions that are
// multiples of kCheckEvery: a fixed sample, so its cost and memory repeat.
constexpr std::size_t kCheckEvery = 16;
constexpr std::size_t kMinLatencySamples = 1000;  // p99 needs 10 beyond it
constexpr vidx_t kStoreTile = 256;
// One update batch: ~0.1% of road:48x48's 7840 arcs. Each batch is applied
// alone, to a fresh engine over the kept store.
constexpr std::size_t kArcsPerUpdate = 8;

// ---- seeded inputs ------------------------------------------------------------

std::vector<Query> make_queries(const Workload& w, const graph::CsrGraph& g,
                                std::uint64_t seed) {
  Rng rng(seed ^ 0x51ed2701a3c4e5f7ULL);
  const vidx_t n = g.num_vertices();
  std::vector<Query> out;
  out.reserve(kQuerySet);
  std::vector<vidx_t> hubs;
  std::vector<double> zipf_cdf;
  if (w.mix == QueryMix::kHubZipf) {
    hubs.resize(static_cast<std::size_t>(n));
    for (vidx_t v = 0; v < n; ++v) hubs[static_cast<std::size_t>(v)] = v;
    std::stable_sort(hubs.begin(), hubs.end(), [&](vidx_t a, vidx_t b) {
      return g.out_degree(a) > g.out_degree(b);
    });
    double acc = 0.0;
    for (vidx_t r = 0; r < n; ++r) {
      acc += 1.0 / static_cast<double>(r + 1);
      zipf_cdf.push_back(acc);
    }
    for (auto& c : zipf_cdf) c /= acc;
  }
  auto zipf_hub = [&]() {
    const double x = rng.next_double();
    const auto it = std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), x);
    const auto r = std::min<std::size_t>(
        static_cast<std::size_t>(it - zipf_cdf.begin()), hubs.size() - 1);
    return hubs[r];
  };
  auto near = [&](int r, int c, int radius) {
    const int rr = std::clamp(
        r + static_cast<int>(rng.next_in(-radius, radius)), 0, kGridSide - 1);
    const int cc = std::clamp(
        c + static_cast<int>(rng.next_in(-radius, radius)), 0, kGridSide - 1);
    return static_cast<vidx_t>(rr * kGridSide + cc);
  };
  for (std::size_t i = 0; i < kQuerySet; ++i) {
    Query q;
    q.kind = i % w.row_every == 0 ? QueryKind::kRow : QueryKind::kPoint;
    switch (w.mix) {
      case QueryMix::kLocal: {
        const int r = static_cast<int>(rng.next_below(kGridSide));
        const int c = static_cast<int>(rng.next_below(kGridSide));
        q.u = near(r, c, 3);
        q.v = near(r, c, 8);
        break;
      }
      case QueryMix::kHubZipf:
        q.u = zipf_hub();
        q.v = zipf_hub();
        break;
    }
    out.push_back(q);
  }
  return out;
}

/// `batches` update batches of kArcsPerUpdate distinct arcs each: half
/// increases and half decreases when `mixed`, decreases only otherwise. A
/// new weight never equals the old one.
std::vector<std::vector<core::EdgeUpdate>> make_updates(
    const graph::CsrGraph& g, std::uint64_t seed, int batches, bool mixed) {
  Rng rng(seed ^ 0x0dd5eed5c0ffee11ULL);
  const eidx_t m = g.num_edges();
  const std::size_t per_batch = kArcsPerUpdate;
  const auto offsets = g.offsets();
  std::vector<std::uint8_t> used(static_cast<std::size_t>(m), 0);
  std::vector<std::vector<core::EdgeUpdate>> out(
      static_cast<std::size_t>(batches));
  for (auto& batch : out) {
    while (batch.size() < per_batch) {
      const auto e = static_cast<eidx_t>(
          rng.next_below(static_cast<std::uint64_t>(m)));
      const dist_t w = g.edge_weights()[static_cast<std::size_t>(e)];
      if (used[static_cast<std::size_t>(e)] || (!mixed && w <= 1)) continue;
      used[static_cast<std::size_t>(e)] = 1;
      const auto u = static_cast<vidx_t>(
          std::upper_bound(offsets.begin(), offsets.end(), e) -
          offsets.begin() - 1);
      const vidx_t v = g.targets()[static_cast<std::size_t>(e)];
      const bool increase = mixed && (w <= 1 || rng.next_bool(0.5));
      const dist_t nw =
          increase ? w + 1 + static_cast<dist_t>(rng.next_below(
                                 static_cast<std::uint64_t>(w)))
                   : std::max<dist_t>(1, w / 2);
      batch.push_back(core::EdgeUpdate{u, v, nw});
    }
  }
  return out;
}

// ---- run state ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench-work";
};

Args parse_args(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad arg " + key);
    key = key.substr(2);
    std::string val;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      val = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      val = argv[++i];
    } else {
      throw std::invalid_argument("missing value for --" + key);
    }
    kv[key] = val;
  }
  for (const auto& [k, v] : kv) {
    if (k == "workload") a.workload = v;
    else if (k == "seed") a.seed = std::stoull(v);
    else if (k == "seconds") a.seconds = std::stod(v);
    else if (k == "trace") a.trace = v == "1";
    else if (k == "workdir") a.workdir = v;
    else throw std::invalid_argument("unknown flag --" + k);
  }
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count / percentile, for the human report
};

/// One serving tier over the kept store.
struct Tier {
  std::unique_ptr<core::DistStore> store;
  std::unique_ptr<service::QueryEngine> engine;
};

// A run is kRounds rounds; each round takes samples of every timed step in
// turn, so a slow spell on the machine spreads over all metrics instead of
// landing on one, and each step's samples are kept per round for
// perfbench::quiet_rounds. Each round has --seconds / kRounds; the shares
// give the first steps their slices of it (each step takes one sample at
// least), the round's update batch takes what it takes, and the warm
// latency and bulk windows split what is left of the round.
constexpr int kRounds = 8;
constexpr double kShareSetup = 0.10;
constexpr double kShareSolve = 0.24;
constexpr double kShareKeep = 0.10;
constexpr double kShareCold = 0.16;

class Run {
 public:
  Run(const Workload& w, const Args& args)
      : w_(w), args_(args), rec_(args.trace) {}
  void execute();
  void print_result(std::ostream& os) const;

 private:
  void prepare();
  void regret_runs();
  void round(int r);
  void summarize();
  void layer_probes();
  void trace_overhead();
  void write_trace_files();

  // timed steps, one sample each
  double setup_rep(long long req);
  double solve_rep(long long req);
  double keep_rep(long long req);
  double cold_rep(long long req);
  void update_rep(std::size_t k, bool serve_after);
  void latency_calls(double slice_s, std::size_t min_calls);
  double bulk_rep();

  double slice(double share) const { return round_s() * share; }
  double round_s() const { return args_.seconds / kRounds; }
  template <class F>
  void repeat(std::vector<double>& out, double slice_s, int max_reps, F&& rep);
  core::ApspResult solve_once(const core::ApspOptions& opts,
                              core::DistStore& store);
  void check_solve(const core::DistStore& store, const core::ApspResult& r,
                   int sources);
  bool forced_feasible(core::Algorithm a);
  void check_report(const service::BatchReport& rep, std::size_t first_pos,
                    perfbench::Oracle& oracle);
  Tier open_tier(long long request);
  std::unique_ptr<service::ShardRouter> spawn_router(
      const std::string& path, const core::ShardManifest& manifest);
  int shard_count() const;
  service::BatchReport serve(Tier& t, std::span<const Query> qs,
                             long long request);
  service::QueryEngineOptions engine_options() const;
  double span_median(const std::string& name) const;
  void put(const std::string& name, double v, const std::string& unit,
           const std::string& note = "");
  void put_layer(const std::string& name, double v, const std::string& unit,
                 const std::string& note = "");

  const Workload& w_;
  const Args& args_;
  perfbench::SpanRecorder rec_;
  perfbench::Ledger ledger_;
  bool deterministic_ = true;

  core::ApspOptions opts_;
  core::SelectorOptions sel_;
  graph::CsrGraph g0_;  ///< the graph the store was solved from
  graph::CsrGraph g_;   ///< g0_ with the latest update batch applied
  std::unique_ptr<perfbench::Oracle> oracle_;         ///< bound to g_
  std::unique_ptr<perfbench::Oracle> solve_oracle_;   ///< bound to g0_
  perfbench::Oracle* warm_oracle_ = nullptr;  ///< the graph warm_ serves
  std::vector<Query> queries_;
  std::vector<std::vector<core::EdgeUpdate>> updates_;
  std::size_t next_query_ = 0;  ///< position in the cycled query set

  std::unique_ptr<core::DistStore> solved_;
  core::ApspResult result_;
  core::SelectorReport report_;
  std::vector<perfbench::AlgoRun> algo_runs_;
  std::map<core::Algorithm, core::ApspMetrics> algo_metrics_;
  std::string store_path_;
  core::StoreCompactionStats keep_stats_;
  std::uint64_t cache_bytes_ = 0;
  /// The tier the warm steps read from: opened once, or, on workloads that
  /// serve updated data, the engine that took the round's update batch.
  Tier warm_;
  service::BatchReport last_report_;
  std::vector<core::UpdateOutcome> outcomes_;

  // samples
  std::vector<double> setup_s_, compact_s_, update_s_;
  std::vector<double> lat_s_;  ///< every latency sample, in order
  // per round (outer index), for perfbench::quiet_rounds
  std::vector<std::vector<double>> solve_r_, keep_r_, cold_r_, lat_r_, qps_r_;
  long long bulk_calls_ = 0;
  double peak_rss_mb_ = 0.0;

  sim::TraceRecorder device_trace_;
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  std::vector<std::string> warnings_;
};

template <class F>
void Run::repeat(std::vector<double>& out, double slice_s, int max_reps,
                 F&& rep) {
  const double t0 = now_s();
  int reps = 0;
  do {
    out.push_back(rep(static_cast<long long>(out.size())));
  } while (++reps < max_reps && now_s() - t0 < slice_s);
}

void Run::put(const std::string& name, double v, const std::string& unit,
              const std::string& note) {
  e2e_[name] = Metric{v, unit, note};
}

void Run::put_layer(const std::string& name, double v, const std::string& unit,
                    const std::string& note) {
  layer_[name] = Metric{v, unit, note};
}

std::string samples_note(const std::vector<double>& s) {
  std::ostringstream os;
  os << "median of " << s.size() << " samples";
  return os.str();
}

std::vector<double> flat(const std::vector<std::vector<double>>& rounds) {
  std::vector<double> out;
  for (const auto& r : rounds) out.insert(out.end(), r.begin(), r.end());
  return out;
}

std::string rounds_note(const std::vector<std::vector<double>>& rounds,
                        bool lower_is_better) {
  std::ostringstream os;
  os << (lower_is_better ? "lower" : "upper") << " quartile of "
     << rounds.size() << " round medians, " << flat(rounds).size()
     << " samples; round medians" << std::setprecision(4);
  for (const auto& r : rounds) {
    os << ' ' << (r.empty() ? 0.0 : perfbench::median(r));
  }
  return os.str();
}

double Run::span_median(const std::string& name) const {
  std::vector<double> d;
  for (const auto& s : rec_.spans()) {
    if (s.name == name) d.push_back(s.end_s - s.start_s);
  }
  return d.empty() ? 0.0 : perfbench::median(d);
}

core::ApspResult Run::solve_once(const core::ApspOptions& opts,
                                 core::DistStore& store) {
  ScopedSpan span(rec_, "core.solve_apsp", 0);
  return core::solve_apsp(g0_, opts, store, &report_, sel_);
}

void Run::check_solve(const core::DistStore& store, const core::ApspResult& r,
                      int sources) {
  ScopedSpan span(rec_, "oracle.check_solve", 0);
  Rng rng(args_.seed ^ 0x5eed0fc4ec50111eULL);
  const vidx_t n = g0_.num_vertices();
  std::vector<dist_t> row(static_cast<std::size_t>(n));
  for (int i = 0; i < sources; ++i) {
    const auto s = static_cast<vidx_t>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    store.read_block(r.stored_id(s), 0, 1, n, row.data(),
                     static_cast<std::size_t>(n));
    const auto& truth = solve_oracle_->row(s);
    bool ok = true;
    for (vidx_t v = 0; v < n; ++v) {
      ok = ok && perfbench::served_matches(
                     truth[static_cast<std::size_t>(v)],
                     row[static_cast<std::size_t>(r.stored_id(v))]);
    }
    ledger_.record(ok);
    if (!ok) {
      warnings_.push_back(std::string("solve mismatch: ") +
                          core::algorithm_name(r.used) + " source " +
                          std::to_string(s));
    }
  }
}

/// Counts every answer of `rep`, whose results are the query set's entries
/// from position `first_pos` on, and checks the sampled positions against
/// `oracle` (the graph the serving tier reflects).
void Run::check_report(const service::BatchReport& rep, std::size_t first_pos,
                       perfbench::Oracle& oracle) {
  ScopedSpan span(rec_, "oracle.check_served", 0);
  for (std::size_t i = 0; i < rep.results.size(); ++i) {
    const auto& res = rep.results[i];
    bool ok = res.status == service::QueryStatus::kOk;
    if (ok && (first_pos + i) % kCheckEvery == 0) {
      ok = res.query.kind == QueryKind::kPoint
               ? oracle.point_ok(res.query.u, res.query.v, res.dist)
               : oracle.row_ok(res.query.u, res.row);
      if (!ok && warnings_.size() < 20) {
        warnings_.push_back("served mismatch: query (" +
                            std::to_string(res.query.u) + ", " +
                            std::to_string(res.query.v) + ")");
      }
    }
    ledger_.record(ok);
  }
}

service::QueryEngineOptions Run::engine_options() const {
  service::QueryEngineOptions o;
  o.block_size = kStoreTile;
  o.cache_bytes = static_cast<std::size_t>(cache_bytes_);
  return o;
}

Tier Run::open_tier(long long request) {
  Tier t;
  {
    ScopedSpan s(rec_, "store.open", request);
    t.store = core::open_store(store_path_);
  }
  ScopedSpan s(rec_, "engine.construct", request);
  t.engine = std::make_unique<service::QueryEngine>(
      *t.store, engine_options(), result_.perm);
  return t;
}

/// One fork-spawned worker process per shard, behind a router.
std::unique_ptr<service::ShardRouter> Run::spawn_router(
    const std::string& path, const core::ShardManifest& manifest) {
  service::ShardWorkerOptions wopt;
  wopt.engine = engine_options();
  std::vector<std::unique_ptr<service::ShardBackend>> backends;
  for (int k = 0; k < manifest.num_shards(); ++k) {
    backends.push_back(service::make_process_backend(
        service::make_fork_worker_spawner(path, wopt), k, manifest));
  }
  return std::make_unique<service::ShardRouter>(
      manifest, std::move(backends), service::ShardRouterOptions{},
      result_.perm);
}

/// At most nproc shards, and no more than the store has tile rows.
int Run::shard_count() const {
  const vidx_t n = g0_.num_vertices();
  const int tile_rows = static_cast<int>((n + kStoreTile - 1) / kStoreTile);
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::max(1, std::min(cores, tile_rows));
}

service::BatchReport Run::serve(Tier& t, std::span<const Query> qs,
                                long long request) {
  ScopedSpan s(rec_, "engine.run_batch", request);
  return t.engine->run_batch(qs);
}

void Run::prepare() {
  ScopedSpan phase(rec_, "bench.prepare", 0);
  opts_ = core::ApspOptions{};
  opts_.seed = args_.seed;  // as apsp_cli --seed: graph and solver share it
  sel_.dense_percent = 4.0;  // apsp_cli's selector thresholds
  sel_.sparse_percent = 0.8;
  g0_ = w_.build(args_.seed);
  g_ = g0_;
  oracle_ = std::make_unique<perfbench::Oracle>(g_);
  solve_oracle_ = std::make_unique<perfbench::Oracle>(g0_);
  queries_ = make_queries(w_, g0_, args_.seed);
  updates_ = make_updates(g0_, args_.seed, kRounds, w_.serve_updated);

  // The reference solve: its store is kept and served, its metrics are the
  // deterministic headline, and in a traced run it feeds the device lanes.
  solved_ = core::make_ram_store(g0_.num_vertices());
  core::ApspOptions opts = opts_;
  if (args_.trace) opts.trace = &device_trace_;
  result_ = solve_once(opts, *solved_);
  check_solve(*solved_, result_, 8);
  algo_metrics_[result_.used] = result_.metrics;
  if (result_.used != w_.expected) {
    warnings_.push_back(std::string("selector picked ") +
                        core::algorithm_name(result_.used) +
                        ", workload rationale assumes " +
                        core::algorithm_name(w_.expected));
  }
  regret_runs();

  store_path_ = args_.workdir + "/kept.z1";
  keep_stats_ = core::write_compressed_store(*solved_, store_path_, kStoreTile);
  cache_bytes_ = w_.cache_share > 0
                     ? static_cast<std::uint64_t>(
                           static_cast<double>(keep_stats_.compressed_bytes) *
                           w_.cache_share)
                     : service::QueryEngineOptions{}.cache_bytes;
  // The warm tier's first pass fills its cache; the warm steps read after it.
  warm_ = open_tier(0);
  check_report(serve(warm_, queries_, 0), 0, *solve_oracle_);
  warm_oracle_ = solve_oracle_.get();
}

void Run::regret_runs() {
  ScopedSpan phase(rec_, "bench.regret", 0);
  const core::Algorithm algos[] = {core::Algorithm::kBlockedFloydWarshall,
                                   core::Algorithm::kJohnson,
                                   core::Algorithm::kBoundary};
  for (const auto a : algos) {
    perfbench::AlgoRun run;
    run.algo = core::algorithm_name(a);
    if (a == result_.used) {
      run.feasible = true;
      run.sim_seconds = result_.metrics.sim_seconds;
    } else if (forced_feasible(a)) {
      core::ApspOptions opts = opts_;
      opts.algorithm = a;
      auto store = core::make_ram_store(g0_.num_vertices());
      try {
        core::ApspResult r = solve_once(opts, *store);
        run.feasible = true;
        run.sim_seconds = r.metrics.sim_seconds;
        algo_metrics_[a] = r.metrics;
        check_solve(*store, r, 2);
      } catch (const sim::OomError&) {
        // Out of device memory after solve_apsp's degradations: infeasible
        // on this device, not a candidate.
      } catch (const std::exception& e) {
        ledger_.record(false);
        warnings_.push_back(std::string("forced ") + run.algo +
                            " solve failed: " + e.what());
      }
    }
    algo_runs_.push_back(run);
  }
}

/// False when the algorithm cannot be planned on the device. Only boundary
/// has a planning step that reports this (plan_boundary throws gapsp::Error
/// when no k >= 2 fits); FW and Johnson report it as sim::OomError.
bool Run::forced_feasible(core::Algorithm a) {
  if (a != core::Algorithm::kBoundary) return true;
  try {
    (void)core::plan_boundary(g0_, opts_);
    return true;
  } catch (const Error&) {
    return false;
  }
}

double Run::setup_rep(long long req) {
  const double t0 = now_s();
  graph::CsrGraph g;
  {
    ScopedSpan s(rec_, "graph.build", req);
    g = w_.build(args_.seed);
  }
  {
    ScopedSpan s(rec_, "selector.calibrate", req);
    core::clear_calibration_cache();
    const long long runs0 = core::calibration_runs();
    core::calibrate(opts_);
    put_layer("selector.calibration_runs",
              static_cast<double>(core::calibration_runs() - runs0), "count");
  }
  const double dt = now_s() - t0;
  ledger_.record(g.num_edges() == g0_.num_edges());  // same seed, same graph
  return dt;
}

double Run::solve_rep(long long req) {
  auto store = core::make_ram_store(g0_.num_vertices());
  const double t0 = now_s();
  core::ApspResult r;
  {
    ScopedSpan s(rec_, "bench.solve_rep", req);
    r = solve_once(opts_, *store);
  }
  const double dt = now_s() - t0;
  if (r.metrics.sim_seconds != result_.metrics.sim_seconds) {
    deterministic_ = false;
    warnings_.push_back("sim makespan differs between identical solves");
  }
  check_solve(*store, r, 2);
  return dt;
}

double Run::keep_rep(long long req) {
  const double t0 = now_s();
  core::StoreCompactionStats st;
  {
    ScopedSpan s(rec_, "store.write_compressed", req);
    st = core::write_compressed_store(*solved_, args_.workdir + "/keep_rep.z1",
                                      kStoreTile);
  }
  const double dt = now_s() - t0;
  compact_s_.push_back(st.seconds);
  ledger_.record(st.compressed_bytes == keep_stats_.compressed_bytes);
  return dt;
}

double Run::cold_rep(long long req) {
  const double t0 = now_s();
  Tier t = open_tier(req);
  service::BatchReport rep = serve(t, queries_, req);
  const double dt = now_s() - t0;
  check_report(rep, 0, *solve_oracle_);  // a fresh tier serves the store as solved
  return dt;  // tearing the tier down is not timed
}

void Run::latency_calls(double slice_s, std::size_t min_calls) {
  // Closed loop, one client thread: the next small batch goes out when the
  // previous one returns.
  const double t0 = now_s();
  std::size_t calls = 0;
  while (calls < min_calls || now_s() - t0 < slice_s) {
    const std::size_t first = next_query_ % kQuerySet;
    std::vector<Query> qs(kSmallBatch);
    for (auto& q : qs) q = queries_[next_query_++ % kQuerySet];
    const double c0 = now_s();
    service::BatchReport rep =
        serve(warm_, qs, static_cast<long long>(lat_s_.size()));
    lat_s_.push_back(now_s() - c0);
    lat_r_.back().push_back(lat_s_.back());
    check_report(rep, first, *warm_oracle_);
    ++calls;
  }
}

double Run::bulk_rep() {
  const std::size_t first = next_query_ % kQuerySet;
  std::vector<Query> qs(kBulkBatch);
  for (auto& q : qs) q = queries_[next_query_++ % kQuerySet];
  const double c0 = now_s();
  service::BatchReport rep =
      serve(warm_, qs, bulk_calls_++);
  const double qps = static_cast<double>(kBulkBatch) / (now_s() - c0);
  check_report(rep, first, *warm_oracle_);
  last_report_ = std::move(rep);
  return qps;
}

void Run::update_rep(std::size_t k, bool serve_after) {
  // Each batch goes to a fresh engine over the kept store, as solved from
  // g0, so every timed call carries one batch of kArcsPerUpdate arcs. The
  // engine is opened outside the timed call, and no reads run while it
  // repairs.
  Tier t;
  t.store = core::open_store(store_path_);
  t.engine = std::make_unique<service::QueryEngine>(*t.store, engine_options(),
                                                    result_.perm);
  const auto& batch = updates_[k];
  core::IncrementalOptions iopt;
  iopt.solve_opts = opts_;
  bool ok = true;
  const double t0 = now_s();
  try {
    ScopedSpan s(rec_, "incremental.apply_updates", static_cast<long long>(k));
    outcomes_.push_back(t.engine->apply_updates(g0_, batch, iopt));
  } catch (const std::exception& e) {
    ok = false;
    warnings_.push_back(std::string("apply_updates failed: ") + e.what());
  }
  update_s_.push_back(now_s() - t0);
  ledger_.record(ok);
  g_ = core::apply_edge_updates(g0_, batch);
  oracle_->rebind(g_);

  // Verification pass over 64 sampled positions, every answer checked
  // against the updated graph; not part of any timed sample.
  constexpr std::size_t kVerify = 64;
  static_assert((kQuerySet / kVerify) % kCheckEvery == 0);
  std::vector<Query> qs;
  for (std::size_t i = 0; i < kVerify; ++i) {
    qs.push_back(queries_[i * (kQuerySet / kVerify)]);
  }
  check_report(serve(t, qs, -1), 0, *oracle_);

  if (serve_after) {
    // Writes beside reads: this round's warm steps read the updated data,
    // repaired tiles through the engine's overlay. A pass over the query
    // set warms the cache first, as the first pass does in prepare().
    check_report(serve(t, queries_, -1), 0, *oracle_);
    warm_ = std::move(t);
    warm_oracle_ = oracle_.get();
  }
}

void Run::round(int r) {
  ScopedSpan span(rec_, "bench.round", r);
  const double end = now_s() + round_s();
  repeat(setup_s_, slice(kShareSetup), 4,
         [&](long long req) { return setup_rep(req); });
  for (auto* v : {&solve_r_, &keep_r_, &cold_r_, &lat_r_, &qps_r_}) {
    v->emplace_back();
  }
  repeat(solve_r_.back(), slice(kShareSolve), 8,
         [&](long long req) { return solve_rep(req); });
  repeat(keep_r_.back(), slice(kShareKeep), 10,
         [&](long long req) { return keep_rep(req); });
  repeat(cold_r_.back(), slice(kShareCold), 6,
         [&](long long req) { return cold_rep(req); });
  update_rep(static_cast<std::size_t>(r), w_.serve_updated);
  const double left = std::max(0.0, end - now_s());
  latency_calls(left / 2, (kMinLatencySamples + kRounds - 1) / kRounds);
  repeat(qps_r_.back(), std::max(0.0, end - now_s()), 1000,
         [&](long long) { return bulk_rep(); });
}

void Run::summarize() {
  put("setup_s", perfbench::median(setup_s_), "s", samples_note(setup_s_));
  // The host-time figures of the rounds are perfbench::quiet_rounds: on a
  // shared host, bursts of other tenants' load move some rounds only.
  put("solve_s", perfbench::quiet_rounds(solve_r_, true), "s",
      rounds_note(solve_r_, true));
  put("sim_makespan_ms", result_.metrics.sim_seconds * 1e3, "ms",
      "deterministic per seed");
  put("selector_regret",
      perfbench::selector_regret(result_.metrics.sim_seconds, algo_runs_),
      "ratio", "deterministic per seed");
  put("keep_s", perfbench::quiet_rounds(keep_r_, true), "s",
      rounds_note(keep_r_, true));
  put("store_bytes_ratio",
      static_cast<double>(keep_stats_.compressed_bytes) /
          static_cast<double>(keep_stats_.raw_bytes),
      "ratio", "kept bytes / raw n^2*4 bytes");
  put("serve_cold_s", perfbench::quiet_rounds(cold_r_, true), "s",
      rounds_note(cold_r_, true));
  // The tail: p99 per round (a window of the run) wherever a round holds
  // enough samples for it, and when at least half the rounds do, the median
  // over those rounds, so a slow spell moves a few windows; otherwise the
  // pooled p99. It is reported with the per-layer metrics: on a shared VM
  // its run-to-run spread follows the host's steal time (see README.md).
  if (!perfbench::percentile_supported(lat_s_.size(), 0.99)) {
    throw std::runtime_error("too few latency samples for p99");
  }
  std::vector<double> round_p99;
  for (const auto& l : lat_r_) {
    if (perfbench::percentile_supported(l.size(), 0.99)) {
      round_p99.push_back(perfbench::quantile(l, 0.99));
    }
  }
  const bool per_round = 2 * round_p99.size() >= lat_r_.size();
  const double p99 = per_round ? perfbench::median(round_p99)
                               : perfbench::quantile(lat_s_, 0.99);
  const auto tail = perfbench::tail_percentile(lat_s_);
  std::ostringstream note;
  note << rounds_note(lat_r_, true) << " (calls of " << kSmallBatch
       << " queries); p"
       << tail.q * 100 << " (highest with 10 samples beyond it) = "
       << tail.value * 1e6 << " us; p99 = " << p99 * 1e6 << " us ("
       << (per_round ? "median of per-round p99s" : "pooled") << ")";
  put("serve_p50_us", perfbench::quiet_rounds(lat_r_, true) * 1e6, "us",
      note.str());
  put_layer("serve.p99_us", p99 * 1e6, "us", note.str());
  put("serve_qps", perfbench::quiet_rounds(qps_r_, false), "1/s",
      rounds_note(qps_r_, false) + " (bulk batches of " +
          std::to_string(kBulkBatch) + ")");
  std::ostringstream unote;
  unote << "median of " << update_s_.size() << " apply_updates calls of "
        << kArcsPerUpdate << " arcs each";
  put("update_p50_ms", perfbench::median(update_s_) * 1e3, "ms", unote.str());

  put_layer("graph.build_s", span_median("graph.build"), "s");
  put_layer("selector.calibrate_s", span_median("selector.calibrate"), "s");
  put_layer("store.compact_s", perfbench::median(compact_s_), "s");
  put_layer("store.ratio", keep_stats_.ratio(), "ratio");
  put_layer("store.inf_tiles", static_cast<double>(keep_stats_.inf_tiles),
            "count");
}

// ---- traced-run layer probes ------------------------------------------------------

void Run::layer_probes() {
  ScopedSpan phase(rec_, "bench.probes", 0);
  const vidx_t n = g0_.num_vertices();
  const auto& m = result_.metrics;

  // selector: per-graph selection and each estimate_* call (warm calibration).
  {
    std::vector<double> t;
    core::SelectorReport rep;
    for (int i = 0; i < 3; ++i) {
      const double t0 = now_s();
      ScopedSpan s(rec_, "selector.select_algorithm", i);
      rep = core::select_algorithm(g0_, opts_, sel_);
      t.push_back(now_s() - t0);
    }
    put_layer("selector.select_s", perfbench::median(t), "s");
    int considered = 0;
    for (const auto& e : rep.estimates) considered += e.considered ? 1 : 0;
    put_layer("selector.considered", considered, "count");
  }
  struct Est {
    const char* key;
    core::Algorithm algo;
    std::function<core::CostBreakdown()> call;
  };
  const Est ests[] = {
      {"fw", core::Algorithm::kBlockedFloydWarshall,
       [&] { return core::estimate_fw(g0_, opts_); }},
      {"johnson", core::Algorithm::kJohnson,
       [&] { return core::estimate_johnson(g0_, opts_, sel_.sample_batches); }},
      {"boundary", core::Algorithm::kBoundary,
       [&] { return core::estimate_boundary(g0_, opts_); }},
  };
  for (const auto& e : ests) {
    core::CostBreakdown cost;
    const double t0 = now_s();
    {
      ScopedSpan s(rec_, std::string("selector.estimate_") + e.key, 0);
      cost = e.call();
    }
    put_layer(std::string("selector.est_") + e.key + "_s", now_s() - t0, "s");
    // |estimate − actual| ÷ actual simulated makespan (Fig. 6/7). When the
    // run is infeasible on the device the error is 0 if the estimate agrees
    // and 1 if it does not.
    const auto it = algo_metrics_.find(e.algo);
    const bool ran = it != algo_metrics_.end() && it->second.sim_seconds > 0;
    double err = cost.feasible == ran ? 0.0 : 1.0;
    if (cost.feasible && ran) {
      err = std::abs(cost.total() / it->second.sim_seconds - 1.0);
    }
    put_layer(std::string("selector.err_") + e.key, err, "ratio");
  }

  // partition
  {
    const auto bit = algo_metrics_.find(core::Algorithm::kBoundary);
    const int k = bit != algo_metrics_.end() && bit->second.boundary_k > 0
                      ? bit->second.boundary_k
                      : std::max(2, static_cast<int>(std::sqrt(n) / 4));
    part::PartitionOptions po;
    po.k = k;
    po.seed = opts_.seed;
    const double t0 = now_s();
    {
      ScopedSpan s(rec_, "partition.kway", 0);
      (void)part::kway_partition(g0_, po);
    }
    put_layer("partition.kway_s", now_s() - t0, "s");
    put_layer("partition.k",
              bit != algo_metrics_.end() ? bit->second.boundary_k : 0,
              "count");
    put_layer("partition.boundary_nodes",
              bit != algo_metrics_.end() ? bit->second.boundary_nodes : 0,
              "count");
  }

  // sssp: Near-Far on sampled sources
  {
    sssp::NearFarConfig cfg;
    cfg.heavy_degree_threshold = opts_.heavy_degree_threshold;
    std::vector<dist_t> dist(static_cast<std::size_t>(n));
    Rng rng(args_.seed ^ 0x6e6561726661ULL);
    const int sources = 32;
    const double t0 = now_s();
    {
      ScopedSpan s(rec_, "sssp.near_far", 0);
      for (int i = 0; i < sources; ++i) {
        sssp::near_far_sssp(
            g0_,
            static_cast<vidx_t>(rng.next_below(static_cast<std::uint64_t>(n))),
            dist, cfg);
      }
    }
    put_layer("sssp.near_far_us_per_source", (now_s() - t0) / sources * 1e6,
              "us");
    const auto jit = algo_metrics_.find(core::Algorithm::kJohnson);
    const core::ApspMetrics jm =
        jit != algo_metrics_.end() ? jit->second : core::ApspMetrics{};
    put_layer("johnson.bat", jm.johnson_batch_size, "count");
    put_layer("johnson.batches", jm.johnson_num_batches, "count");
    put_layer("johnson.child_kernels", static_cast<double>(jm.child_kernels),
              "count");
  }

  // kernel engine: min-plus at the resolved variant on one FW block.
  {
    const auto fit = algo_metrics_.find(core::Algorithm::kBlockedFloydWarshall);
    const int nd = fit != algo_metrics_.end() && fit->second.fw_num_blocks > 0
                       ? fit->second.fw_num_blocks
                       : 1;
    const vidx_t b = std::min<vidx_t>(n, (n + nd - 1) / nd);
    const auto bsz = static_cast<std::size_t>(b);
    std::vector<dist_t> a(bsz * bsz), bb(bsz * bsz), c(bsz * bsz);
    solved_->read_block(0, 0, b, b, a.data(), bsz);
    solved_->read_block(0, n - b, b, b, bb.data(), bsz);
    const core::KernelVariant v = core::resolved_kernel_variant();
    long long reps = 0;
    const double t0 = now_s();
    {
      ScopedSpan s(rec_, "kernel.minplus", 0);
      while (reps < 3 || now_s() - t0 < 0.2) {
        std::fill(c.begin(), c.end(), kInf);
        core::minplus_accum_variant(v, c.data(), bsz, a.data(), bsz,
                                    bb.data(), bsz, b, b, b);
        ++reps;
      }
    }
    const double ops = static_cast<double>(b) * b * b * static_cast<double>(reps);
    put_layer("kernel.minplus_gops", ops / (now_s() - t0) / 1e9, "Gop/s");
    put_layer("sim.total_ops", m.total_ops, "ops");
  }

  // sim: the chosen solve's modeled device timeline.
  put_layer("sim.kernel_ms", m.kernel_seconds * 1e3, "ms");
  put_layer("sim.transfer_ms", m.transfer_seconds * 1e3, "ms");
  put_layer("sim.exposed_transfer_ms", m.exposed_transfer_seconds * 1e3, "ms");
  put_layer("sim.decode_ms", m.decode_seconds * 1e3, "ms");
  put_layer("sim.bytes_h2d", static_cast<double>(m.bytes_h2d), "B");
  put_layer("sim.bytes_d2h", static_cast<double>(m.bytes_d2h), "B");
  put_layer("sim.transfers_h2d", static_cast<double>(m.transfers_h2d), "count");
  put_layer("sim.transfers_d2h", static_cast<double>(m.transfers_d2h), "count");
  put_layer("sim.device_peak_bytes", static_cast<double>(m.device_peak_bytes),
            "B");
  put_layer("sim.pinned_peak_bytes", static_cast<double>(m.pinned_peak_bytes),
            "B");

  // codec: wire ratios, z1 throughput on the solved tiles, share of solve
  // wall spent in the transfer codec.
  auto ratio = [](std::size_t raw, std::size_t wire) {
    return wire == 0 ? 0.0
                     : static_cast<double>(raw) / static_cast<double>(wire);
  };
  put_layer("codec.h2d_ratio", ratio(m.bytes_h2d_raw, m.bytes_h2d_wire),
            "ratio");
  put_layer("codec.d2h_ratio", ratio(m.bytes_d2h_raw, m.bytes_d2h_wire),
            "ratio");
  {
    const vidx_t t = std::min<vidx_t>(kStoreTile, n);
    const vidx_t per_side = (n + t - 1) / t;
    std::vector<std::vector<dist_t>> tiles;
    for (vidx_t bi = 0; bi < per_side && tiles.size() < 16; ++bi) {
      for (vidx_t bj = 0; bj < per_side && tiles.size() < 16; ++bj) {
        const vidx_t rows = std::min<vidx_t>(t, n - bi * t);
        const vidx_t cols = std::min<vidx_t>(t, n - bj * t);
        std::vector<dist_t> tile(static_cast<std::size_t>(rows) * cols);
        solved_->read_block(bi * t, bj * t, rows, cols, tile.data(),
                            static_cast<std::size_t>(cols));
        tiles.push_back(std::move(tile));
      }
    }
    double raw_bytes = 0;
    std::vector<std::vector<std::uint8_t>> frames(tiles.size());
    const double e0 = now_s();
    {
      ScopedSpan s(rec_, "codec.z1_compress", 0);
      for (std::size_t i = 0; i < tiles.size(); ++i) {
        core::z1_compress(tiles[i].data(), tiles[i].size() * sizeof(dist_t),
                          frames[i]);
        raw_bytes += static_cast<double>(tiles[i].size() * sizeof(dist_t));
      }
    }
    const double enc_s = now_s() - e0;
    const double d0 = now_s();
    {
      ScopedSpan s(rec_, "codec.z1_decompress", 0);
      for (std::size_t i = 0; i < tiles.size(); ++i) {
        core::z1_decompress(frames[i].data(), frames[i].size(),
                            tiles[i].data(), tiles[i].size() * sizeof(dist_t));
      }
    }
    const double dec_s = now_s() - d0;
    put_layer("codec.encode_mbps", raw_bytes / enc_s / 1e6, "MB/s");
    put_layer("codec.decode_mbps", raw_bytes / dec_s / 1e6, "MB/s");
  }
  {
    core::ApspOptions off = opts_;
    off.transfer_compression = core::TransferCompression::kOff;
    core::calibrate(off);  // the codec mode keys its own calibration
    std::vector<double> walls;
    for (int i = 0; i < 3; ++i) {
      auto store = core::make_ram_store(n);
      const double t0 = now_s();
      ScopedSpan s(rec_, "core.solve_apsp_codec_off", i);
      core::solve_apsp(g0_, off, *store, nullptr, sel_);
      walls.push_back(now_s() - t0);
    }
    put_layer("codec.wall_share",
              1.0 - perfbench::median(walls) / perfbench::median(flat(solve_r_)),
              "share");
  }

  // store open
  {
    std::vector<double> t;
    for (int i = 0; i < 3; ++i) {
      const double t0 = now_s();
      ScopedSpan s(rec_, "store.open", i);
      auto st = core::open_store(store_path_);
      t.push_back(now_s() - t0);
    }
    put_layer("store.open_s", perfbench::median(t), "s");
  }

  // cache / reader counters of the serving tier after the warm phases.
  put_layer("cache.hit_ratio", last_report_.cache.hit_rate(), "ratio");
  put_layer("cache.misses", static_cast<double>(last_report_.cache.misses),
            "count");
  put_layer("cache.evictions",
            static_cast<double>(last_report_.cache.evictions), "count");
  put_layer("reader.retries", static_cast<double>(last_report_.service.retries),
            "count");
  put_layer("reader.corrupt",
            static_cast<double>(last_report_.service.corrupt_tiles), "count");

  // engine: single point()/row() calls on a warm engine over the kept store.
  {
    auto st = core::open_store(store_path_);
    service::QueryEngine engine(*st, engine_options(), result_.perm);
    (void)engine.run_batch(queries_);
    // A fresh engine serves the store as solved, so it is checked against g0.
    perfbench::Oracle solved_oracle(g0_);
    std::vector<double> pt, rw;
    for (std::size_t i = 0; i < 2000; ++i) {
      const auto& q = queries_[i % kQuerySet];
      const double t0 = now_s();
      const dist_t d = engine.point(q.u, q.v);
      pt.push_back(now_s() - t0);
      if (i % kCheckEvery == 0) {
        ledger_.record(solved_oracle.point_ok(q.u, q.v, d));
      }
    }
    for (std::size_t i = 0; i < 200; ++i) {
      const auto& q = queries_[(i * 7) % kQuerySet];
      const double t0 = now_s();
      const auto row = engine.row(q.u);
      rw.push_back(now_s() - t0);
    }
    put_layer("engine.point_ns", perfbench::median(pt) * 1e9, "ns");
    put_layer("engine.row_us", perfbench::median(rw) * 1e6, "us");
  }

  // incremental: phase split of the update batches.
  {
    std::vector<double> probe, sssp, panel, tile, damaged;
    long long touched = 0, candidate = 0;
    for (const auto& o : outcomes_) {
      probe.push_back(o.probe_seconds * 1e3);
      sssp.push_back(o.sssp_seconds * 1e3);
      panel.push_back(o.panel_seconds * 1e3);
      tile.push_back(o.tile_seconds * 1e3);
      damaged.push_back(static_cast<double>(o.damaged_rows));
      touched += o.tiles_touched;
      candidate += o.tiles_candidate;
    }
    auto med = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : perfbench::median(v);
    };
    put_layer("incremental.probe_ms", med(probe), "ms");
    put_layer("incremental.sssp_ms", med(sssp), "ms");
    put_layer("incremental.panel_ms", med(panel), "ms");
    put_layer("incremental.tile_ms", med(tile), "ms");
    put_layer("incremental.damaged_rows", med(damaged), "count");
    put_layer("incremental.tile_yield",
              candidate == 0 ? 0.0
                             : static_cast<double>(touched) /
                                   static_cast<double>(candidate),
              "ratio");
  }

  // shard split, worker spawn and routing overhead against one engine.
  {
    const std::string path = args_.workdir + "/probe.z1";
    core::write_compressed_store(*solved_, path, kStoreTile);
    const double s0 = now_s();
    core::ShardManifest manifest;
    {
      ScopedSpan s(rec_, "shard.split", 0);
      manifest = core::shard_store_file(path, shard_count(), kStoreTile);
    }
    put_layer("shard.split_s", now_s() - s0, "s");
    const double p0 = now_s();
    std::unique_ptr<service::ShardRouter> router;
    {
      ScopedSpan s(rec_, "router.spawn", 0);
      router = spawn_router(path, manifest);
    }
    put_layer("router.spawn_s", now_s() - p0, "s");
    auto st = core::open_store(path);
    service::QueryEngine single(*st, engine_options(), result_.perm);
    std::span<const Query> qs(queries_.data(), kBulkBatch);
    (void)router->run_batch(qs);
    (void)single.run_batch(qs);
    std::vector<double> routed, local;
    for (int i = 0; i < 3; ++i) {
      double t0 = now_s();
      (void)router->run_batch(qs);
      routed.push_back(now_s() - t0);
      t0 = now_s();
      (void)single.run_batch(qs);
      local.push_back(now_s() - t0);
    }
    put_layer("router.overhead",
              perfbench::median(routed) / perfbench::median(local), "ratio");
  }
}

void Run::trace_overhead() {
  // Traced minus untraced wall of the same serve pass (one span per call),
  // in alternating pairs; the median paired difference is the overhead.
  constexpr std::size_t kCalls = 100;
  std::vector<double> diff, base;
  for (int pair = 0; pair < 5; ++pair) {
    double wall[2] = {0, 0};
    for (const bool traced : {pair % 2 == 0, pair % 2 != 0}) {
      perfbench::SpanRecorder scratch(traced);
      const double t0 = now_s();
      for (std::size_t j = 0; j < kCalls; ++j) {
        std::span<const Query> qs(&queries_[(j * kSmallBatch) % kQuerySet],
                                  kSmallBatch);
        ScopedSpan s(scratch, "engine.run_batch", static_cast<long long>(j));
        (void)warm_.engine->run_batch(qs);
      }
      wall[traced ? 1 : 0] = now_s() - t0;
    }
    diff.push_back(wall[1] - wall[0]);
    base.push_back(wall[0]);
  }
  const double d = perfbench::median(diff);
  put_layer("trace.overhead_ms", d * 1e3, "ms",
            "traced minus untraced wall of 100 serve calls, median of 5 pairs");
  put_layer("trace.overhead_frac", d / perfbench::median(base), "share");
  // The recorder's own cost per span, measured in isolation.
  perfbench::SpanRecorder probe(true);
  const int spans = 20000;
  const double t0 = now_s();
  for (int i = 0; i < spans; ++i) ScopedSpan s(probe, "engine.run_batch", i);
  put_layer("trace.span_cost_ns", (now_s() - t0) / spans * 1e9, "ns");
  put_layer("trace.spans", static_cast<double>(rec_.spans().size()), "count");
}

void Run::write_trace_files() {
  std::ostringstream dev;
  device_trace_.write_chrome_trace(dev);
  const std::string stem =
      args_.workdir + "/" + w_.name + "-seed" + std::to_string(args_.seed);
  {
    std::ofstream out(stem + ".trace.json");
    rec_.write_chrome_trace(out, dev.str());
  }
  std::ofstream summary(stem + ".self_time.txt");
  double total = 0;
  const auto self = rec_.self_seconds_by_layer();
  for (const auto& [layer, s] : self) total += s;
  summary << "# per-layer self time (span duration minus child spans)\n";
  for (const auto& [layer, s] : self) {
    summary << std::left << std::setw(14) << layer << std::right
            << std::setw(12) << std::fixed << std::setprecision(6) << s
            << " s  " << std::setw(6) << std::setprecision(1)
            << (total > 0 ? 100.0 * s / total : 0.0) << "%\n";
  }
  std::cerr << "trace: " << rec_.spans().size() << " host spans, "
            << device_trace_.events().size() << " device events\n";
}

/// Resets the process's peak-RSS mark (VmHWM) to its current RSS, through
/// Linux's /proc/self/clear_refs. False where that is not available.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5" << std::flush;
  return static_cast<bool>(f);
}

/// VmHWM from /proc/self/status, in MB (2^20 bytes).
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the kernel reports kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void Run::execute() {
  std::filesystem::create_directories(args_.workdir);
  prepare();
  // The peak covers the timed rounds only: not the reference and forced
  // solves of the preparation, nor the traced run's probes.
  const bool reset = reset_peak_rss();
  if (!reset) warnings_.push_back("cannot reset the peak-RSS mark");
  for (int r = 0; r < kRounds; ++r) round(r);
  peak_rss_mb_ = peak_rss_mb();
  summarize();
  if (args_.trace) {
    layer_probes();
    trace_overhead();
  }
  warm_ = Tier{};
  put("peak_rss_mb", peak_rss_mb_, "MB",
      reset ? "peak RSS over the timed rounds"
            : "peak RSS of the process (mark not reset)");
  put("ok_frac", 1.0 - ledger_.fail_frac(), "ratio",
      "1 - fail_frac = 1 - failed/attempted");
  if (args_.trace) {
    put_layer("fail_frac", ledger_.fail_frac(), "ratio");
    write_trace_files();
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os << std::setprecision(10) << v;
  return os.str();
}

void Run::print_result(std::ostream& os) const {
  const vidx_t n = g0_.num_vertices();
  os << "inputs: {\"workload\":\"" << w_.name << "\",\"graph\":\""
     << w_.graph_spec << "\",\"seed\":" << args_.seed << ",\"n\":" << n
     << ",\"m\":" << g0_.num_edges()
     << ",\"density_percent\":" << json_number(g0_.density_percent())
     << ",\"algorithm\":\"" << core::algorithm_name(result_.used)
     << "\",\"kept_bytes\":" << keep_stats_.compressed_bytes
     << ",\"raw_bytes\":" << keep_stats_.raw_bytes
     << ",\"cache_bytes\":" << cache_bytes_
     << ",\"probe_shards\":" << shard_count()
     << ",\"queries_per_set\":" << kQuerySet
     << ",\"update_batches\":" << updates_.size()
     << ",\"arcs_per_update\":" << (updates_.empty() ? 0 : updates_[0].size())
     << "}\n";
  for (const auto& w : warnings_) os << "warning: " << w << "\n";
  const auto& chosen = args_.trace ? layer_ : e2e_;
  for (const auto& [name, m] : chosen) {
    os << "metric " << name << " = " << json_number(m.value) << " " << m.unit;
    if (!m.note.empty()) os << "  (" << m.note << ")";
    os << "\n";
  }
  const bool correct = ledger_.failed() == 0 && deterministic_;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << ledger_.attempted()
     << ", \"failed\": " << ledger_.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : chosen) {
    os << (first ? "" : ", ") << "\"" << name
       << "\": {\"value\": " << json_number(m.value) << ", \"unit\": \""
       << m.unit << "\"}";
    first = false;
  }
  os << "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload* w = nullptr;
    for (const auto& cand : workloads()) {
      if (args.workload == cand.name) w = &cand;
    }
    if (w == nullptr) {
      std::cerr << "unknown --workload '" << args.workload << "'; one of:";
      for (const auto& cand : workloads()) std::cerr << " " << cand.name;
      std::cerr << "\n";
      return 2;
    }
    Run run(*w, args);
    run.execute();
    std::cout.flush();
    run.print_result(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
