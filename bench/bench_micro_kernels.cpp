// Microbenchmarks (google-benchmark) of the primitive kernels behind every
// experiment: dense min-plus tiles, in-place FW, Near-Far SSSP rounds, the
// k-way partitioner, plus ablations over the Near-Far Δ and the dynamic-
// parallelism degree threshold.
//
// Besides the google-benchmark suite, `--ablation` runs the kernel-engine
// ablation (microkernel variant × grid-execution threads on the blocked-FW
// path), prints the table behind EXPERIMENTS.md §"Microkernel ablation" and
// writes BENCH_kernels.json. `--kernel-variant=a,b,...` restricts the
// ablation to the named variants — unknown names are an error (exit 2), not
// a silent skip, and so is any other unknown flag in ablation mode.
// `--assert-min-speedup=R` additionally exits non-zero unless the tensor
// kernel is at least R× naive on serial blocked FW — the CI perf-smoke guard
// against microkernel regressions.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "core/device_kernels.h"
#include "core/kernel_engine.h"
#include "core/minplus.h"
#include "graph/generators.h"
#include "partition/kway.h"
#include "sssp/dijkstra.h"
#include "sssp/near_far.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace gapsp;

std::vector<dist_t> random_tile(vidx_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<dist_t> m(static_cast<std::size_t>(n) * n);
  for (auto& x : m) x = static_cast<dist_t>(rng.next_in(1, 1000));
  return m;
}

void BM_MinPlusTile(benchmark::State& state) {
  const vidx_t n = static_cast<vidx_t>(state.range(0));
  auto a = random_tile(n, 1), b = random_tile(n, 2), c = random_tile(n, 3);
  for (auto _ : state) {
    core::minplus_accum(c.data(), n, a.data(), n, b.data(), n, n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<long long>(n) *
                          n * n);
}
BENCHMARK(BM_MinPlusTile)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_FwInplace(benchmark::State& state) {
  const vidx_t n = static_cast<vidx_t>(state.range(0));
  const auto original = random_tile(n, 4);
  for (auto _ : state) {
    auto m = original;
    core::fw_inplace(m.data(), n, n);
    benchmark::DoNotOptimize(m.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<long long>(n) *
                          n * n);
}
BENCHMARK(BM_FwInplace)->Arg(64)->Arg(128)->Arg(256);

constexpr core::KernelVariant kAllVariants[core::kNumKernelVariants] = {
    core::KernelVariant::kNaive, core::KernelVariant::kTensor};

core::KernelVariant variant_of(int idx) {
  GAPSP_CHECK(idx >= 0 && idx < core::kNumKernelVariants,
              "variant index out of range");
  return kAllVariants[idx];
}

void BM_MinPlusVariant(benchmark::State& state) {
  // Microkernel variant sweep: the ratio between rows (same size) is the
  // vector kernel's payoff over the scalar reference, independent of the
  // thread pool.
  const core::KernelVariant v = variant_of(static_cast<int>(state.range(0)));
  const vidx_t n = static_cast<vidx_t>(state.range(1));
  auto a = random_tile(n, 1), b = random_tile(n, 2), c = random_tile(n, 3);
  for (auto _ : state) {
    core::minplus_accum_variant(v, c.data(), n, a.data(), n, b.data(), n, n,
                                n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(core::kernel_variant_name(v));
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<long long>(n) *
                          n * n);
}
BENCHMARK(BM_MinPlusVariant)->ArgsProduct({{0, 1}, {64, 128, 256}});

void BM_BlockedFwVariantThreads(benchmark::State& state) {
  // The full simulated blocked-FW path (diag / panels / update grid
  // launches) under an explicit variant × grid-thread setting. Results and
  // the simulated timeline are identical across all rows; only host
  // wall-clock moves.
  const core::KernelVariant v = variant_of(static_cast<int>(state.range(0)));
  const int threads = static_cast<int>(state.range(1));
  const vidx_t n = 512;
  core::KernelConfig cfg;
  cfg.variant = v;
  cfg.threads = threads;
  core::set_kernel_config(cfg);
  const auto original = random_tile(n, 5);
  for (auto _ : state) {
    sim::Device dev(sim::DeviceSpec::v100_scaled(std::size_t{64} << 20));
    dev.set_kernel_threads(threads);
    auto m = dev.alloc<dist_t>(original.size(), "fw matrix");
    std::copy(original.begin(), original.end(), m.data());
    core::dev_blocked_fw(dev, sim::kDefaultStream, m.data(), n, n,
                         core::kDeviceTile);
    benchmark::DoNotOptimize(m.data());
  }
  state.SetLabel(std::string(core::kernel_variant_name(v)) + "/t" +
                 std::to_string(threads));
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<long long>(n) *
                          n * n);
  core::set_kernel_config(core::KernelConfig{});
}
BENCHMARK(BM_BlockedFwVariantThreads)->ArgsProduct({{0, 1}, {1, 0}});

void BM_DijkstraRoad(benchmark::State& state) {
  const auto g = graph::make_road(40, 40, 5);
  vidx_t src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sssp::dijkstra(g, src).data());
    src = (src + 37) % g.num_vertices();
  }
}
BENCHMARK(BM_DijkstraRoad);

void BM_NearFarDeltaSweep(benchmark::State& state) {
  // Δ sensitivity ablation: too small -> many phases, too large -> extra
  // relaxation work (Bellman-Ford-like).
  const auto g = graph::make_mesh(1200, 16, 6);
  std::vector<dist_t> out(g.num_vertices());
  sssp::NearFarConfig cfg;
  cfg.delta = static_cast<dist_t>(state.range(0));
  long long relax = 0;
  for (auto _ : state) {
    const auto st = sssp::near_far_sssp(g, 0, out, cfg);
    relax += st.relaxations;
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["relax/iter"] =
      static_cast<double>(relax) / state.iterations();
}
BENCHMARK(BM_NearFarDeltaSweep)->Arg(5)->Arg(25)->Arg(50)->Arg(200)->Arg(2000);

void BM_NearFarHeavyThreshold(benchmark::State& state) {
  // Dynamic-parallelism threshold ablation on a scale-free graph: how much
  // of the traversal work is classified as "heavy" per threshold.
  const auto g = graph::make_rmat(11, 16000, 7);
  std::vector<dist_t> out(g.num_vertices());
  sssp::NearFarConfig cfg;
  cfg.heavy_degree_threshold = static_cast<int>(state.range(0));
  long long heavy = 0, total = 0;
  for (auto _ : state) {
    const auto st = sssp::near_far_sssp(g, 0, out, cfg);
    heavy += st.heavy_relaxations;
    total += st.relaxations;
  }
  state.counters["heavy_share"] =
      total == 0 ? 0.0 : static_cast<double>(heavy) / static_cast<double>(total);
}
BENCHMARK(BM_NearFarHeavyThreshold)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_KwayPartition(benchmark::State& state) {
  const auto g = graph::make_road(45, 45, 8);
  part::PartitionOptions opts;
  opts.k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto p = part::kway_partition(g, opts);
    benchmark::DoNotOptimize(p.edge_cut);
  }
}
BENCHMARK(BM_KwayPartition)->Arg(4)->Arg(11)->Arg(32);

struct AblationRow {
  std::string kernel;
  std::string variant;
  int threads = 1;
  vidx_t n = 0;
  double seconds = 0.0;
  double gops = 0.0;
};

double best_of(int reps, const std::function<double()>& run) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) best = std::min(best, run());
  return best;
}

/// Kernel-engine ablation: microkernel alone (n=256) and the full blocked-FW
/// launch path (n=512) for the selected variant × thread settings. Returns
/// the rows and prints the table.
std::vector<AblationRow> run_ablation(
    const std::vector<core::KernelVariant>& variants) {
  using clock = std::chrono::steady_clock;
  std::vector<AblationRow> rows;
  const std::size_t pool = ThreadPool::global().size();

  // ---- microkernel, serial (variant effect in isolation) ----
  {
    const vidx_t n = 256;
    auto a = random_tile(n, 1), b = random_tile(n, 2), c0 = random_tile(n, 3);
    for (const core::KernelVariant v : variants) {
      auto c = c0;
      const double s = best_of(5, [&] {
        c = c0;
        const auto t0 = clock::now();
        core::minplus_accum_variant(v, c.data(), n, a.data(), n, b.data(), n,
                                    n, n, n);
        return std::chrono::duration<double>(clock::now() - t0).count();
      });
      rows.push_back({"minplus", core::kernel_variant_name(v), 1, n, s,
                      2.0 * n * n * n / s / 1e9});
    }
  }

  // ---- blocked FW through the simulator, variant × threads ----
  {
    const vidx_t n = 512;
    const auto original = random_tile(n, 5);
    for (const core::KernelVariant v : variants) {
      for (const int threads : {1, 0}) {
        core::KernelConfig cfg;
        cfg.variant = v;
        cfg.threads = threads;
        core::set_kernel_config(cfg);
        const double s = best_of(3, [&] {
          sim::Device dev(
              sim::DeviceSpec::v100_scaled(std::size_t{64} << 20));
          dev.set_kernel_threads(threads);
          auto m = dev.alloc<dist_t>(original.size(), "fw matrix");
          std::copy(original.begin(), original.end(), m.data());
          const auto t0 = clock::now();
          core::dev_blocked_fw(dev, sim::kDefaultStream, m.data(), n, n,
                               core::kDeviceTile);
          return std::chrono::duration<double>(clock::now() - t0).count();
        });
        rows.push_back({"blocked_fw", core::kernel_variant_name(v),
                        threads == 0 ? static_cast<int>(pool) : threads, n, s,
                        2.0 * n * n * n / s / 1e9});
      }
    }
    core::set_kernel_config(core::KernelConfig{});
  }

  std::cout << "kernel engine ablation (pool: " << pool << " threads, "
            << core::simd_lane_isa() << " lanes)\n"
            << "kernel       variant    threads       n      ms    GOP/s\n";
  for (const auto& r : rows) {
    std::printf("%-12s %-10s %7d %7d %7.2f %8.2f\n", r.kernel.c_str(),
                r.variant.c_str(), r.threads, static_cast<int>(r.n),
                r.seconds * 1e3, r.gops);
  }
  std::cout << "tuning table: tensor "
            << core::kernel_variant_rel_speed(core::KernelVariant::kTensor)
            << "x vs naive on the 128^3 tuning shape\n";
  return rows;
}

/// Best serial blocked-FW seconds of `variant` among the rows; 0 when the
/// ablation did not run it.
double serial_fw_seconds(const std::vector<AblationRow>& rows,
                         const std::string& variant) {
  for (const auto& r : rows) {
    if (r.kernel == "blocked_fw" && r.variant == variant && r.threads == 1) {
      return r.seconds;
    }
  }
  return 0.0;
}

void write_json(const std::vector<AblationRow>& rows, const std::string& path) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "  {\"kernel\": \"" << r.kernel << "\", \"variant\": \""
        << r.variant << "\", \"threads\": " << r.threads
        << ", \"n\": " << r.n << ", \"seconds\": " << r.seconds
        << ", \"gops\": " << r.gops << "}" << (i + 1 < rows.size() ? "," : "")
        << "\n";
  }
  out << "]\n";
  std::cout << rows.size() << " rows -> " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool ablation = false;
  double min_speedup = 0.0;
  const char* unknown = nullptr;  // first flag ablation mode does not know
  // Default: both variants (the ablation never skips one silently; narrowing
  // the sweep takes an explicit, validated filter).
  std::vector<core::KernelVariant> variants(std::begin(kAllVariants),
                                            std::end(kAllVariants));
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ablation") == 0) {
      ablation = true;
    } else if (std::strncmp(argv[i], "--assert-min-speedup=", 21) == 0) {
      ablation = true;
      min_speedup = std::stod(argv[i] + 21);
    } else if (std::strncmp(argv[i], "--kernel-variant=", 17) == 0) {
      ablation = true;
      variants.clear();
      std::string list(argv[i] + 17);
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        const std::string name = list.substr(pos, comma - pos);
        pos = comma + 1;
        try {
          variants.push_back(core::parse_kernel_variant(name));
        } catch (const Error& e) {
          std::cerr << "bench_micro_kernels: bad --kernel-variant: "
                    << e.what() << "\n";
          return 2;
        }
      }
    } else if (unknown == nullptr) {
      unknown = argv[i];
    }
  }
  if (ablation && unknown != nullptr) {
    // Ablation mode owns the command line: a flag it does not know (say, a
    // removed speedup floor) must fail the run, not drop its check quietly.
    std::cerr << "bench_micro_kernels: unknown ablation flag: " << unknown
              << "\n";
    return 2;
  }
  if (ablation) {
    const auto rows = run_ablation(variants);
    write_json(rows, "BENCH_kernels.json");
    if (min_speedup > 0.0) {
      // Guard: the tensor kernel must beat the naive oracle on the serial
      // blocked-FW path by at least the requested factor.
      const double naive = serial_fw_seconds(rows, "naive");
      const double tensor = serial_fw_seconds(rows, "tensor");
      if (naive == 0.0 || tensor == 0.0) {
        std::cerr << "FAILED: --assert-min-speedup needs both naive and "
                     "tensor in the ablation sweep\n";
        return 1;
      }
      const double speedup = naive / tensor;
      std::cout << "speedup (tensor vs naive, serial blocked FW): "
                << speedup << "x (required >= " << min_speedup << "x)\n";
      if (speedup < min_speedup) {
        std::cerr << "FAILED: kernel engine speedup below threshold\n";
        return 1;
      }
    }
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
