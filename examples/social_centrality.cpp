// Domain example: closeness centrality on a scale-free social network.
//
// Scale-free graphs are where the paper's Johnson implementation shines:
// no useful separator, low density, highly skewed degrees (which is exactly
// what the dynamic-parallelism optimization targets). This example runs the
// batched MSSP Johnson solver, derives closeness centrality from the full
// distance matrix, and prints the top influencers.
#include <algorithm>
#include <iostream>
#include <vector>

#include "core/apsp.h"
#include "core/ooc_johnson.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "util/table.h"

int main() {
  using namespace gapsp;

  const graph::CsrGraph net = graph::make_rmat(11, 14000, /*seed=*/31);
  const auto deg = graph::degree_stats(net);
  std::cout << "social network: " << net.num_vertices() << " users, "
            << net.num_edges() / 2 << " ties, max degree " << deg.max
            << " (mean " << deg.mean << ")\n";

  core::ApspOptions opts;
  opts.device = sim::DeviceSpec::v100_scaled();
  opts.algorithm = core::Algorithm::kJohnson;
  opts.heavy_degree_threshold = 32;  // hubs traverse via child kernels

  auto store = core::make_ram_store(net.num_vertices());
  const core::ApspResult r = core::ooc_johnson(net, opts, *store);
  std::cout << "johnson: bat=" << r.metrics.johnson_batch_size << ", "
            << r.metrics.johnson_num_batches << " batches, "
            << r.metrics.child_kernels << " dynamic-parallelism child kernels, "
            << r.metrics.sim_seconds * 1e3 << " ms simulated\n\n";

  // Closeness centrality: (reachable - 1) / sum of distances, per user.
  const vidx_t n = net.num_vertices();
  std::vector<dist_t> row(static_cast<std::size_t>(n));
  std::vector<std::pair<double, vidx_t>> closeness;
  for (vidx_t u = 0; u < n; ++u) {
    store->read_block(u, 0, 1, n, row.data(), row.size());
    long long sum = 0, reach = 0;
    for (dist_t d : row) {
      if (d < kInf && d > 0) {
        sum += d;
        ++reach;
      }
    }
    if (sum > 0) {
      closeness.emplace_back(static_cast<double>(reach) / sum, u);
    }
  }
  std::sort(closeness.rbegin(), closeness.rend());

  Table top({"rank", "user", "degree", "closeness"});
  for (int i = 0; i < 10 && i < static_cast<int>(closeness.size()); ++i) {
    top.add_row({std::to_string(i + 1),
                 std::string("u").append(std::to_string(closeness[i].second)),
                 std::to_string(net.out_degree(closeness[i].second)),
                 Table::num(closeness[i].first, 5)});
  }
  std::cout << "top-10 users by closeness centrality:\n";
  top.print(std::cout);
  return 0;
}
