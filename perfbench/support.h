// Helpers of the pipeline benchmark that carry its rules: sample statistics
// (median and the percentile rule), the selector-regret arithmetic, failure
// accounting, an independent distance oracle, and the in-memory span
// recorder of the traced run. Kept free of the pipeline itself so the
// benchmark's own tests can pin each rule.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/csr_graph.h"

namespace perfbench {

// ---- sample statistics ----------------------------------------------------

/// Linear-interpolation quantile (rank q·(n−1)) of an unsorted sample.
/// Throws std::invalid_argument on an empty sample or q outside [0, 1].
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// The percentile rule: a tail percentile q = 1 − 1/d is reported only when
/// at least ten samples lie beyond it, i.e. n ≥ 10·d. The ladder is the
/// median (d = 2) and p90/p99/p99.9/p99.99; returns the largest d whose
/// percentile n samples support, or 0 when not even the median qualifies.
long long highest_supported_tail(std::size_t n);

struct TailReport {
  std::size_t samples = 0;
  double q = 0.0;      ///< highest supported percentile (0 when none)
  double value = 0.0;  ///< the sample's value at q
};
TailReport tail_percentile(const std::vector<double>& samples);

/// The run's figure for a timed step sampled in rounds (successive time
/// windows of one run): the median of each round, then the lower quartile
/// of those medians, or the upper quartile when higher is better. A change
/// in the program moves every round; a burst of load from other tenants of
/// the host moves only the rounds it overlaps, and up to half of them
/// leave the figure as it was. Empty rounds are skipped; throws
/// std::invalid_argument when every round is empty.
double quiet_rounds(const std::vector<std::vector<double>>& rounds,
                    bool lower_is_better);

/// True when `samples` supports percentile `q` under the rule above
/// (evaluated in exact integer arithmetic for the ladder's q values).
bool percentile_supported(std::size_t samples, double q);

// ---- selector regret --------------------------------------------------------

struct AlgoRun {
  std::string algo;
  bool feasible = false;
  double sim_seconds = 0.0;
};

/// The chosen algorithm's simulated makespan divided by the best makespan
/// among the feasible runs. Throws std::invalid_argument when no run is
/// feasible or a makespan is not positive.
double selector_regret(double chosen_sim_seconds,
                       const std::vector<AlgoRun>& runs);

// ---- failure accounting -----------------------------------------------------

/// Counts attempted and failed operations. A query that did not come back
/// kOk, an oracle mismatch and a failed update each count once as failed.
class Ledger {
 public:
  void record(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  double fail_frac() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
};

// ---- oracle -----------------------------------------------------------------

inline constexpr std::int64_t kUnreachable = INT64_MAX;

/// Textbook binary-heap Dijkstra in 64-bit arithmetic: no saturation, so a
/// true distance at or above the library's kInf stays a finite number here
/// and any served value that clips it is caught as a mismatch.
std::vector<std::int64_t> dijkstra64(const gapsp::graph::CsrGraph& g,
                                     gapsp::vidx_t source);

/// True when `served` is the exact answer for true distance `truth`:
/// kInf for an unreachable pair, the distance itself otherwise.
bool served_matches(std::int64_t truth, gapsp::dist_t served);

/// Caches oracle rows per source (bounded; the cache is dropped when full).
/// The graph must outlive the oracle; rebind() after the graph changes.
class Oracle {
 public:
  explicit Oracle(const gapsp::graph::CsrGraph& g) : g_(&g) {}
  void rebind(const gapsp::graph::CsrGraph& g) {
    g_ = &g;
    rows_.clear();
  }
  const std::vector<std::int64_t>& row(gapsp::vidx_t source);
  bool point_ok(gapsp::vidx_t u, gapsp::vidx_t v, gapsp::dist_t served) {
    return served_matches(row(u)[static_cast<std::size_t>(v)], served);
  }
  bool row_ok(gapsp::vidx_t u, const std::vector<gapsp::dist_t>& served);
  long long rows_computed() const { return rows_computed_; }

 private:
  const gapsp::graph::CsrGraph* g_;
  std::unordered_map<gapsp::vidx_t, std::vector<std::int64_t>> rows_;
  long long rows_computed_ = 0;
};

// ---- spans --------------------------------------------------------------------

struct Span {
  std::string name;  ///< "layer.call"; the layer is the part before the dot
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  long long request = 0;
};

/// Wall-clock spans kept in memory, single-threaded. Disabled recorders
/// cost one branch per span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);
  bool enabled() const { return enabled_; }
  int begin(const std::string& name, long long request);
  void end(int id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Self seconds per layer: each span's duration minus the time its
  /// direct children cover.
  std::map<std::string, double> self_seconds_by_layer() const;
  /// Chrome-trace JSON with the spans in a "host wall" process (pid 1).
  /// `device_trace` is the output of sim::TraceRecorder::write_chrome_trace
  /// (device lanes, pid 0); its events are carried over verbatim so both
  /// clocks sit side by side in one viewer. Empty means no device lanes.
  void write_chrome_trace(std::ostream& os,
                          const std::string& device_trace) const;

 private:
  bool enabled_;
  double origin_s_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; inert when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name, long long request)
      : rec_(rec), id_(rec.begin(name, request)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

/// Monotonic seconds (steady_clock).
double now_s();

}  // namespace perfbench
