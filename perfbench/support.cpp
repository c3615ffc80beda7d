#include "support.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <ostream>
#include <queue>
#include <stdexcept>
#include <utility>

namespace perfbench {

using gapsp::dist_t;
using gapsp::kInf;
using gapsp::vidx_t;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile of no samples");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("q outside [0,1]");
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double quiet_rounds(const std::vector<std::vector<double>>& rounds,
                    bool lower_is_better) {
  std::vector<double> medians;
  for (const auto& r : rounds) {
    if (!r.empty()) medians.push_back(median(r));
  }
  if (medians.empty()) throw std::invalid_argument("no samples in any round");
  return quantile(std::move(medians), lower_is_better ? 0.25 : 0.75);
}

namespace {
// Tail denominators d of the percentile ladder q = 1 − 1/d.
constexpr long long kTailLadder[] = {2, 10, 100, 1000, 10000};
}  // namespace

long long highest_supported_tail(std::size_t n) {
  long long best = 0;
  for (const long long d : kTailLadder) {
    if (static_cast<long long>(n) >= 10 * d) best = d;
  }
  return best;
}

bool percentile_supported(std::size_t samples, double q) {
  for (const long long d : kTailLadder) {
    if (std::abs(q - (1.0 - 1.0 / static_cast<double>(d))) < 1e-12) {
      return static_cast<long long>(samples) >= 10 * d;
    }
  }
  throw std::invalid_argument("percentile not on the ladder");
}

TailReport tail_percentile(const std::vector<double>& samples) {
  TailReport r;
  r.samples = samples.size();
  const long long d = highest_supported_tail(samples.size());
  if (d == 0) return r;
  r.q = 1.0 - 1.0 / static_cast<double>(d);
  r.value = quantile(samples, r.q);
  return r;
}

double selector_regret(double chosen_sim_seconds,
                       const std::vector<AlgoRun>& runs) {
  if (!(chosen_sim_seconds > 0.0)) {
    throw std::invalid_argument("chosen makespan must be positive");
  }
  double best = 0.0;
  for (const auto& r : runs) {
    if (!r.feasible) continue;
    if (!(r.sim_seconds > 0.0)) {
      throw std::invalid_argument("feasible run without a makespan: " +
                                  r.algo);
    }
    if (best == 0.0 || r.sim_seconds < best) best = r.sim_seconds;
  }
  if (best == 0.0) throw std::invalid_argument("no feasible run");
  return chosen_sim_seconds / best;
}

std::vector<std::int64_t> dijkstra64(const gapsp::graph::CsrGraph& g,
                                     vidx_t source) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<std::int64_t> dist(n, kUnreachable);
  using Item = std::pair<std::int64_t, vidx_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[static_cast<std::size_t>(source)] = 0;
  heap.emplace(0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d != dist[static_cast<std::size_t>(u)]) continue;
    const auto nbr = g.neighbors(u);
    const auto w = g.weights(u);
    for (std::size_t i = 0; i < nbr.size(); ++i) {
      const std::int64_t nd = d + static_cast<std::int64_t>(w[i]);
      auto& dv = dist[static_cast<std::size_t>(nbr[i])];
      if (nd < dv) {
        dv = nd;
        heap.emplace(nd, nbr[i]);
      }
    }
  }
  return dist;
}

bool served_matches(std::int64_t truth, dist_t served) {
  if (truth == kUnreachable) return served == kInf;
  return static_cast<std::int64_t>(served) == truth;
}

const std::vector<std::int64_t>& Oracle::row(vidx_t source) {
  const auto it = rows_.find(source);
  if (it != rows_.end()) return it->second;
  // Bound the cache at ~64 MiB of rows; refilling is cheap next to serving.
  const std::size_t row_bytes =
      static_cast<std::size_t>(g_->num_vertices()) * sizeof(std::int64_t);
  if ((rows_.size() + 1) * row_bytes > (64u << 20)) rows_.clear();
  ++rows_computed_;
  return rows_.emplace(source, dijkstra64(*g_, source)).first->second;
}

bool Oracle::row_ok(vidx_t u, const std::vector<dist_t>& served) {
  const auto& truth = row(u);
  if (served.size() != truth.size()) return false;
  for (std::size_t v = 0; v < truth.size(); ++v) {
    if (!served_matches(truth[v], served[v])) return false;
  }
  return true;
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_s_(now_s()) {}

int SpanRecorder::begin(const std::string& name, long long request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_s = now_s() - origin_s_;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = now_s() - origin_s_;
  // Spans close in LIFO order (ScopedSpan); tolerate an out-of-order end by
  // dropping everything opened after it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

std::map<std::string, double> SpanRecorder::self_seconds_by_layer() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += std::max(0.0, (s.end_s - s.start_s) - child_s[i]);
  }
  return out;
}

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}
}  // namespace

void SpanRecorder::write_chrome_trace(std::ostream& os,
                                      const std::string& device_trace) const {
  os << "{\"traceEvents\":[\n"
     << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"host wall (benchmark spans)\"}},\n"
     << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"simulated device\"}}";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    os << ",\n{\"name\":\"" << json_escape(s.name)
       << "\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":"
       << s.start_s * 1e6 << ",\"dur\":" << (s.end_s - s.start_s) * 1e6
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << "}}";
  }
  // Splice the device recorder's event list in as-is.
  const auto open = device_trace.find('[');
  const auto close = device_trace.rfind(']');
  if (open != std::string::npos && close != std::string::npos &&
      close > open + 1) {
    const std::string body = device_trace.substr(open + 1, close - open - 1);
    if (body.find('{') != std::string::npos) os << "," << body;
  }
  os << "\n]}\n";
}

}  // namespace perfbench
