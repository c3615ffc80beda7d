// Tests of the benchmark's own rules: the percentile rule, the regret
// arithmetic, failure counting, and the oracle catching a wrong answer.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "support.h"

namespace perfbench {
namespace {

using gapsp::dist_t;
using gapsp::kInf;
using gapsp::graph::CsrGraph;
using gapsp::graph::Edge;

TEST(PercentileRule, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(highest_supported_tail(0), 0);
  EXPECT_EQ(highest_supported_tail(19), 0);
  EXPECT_EQ(highest_supported_tail(20), 2);      // median
  EXPECT_EQ(highest_supported_tail(99), 2);
  EXPECT_EQ(highest_supported_tail(100), 10);    // p90
  EXPECT_EQ(highest_supported_tail(999), 10);
  EXPECT_EQ(highest_supported_tail(1000), 100);  // p99
  EXPECT_EQ(highest_supported_tail(10000), 1000);  // p99.9
}

TEST(PercentileRule, SupportedMatchesTheLadder) {
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_TRUE(percentile_supported(1000, 0.99));
  EXPECT_FALSE(percentile_supported(9999, 0.999));
  EXPECT_TRUE(percentile_supported(10000, 0.999));
  EXPECT_THROW(percentile_supported(100, 0.95), std::invalid_argument);
}

TEST(PercentileRule, ReportStatesSampleCountAndPercentile) {
  std::vector<double> s;
  for (int i = 1; i <= 1000; ++i) s.push_back(i);
  const TailReport r = tail_percentile(s);
  EXPECT_EQ(r.samples, 1000u);
  EXPECT_DOUBLE_EQ(r.q, 0.99);
  EXPECT_NEAR(r.value, 1 + 0.99 * 999, 1e-9);  // rank q·(n−1), interpolated
  const TailReport none = tail_percentile({1.0, 2.0});
  EXPECT_EQ(none.samples, 2u);
  EXPECT_EQ(none.q, 0.0);
}

TEST(PercentileRule, MedianInterpolates) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(QuietRounds, QuartileOfRoundMedians) {
  // Round medians 2, 11, 2, 3, 100, 2 (the empty round is skipped).
  const std::vector<std::vector<double>> rounds = {
      {1, 2, 3}, {10, 11, 12}, {2}, {}, {3, 3}, {100}, {2, 2}};
  EXPECT_DOUBLE_EQ(quiet_rounds(rounds, true), 2.0);
  EXPECT_DOUBLE_EQ(quiet_rounds(rounds, false), 9.0);  // 3 + 0.75 * (11 - 3)
  EXPECT_THROW(quiet_rounds({{}, {}}, true), std::invalid_argument);
}

TEST(QuietRounds, BurstInHalfTheRoundsDoesNotMoveIt) {
  const std::vector<std::vector<double>> quiet = {{5}, {5}, {5},
                                                  {5}, {5}, {5}};
  auto burst = quiet;
  burst[1] = {9};
  burst[2] = {8};
  burst[4] = {7};
  EXPECT_DOUBLE_EQ(quiet_rounds(burst, true), quiet_rounds(quiet, true));
  // A change that moves every round moves the figure.
  const std::vector<std::vector<double>> slower = {{6}, {6}, {6},
                                                   {6}, {6}, {6}};
  EXPECT_DOUBLE_EQ(quiet_rounds(slower, true), 6.0);
}

TEST(SelectorRegret, ChosenOverBestFeasible) {
  const std::vector<AlgoRun> runs = {
      {"fw", true, 0.0156}, {"johnson", true, 0.0413}, {"boundary", false, 0}};
  EXPECT_NEAR(selector_regret(0.0413, runs), 0.0413 / 0.0156, 1e-12);
  EXPECT_DOUBLE_EQ(selector_regret(0.0156, runs), 1.0);
}

TEST(SelectorRegret, InfeasibleRunsAreNotCandidates) {
  const std::vector<AlgoRun> runs = {{"fw", false, 0.001},
                                     {"johnson", true, 0.004}};
  EXPECT_DOUBLE_EQ(selector_regret(0.004, runs), 1.0);
  EXPECT_THROW(selector_regret(0.004, {{"fw", false, 0.001}}),
               std::invalid_argument);
  EXPECT_THROW(selector_regret(0.0, runs), std::invalid_argument);
}

TEST(Ledger, CountsFailuresAgainstAttempts) {
  Ledger l;
  EXPECT_EQ(l.fail_frac(), 0.0);
  for (int i = 0; i < 7; ++i) l.record(true);
  l.record(false);
  EXPECT_EQ(l.attempted(), 8);
  EXPECT_EQ(l.failed(), 1);
  EXPECT_DOUBLE_EQ(l.fail_frac(), 0.125);
}

CsrGraph chain(dist_t w) {
  // 0 → 1 → 2 → 3, plus an isolated vertex 4.
  return CsrGraph::from_edges(5, {Edge{0, 1, w}, Edge{1, 2, w}, Edge{2, 3, w}},
                              /*symmetrize=*/false);
}

TEST(Oracle, DoesNotSaturateAtKInf) {
  // 2·4e8 exceeds kInf (≈5.4e8): a saturating oracle would call it
  // unreachable and agree with a clipped answer.
  const CsrGraph g = chain(400000000);
  const auto d = dijkstra64(g, 0);
  EXPECT_EQ(d[2], 800000000);
  EXPECT_EQ(d[4], kUnreachable);
  EXPECT_FALSE(served_matches(d[2], kInf));
  EXPECT_TRUE(served_matches(d[4], kInf));
  EXPECT_FALSE(served_matches(d[4], 7));
}

TEST(Oracle, CatchesOneCorruptedServedAnswer) {
  const CsrGraph g = chain(5);
  Oracle oracle(g);
  std::vector<dist_t> row = {0, 5, 10, 15, kInf};
  EXPECT_TRUE(oracle.row_ok(0, row));
  EXPECT_TRUE(oracle.point_ok(0, 3, 15));
  Ledger ledger;
  ledger.record(oracle.point_ok(0, 3, 15));
  ledger.record(oracle.point_ok(0, 3, 14));  // one corrupted answer
  row[2] = 11;
  ledger.record(oracle.row_ok(0, row));
  EXPECT_EQ(ledger.attempted(), 3);
  EXPECT_EQ(ledger.failed(), 2);
  EXPECT_EQ(oracle.rows_computed(), 1);  // rows are cached per source
}

TEST(Spans, SelfTimeSubtractsChildren) {
  SpanRecorder rec(true);
  {
    ScopedSpan outer(rec, "bench.solve", 1);
    ScopedSpan inner(rec, "core.solve_apsp", 1);
  }
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[1].request, 1);
  const auto self = rec.self_seconds_by_layer();
  EXPECT_EQ(self.size(), 2u);
  const double outer = rec.spans()[0].end_s - rec.spans()[0].start_s;
  const double inner = rec.spans()[1].end_s - rec.spans()[1].start_s;
  EXPECT_NEAR(self.at("bench"), outer - inner, 1e-12);
  std::ostringstream os;
  rec.write_chrome_trace(os, "{\"traceEvents\":[\n{\"name\":\"k\",\"pid\":0}\n]}\n");
  EXPECT_NE(os.str().find("\"pid\":1"), std::string::npos);
  EXPECT_NE(os.str().find("{\"name\":\"k\",\"pid\":0}"), std::string::npos);
}

TEST(Spans, DisabledRecorderKeepsNothing) {
  SpanRecorder rec(false);
  { ScopedSpan s(rec, "engine.run_batch", 3); }
  EXPECT_TRUE(rec.spans().empty());
}

}  // namespace
}  // namespace perfbench
