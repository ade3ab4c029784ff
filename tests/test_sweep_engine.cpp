// Tests for the parallel sweep engine and its structured JSON emission:
// seed derivation, the one campaign loop (sliced batches match standalone
// campaigns in task order), and the JSON writer's escaping/number
// formatting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include <gtest/gtest-spi.h>

#include "../bench/bench_common.hpp"
#include "harness/sweep_engine.hpp"
#include "spg/generator.hpp"
#include "support/checkers.hpp"
#include "support/fixtures.hpp"
#include "util/json.hpp"

namespace {

using namespace spgcmp;

TEST(InstanceSeed, DistinctAcrossIndicesAndBases) {
  std::set<std::uint64_t> seen;
  for (const std::uint64_t base : {1ULL, 2ULL, 42ULL, 1000003ULL}) {
    for (std::uint64_t w = 0; w < 64; ++w) {
      EXPECT_TRUE(seen.insert(harness::instance_seed(base, w)).second)
          << "collision at base " << base << " index " << w;
    }
  }
}

TEST(SweepEngine, SlicesMatchStandaloneCampaignsInTaskOrder) {
  const auto p = test::grid2x2();
  const auto set = solve::SolverSet::paper(5);
  const auto tasks = test::generated_tasks(5, 777, [](util::Rng& rng) {
    spg::Spg g = spg::random_spg(10, 2, rng);
    g.rescale_ccr(10.0);
    return g;
  });
  harness::SweepEngineOptions opt;
  opt.threads = 2;
  const harness::SweepEngine engine(opt);

  // A batch cut into two slices still yields one campaign per task, in
  // task order ...
  auto campaigns = engine.run_task_slice(tasks, 0, 2, p, set);
  const auto rest = engine.run_task_slice(tasks, 2, tasks.size(), p, set);
  campaigns.insert(campaigns.end(), rest.begin(), rest.end());
  ASSERT_EQ(campaigns.size(), tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    // ... each identical to a standalone campaign on task t's workload.
    util::Rng rng(tasks[t].seed);
    const auto solo = harness::run_campaign(tasks[t].make(rng), p, set);
    EXPECT_EQ(campaigns[t].period, solo.period) << t;
    ASSERT_EQ(campaigns[t].results.size(), solo.results.size());
    for (std::size_t h = 0; h < solo.results.size(); ++h) {
      EXPECT_EQ(campaigns[t].results[h].success, solo.results[h].success);
      EXPECT_EQ(campaigns[t].results[h].eval.energy, solo.results[h].eval.energy);
    }
  }
}

TEST(SweepEngine, AggregateEmptyBatch) {
  const auto cell = harness::SweepEngine::aggregate({});
  EXPECT_EQ(cell.workloads, 0u);
  EXPECT_TRUE(cell.mean_inverse_energy.empty());
  EXPECT_TRUE(cell.failures.empty());
}

TEST(BenchReport, WritesWellFormedStableJson) {
  harness::BenchReport rep;
  rep.name = "probe";
  rep.metric = "normalized_energy";
  rep.meta = {{"grid", "2x2"}, {"ccr", "10"}};
  rep.heuristics = {"Random", "Greedy"};
  harness::BenchCell cell;
  cell.labels = {{"app", "FM \"Radio\""}};
  cell.period = 0.125;
  cell.values = {1.0, 1.5};
  cell.failures = {0, 1};
  rep.cells.push_back(cell);

  std::ostringstream a, b;
  rep.write_json(a);
  rep.write_json(b);
  EXPECT_EQ(a.str(), b.str()) << "emission must be deterministic";

  const std::string s = a.str();
  EXPECT_NE(s.find("\"bench\": \"probe\""), std::string::npos);
  EXPECT_NE(s.find("\"FM \\\"Radio\\\"\""), std::string::npos);
  EXPECT_NE(s.find("\"values\": [1, 1.5]"), std::string::npos);
  EXPECT_NE(s.find("\"failures\": [0, 1]"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness proxy without a parser).
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'), std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['), std::count(s.begin(), s.end(), ']'));
}

TEST(BenchCell, FromCampaignRecordsFailuresAndNormalization) {
  const auto p = test::grid2x2();
  const spg::Spg g = test::random_workload(3, 10, 2, 10.0);
  const auto c = harness::run_campaign(g, p, solve::SolverSet::paper(5));
  const auto cell = harness::cell_from_campaign({{"app", "probe"}}, c);
  ASSERT_EQ(cell.values.size(), c.results.size());
  for (std::size_t h = 0; h < c.results.size(); ++h) {
    if (c.results[h].success) {
      EXPECT_GE(cell.values[h], 1.0 - 1e-12);
      EXPECT_EQ(cell.failures[h], 0u);
    } else {
      EXPECT_EQ(cell.values[h], 0.0);
      EXPECT_EQ(cell.failures[h], 1u);
    }
  }
}

TEST(Json, NumberFormattingRoundTripsAndIsStable) {
  EXPECT_EQ(util::json_number(0.0), "0");
  EXPECT_EQ(util::json_number(1.0), "1");
  EXPECT_EQ(util::json_number(1.5), "1.5");
  EXPECT_EQ(util::json_number(-2.25), "-2.25");
  // Round-trip: the shortest representation must parse back exactly.
  for (const double v : {0.1, 1.0 / 3.0, 6e-12 * 8.0, 1.23456789012345e300}) {
    const std::string s = util::json_number(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
  EXPECT_EQ(util::json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(util::json_number(std::nan("1")), "null");
}

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(util::json_escape("plain"), "plain");
  EXPECT_EQ(util::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(util::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(util::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(util::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(BenchCommon, RandomReportWithZeroAppsStaysWellFormed) {
  // Regression: --apps=0 produced zero-width cells and the figure printer
  // indexed past them (segfault).  Cells must stay heuristic-width.
  const auto rep = bench::random_report("probe", 10, 2, 2, {1, 2}, 0, 1);
  ASSERT_EQ(rep.cells.size(), bench::random_ccrs().size() * 2);
  for (const auto& cell : rep.cells) {
    EXPECT_EQ(cell.values.size(), rep.heuristics.size());
    EXPECT_EQ(cell.failures.size(), rep.heuristics.size());
    EXPECT_EQ(cell.workloads, 0u);
  }
  std::ostringstream os;
  bench::print_random_report(rep, os, 10, 2, 2, 2);
  EXPECT_FALSE(os.str().empty());
}

TEST(Checkers, TableComparisonToleratesNumericNoise) {
  test::expect_tables_near("a 1.0000000001 fail", "a 1.0 fail", 1e-6);
  EXPECT_NONFATAL_FAILURE(test::expect_tables_near("a 1.1", "a 1.0", 1e-6),
                          "token 1");
  EXPECT_NONFATAL_FAILURE(test::expect_tables_near("x 1.0", "y 1.0", 1e-6),
                          "token 0");
}

}  // namespace
