// Tests for the experiment harness: the paper's period-bound search
// (divide by 10, retain penultimate), normalization rules used by the
// figures, and the parallel sweep aggregation through SweepEngine.

#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "harness/sweep_engine.hpp"
#include "spg/compose.hpp"
#include "spg/generator.hpp"
#include "spg/streamit.hpp"
#include "util/rng.hpp"

namespace {

using namespace spgcmp;
using harness::Campaign;

TEST(PeriodSearch, RetainsPenultimateBound) {
  // Single-stage-like workload with known feasibility threshold: chain of 4
  // stages, 1e8 cycles each; on one core at 1 GHz the absolute limit is
  // 0.4 s (spread over 4 cores of a 2x2: 0.1 s).  Starting from 1 s and
  // dividing by 10, T = 0.1 is feasible (perfect split) and T = 0.01 is
  // not, so the search must retain T in (0.01, 0.1].
  spg::Spg g = spg::chain(4, 1e8, 1e3);
  const auto p = cmp::Platform::reference(2, 2);
  const Campaign c = harness::run_campaign(g, p, solve::SolverSet::paper(1));
  EXPECT_GE(c.success_count(), 1u);
  EXPECT_LE(c.period, 0.1 * (1 + 1e-9));
  EXPECT_GT(c.period, 0.01);
}

TEST(PeriodSearch, TighterThanStartWhenEasy) {
  // A tiny workload is feasible far below 1 s; the retained bound must be
  // well under the start.
  spg::Spg g = spg::chain(3, 1e6, 10.0);
  const auto p = cmp::Platform::reference(2, 2);
  const Campaign c = harness::run_campaign(g, p, solve::SolverSet::paper(2));
  EXPECT_GE(c.success_count(), 1u);
  EXPECT_LT(c.period, 0.1);
}

TEST(Campaign, NormalizationRules) {
  spg::Spg g = spg::make_streamit(7);  // DCT: small pipeline
  const auto p = cmp::Platform::reference(4, 4);
  const Campaign c = harness::run_campaign(g, p, solve::SolverSet::paper(3));
  ASSERT_GE(c.success_count(), 1u);
  const double best = c.best_energy();
  ASSERT_GT(best, 0.0);
  bool saw_one = false;
  for (std::size_t h = 0; h < c.results.size(); ++h) {
    if (!c.results[h].success) {
      EXPECT_EQ(c.normalized_energy(h), 0.0);
      continue;
    }
    EXPECT_GE(c.normalized_energy(h), 1.0 - 1e-12);
    EXPECT_LE(c.normalized_inverse_energy(h), 1.0 + 1e-12);
    if (std::abs(c.normalized_energy(h) - 1.0) < 1e-12) saw_one = true;
    EXPECT_NEAR(c.normalized_energy(h) * c.normalized_inverse_energy(h), 1.0,
                1e-9);
  }
  EXPECT_TRUE(saw_one) << "some heuristic must achieve the minimum";
}

TEST(Campaign, RunAtFixedPeriodReportsAllHeuristics) {
  spg::Spg g = spg::chain(5, 1e8, 1e3);
  const auto p = cmp::Platform::reference(2, 2);
  const Campaign c = harness::run_at_period(g, p, solve::SolverSet::paper(4), 1.0);
  EXPECT_EQ(c.results.size(), 5u);
  EXPECT_EQ(c.names.size(), 5u);
  EXPECT_EQ(c.names[0], "Random");
  EXPECT_DOUBLE_EQ(c.period, 1.0);
}

/// `count` random n-stage workloads, workload w generated from
/// Rng(base + w).
std::vector<harness::SweepEngine::GeneratedTask> sweep_tasks(
    std::size_t count, std::uint64_t base, std::size_t n, double ccr) {
  std::vector<harness::SweepEngine::GeneratedTask> tasks;
  for (std::size_t w = 0; w < count; ++w) {
    tasks.push_back({base + w, [n, ccr](util::Rng& rng) {
                       spg::Spg g = spg::random_spg(n, 2, rng);
                       g.rescale_ccr(ccr);
                       return g;
                     }});
  }
  return tasks;
}

harness::SweepCell sweep(const std::vector<harness::SweepEngine::GeneratedTask>& tasks,
                         const cmp::Platform& p, const solve::SolverSet& solvers,
                         std::size_t threads) {
  harness::SweepEngineOptions opt;
  opt.threads = threads;
  return harness::SweepEngine::aggregate(
      harness::SweepEngine(opt).run_task_slice(tasks, 0, tasks.size(), p, solvers));
}

TEST(Sweep, AggregatesFailuresAndMeans) {
  const auto p = cmp::Platform::reference(2, 2);
  const auto cell = sweep(sweep_tasks(6, 1000, 10, 10.0), p,
                          solve::SolverSet::paper(5), /*threads=*/2);
  ASSERT_EQ(cell.mean_inverse_energy.size(), 5u);
  ASSERT_EQ(cell.failures.size(), 5u);
  EXPECT_EQ(cell.workloads, 6u);
  for (std::size_t h = 0; h < 5; ++h) {
    EXPECT_GE(cell.mean_inverse_energy[h], 0.0);
    EXPECT_LE(cell.mean_inverse_energy[h], 1.0 + 1e-12);
    EXPECT_LE(cell.failures[h], 6u);
  }
  // The best heuristic of each workload contributes 1.0; hence at least one
  // heuristic has a strictly positive mean.
  double max_mean = 0;
  for (double v : cell.mean_inverse_energy) max_mean = std::max(max_mean, v);
  EXPECT_GT(max_mean, 0.0);
}

TEST(Sweep, DeterministicAcrossThreadCounts) {
  const auto p = cmp::Platform::reference(2, 2);
  const auto tasks = sweep_tasks(4, 2000, 8, 1.0);
  const auto a = sweep(tasks, p, solve::SolverSet::paper(6), 1);
  const auto b = sweep(tasks, p, solve::SolverSet::paper(6), 4);
  ASSERT_EQ(a.mean_inverse_energy.size(), b.mean_inverse_energy.size());
  for (std::size_t h = 0; h < a.mean_inverse_energy.size(); ++h) {
    EXPECT_DOUBLE_EQ(a.mean_inverse_energy[h], b.mean_inverse_energy[h]);
    EXPECT_EQ(a.failures[h], b.failures[h]);
  }
}

}  // namespace
