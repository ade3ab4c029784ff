// Tests for the five paper heuristics: validity of every returned mapping,
// determinism, paper-documented behaviours (DPA2D wasting cores on
// pipelines, DPA1D optimality on chains and budget failures on fat graphs)
// and, for every registry solver alone and behind +refine, optimality
// comparisons against the exact solver on tiny 2x2 and 2x3 instances.

#include <gtest/gtest.h>

#include <cmath>

#include "harness/experiment.hpp"
#include "heuristics/dpa1d.hpp"
#include "heuristics/dpa2d.hpp"
#include "heuristics/exact.hpp"
#include "heuristics/greedy.hpp"
#include "heuristics/heuristic.hpp"
#include "heuristics/random_heuristic.hpp"
#include "solve/solve.hpp"
#include "spg/compose.hpp"
#include "spg/generator.hpp"
#include "spg/streamit.hpp"
#include "support/checkers.hpp"
#include "support/fixtures.hpp"
#include "util/rng.hpp"

namespace {

using namespace spgcmp;
using heuristics::Result;
using test::pick_period;

struct Instance {
  std::size_t n;
  int ymax;
  int rows, cols;
  double ccr;
  std::uint64_t seed;
};

class AllHeuristicsValid : public ::testing::TestWithParam<Instance> {};

TEST_P(AllHeuristicsValid, SuccessImpliesValidMapping) {
  const auto [n, ymax, rows, cols, ccr, seed] = GetParam();
  const spg::Spg g = test::random_workload(seed, n, ymax, ccr);
  const auto p = cmp::Platform::reference(rows, cols);
  const double T = pick_period(g, p);

  const auto c = harness::run_at_period(g, p, solve::SolverSet::paper(7), T);
  std::size_t successes = 0;
  for (std::size_t h = 0; h < c.results.size(); ++h) {
    if (!c.results[h].success) continue;
    ++successes;
    test::expect_valid_result(c.results[h], g, p, T, c.names[h]);
  }
  // At this mild period bound at least one heuristic must find a mapping.
  EXPECT_GE(successes, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllHeuristicsValid,
    ::testing::Values(Instance{10, 1, 2, 2, 10, 1}, Instance{10, 3, 2, 2, 1, 2},
                      Instance{20, 5, 4, 4, 10, 3}, Instance{20, 2, 4, 4, 0.5, 4},
                      Instance{35, 8, 4, 4, 10, 5}, Instance{50, 4, 4, 4, 10, 6},
                      Instance{50, 12, 6, 6, 10, 7}, Instance{30, 6, 3, 3, 1, 8},
                      Instance{40, 1, 4, 4, 10, 9}, Instance{25, 10, 6, 6, 1, 10},
                      Instance{15, 2, 1, 4, 10, 11}, Instance{12, 4, 1, 1, 10, 12}),
    [](const auto& info) {
      // Appended rather than operator+ chained: GCC 12's -Wrestrict
      // false-positives on literal + std::to_string concatenations at -O2.
      const auto& q = info.param;
      std::string name = "n";
      name += std::to_string(q.n);
      name += "_y";
      name += std::to_string(q.ymax);
      name += "_g";
      name += std::to_string(q.rows);
      name += "x";
      name += std::to_string(q.cols);
      name += "_s";
      name += std::to_string(q.seed);
      return name;
    });

TEST(RandomHeuristic, DeterministicAcrossCalls) {
  util::Rng rng(5);
  spg::Spg g = spg::random_spg(15, 3, rng);
  g.rescale_ccr(10);
  const auto p = cmp::Platform::reference(3, 3);
  const double T = pick_period(g, p);
  heuristics::RandomHeuristic h(99);
  const Result a = h.run(g, p, T);
  const Result b = h.run(g, p, T);
  ASSERT_EQ(a.success, b.success);
  if (a.success) {
    EXPECT_EQ(a.mapping.core_of, b.mapping.core_of);
    EXPECT_DOUBLE_EQ(a.eval.energy, b.eval.energy);
  }
}

TEST(RandomHeuristic, DifferentSeedsCanDiffer) {
  util::Rng rng(6);
  spg::Spg g = spg::random_spg(20, 4, rng);
  g.rescale_ccr(10);
  const auto p = cmp::Platform::reference(4, 4);
  const double T = pick_period(g, p);
  const Result a = heuristics::RandomHeuristic(1).run(g, p, T);
  const Result b = heuristics::RandomHeuristic(2).run(g, p, T);
  // Not a hard guarantee, but with 16 cores the shuffles virtually never
  // coincide; if both succeeded, expect different placements.
  if (a.success && b.success) {
    EXPECT_NE(a.mapping.core_of, b.mapping.core_of);
  }
}

TEST(Greedy, MapsChainAndDowngradesSpeeds) {
  spg::Spg g = spg::chain(6, 1e8, 1e3);
  const auto p = cmp::Platform::reference(2, 2);
  // 6e8 cycles total; T = 1 s: fits on one core at 0.6-0.8 GHz or spreads.
  const Result r = heuristics::GreedyHeuristic().run(g, p, 1.0);
  test::expect_valid_result(r, g, p, 1.0, "Greedy");
  // Downgrading: every active core's speed is the slowest feasible one.
  for (int c = 0; c < p.grid().core_count(); ++c) {
    const double w = r.eval.core_work[static_cast<std::size_t>(c)];
    if (w <= 0) continue;
    const std::size_t k = r.mapping.mode_of_core[static_cast<std::size_t>(c)];
    EXPECT_EQ(k, p.speeds.slowest_feasible(w, 1.0));
  }
}

TEST(Greedy, FailsWhenSourceTooHeavy) {
  spg::Spg g = spg::chain(2, 2e9, 1.0);  // 2e9 cycles > 1 GHz * 1 s
  const auto p = cmp::Platform::reference(2, 2);
  const Result r = heuristics::GreedyHeuristic().run(g, p, 1.0);
  EXPECT_FALSE(r.success);
}

TEST(Dpa1d, OptimalOnChainWithoutCommunication) {
  // For communication-free workloads DPA1D solves the line problem
  // exactly, and core positions are irrelevant: it must match the exact
  // solver's energy.
  spg::Spg g = spg::chain(6, 0.0, 0.0);
  for (spg::StageId i = 0; i < g.size(); ++i) {
    g.set_work(i, 1e8 + 3e7 * static_cast<double>(i));
  }
  const auto p = cmp::Platform::reference(2, 2);
  const double T = 1.0;
  const Result dp = heuristics::Dpa1dHeuristic().run(g, p, T);
  const Result ex = heuristics::ExactSolver().run(g, p, T);
  ASSERT_TRUE(dp.success) << dp.failure;
  ASSERT_TRUE(ex.success) << ex.failure;
  EXPECT_NEAR(dp.eval.energy, ex.eval.energy, 1e-9 * ex.eval.energy);
}

TEST(Dpa1d, OptimalOnChainWithCommunication) {
  // Paper: for linear chains DPA1D is optimal even with communication,
  // because discarding the non-snake links loses nothing.
  spg::Spg g = spg::chain(5, 1e8, 0.0);
  for (spg::EdgeId e = 0; e < g.edge_count(); ++e) g.set_bytes(e, 1e7);
  const auto p = cmp::Platform::reference(2, 2);
  const double T = 0.4;
  const Result dp = heuristics::Dpa1dHeuristic().run(g, p, T);
  const Result ex = heuristics::ExactSolver().run(g, p, T);
  ASSERT_TRUE(dp.success) << dp.failure;
  ASSERT_TRUE(ex.success) << ex.failure;
  EXPECT_LE(dp.eval.energy, ex.eval.energy * (1 + 1e-9));
}

TEST(Dpa1d, BudgetFailureOnFatGraph) {
  // ChannelVocoder-like shape (ymax = 17) explodes the ideal count.
  const spg::Spg g = spg::make_streamit(2);
  const auto p = cmp::Platform::reference(4, 4);
  heuristics::Dpa1dHeuristic::Options opt;
  opt.max_states = 2000;
  opt.max_expansions = 20000;
  const Result r = heuristics::Dpa1dHeuristic(opt).run(g, p, 1.0);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.failure.find("budget"), std::string::npos);
}

TEST(Dpa2d, WastesCoresOnPurePipeline) {
  // Paper Section 6.2.1: on a pipeline, DPA2D can only enroll q cores of a
  // p x q grid (one per column), since the virtual grid has one row.
  spg::Spg g = spg::chain(20, 1.5e8, 1e3);  // 3e9 cycles: fits 4 cores at 1 GHz
  const auto p = cmp::Platform::reference(4, 4);
  const Result r = heuristics::Dpa2dHeuristic().run(g, p, 1.0);
  ASSERT_TRUE(r.success) << r.failure;
  EXPECT_LE(r.eval.active_cores, 4);
}

TEST(Dpa2d, FailsOnPipelineWhenColumnsLackCapacity) {
  // The flip side of wasting cores: 6e9 cycles cannot fit on the <= 4
  // enrollable cores at T = 1 s, so DPA2D fails where 16 cores would have
  // been plenty — the failure mode Table 2 records for low elevations.
  spg::Spg g = spg::chain(20, 3e8, 1e3);
  const auto p = cmp::Platform::reference(4, 4);
  EXPECT_FALSE(heuristics::Dpa2dHeuristic().run(g, p, 1.0).success);
  // Greedy has no such restriction and succeeds.
  EXPECT_TRUE(heuristics::GreedyHeuristic().run(g, p, 1.0).success);
}

TEST(Dpa2d, HandlesFatGraph) {
  util::Rng rng(8);
  spg::Spg g = spg::random_spg(40, 12, rng);
  g.rescale_ccr(10);
  const auto p = cmp::Platform::reference(4, 4);
  const double T = pick_period(g, p);
  const Result r = heuristics::Dpa2dHeuristic().run(g, p, T);
  ASSERT_TRUE(r.success) << r.failure;
  EXPECT_TRUE(r.eval.valid());
}

TEST(Dpa2d1d, ValidOnMixedShapes) {
  // DPA2D1D clusters whole x-columns, so fat graphs need a looser period
  // (the paper notes it is "not good for fat graphs of large elevation").
  util::Rng rng(9);
  for (const int ymax : {1, 3, 9}) {
    spg::Spg g = spg::random_spg(30, ymax, rng);
    g.rescale_ccr(10);
    const auto p = cmp::Platform::reference(4, 4);
    const double T = pick_period(g, p) * (ymax >= 9 ? 4.0 : 1.0);
    const Result r =
        heuristics::Dpa2dHeuristic(heuristics::Dpa2dHeuristic::Mode::Line1D)
            .run(g, p, T);
    ASSERT_TRUE(r.success) << "ymax=" << ymax << ": " << r.failure;
    EXPECT_TRUE(r.eval.valid());
  }
}

TEST(Dpa2d1d, MatchesDpa1dOnChains) {
  // Both 1D heuristics solve the same line problem for chains; DPA1D is
  // exact there, so DPA2D1D can never beat it.
  spg::Spg g = spg::chain(8, 2e8, 1e4);
  const auto p = cmp::Platform::reference(2, 3);
  const double T = 0.9;
  const Result a = heuristics::Dpa1dHeuristic().run(g, p, T);
  const Result b =
      heuristics::Dpa2dHeuristic(heuristics::Dpa2dHeuristic::Mode::Line1D)
          .run(g, p, T);
  ASSERT_TRUE(a.success) << a.failure;
  ASSERT_TRUE(b.success) << b.failure;
  EXPECT_LE(a.eval.energy, b.eval.energy * (1 + 1e-9));
}

// The exact solver as an oracle over the whole registry: every solver,
// alone and behind the refine post-pass, on instances inside exact's
// domain (n <= 12, <= 6 cores).  Each success must pass an independent
// evaluate() audit and never beat exact's energy.
struct OracleCase {
  int rows, cols;
  std::size_t n;
  int ymax;
  std::uint64_t seed;
};

/// Every registry solver spec: each base solver, and each X+refine.
std::vector<std::string> every_solver_spec() {
  const auto& reg = solve::SolverRegistry::instance();
  std::vector<std::string> specs;
  for (const auto& name : reg.names()) {
    if (reg.info(name).post_pass) continue;
    specs.push_back(name);
    specs.push_back(name + "+refine");
  }
  return specs;
}

class VsExact : public ::testing::TestWithParam<OracleCase> {};

TEST_P(VsExact, NoRegistrySolverBeatsExact) {
  const auto [rows, cols, n, ymax, seed] = GetParam();
  util::Rng rng(seed);
  spg::Spg g = spg::random_spg(n, ymax, rng);
  g.rescale_ccr(5);
  const auto p = cmp::Platform::reference(rows, cols);
  const double T = pick_period(g, p);
  solve::SolveRequest req;
  req.spg = &g;
  req.platform = &p;
  req.period = T;
  req.seed = 3;
  const Result ex = solve::run("exact", req).result;
  ASSERT_TRUE(ex.success) << ex.failure;
  std::size_t successes = 0;
  for (const auto& spec : every_solver_spec()) {
    const Result r = solve::run(spec, req).result;
    if (!r.success) continue;
    ++successes;
    test::expect_valid_result(r, g, p, T, spec);
    EXPECT_GE(r.eval.energy, ex.eval.energy * (1 - 1e-9))
        << spec << " beat the exact optimum";
  }
  EXPECT_GE(successes, 2u);  // exact and exact+refine at least
}

INSTANTIATE_TEST_SUITE_P(
    Grids, VsExact,
    ::testing::Values(OracleCase{2, 2, 7, 2, 11}, OracleCase{2, 2, 7, 2, 22},
                      OracleCase{2, 2, 7, 2, 33}, OracleCase{2, 2, 7, 2, 44},
                      OracleCase{2, 2, 7, 2, 55}, OracleCase{2, 3, 7, 2, 11},
                      OracleCase{2, 3, 7, 2, 22}, OracleCase{2, 3, 7, 3, 33},
                      OracleCase{2, 3, 6, 3, 44}, OracleCase{2, 3, 8, 2, 55}),
    [](const auto& info) {
      const auto& q = info.param;
      std::string name = "g";
      name += std::to_string(q.rows);
      name += "x";
      name += std::to_string(q.cols);
      name += "_n";
      name += std::to_string(q.n);
      name += "_y";
      name += std::to_string(q.ymax);
      name += "_s";
      name += std::to_string(q.seed);
      return name;
    });

TEST(Exact, QuasiMonotoneInPeriod) {
  // A mapping feasible at T stays feasible at T' > T, its dynamic energy is
  // unchanged and its leakage grows by |A| * P_leak * (T' - T); hence
  // E*(T') <= E*(T) + cores * P_leak * (T' - T).  (Plain monotonicity is
  // false: leakage scales with the period.)
  util::Rng rng(66);
  spg::Spg g = spg::random_spg(6, 2, rng);
  g.rescale_ccr(10);
  const auto p = cmp::Platform::reference(2, 2);
  double prev_e = std::numeric_limits<double>::infinity();
  double prev_t = 0.0;
  for (const double T : {0.3, 0.6, 1.2, 2.4}) {
    const double scaled_T = T * g.total_work() / (4 * 1e9);
    const heuristics::Result r = heuristics::ExactSolver().run(g, p, scaled_T);
    if (!r.success) continue;
    if (std::isfinite(prev_e)) {
      const double slack =
          p.grid().core_count() * p.speeds.leak_power() * (scaled_T - prev_t);
      EXPECT_LE(r.eval.energy, prev_e + slack * (1 + 1e-9)) << "T=" << scaled_T;
    }
    prev_e = r.eval.energy;
    prev_t = scaled_T;
  }
}

TEST(Exact, RefusesOversizedInstances) {
  util::Rng rng(1);
  const spg::Spg g = spg::random_spg(20, 3, rng);
  const auto p = cmp::Platform::reference(2, 2);
  EXPECT_FALSE(heuristics::ExactSolver().run(g, p, 1.0).success);
  const spg::Spg small = spg::chain(4);
  const auto big = cmp::Platform::reference(4, 4);
  EXPECT_FALSE(heuristics::ExactSolver().run(small, big, 1.0).success);
}

TEST(AllHeuristics, StreamItSmoke) {
  // Every benchmark of the suite must be solvable by at least one heuristic
  // at T = 1 s (the paper's starting point for the period search).
  const auto p = cmp::Platform::reference(4, 4);
  for (const auto& info : spg::streamit_table()) {
    const spg::Spg g = spg::make_streamit(info);
    const auto c = harness::run_at_period(g, p, solve::SolverSet::paper(), 1.0);
    std::size_t ok = 0;
    for (std::size_t h = 0; h < c.results.size(); ++h) {
      if (c.results[h].success) {
        ++ok;
        EXPECT_TRUE(c.results[h].eval.valid()) << info.name << "/" << c.names[h];
      }
    }
    EXPECT_GE(ok, 1u) << info.name;
  }
}

}  // namespace
