#pragma once

// Experiment harness — Section 6.1.3 and the sweep drivers behind every
// table and figure of Section 6.2.
//
// Period-bound selection follows the paper: start at T = 1 s (at least one
// heuristic succeeds there for all studied workloads), divide by 10 until
// *all* heuristics fail, and retain the penultimate value.  The heuristics
// are then compared at that retained bound; individual failures at the
// retained bound are what Tables 2 and 3 count.
//
// The line-up is always a solve::SolverSet (registry spec strings); every
// solve goes through solve::run.  The Section 4.4 ILP is not part of any
// line-up: it has no linked solver, and `spgcmp_cli ilp` exports it.

#include <cstddef>
#include <string>
#include <vector>

#include "cmp/cmp.hpp"
#include "heuristics/heuristic.hpp"
#include "solve/solve.hpp"
#include "spg/spg.hpp"

namespace spgcmp::harness {

/// Outcome of one workload at the retained period bound.
struct Campaign {
  double period = 0.0;                       ///< retained T
  std::vector<std::string> names;            ///< heuristic names, in order
  std::vector<heuristics::Result> results;   ///< one per heuristic
  std::vector<solve::SolveStats> stats;      ///< per heuristic, at retained T

  /// Minimum energy among successful heuristics; 0 when all failed.
  [[nodiscard]] double best_energy() const;
  /// Energy of heuristic h divided by best_energy(); 0 when h failed.
  [[nodiscard]] double normalized_energy(std::size_t h) const;
  /// best_energy() / energy(h) — the "1/E" normalization of Figs 10-13.
  [[nodiscard]] double normalized_inverse_energy(std::size_t h) const;
  [[nodiscard]] std::size_t success_count() const;
};

struct PeriodSearchOptions {
  double start = 1.0;     ///< initial period bound (s)
  double factor = 10.0;   ///< division factor per step
  double floor = 1e-12;   ///< defensive stop
  int max_upscale = 6;    ///< if nothing succeeds at start, multiply up
};

/// Run every solver of the set with the paper's period-bound search.  The
/// set is instantiated once per call and reused at every step.
[[nodiscard]] Campaign run_campaign(const spg::Spg& g, const cmp::Platform& p,
                                    const solve::SolverSet& solvers,
                                    const PeriodSearchOptions& opt = {});

/// Run every solver of the set at a fixed period bound.
[[nodiscard]] Campaign run_at_period(const spg::Spg& g, const cmp::Platform& p,
                                     const solve::SolverSet& solvers, double T);

/// Averaged sweep cell used by the random-SPG figures: for each heuristic,
/// the mean normalized 1/E over a batch of workloads plus failure counts.
struct SweepCell {
  std::vector<double> mean_inverse_energy;  ///< per heuristic
  std::vector<std::size_t> failures;        ///< per heuristic
  std::size_t workloads = 0;
};

}  // namespace spgcmp::harness
