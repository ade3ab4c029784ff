#include "harness/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

namespace spgcmp::harness {

double Campaign::best_energy() const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& r : results) {
    if (r.success) best = std::min(best, r.eval.energy);
  }
  return std::isfinite(best) ? best : 0.0;
}

double Campaign::normalized_energy(std::size_t h) const {
  const double best = best_energy();
  if (best <= 0 || !results[h].success) return 0.0;
  return results[h].eval.energy / best;
}

double Campaign::normalized_inverse_energy(std::size_t h) const {
  const double best = best_energy();
  if (best <= 0 || !results[h].success) return 0.0;
  return best / results[h].eval.energy;
}

std::size_t Campaign::success_count() const {
  std::size_t c = 0;
  for (const auto& r : results) c += r.success;
  return c;
}

namespace {

using Solvers = std::vector<std::unique_ptr<heuristics::Heuristic>>;

Campaign run_solvers(const spg::Spg& g, const cmp::Platform& p,
                     const Solvers& solvers, double T) {
  Campaign c;
  c.period = T;
  c.names.reserve(solvers.size());
  c.results.reserve(solvers.size());
  c.stats.reserve(solvers.size());
  solve::SolveRequest req;
  req.spg = &g;
  req.platform = &p;
  req.period = T;
  for (const auto& h : solvers) {
    c.names.push_back(h->name());
    auto report = solve::run(*h, req);
    c.results.push_back(std::move(report.result));
    c.stats.push_back(report.stats);
  }
  return c;
}

}  // namespace

Campaign run_at_period(const spg::Spg& g, const cmp::Platform& p,
                       const solve::SolverSet& solvers, double T) {
  return run_solvers(g, p, solvers.instantiate(), T);
}

Campaign run_campaign(const spg::Spg& g, const cmp::Platform& p,
                      const solve::SolverSet& solvers,
                      const PeriodSearchOptions& opt) {
  const Solvers hs = solvers.instantiate();
  double T = opt.start;
  Campaign cur = run_solvers(g, p, hs, T);

  // Defensive: if even T = 1 s is infeasible for every heuristic, scale up
  // (does not happen for the paper's parameterizations; needed for
  // user-supplied extreme workloads).
  for (int up = 0; cur.success_count() == 0 && up < opt.max_upscale; ++up) {
    T *= opt.factor;
    cur = run_solvers(g, p, hs, T);
  }
  if (cur.success_count() == 0) return cur;  // give up; caller sees failures

  // Tighten until everything fails; keep the penultimate campaign.
  for (;;) {
    const double next_T = T / opt.factor;
    if (next_T < opt.floor) break;
    Campaign next = run_solvers(g, p, hs, next_T);
    if (next.success_count() == 0) break;
    T = next_T;
    cur = std::move(next);
  }
  return cur;
}

}  // namespace spgcmp::harness
