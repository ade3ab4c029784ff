#pragma once

// Parallel experiment-sweep engine.
//
// Every table and figure of Section 6.2 is an aggregation over independent
// (workload, platform, period-search) campaigns.  The engine batches those
// campaigns through util::ThreadPool — one loop, run_task_slice, over
// seeded generation tasks and a solve::SolverSet — with three guarantees:
//
//   1. Deterministic per-instance seeding: instance w of a batch draws all
//      randomness from Rng(instance_seed(seed_base, w)), never from shared
//      generator state, so which thread runs it is irrelevant.
//   2. Thread-count independence: results are stored by instance index and
//      aggregated in index order, so a 1-thread and an 8-thread run produce
//      byte-identical output.
//   3. Structured emission: a BenchReport collects named cells and writes a
//      BENCH_<name>.json document for downstream tooling, alongside the
//      console tables the bench binaries already print.
//
// A sweep's line-up is a registry solver set.  The Section 4.4 ILP is not
// one of its solvers: it is the `spgcmp_cli ilp` subcommand.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "util/rng.hpp"

namespace spgcmp::harness {

struct SweepEngineOptions {
  std::size_t threads = 0;          ///< 0 = hardware concurrency
  PeriodSearchOptions period{};     ///< period-bound search parameters
};

/// Deterministic seed for instance `index` of stream `base` (splitmix64
/// over the pair; avalanche on both inputs so adjacent indices decorrelate).
[[nodiscard]] std::uint64_t instance_seed(std::uint64_t base,
                                          std::uint64_t index) noexcept;

/// The number of worker threads a sweep will actually run on: `threads`
/// itself when positive, hardware concurrency (at least 1) when 0.  This is
/// the single normalization point for every `--threads` flag — shard
/// runners and bench binaries call it instead of each re-interpreting 0.
[[nodiscard]] std::size_t normalize_threads(std::size_t threads) noexcept;

class SweepEngine {
 public:
  explicit SweepEngine(SweepEngineOptions opt = {}) : opt_(opt) {}

  [[nodiscard]] const SweepEngineOptions& options() const noexcept { return opt_; }

  /// One explicitly-seeded generation task: a batch of generated workloads
  /// is a vector of these, instance w seeded with instance_seed(base, w),
  /// or with seeds that stay stable when a grid is subset (the flattened
  /// (ccr, elevation, workload) batches behind Figures 10-13).
  struct GeneratedTask {
    std::uint64_t seed = 0;
    std::function<spg::Spg(util::Rng&)> make;
  };

  /// The sweep loop: run a period-search campaign for tasks [begin, end)
  /// of a batch, task t on the workload it builds from Rng(t.seed), each
  /// with fresh solver instances of `solvers`.  Returns their campaigns
  /// in task order (result[0] is task `begin`).  Results are independent
  /// of the thread count and of how the batch is cut into slices, which is
  /// what lets a resumed campaign skip completed shards and still merge
  /// byte-identically.
  [[nodiscard]] std::vector<Campaign> run_task_slice(
      const std::vector<GeneratedTask>& tasks, std::size_t begin, std::size_t end,
      const cmp::Platform& p, const solve::SolverSet& solvers) const;

  /// Fold a batch of campaigns into the figure aggregate (mean normalized
  /// 1/E and failure counts per heuristic), in index order.  The pointer
  /// form aggregates a slice of a larger batch without copying it.
  [[nodiscard]] static SweepCell aggregate(const Campaign* campaigns,
                                           std::size_t count);
  [[nodiscard]] static SweepCell aggregate(const std::vector<Campaign>& campaigns) {
    return aggregate(campaigns.data(), campaigns.size());
  }

 private:
  SweepEngineOptions opt_;
};

// ------------------------------------------------------------------------
// Structured bench output (BENCH_*.json).

/// One result cell: a labelled row of per-heuristic values.
struct BenchCell {
  /// Ordered label pairs identifying the cell, e.g. {{"ccr","10"},
  /// {"elevation","5"}} or {{"app","FMRadio"},{"ccr","original"}}.
  std::vector<std::pair<std::string, std::string>> labels;
  double period = 0.0;                 ///< retained period; 0 when averaged
  std::vector<double> values;          ///< per heuristic (metric in `metric`)
  std::vector<std::size_t> failures;   ///< per heuristic
  std::size_t workloads = 1;           ///< instances aggregated into this cell
};

/// A full bench result destined for BENCH_<name>.json.
struct BenchReport {
  std::string name;                    ///< e.g. "fig8_streamit_4x4"
  std::string metric;                  ///< e.g. "normalized_energy"
  std::vector<std::pair<std::string, std::string>> meta;  ///< grid, apps, ...
  std::vector<std::string> heuristics;
  std::vector<BenchCell> cells;

  /// Serialize as a stable, pretty-printed JSON document.
  void write_json(std::ostream& os) const;

  /// Write to `<dir>/BENCH_<name>.json`; returns the path written.
  [[nodiscard]] std::string write_json_file(const std::string& dir) const;
};

/// Build a cell from a finished campaign using the figures' metrics.
[[nodiscard]] BenchCell cell_from_campaign(
    std::vector<std::pair<std::string, std::string>> labels, const Campaign& c);

/// Build a cell from a sweep aggregate (mean normalized 1/E).
[[nodiscard]] BenchCell cell_from_sweep(
    std::vector<std::pair<std::string, std::string>> labels, const SweepCell& s);

}  // namespace spgcmp::harness
