#pragma once

// Typed option bags for registry solvers.
//
// A solver spec is a name plus an optional parenthesised `key=value` list:
//
//   exact(cap=9, candidates=100000)
//   random(trials=20)
//   anneal(init=exact(cap=9), iters=400)
//
// Values may themselves carry balanced parentheses (nested solver specs,
// as in anneal's `init=`), and commas inside them do not split.  Parsing is
// strict — duplicate keys, empty keys and unbalanced parentheses are
// SolverError — and every diagnostic names the owning solver, so failures
// surface identically whether the spec came from a CLI flag, a campaign
// spec line or a test.
//
// The registry checks the parsed keys against the solver's declared
// OptionDescs before the factory runs, so factories only ever read options
// they declared and unknown-option messages are uniform across solvers.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spgcmp::solve {

/// Unknown solver, unknown option or malformed option value.  Tools catch
/// this to print the registry listing and exit 2.
class SolverError : public std::runtime_error {
 public:
  explicit SolverError(const std::string& what) : std::runtime_error(what) {}
};

/// One declared option of a registered solver, for listings and the
/// unknown-option check.
struct OptionDesc {
  std::string name;
  std::string fallback;  ///< default value rendered in listings
  std::string help;
};

class SolverOptions {
 public:
  SolverOptions() = default;

  /// Parse the inside of `name(...)`.  `owner` names the solver in every
  /// diagnostic this bag later produces.
  [[nodiscard]] static SolverOptions parse(std::string owner,
                                           std::string_view text);

  [[nodiscard]] const std::string& owner() const noexcept { return owner_; }
  [[nodiscard]] bool has(std::string_view key) const noexcept;

  /// Typed lookups; all throw SolverError naming the solver and key on
  /// malformed values.
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string fallback) const;
  [[nodiscard]] std::int64_t get_int(std::string_view key,
                                     std::int64_t fallback) const;
  [[nodiscard]] std::int64_t get_int_in(std::string_view key,
                                        std::int64_t fallback, std::int64_t lo,
                                        std::int64_t hi) const;
  [[nodiscard]] double get_double(std::string_view key, double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;

  /// Reject keys outside `allowed`, listing the declared option names.
  void check_known(const std::vector<OptionDesc>& allowed) const;

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  entries() const noexcept {
    return kv_;
  }

 private:
  [[nodiscard]] const std::string* find(std::string_view key) const noexcept;
  [[noreturn]] void bad_value(std::string_view key, const std::string& value,
                              const std::string& expected) const;

  std::string owner_;
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// Split a comma-separated solver list at depth 0 (commas inside
/// parentheses belong to option lists, not the list), trimming whitespace
/// and dropping empty items.
[[nodiscard]] std::vector<std::string> split_solver_list(std::string_view csv);

namespace detail {

/// Shared low-level spec scanning, used by the options parser and the
/// registry's '+'-chain splitter so whitespace and nesting rules cannot
/// diverge between the two.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Split `text` on `sep` at parenthesis depth 0; unbalanced parentheses
/// throw SolverError naming `what`.
[[nodiscard]] std::vector<std::string_view> split_depth0(std::string_view text,
                                                         char sep,
                                                         const std::string& what);

}  // namespace detail

}  // namespace spgcmp::solve
