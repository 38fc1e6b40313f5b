// Compiled TCAM match engine: tuple-space pre-classification of table
// entries.
//
// The naive MatchActionTable::lookup is a priority-ordered linear scan — the
// correct reference semantics, but O(entries) per cache-miss lookup, which
// collapses at the 10k-100k rule counts a deployed gateway carries. Real
// classifiers (tuple space search, pForest-style compiled stages) exploit
// that rule sets reuse a handful of mask shapes: partition entries into
// groups keyed by their per-field mask/prefix signature, and within a group
// a lookup is a single masked-exact hash probe instead of a scan.
//
// Signature per field (kinds are fixed per table key, so only masks vary):
//   exact   → the field's full-width mask (one shared signature)
//   ternary → the entry's mask (each distinct mask is its own group)
//   lpm     → the prefix mask (each prefix length is its own group —
//             the per-length hash maps of classical LPM, probed in
//             priority order rather than longest-first because the table's
//             tie-break is priority, not prefix length)
//   range   → excluded from the hash; verified per candidate in the
//             group's residual scan
//
// Groups are probed in ascending order of their best (lowest) entry index —
// entries are priority-sorted, so the group whose best entry has the lowest
// index holds the highest-priority candidate, and the probe loop terminates
// as soon as every remaining group's best possible match is worse than the
// best hit found. Bucket collisions and range fields fall back to a short
// residual scan over the candidate indices, each verified with the exact
// reference predicate — the compiled path can therefore never return a
// different winner than the linear scan (the property-based differential
// suite in tests/p4/match_property_test.cpp proves it on random rule sets).
//
// The index is an immutable value built once from a complete entry set:
// every rule mutation publishes a fresh RuleSnapshot (p4/rule_snapshot.h)
// and builds the index for it, so there is no in-place maintenance.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "p4/ir.h"

namespace p4iot::p4 {

/// Which implementation resolves table lookups.
enum class MatchBackend : std::uint8_t {
  kLinear = 0,    ///< priority-ordered linear scan (reference oracle)
  kCompiled = 1,  ///< tuple-space compiled index (this file)
};

const char* match_backend_name(MatchBackend backend) noexcept;
std::optional<MatchBackend> parse_match_backend(std::string_view name) noexcept;

class CompiledMatchEngine {
 public:
  static constexpr std::size_t knpos = static_cast<std::size_t>(-1);

  /// Index `entries` (priority-sorted, as a table holds them) under `keys`.
  CompiledMatchEngine(std::vector<KeySpec> keys, std::span<const TableEntry> entries);

  /// Index of the highest-priority entry matching `values` (lowest table
  /// index, identical winner to the linear scan), or knpos for none.
  /// `entries` must be the set the index was built from.
  std::size_t find(std::span<const std::uint64_t> values,
                   std::span<const TableEntry> entries) const;

  /// Tuple-space groups (distinct mask signatures) in the index.
  std::size_t group_count() const noexcept { return groups_.size(); }

 private:
  struct Group {
    std::vector<std::uint64_t> masks;  ///< per-field hash mask (range → 0)
    std::size_t min_index = knpos;     ///< lowest (best-priority) entry index
    /// Masked-tuple hash → candidate entry indices, ascending. Collisions
    /// are resolved by verifying each candidate with entry_matches().
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
  };

  std::vector<KeySpec> keys_;
  std::vector<Group> groups_;  ///< probe order: min_index ascending
};

}  // namespace p4iot::p4
