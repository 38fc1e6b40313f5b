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
// The index rebuilds incrementally on single-entry table writes (indices
// shift, the new entry joins its group) and fully on bulk replace/clear,
// keyed to the same MatchActionTable::version() epoch that invalidates the
// flow-verdict cache.
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

struct CompiledIndexStats {
  std::size_t groups = 0;           ///< live tuple-space groups
  std::size_t indexed_entries = 0;  ///< entries currently indexed
  std::uint64_t full_rebuilds = 0;
  std::uint64_t incremental_inserts = 0;
  std::uint64_t incremental_erases = 0;
};

class CompiledMatchEngine {
 public:
  static constexpr std::size_t knpos = static_cast<std::size_t>(-1);

  explicit CompiledMatchEngine(std::vector<KeySpec> keys);

  /// Rebuild the whole index from `entries` (bulk replace/clear/initial
  /// build). `version` is the owning table's epoch at build time.
  void rebuild(std::span<const TableEntry> entries, std::uint64_t version);

  /// Entry at `index` was just inserted; `entries` is the post-insert set.
  /// Stored indices >= index shift up and the new entry joins its group.
  void on_insert(std::span<const TableEntry> entries, std::size_t index,
                 std::uint64_t version);
  /// Entry at `index` is about to be removed; `entries` is the pre-erase
  /// set. The entry leaves its group and stored indices > index shift down.
  void on_erase(std::span<const TableEntry> entries, std::size_t index,
                std::uint64_t version);

  /// Index of the highest-priority entry matching `values` (lowest table
  /// index, identical winner to the linear scan), or knpos for none.
  std::size_t find(std::span<const std::uint64_t> values,
                   std::span<const TableEntry> entries) const;

  /// Table epoch the index was last synchronized to.
  std::uint64_t synced_version() const noexcept { return synced_version_; }
  const CompiledIndexStats& stats() const noexcept { return stats_; }
  std::size_t group_count() const noexcept { return stats_.groups; }

 private:
  struct Group {
    std::vector<std::uint64_t> masks;  ///< per-field hash mask (range → 0)
    std::size_t min_index = knpos;     ///< lowest (best-priority) entry index
    /// Masked-tuple hash → candidate entry indices, ascending. Collisions
    /// are resolved by verifying each candidate with entry_matches().
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
  };

  std::vector<std::uint64_t> entry_signature(const TableEntry& entry) const;
  std::uint64_t hash_masked(std::span<const std::uint64_t> values,
                            std::span<const std::uint64_t> masks) const noexcept;
  std::uint64_t entry_hash(const TableEntry& entry,
                           std::span<const std::uint64_t> masks) const noexcept;
  /// Group with exactly `masks`, creating it if absent; returns its id.
  std::size_t group_for(std::vector<std::uint64_t> masks);
  void refresh_min_index(Group& group) noexcept;
  void sort_probe_order();

  std::vector<KeySpec> keys_;
  std::vector<Group> groups_;             ///< stable ids; may contain dead slots
  std::vector<std::uint32_t> probe_order_;  ///< live group ids by min_index asc
  /// Signature hash → group ids with that hash (verified by mask compare).
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> signature_index_;
  std::uint64_t synced_version_ = 0;
  CompiledIndexStats stats_;
};

}  // namespace p4iot::p4
