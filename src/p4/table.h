// Match-action table with a TCAM resource model.
//
// Entries are priority-ordered (highest first); lookup returns the first
// matching entry's action. The TCAM model accounts entries against a
// capacity budget and reports total key width, the figures of merit for the
// paper's "efficiency" axis.
//
// Rule-state ownership (see p4/rule_snapshot.h): the table's match semantics
// — entries, compiled index, default action, backend, malformed policy —
// live in an immutable RuleSnapshot behind a shared_ptr. Every entry
// mutation takes one path: validate, build a fresh snapshot (and its
// compiled index) from the complete entry set, publish the pointer.
// snapshot() hands the current pointer to other threads, and
// adopt_snapshot() installs a snapshot built elsewhere (the engine's control
// table, a controller candidate) without rebuilding it. Per-entry hit
// counters are the table's own mutable shard, one per rule version: a
// version change archives the outgoing shard and counting restarts at zero,
// so credit recorded against retired rule sets stays queryable through
// hits_for_version().
//
// Threading contract: mutators and counter updates (lookup/record_hit) are
// single-writer, owner-thread only — exactly as before. snapshot() and
// adopt_snapshot() synchronize on an internal mutex and are safe against
// each other from any thread; concurrent readers of a snapshot never race
// because snapshots are immutable.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "p4/ir.h"
#include "p4/match_engine.h"
#include "p4/rule_snapshot.h"

namespace p4iot::p4 {

/// Error codes for runtime table writes (status-style: table writes are
/// expected to fail when the TCAM budget is exhausted).
enum class TableWriteStatus : std::uint8_t {
  kOk = 0,
  kTableFull = 1,
  kKeyMismatch = 2,    ///< entry field count != key count
  kInvalidField = 3,   ///< value wider than the key / malformed range or lpm mask
};

const char* table_write_status_name(TableWriteStatus status) noexcept;

struct LookupResult {
  ActionOp action = ActionOp::kPermit;
  std::int64_t entry_index = -1;  ///< -1 = default action
};

class MatchActionTable {
 public:
  MatchActionTable() : MatchActionTable("table", {}, 1024) {}
  MatchActionTable(std::string name, std::vector<KeySpec> keys, std::size_t capacity,
                   ActionOp default_action = ActionOp::kPermit);

  // Movable (the controller retires whole switches); the internal mutex is
  // not moved — moves require both tables to be externally quiesced.
  MatchActionTable(MatchActionTable&& other) noexcept;
  MatchActionTable& operator=(MatchActionTable&& other) noexcept;

  /// Replace the whole entry set atomically (controller reconfigurations).
  /// Entries are stable-sorted by priority, highest first. The mutators
  /// below are wrappers that compute the next entry set and call this.
  TableWriteStatus replace_entries(std::vector<TableEntry> entries);
  TableWriteStatus add_entry(TableEntry entry);
  bool remove_entry(std::size_t index);
  void clear();

  /// Match extracted key values against the entries; updates hit counters.
  LookupResult lookup(std::span<const std::uint64_t> values);
  /// Const lookup without counter updates (analysis passes).
  LookupResult peek(std::span<const std::uint64_t> values) const;
  /// Credit a hit to `entry_index` (-1 = default action) without scanning —
  /// used by the flow-verdict cache so cached hits keep the counters
  /// identical to what a full priority scan would have recorded.
  void record_hit(std::int64_t entry_index) noexcept;

  /// Version of the installed rule set: moves on every successful mutation
  /// of the match semantics (add/remove/replace/clear/default action).
  /// Caches key their contents to a version and drop them when it moves.
  /// Values come from a process-wide monotonic counter, so they also move
  /// when adopt_snapshot() installs a foreign rule set.
  std::uint64_t version() const noexcept { return snap_->version; }

  /// Select the lookup implementation: the priority-ordered linear scan
  /// (reference oracle) or the tuple-space compiled index. Switching never
  /// changes verdicts or counters — only lookup cost — so the table version
  /// does not move. The compiled index is rebuilt with every new snapshot.
  void set_match_backend(MatchBackend backend);
  MatchBackend match_backend() const noexcept { return snap_->backend; }
  /// Compiled index introspection; nullptr while the backend is linear.
  const CompiledMatchEngine* compiled_index() const noexcept {
    return snap_->backend == MatchBackend::kCompiled ? snap_->compiled.get()
                                                     : nullptr;
  }

  /// Malformed-frame policy carried with the rule set (the owning switch
  /// reads it per packet; it swaps atomically with the rules). No version
  /// bump: the policy only affects frames that bypass the table entirely.
  void set_malformed_policy(MalformedPolicy policy);
  MalformedPolicy malformed_policy() const noexcept {
    return snap_->malformed_policy;
  }

  /// Current snapshot pointer — safe to call from any thread and to keep
  /// across later mutations (the snapshot is immutable; mutators publish
  /// fresh ones). This is the reader half of the RCU protocol.
  std::shared_ptr<const RuleSnapshot> snapshot() const;
  /// Install a snapshot built elsewhere (writer half of a live swap). Like
  /// every version change, it archives the local hit-counter shard under
  /// the outgoing version (see hits_for_version) and counting restarts.
  void adopt_snapshot(std::shared_ptr<const RuleSnapshot> snap);

  const std::string& name() const noexcept { return name_; }
  const std::vector<KeySpec>& keys() const noexcept { return *snap_->keys; }
  std::size_t entry_count() const noexcept { return snap_->entries.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  ActionOp default_action() const noexcept { return snap_->default_action; }
  void set_default_action(ActionOp action);

  const std::vector<TableEntry>& entries() const noexcept { return snap_->entries; }
  std::uint64_t hit_count(std::size_t entry_index) const;
  std::uint64_t default_hits() const noexcept { return default_hits_; }
  /// Per-entry hits recorded against a specific snapshot version: the live
  /// shard when `version` is current, else the archived shard retired by
  /// the version change that replaced it (zero when unknown or aged out).
  /// This is how counter credit stays attributable across a hitless swap.
  std::uint64_t hits_for_version(std::uint64_t version, std::size_t entry_index) const;
  std::uint64_t default_hits_for_version(std::uint64_t version) const;
  void reset_counters();

  /// Key width in bits (TCAM slice width).
  std::size_t key_bits() const noexcept;
  /// TCAM bit cost: entries × 2 × key width (value + mask planes).
  std::size_t tcam_bits() const noexcept {
    return snap_->entries.size() * 2 * key_bits();
  }

 private:
  /// Archived counter shards for the most recently retired rule versions.
  struct RetiredShard {
    std::uint64_t version = 0;
    std::vector<std::uint64_t> hits;
    std::uint64_t default_hits = 0;
  };
  static constexpr std::size_t kMaxRetiredShards = 4;

  TableWriteStatus validate(const TableEntry& entry) const;
  /// Archive and restart the counter shard if `next` is a new version, then
  /// publish the pointer under the snapshot mutex.
  void publish(std::shared_ptr<const RuleSnapshot> next);

  std::string name_ = "table";
  std::size_t capacity_ = 1024;
  /// Current snapshot. Owner-thread reads skip the mutex (the owner is the
  /// only publisher); cross-thread access goes through snapshot()/
  /// adopt_snapshot(), which lock snap_mutex_.
  std::shared_ptr<const RuleSnapshot> snap_;
  mutable std::mutex snap_mutex_;

  std::vector<std::uint64_t> hits_;  ///< parallel to snap_->entries
  std::uint64_t default_hits_ = 0;
  std::vector<RetiredShard> retired_;  ///< oldest first, capped
};

}  // namespace p4iot::p4
