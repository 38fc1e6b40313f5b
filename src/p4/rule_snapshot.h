// Immutable, versioned rule state — the unit of RCU-style publication.
//
// Everything a data-plane reader needs to classify a packet (the entry set,
// the compiled tuple-space index over it, the default action, the
// malformed-frame policy and the active lookup backend) lives in one
// immutable RuleSnapshot held through shared_ptr<const RuleSnapshot>.
// Writers never mutate a published snapshot: every table mutation builds a
// fresh snapshot from the complete entry set and publishes the new pointer;
// readers pin a snapshot for a batch/chunk and keep serving the old rules
// until they adopt the new pointer at a chunk boundary. This is what
// makes live rule swaps hitless — there is no instant at which a reader can
// observe a half-installed rule set.
//
// Versions come from one process-wide monotonic counter, so two snapshots
// with different rule content can never share a version. That lets the
// flow-verdict cache keep using "epoch != version → invalidate", even when a
// table adopts a snapshot that was built by a different owner (the engine's
// control table, a controller candidate switch). Backend and policy changes
// reuse the parent's version because they are verdict-preserving.
//
// Hit counters do NOT live in the snapshot (they are mutable, per-reader
// state). Each reader keeps one counter shard per version: adopting a new
// version archives the outgoing shard (MatchActionTable::hits_for_version)
// and counting restarts at zero, so credit stays attributable to the exact
// rule set that earned it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "p4/ir.h"
#include "p4/match_engine.h"

namespace p4iot::p4 {

/// How the pipeline treats frames too short to contain every parser field
/// (the parser would otherwise fabricate zero bytes for the missing tail).
/// Whatever the policy, the verdict is *defined* — adversarial truncation
/// can never push the switch into unspecified behaviour. The policy is part
/// of the rule snapshot: it swaps atomically with the rules it protects.
enum class MalformedPolicy : std::uint8_t {
  kZeroPad = 0,     ///< legacy: extract zero-padded values, match normally
  kFailClosed = 1,  ///< drop without consulting the table or the rate guard
  kFailOpen = 2,    ///< permit without consulting the table or the rate guard
};

const char* malformed_policy_name(MalformedPolicy policy) noexcept;

/// Next value of the process-wide rule-version counter (thread-safe).
std::uint64_t next_rule_version() noexcept;

struct RuleSnapshot {
  /// Process-unique epoch of this rule set (see next_rule_version()).
  /// Verdict-preserving derivations (backend/policy changes) keep the
  /// parent's version so caches keyed to it stay valid.
  std::uint64_t version = 0;

  /// Key schema, shared across every snapshot of one table lineage.
  std::shared_ptr<const std::vector<KeySpec>> keys;
  std::vector<TableEntry> entries;  ///< kept sorted by priority desc
  ActionOp default_action = ActionOp::kPermit;
  MalformedPolicy malformed_policy = MalformedPolicy::kZeroPad;
  MatchBackend backend = MatchBackend::kLinear;
  /// Tuple-space index over `entries`; set iff backend == kCompiled.
  std::shared_ptr<const CompiledMatchEngine> compiled;

  /// Winning entry index for `values` under the active backend, or
  /// CompiledMatchEngine::knpos for the default action. Const and
  /// side-effect-free: safe from any number of reader threads.
  std::size_t find(std::span<const std::uint64_t> values) const;
};

}  // namespace p4iot::p4
