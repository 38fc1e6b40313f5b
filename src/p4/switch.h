// Behavioural-model-style software P4 switch.
//
// Executes a P4Program against packets: parse (extract fields) → firewall
// table lookup → action. Tracks per-verdict statistics and mirrors packets
// flagged kMirror to a controller callback (the punt path real gateways use
// for retraining samples).
//
// Two hot-path accelerations, both verdict-preserving:
//   * an optional exact-match flow-verdict cache in front of the TCAM
//     priority scan (see p4/flow_cache.h) — a cache hit skips the linear
//     scan entirely and credits the same per-entry hit counter the scan
//     would have; any rule mutation invalidates it via the table version;
//   * process_batch(), which amortizes per-packet overhead and feeds the
//     multi-worker DataplaneEngine (see p4/engine.h).
//
// process() has one classification body (malformed short-circuit, cached
// lookup, attack-class read, rate guard); sampled stage timing is a
// compile-time branch inside it. peek() is a separate, counter-free
// implementation kept on purpose: it is the reference the differential
// tests and the benchmark's verdict check compare process() against.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/telemetry.h"
#include "p4/flow_cache.h"
#include "p4/ir.h"
#include "p4/rate_guard.h"
#include "p4/table.h"
#include "packet/packet.h"

namespace p4iot::p4 {

// MalformedPolicy and malformed_policy_name live in p4/rule_snapshot.h now
// (the policy is part of the immutable rule snapshot, so it swaps atomically
// with the rules); this header re-exports them through its includes.

struct SwitchStats {
  std::uint64_t packets = 0;
  std::uint64_t permitted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t mirrored = 0;
  std::uint64_t rate_guard_drops = 0;  ///< subset of dropped
  std::uint64_t malformed = 0;  ///< frames shorter than the parser's fields
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_forwarded = 0;
  /// Drops attributed per attack-class tag of the matching entry (telemetry
  /// a controller reads to know *what* is being blocked, not just how much).
  std::uint64_t drops_by_class[16] = {};
};

struct Verdict {
  ActionOp action = ActionOp::kPermit;
  std::int64_t entry_index = -1;
  std::uint8_t attack_class = 0;  ///< matching entry's class tag (0 = none)
  bool malformed = false;  ///< frame was short of the parser's field extent
  bool forwarded() const noexcept { return action != ActionOp::kDrop; }
};

class P4Switch {
 public:
  /// `table_capacity` is the TCAM entry budget for the firewall table.
  explicit P4Switch(P4Program program, std::size_t table_capacity = 1024);

  /// Process one packet through the pipeline.
  Verdict process(const pkt::Packet& packet);
  /// Process a batch; verdicts come back in packet order. Identical to
  /// calling process() per packet (proven by tests), cheaper in bulk.
  std::vector<Verdict> process_batch(std::span<const pkt::Packet> batch);
  void process_batch(std::span<const pkt::Packet> batch, std::span<Verdict> out);
  /// Process without touching statistics or counters (analysis/what-if).
  Verdict peek(const pkt::Packet& packet) const;

  /// Runtime API (the controller's southbound interface).
  TableWriteStatus install_entry(TableEntry entry) {
    return table_.add_entry(std::move(entry));
  }
  TableWriteStatus install_rules(std::vector<TableEntry> entries) {
    return table_.replace_entries(std::move(entries));
  }
  void set_default_action(ActionOp action) { table_.set_default_action(action); }
  void clear_rules() { table_.clear(); }

  /// Install a rule snapshot built elsewhere (the engine's control plane or
  /// a controller candidate switch) without rebuilding it: entries, compiled
  /// index, default action, backend and malformed policy all swap in one
  /// pointer publication, and this switch's hit-counter shard is carried or
  /// retired per the snapshot's provenance (see MatchActionTable). The flow
  /// cache notices the version change on the next packet and invalidates —
  /// this is the hitless-swap entry point.
  void adopt_rules(std::shared_ptr<const RuleSnapshot> snap) {
    table_.adopt_snapshot(std::move(snap));
  }

  /// Lookup implementation for cache-miss/uncached packets: the linear
  /// priority scan (default — the faithful reference model) or the
  /// tuple-space compiled index (see p4/match_engine.h). Verdict-identical
  /// by construction; sampled scan latency lands in the
  /// `p4iot_switch_tcam_scan_ns{path="compiled"}` histogram instead of the
  /// unlabelled linear one.
  void set_match_backend(MatchBackend backend) { table_.set_match_backend(backend); }
  MatchBackend match_backend() const noexcept { return table_.match_backend(); }

  /// Mirror sink: invoked for packets whose matching action is kMirror.
  using MirrorHandler = std::function<void(const pkt::Packet&)>;
  void set_mirror_handler(MirrorHandler handler) { mirror_ = std::move(handler); }

  /// Optional stateful stage after the firewall table: packets the table
  /// permits are counted in a sketch keyed on the guard's fields; keys
  /// whose per-epoch estimate crosses the threshold get the guard's action.
  /// The guard runs behind the flow cache (per packet, never memoized).
  void set_rate_guard(RateGuardSpec spec) { rate_guard_.emplace(std::move(spec)); }
  void clear_rate_guard() { rate_guard_.reset(); }
  const RateGuard* rate_guard() const noexcept {
    return rate_guard_ ? &*rate_guard_ : nullptr;
  }

  /// Malformed-frame policy (default kZeroPad, the historical behaviour).
  /// Under kFailClosed/kFailOpen malformed frames bypass the table, the
  /// flow cache and the rate guard and take the policy's fixed verdict.
  /// Stored in the rule snapshot, so it travels with rule swaps.
  void set_malformed_policy(MalformedPolicy policy) {
    table_.set_malformed_policy(policy);
  }
  MalformedPolicy malformed_policy() const noexcept {
    return table_.malformed_policy();
  }
  /// Frames shorter than this are malformed (parser field extent).
  std::size_t min_frame_bytes() const noexcept { return min_frame_bytes_; }

  /// Flow-verdict cache (off by default to keep the single-packet model
  /// faithful to an uncached TCAM; the DataplaneEngine turns it on).
  void enable_flow_cache(std::size_t capacity = 4096);
  void disable_flow_cache() noexcept { flow_cache_.reset(); }
  bool flow_cache_enabled() const noexcept { return flow_cache_ != nullptr; }
  /// nullptr when the cache is disabled.
  const FlowVerdictCache* flow_cache() const noexcept { return flow_cache_.get(); }

  const P4Program& program() const noexcept { return program_; }
  const MatchActionTable& table() const noexcept { return table_; }
  MatchActionTable& mutable_table() noexcept { return table_; }
  const SwitchStats& stats() const noexcept { return stats_; }
  void reset_stats();

  /// Copy this switch's instantaneous state (verdict counters, flow-cache
  /// hit rate and occupancy, rate-guard saturation) into the global
  /// telemetry registry through publish_dataplane_gauges(). Called at
  /// snapshot/export time, never on the packet path. Per-stage latency
  /// histograms are registry-resident and need no publishing (see
  /// telemetry.h for the sampling budget).
  void publish_telemetry() const;

  /// Deterministic single-packet pipeline cost in model cycles: one cycle
  /// per extracted field (parser) + 1 TCAM lookup + 1 action. Used by the
  /// efficiency experiment alongside measured wall-clock.
  std::size_t pipeline_cycles() const noexcept {
    return program_.parser.fields.size() + 2;
  }

 private:
  LookupResult lookup_cached(std::span<const std::uint64_t> values,
                             bool* cache_hit);
  Verdict finish(const pkt::Packet& packet, LookupResult result,
                 std::uint8_t attack_class, bool malformed);
  /// The one classification body behind process(); kTimed adds the sampled
  /// per-stage clock reads and nothing else.
  template <bool kTimed>
  Verdict classify(const pkt::Packet& packet);

  /// Registry-resident per-stage latency series, shared by every switch
  /// instance (engine workers record into the same histograms, which makes
  /// a snapshot the cross-worker merge). Looked up once per switch.
  struct StageMetrics {
    common::telemetry::LatencyHistogram* parse;
    common::telemetry::LatencyHistogram* cache_hit;
    common::telemetry::LatencyHistogram* tcam_scan;
    common::telemetry::LatencyHistogram* tcam_scan_compiled;
    common::telemetry::LatencyHistogram* guard;
    common::telemetry::LatencyHistogram* packet;
    static StageMetrics acquire();
  };

  P4Program program_;
  MatchActionTable table_;
  std::size_t min_frame_bytes_ = 0;
  SwitchStats stats_;
  MirrorHandler mirror_;
  std::optional<RateGuard> rate_guard_;
  std::unique_ptr<FlowVerdictCache> flow_cache_;
  std::vector<std::uint64_t> scratch_values_;  ///< parser output, reused
  StageMetrics stage_metrics_ = StageMetrics::acquire();
  common::telemetry::StageSampler stage_sampler_;
};

/// Inputs of the dataplane gauges: one switch's state, or an engine's
/// worker replicas merged (counters summed, sketch load averaged).
struct DataplaneGauges {
  SwitchStats stats;
  const MatchActionTable* table = nullptr;  ///< entries, backend, index
  std::optional<FlowCacheStats> cache;      ///< nullopt = no flow cache
  std::size_t cache_occupancy = 0;
  std::size_t cache_capacity = 0;
  const RateGuardSpec* guard = nullptr;     ///< null = no rate guard
  std::uint64_t guard_tripped = 0;
  double guard_sketch_load = 0.0;
};

/// The one writer of the `p4iot_dataplane_*`, `p4iot_match_*`,
/// `p4iot_flow_cache_*` and `p4iot_rate_guard_*` gauges.
void publish_dataplane_gauges(const DataplaneGauges& gauges);

}  // namespace p4iot::p4
