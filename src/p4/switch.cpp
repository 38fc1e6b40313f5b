#include "p4/switch.h"

namespace p4iot::p4 {

namespace telemetry = common::telemetry;

P4Switch::StageMetrics P4Switch::StageMetrics::acquire() {
  auto& reg = telemetry::Registry::global();
  return {
      &reg.histogram("p4iot_switch_parse_ns",
                     "Parser field-extraction latency in ns (sampled)"),
      &reg.histogram("p4iot_switch_cache_hit_ns",
                     "Flow-cache-hit lookup latency in ns (sampled)"),
      &reg.histogram("p4iot_switch_tcam_scan_ns",
                     "TCAM priority-scan latency in ns, cache miss or uncached (sampled)"),
      &reg.histogram("p4iot_switch_tcam_scan_ns{path=\"compiled\"}",
                     "Compiled tuple-space match latency in ns, cache miss or "
                     "uncached (sampled)"),
      &reg.histogram("p4iot_switch_guard_ns",
                     "Rate-guard stage latency in ns (sampled)"),
      &reg.histogram("p4iot_switch_packet_ns",
                     "Whole-packet pipeline latency in ns (sampled)"),
  };
}

P4Switch::P4Switch(P4Program program, std::size_t table_capacity)
    : program_(std::move(program)),
      table_("firewall", program_.keys, table_capacity, program_.default_action),
      min_frame_bytes_(program_.parser.min_frame_bytes()) {}

void P4Switch::enable_flow_cache(std::size_t capacity) {
  flow_cache_ = std::make_unique<FlowVerdictCache>(capacity);
  flow_cache_->invalidate(table_.version());  // adopt the current rule epoch
}

LookupResult P4Switch::lookup_cached(std::span<const std::uint64_t> values,
                                     bool* cache_hit) {
  if (!flow_cache_) return table_.lookup(values);
  if (flow_cache_->epoch() != table_.version())
    flow_cache_->invalidate(table_.version());
  if (const LookupResult* hit = flow_cache_->find(values)) {
    // Keep counters bit-identical to the scan path: credit the memoized
    // entry (or the default action) without walking the entries.
    table_.record_hit(hit->entry_index);
    if (cache_hit) *cache_hit = true;
    return *hit;
  }
  const LookupResult result = table_.lookup(values);
  flow_cache_->insert(values, result);
  return result;
}

Verdict P4Switch::finish(const pkt::Packet& packet, LookupResult result,
                         std::uint8_t attack_class, bool malformed) {
  ++stats_.packets;
  stats_.bytes_in += packet.size();
  if (malformed) ++stats_.malformed;
  switch (result.action) {
    case ActionOp::kPermit:
      ++stats_.permitted;
      stats_.bytes_forwarded += packet.size();
      break;
    case ActionOp::kDrop:
      ++stats_.dropped;
      ++stats_.drops_by_class[attack_class & 0x0f];
      break;
    case ActionOp::kMirror:
      ++stats_.mirrored;
      stats_.bytes_forwarded += packet.size();
      if (mirror_) mirror_(packet);
      break;
  }
  return {result.action, result.entry_index, attack_class, malformed};
}

Verdict P4Switch::process(const pkt::Packet& packet) {
  // Sampled per-stage timing: one packet in 2^shift pays the clock reads
  // (see telemetry.h); every other packet takes the untimed instantiation.
  return stage_sampler_.should_sample() ? classify<true>(packet)
                                        : classify<false>(packet);
}

template <bool kTimed>
Verdict P4Switch::classify(const pkt::Packet& packet) {
  // kTimed only adds clock reads: verdicts and counters are identical on
  // both instantiations (the differential tests cover both at shift 0).
  [[maybe_unused]] std::uint64_t t0 = 0, t = 0;
  if constexpr (kTimed) t0 = telemetry::now_ns();
  const bool malformed = packet.size() < min_frame_bytes_;
  const MalformedPolicy policy = table_.malformed_policy();
  LookupResult result;
  std::uint8_t attack_class = 0;
  if (malformed && policy != MalformedPolicy::kZeroPad) {
    // Fail-closed/fail-open short-circuit: the frame never reaches the
    // table, the flow cache or the rate guard, so a truncated header can
    // neither poison cached verdicts nor skew the guard's sketch.
    result = {policy == MalformedPolicy::kFailClosed ? ActionOp::kDrop
                                                     : ActionOp::kPermit,
              -1};
  } else {
    program_.parser.extract_into(packet.view(), scratch_values_);
    if constexpr (kTimed) {
      t = telemetry::now_ns();
      stage_metrics_.parse->record(t - t0);
    }
    bool cache_hit = false;
    result = lookup_cached(scratch_values_, &cache_hit);
    if constexpr (kTimed) {
      const std::uint64_t t_lookup = telemetry::now_ns();
      auto* scan_histogram = table_.match_backend() == MatchBackend::kCompiled
                                 ? stage_metrics_.tcam_scan_compiled
                                 : stage_metrics_.tcam_scan;
      (cache_hit ? stage_metrics_.cache_hit : scan_histogram)->record(t_lookup - t);
      t = t_lookup;
    }
    if (result.entry_index >= 0)
      attack_class =
          table_.entries()[static_cast<std::size_t>(result.entry_index)].attack_class;

    // Stateful stage: only traffic the table lets through is rate-counted
    // (dropped traffic never reaches the guard's registers).
    if (rate_guard_) {
      if (result.action != ActionOp::kDrop &&
          rate_guard_->observe(packet.view(), packet.timestamp_s)) {
        result.action = rate_guard_->spec().action;
        result.entry_index = -1;
        attack_class = 0;
        if (result.action == ActionOp::kDrop) ++stats_.rate_guard_drops;
      }
      if constexpr (kTimed) stage_metrics_.guard->record(telemetry::now_ns() - t);
    }
  }

  const Verdict verdict = finish(packet, result, attack_class, malformed);
  if constexpr (kTimed) stage_metrics_.packet->record(telemetry::now_ns() - t0);
  return verdict;
}

std::vector<Verdict> P4Switch::process_batch(std::span<const pkt::Packet> batch) {
  std::vector<Verdict> verdicts(batch.size());
  process_batch(batch, verdicts);
  return verdicts;
}

void P4Switch::process_batch(std::span<const pkt::Packet> batch,
                             std::span<Verdict> out) {
  for (std::size_t i = 0; i < batch.size(); ++i) out[i] = process(batch[i]);
}

Verdict P4Switch::peek(const pkt::Packet& packet) const {
  const bool malformed = packet.size() < min_frame_bytes_;
  const MalformedPolicy policy = table_.malformed_policy();
  if (malformed && policy != MalformedPolicy::kZeroPad) {
    const auto action = policy == MalformedPolicy::kFailClosed
                            ? ActionOp::kDrop
                            : ActionOp::kPermit;
    return {action, -1, 0, true};
  }
  const auto values = program_.parser.extract(packet.view());
  const auto result = table_.peek(values);
  const std::uint8_t attack_class =
      result.entry_index >= 0
          ? table_.entries()[static_cast<std::size_t>(result.entry_index)].attack_class
          : 0;
  return {result.action, result.entry_index, attack_class, malformed};
}

void P4Switch::reset_stats() {
  stats_ = {};
  table_.reset_counters();
  if (rate_guard_) rate_guard_->reset();
  if (flow_cache_) flow_cache_->reset_stats();
}

void P4Switch::publish_telemetry() const {
  DataplaneGauges gauges;
  gauges.stats = stats_;
  gauges.table = &table_;
  if (flow_cache_) {
    gauges.cache = flow_cache_->stats();
    gauges.cache_occupancy = flow_cache_->occupancy();
    gauges.cache_capacity = flow_cache_->capacity();
  }
  if (rate_guard_) {
    gauges.guard = &rate_guard_->spec();
    gauges.guard_tripped = rate_guard_->tripped_count();
    gauges.guard_sketch_load = rate_guard_->sketch().load_factor();
  }
  publish_dataplane_gauges(gauges);
}

void publish_dataplane_gauges(const DataplaneGauges& g) {
  auto& reg = telemetry::Registry::global();
  const SwitchStats& stats = g.stats;
  reg.set_gauge("p4iot_dataplane_packets_total", static_cast<double>(stats.packets),
                "Packets processed (absolute count at snapshot time)");
  reg.set_gauge("p4iot_dataplane_permitted_total", static_cast<double>(stats.permitted));
  reg.set_gauge("p4iot_dataplane_dropped_total", static_cast<double>(stats.dropped));
  reg.set_gauge("p4iot_dataplane_mirrored_total", static_cast<double>(stats.mirrored));
  reg.set_gauge("p4iot_dataplane_malformed_total", static_cast<double>(stats.malformed));
  reg.set_gauge("p4iot_dataplane_rate_guard_drops_total",
                static_cast<double>(stats.rate_guard_drops));
  reg.set_gauge("p4iot_dataplane_bytes_in_total", static_cast<double>(stats.bytes_in));
  reg.set_gauge("p4iot_dataplane_bytes_forwarded_total",
                static_cast<double>(stats.bytes_forwarded));
  reg.set_gauge("p4iot_dataplane_table_entries",
                static_cast<double>(g.table->entry_count()),
                "Installed firewall rules");
  reg.set_gauge("p4iot_dataplane_match_backend",
                static_cast<double>(static_cast<int>(g.table->match_backend())),
                "Active lookup backend (0 = linear scan, 1 = compiled)");
  if (const CompiledMatchEngine* index = g.table->compiled_index()) {
    reg.set_gauge("p4iot_match_groups", static_cast<double>(index->group_count()),
                  "Tuple-space groups in the compiled match index");
    reg.set_gauge("p4iot_match_index_rebuilds",
                  static_cast<double>(index->stats().full_rebuilds),
                  "Full compiled-index rebuilds");
    reg.set_gauge("p4iot_match_index_incremental_updates",
                  static_cast<double>(index->stats().incremental_inserts +
                                      index->stats().incremental_erases),
                  "Single-entry compiled-index updates applied in place");
  }

  if (g.cache) {
    const FlowCacheStats& cache = *g.cache;
    reg.set_gauge("p4iot_flow_cache_hits_total", static_cast<double>(cache.hits),
                  "Flow-verdict cache hits");
    reg.set_gauge("p4iot_flow_cache_misses_total", static_cast<double>(cache.misses));
    reg.set_gauge("p4iot_flow_cache_insertions_total",
                  static_cast<double>(cache.insertions));
    reg.set_gauge("p4iot_flow_cache_invalidations_total",
                  static_cast<double>(cache.invalidations));
    reg.set_gauge("p4iot_flow_cache_hit_rate", cache.hit_rate(),
                  "Hits / (hits + misses)");
    reg.set_gauge("p4iot_flow_cache_occupancy",
                  static_cast<double>(g.cache_occupancy), "Valid slots");
    reg.set_gauge("p4iot_flow_cache_capacity", static_cast<double>(g.cache_capacity));
  }

  if (g.guard) {
    reg.set_gauge("p4iot_rate_guard_tripped_total",
                  static_cast<double>(g.guard_tripped),
                  "Times a key crossed the guard threshold");
    reg.set_gauge("p4iot_rate_guard_sketch_load", g.guard_sketch_load,
                  "Fraction of sketch counters non-zero (saturation; mean "
                  "over engine workers)");
    reg.set_gauge("p4iot_rate_guard_threshold", static_cast<double>(g.guard->threshold));
  }
}

}  // namespace p4iot::p4
