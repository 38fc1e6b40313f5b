// Equivalence and invalidation tests for the batched/sharded data-plane
// engine and the flow-verdict cache: the accelerated paths must be verdict-
// and counter-identical to the sequential uncached switch.
#include "p4/engine.h"

#include <gtest/gtest.h>

#include <array>
#include <thread>

#include "common/rng.h"
#include "p4/switch.h"

namespace p4iot::p4 {
namespace {

// A small firewall program over two synthetic header fields, plus traffic
// drawn from a limited flow population (so the cache sees repeats, like a
// real gateway serving long-lived flows).
P4Program test_program() {
  P4Program program;
  program.parser.fields = {FieldRef{"hdr.port", 2, 2}, FieldRef{"hdr.flags", 5, 1}};
  program.keys = {KeySpec{program.parser.fields[0], MatchKind::kTernary},
                  KeySpec{program.parser.fields[1], MatchKind::kTernary}};
  return program;
}

TableEntry rule(std::uint64_t port, std::uint64_t port_mask, std::uint64_t flags,
                std::uint64_t flags_mask, ActionOp action, std::int32_t priority,
                std::uint8_t attack_class = 0) {
  TableEntry e;
  e.fields = {MatchField{port, port_mask, 0, 0}, MatchField{flags, flags_mask, 0, 0}};
  e.priority = priority;
  e.action = action;
  e.attack_class = attack_class;
  return e;
}

std::vector<TableEntry> test_rules() {
  return {
      rule(23, 0xffff, 0x02, 0xff, ActionOp::kDrop, 300, 2),
      rule(80, 0xffff, 0, 0, ActionOp::kPermit, 250),
      rule(0, 0xff00, 0x10, 0xff, ActionOp::kDrop, 200, 3),
      rule(0, 0, 0x40, 0xff, ActionOp::kMirror, 100),
  };
}

std::vector<pkt::Packet> synthetic_traffic(std::size_t count, std::uint64_t seed,
                                           std::size_t distinct_flows = 64) {
  common::Rng rng(seed);
  // Pre-draw a flow population; traffic revisits it with random interleaving.
  std::vector<std::array<std::uint8_t, 6>> flows(distinct_flows);
  for (auto& f : flows)
    for (auto& b : f) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));

  std::vector<pkt::Packet> packets(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& f = flows[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(distinct_flows) - 1))];
    packets[i].bytes.assign(f.begin(), f.end());
    packets[i].timestamp_s = static_cast<double>(i) * 1e-4;
  }
  return packets;
}

void expect_stats_equal(const SwitchStats& a, const SwitchStats& b) {
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.permitted, b.permitted);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.mirrored, b.mirrored);
  EXPECT_EQ(a.rate_guard_drops, b.rate_guard_drops);
  EXPECT_EQ(a.bytes_in, b.bytes_in);
  EXPECT_EQ(a.bytes_forwarded, b.bytes_forwarded);
  for (std::size_t c = 0; c < 16; ++c)
    EXPECT_EQ(a.drops_by_class[c], b.drops_by_class[c]) << "class " << c;
}

TEST(ProcessBatch, MatchesSequentialVerdictsStatsAndCounters) {
  const auto traffic = synthetic_traffic(4000, 11);

  P4Switch sequential(test_program());
  ASSERT_EQ(sequential.install_rules(test_rules()), TableWriteStatus::kOk);

  P4Switch batched(test_program());
  ASSERT_EQ(batched.install_rules(test_rules()), TableWriteStatus::kOk);
  batched.enable_flow_cache(1024);

  std::vector<Verdict> expected;
  for (const auto& p : traffic) expected.push_back(sequential.process(p));
  const auto got = batched.process_batch(traffic);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].action, expected[i].action) << "packet " << i;
    EXPECT_EQ(got[i].entry_index, expected[i].entry_index) << "packet " << i;
    EXPECT_EQ(got[i].attack_class, expected[i].attack_class) << "packet " << i;
  }
  expect_stats_equal(batched.stats(), sequential.stats());
  // Cache hits credit the exact per-entry counters a full scan would.
  for (std::size_t i = 0; i < sequential.table().entry_count(); ++i)
    EXPECT_EQ(batched.table().hit_count(i), sequential.table().hit_count(i));
  EXPECT_EQ(batched.table().default_hits(), sequential.table().default_hits());
  // With 64 distinct flows over 4000 packets the cache must be doing work.
  ASSERT_NE(batched.flow_cache(), nullptr);
  EXPECT_GT(batched.flow_cache()->stats().hit_rate(), 0.9);
}

TEST(ProcessBatch, RateGuardBehindCacheStaysEquivalent) {
  // All packets share one flow key → maximal caching; the guard must still
  // see every packet (a memoized post-guard verdict would never trip).
  auto traffic = synthetic_traffic(800, 12, /*distinct_flows=*/1);

  RateGuardSpec guard;
  guard.key_fields = {FieldRef{"hdr.port", 2, 2}};
  guard.threshold = 100;
  guard.epoch_seconds = 10.0;

  P4Switch sequential(test_program());
  ASSERT_EQ(sequential.install_rules(test_rules()), TableWriteStatus::kOk);
  sequential.set_rate_guard(guard);

  P4Switch batched(test_program());
  ASSERT_EQ(batched.install_rules(test_rules()), TableWriteStatus::kOk);
  batched.set_rate_guard(guard);
  batched.enable_flow_cache(256);

  std::vector<Verdict> expected;
  for (const auto& p : traffic) expected.push_back(sequential.process(p));
  const auto got = batched.process_batch(traffic);

  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i].action, expected[i].action) << "packet " << i;
  expect_stats_equal(batched.stats(), sequential.stats());
  EXPECT_GT(batched.stats().rate_guard_drops, 0u);
}

TEST(FlowCache, InvalidatedOnReplaceEntries) {
  const auto traffic = synthetic_traffic(10, 13, /*distinct_flows=*/1);

  P4Switch sw(test_program());
  sw.enable_flow_cache(256);
  ASSERT_EQ(sw.install_rules({rule(0, 0, 0, 0, ActionOp::kDrop, 100)}),
            TableWriteStatus::kOk);
  EXPECT_EQ(sw.process(traffic[0]).action, ActionOp::kDrop);
  EXPECT_EQ(sw.process(traffic[1]).action, ActionOp::kDrop);  // cached

  // Hot-swap to a permit-everything rule set: the cached drop must die.
  ASSERT_EQ(sw.install_rules({rule(0, 0, 0, 0, ActionOp::kPermit, 100)}),
            TableWriteStatus::kOk);
  EXPECT_EQ(sw.process(traffic[2]).action, ActionOp::kPermit);
  EXPECT_GE(sw.flow_cache()->stats().invalidations, 1u);
}

TEST(FlowCache, InvalidatedOnAddEntryAndClear) {
  const auto traffic = synthetic_traffic(10, 14, /*distinct_flows=*/1);

  P4Switch sw(test_program());  // default action: permit
  sw.enable_flow_cache(256);
  EXPECT_EQ(sw.process(traffic[0]).action, ActionOp::kPermit);  // cached default

  // A higher-priority wildcard drop added later must override the cache.
  ASSERT_EQ(sw.install_entry(rule(0, 0, 0, 0, ActionOp::kDrop, 500)),
            TableWriteStatus::kOk);
  EXPECT_EQ(sw.process(traffic[1]).action, ActionOp::kDrop);

  sw.clear_rules();
  EXPECT_EQ(sw.process(traffic[2]).action, ActionOp::kPermit);

  sw.set_default_action(ActionOp::kDrop);
  EXPECT_EQ(sw.process(traffic[3]).action, ActionOp::kDrop);
}

TEST(DataplaneEngine, MatchesSequentialVerdictsAndMergedStats) {
  const auto traffic = synthetic_traffic(6000, 15, /*distinct_flows=*/256);

  P4Switch sequential(test_program());
  ASSERT_EQ(sequential.install_rules(test_rules()), TableWriteStatus::kOk);

  DataplaneEngine engine(test_program(), {.workers = 4});
  ASSERT_EQ(engine.install_rules(test_rules()), TableWriteStatus::kOk);
  EXPECT_EQ(engine.worker_count(), 4u);

  std::vector<Verdict> expected;
  for (const auto& p : traffic) expected.push_back(sequential.process(p));
  const auto got = engine.process_batch(traffic);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].action, expected[i].action) << "packet " << i;
    EXPECT_EQ(got[i].entry_index, expected[i].entry_index) << "packet " << i;
    EXPECT_EQ(got[i].attack_class, expected[i].attack_class) << "packet " << i;
  }
  expect_stats_equal(engine.stats(), sequential.stats());
  for (std::size_t i = 0; i < sequential.table().entry_count(); ++i)
    EXPECT_EQ(engine.hit_count(i), sequential.table().hit_count(i));
  EXPECT_EQ(engine.default_hits(), sequential.table().default_hits());
}

TEST(DataplaneEngine, ShardingIsFlowStable) {
  // Same flow key → same worker: every distinct flow's packets are processed
  // by exactly one replica.
  const auto traffic = synthetic_traffic(2000, 16, /*distinct_flows=*/32);
  DataplaneEngine engine(test_program(), {.workers = 4});
  ASSERT_EQ(engine.install_rules(test_rules()), TableWriteStatus::kOk);
  (void)engine.process_batch(traffic);

  std::uint64_t total = 0;
  std::size_t busy_workers = 0;
  for (std::size_t w = 0; w < engine.worker_count(); ++w) {
    total += engine.worker(w).stats().packets;
    busy_workers += engine.worker(w).stats().packets > 0 ? 1 : 0;
  }
  EXPECT_EQ(total, traffic.size());
  EXPECT_GE(busy_workers, 2u);  // 32 flows spread over >1 shard
}

TEST(DataplaneEngine, RuleSwapAppliesToEveryWorker) {
  const auto traffic = synthetic_traffic(1000, 17, /*distinct_flows=*/128);
  DataplaneEngine engine(test_program(), {.workers = 3});
  ASSERT_EQ(engine.install_rules({rule(0, 0, 0, 0, ActionOp::kDrop, 10)}),
            TableWriteStatus::kOk);
  auto verdicts = engine.process_batch(traffic);
  for (const auto& v : verdicts) EXPECT_EQ(v.action, ActionOp::kDrop);

  ASSERT_EQ(engine.install_rules({rule(0, 0, 0, 0, ActionOp::kPermit, 10)}),
            TableWriteStatus::kOk);
  verdicts = engine.process_batch(traffic);
  for (const auto& v : verdicts) EXPECT_EQ(v.action, ActionOp::kPermit);
  EXPECT_EQ(engine.stats().packets, 2 * traffic.size());
}

TEST(DataplaneEngine, MirroredPacketsDeliveredOnCallerThread) {
  auto traffic = synthetic_traffic(500, 18, /*distinct_flows=*/16);
  DataplaneEngine engine(test_program(), {.workers = 4});
  // Mirror everything.
  ASSERT_EQ(engine.install_rules({rule(0, 0, 0, 0, ActionOp::kMirror, 10)}),
            TableWriteStatus::kOk);

  const auto caller = std::this_thread::get_id();
  std::size_t mirrored = 0;
  bool thread_ok = true;
  engine.set_mirror_handler([&](const pkt::Packet&) {
    ++mirrored;
    thread_ok = thread_ok && std::this_thread::get_id() == caller;
  });
  (void)engine.process_batch(traffic);
  EXPECT_EQ(mirrored, traffic.size());
  EXPECT_TRUE(thread_ok);
  EXPECT_EQ(engine.stats().mirrored, traffic.size());
}

TEST(ProcessBatch, TimedSamplingPathIsVerdictIdentical) {
  // With the sampling shift at 0 every packet takes the timed path
  // (classify<true>); it must stay verdict- and counter-identical to the
  // untimed fast path.
  namespace telemetry = common::telemetry;
  const bool was_enabled = telemetry::stage_timing_enabled();
  const unsigned old_shift = telemetry::stage_sampling_shift();
  const auto traffic = synthetic_traffic(3000, 17);

  telemetry::set_stage_timing_enabled(false);
  P4Switch untimed(test_program());
  ASSERT_EQ(untimed.install_rules(test_rules()), TableWriteStatus::kOk);
  untimed.enable_flow_cache(256);
  std::vector<Verdict> untimed_verdicts;
  for (const auto& p : traffic) untimed_verdicts.push_back(untimed.process(p));

  telemetry::set_stage_timing_enabled(true);
  telemetry::set_stage_sampling_shift(0);
  P4Switch timed(test_program());
  ASSERT_EQ(timed.install_rules(test_rules()), TableWriteStatus::kOk);
  timed.enable_flow_cache(256);
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    const auto verdict = timed.process(traffic[i]);
    EXPECT_EQ(verdict.action, untimed_verdicts[i].action) << "packet " << i;
    EXPECT_EQ(verdict.entry_index, untimed_verdicts[i].entry_index) << "packet " << i;
  }
  expect_stats_equal(timed.stats(), untimed.stats());
  EXPECT_EQ(timed.flow_cache()->stats().hits, untimed.flow_cache()->stats().hits);

  // Every packet was sampled, so the stage histograms saw all of them.
  const auto* histogram =
      telemetry::Registry::global().find_histogram("p4iot_switch_packet_ns");
  ASSERT_NE(histogram, nullptr);
  EXPECT_GE(histogram->snapshot().count, traffic.size());

  telemetry::set_stage_timing_enabled(was_enabled);
  telemetry::set_stage_sampling_shift(old_shift);
}

TEST(DataplaneEngine, PublishTelemetryExportsMergedAndPerWorkerGauges) {
  namespace telemetry = common::telemetry;
  EngineConfig config;
  config.workers = 2;
  DataplaneEngine engine(test_program(), config);
  ASSERT_EQ(engine.install_rules(test_rules()), TableWriteStatus::kOk);
  const auto traffic = synthetic_traffic(2000, 18);
  (void)engine.process_batch(traffic);
  engine.publish_telemetry();

  const auto& registry = telemetry::Registry::global();
  const auto* workers = registry.find_gauge("p4iot_engine_workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_DOUBLE_EQ(workers->value(), 2.0);

  // Per-worker packet gauges exist and sum to the batch size.
  double per_worker_sum = 0.0;
  for (std::size_t w = 0; w < engine.worker_count(); ++w) {
    const auto* gauge = registry.find_gauge("p4iot_engine_worker_packets{worker=\"" +
                                            std::to_string(w) + "\"}");
    ASSERT_NE(gauge, nullptr) << "worker " << w;
    per_worker_sum += gauge->value();
  }
  EXPECT_DOUBLE_EQ(per_worker_sum, static_cast<double>(traffic.size()));

  // Merged dataplane totals mirror the merged stats() view.
  const auto* packets = registry.find_gauge("p4iot_dataplane_packets_total");
  ASSERT_NE(packets, nullptr);
  EXPECT_DOUBLE_EQ(packets->value(), static_cast<double>(engine.stats().packets));

  const auto* hit_rate = registry.find_gauge("p4iot_flow_cache_hit_rate");
  ASSERT_NE(hit_rate, nullptr);
  EXPECT_GE(hit_rate->value(), 0.0);
  EXPECT_LE(hit_rate->value(), 1.0);
}

TEST(DataplaneEngine, BatchCounterAndSpansFire) {
  namespace telemetry = common::telemetry;
  const auto batches_before =
      telemetry::Registry::global().counter("p4iot_engine_batches_total").value();
  EngineConfig config;
  config.workers = 2;
  DataplaneEngine engine(test_program(), config);
  ASSERT_EQ(engine.install_rules(test_rules()), TableWriteStatus::kOk);

  const auto traffic = synthetic_traffic(400, 19);
  for (int b = 0; b < 5; ++b) (void)engine.process_batch(traffic);
  const auto batches_after =
      telemetry::Registry::global().counter("p4iot_engine_batches_total").value();
  EXPECT_EQ(batches_after - batches_before, 5u);

  // The batch dispatches left engine.batch spans in the global recorder.
  bool saw_batch_span = false;
  for (const auto& span : telemetry::SpanRecorder::global().snapshot())
    if (span.name == "engine.batch") saw_batch_span = true;
  EXPECT_TRUE(saw_batch_span);
}

TEST(DataplaneEngine, EmptyBatchAndRepeatedBatchesAreSafe) {
  DataplaneEngine engine(test_program(), {.workers = 2});
  ASSERT_EQ(engine.install_rules(test_rules()), TableWriteStatus::kOk);
  EXPECT_TRUE(engine.process_batch({}).empty());
  const auto traffic = synthetic_traffic(100, 19);
  for (int round = 0; round < 5; ++round) (void)engine.process_batch(traffic);
  EXPECT_EQ(engine.stats().packets, 500u);
}

}  // namespace
}  // namespace p4iot::p4
