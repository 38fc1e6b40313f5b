// Streaming-ingest tests for the data-plane engine: ring-buffer delivery
// must stay verdict- and counter-identical to the sequential switch, the
// backpressure policies must account for every frame exactly once, and the
// control plane must be safe to hammer from another thread while a stream
// is open (the RCU snapshot contract — run under TSan in CI).
//
// Suite names start with DataplaneEngineStream so the thread-sanitizer CI
// job's -R filter (…|DataplaneEngine|…) picks them up automatically.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "p4/engine.h"
#include "p4/switch.h"
#include "trafficgen/fuzz.h"

namespace p4iot::p4 {
namespace {

using pkt::LinkType;

// Same Ethernet firewall the fuzz differential uses: parser fields at
// offsets the fuzz operators regularly truncate into.
P4Program ethernet_program() {
  P4Program program;
  program.parser.fields = {FieldRef{"ipv4.protocol", 23, 1},
                           FieldRef{"tcp.dst_port", 36, 2},
                           FieldRef{"tcp.flags", 47, 1}};
  for (const auto& f : program.parser.fields)
    program.keys.push_back(KeySpec{f, MatchKind::kTernary});
  return program;
}

TableEntry entry(std::vector<MatchField> fields, ActionOp action,
                 std::int32_t priority, std::uint8_t attack_class = 0) {
  TableEntry e;
  e.fields = std::move(fields);
  e.priority = priority;
  e.action = action;
  e.attack_class = attack_class;
  return e;
}

std::vector<TableEntry> ethernet_rules() {
  constexpr auto F = [](std::uint64_t value, std::uint64_t mask) {
    return MatchField{value, mask, 0, 0};
  };
  return {
      entry({F(6, 0xff), F(23, 0xffff), F(0, 0)}, ActionOp::kDrop, 300, 2),
      entry({F(6, 0xff), F(0, 0), F(0x02, 0xff)}, ActionOp::kDrop, 250, 3),
      entry({F(1, 0xff), F(0, 0), F(0, 0)}, ActionOp::kMirror, 200),
      entry({F(6, 0xff), F(1883, 0xffff), F(0, 0)}, ActionOp::kPermit, 150),
  };
}

std::vector<pkt::Packet> fuzz_corpus(std::size_t count, std::uint64_t seed) {
  return gen::build_fuzz_corpus(LinkType::kEthernet, count, seed);
}

bool same_verdict(const Verdict& a, const Verdict& b) {
  return a.action == b.action && a.entry_index == b.entry_index &&
         a.attack_class == b.attack_class && a.malformed == b.malformed;
}

TEST(DataplaneEngineStream, MatchesSequentialVerdictsStatsAndCounters) {
  const auto traffic = fuzz_corpus(5000, 0xbeef01);
  const auto program = ethernet_program();
  const auto rules = ethernet_rules();

  P4Switch seq(program);
  ASSERT_EQ(seq.install_rules(rules), TableWriteStatus::kOk);
  std::vector<Verdict> expected;
  expected.reserve(traffic.size());
  for (const auto& p : traffic) expected.push_back(seq.process(p));

  EngineConfig config;
  config.workers = 4;
  config.ring_capacity = 64;  // small: the rings must wrap many times
  DataplaneEngine engine(program, config);
  ASSERT_EQ(engine.install_rules(rules), TableWriteStatus::kOk);

  // Workers write disjoint seq slots of a preallocated vector — no lock.
  std::vector<Verdict> got(traffic.size());
  engine.start_stream([&got](std::uint64_t seq_no, const pkt::Packet&,
                             const Verdict& v) { got[seq_no] = v; });
  EXPECT_TRUE(engine.streaming());
  constexpr std::size_t kChunk = 333;  // deliberately not a ring multiple
  for (std::size_t at = 0; at < traffic.size(); at += kChunk) {
    const auto n = std::min(kChunk, traffic.size() - at);
    EXPECT_EQ(engine.stream_push(std::span(traffic).subspan(at, n)), n);
  }
  engine.stop_stream();
  EXPECT_FALSE(engine.streaming());

  for (std::size_t i = 0; i < traffic.size(); ++i)
    ASSERT_TRUE(same_verdict(got[i], expected[i])) << "packet " << i;

  const auto ss = engine.stream_stats();
  EXPECT_EQ(ss.accepted, traffic.size());
  EXPECT_EQ(ss.delivered, traffic.size());
  EXPECT_EQ(ss.dropped, 0u);

  EXPECT_EQ(engine.stats().packets, seq.stats().packets);
  EXPECT_EQ(engine.stats().dropped, seq.stats().dropped);
  EXPECT_EQ(engine.stats().malformed, seq.stats().malformed);
  for (std::size_t e = 0; e < seq.table().entry_count(); ++e)
    EXPECT_EQ(engine.hit_count(e), seq.table().hit_count(e)) << "entry " << e;
  EXPECT_EQ(engine.default_hits(), seq.table().default_hits());
}

// Control-plane writes concurrent with streaming ingest: a controller thread
// hammers every rule mutator while the producer streams fuzzed frames. Run
// under TSan this proves the snapshot publication protocol has the
// happens-before edges it claims; under plain builds it proves liveness and
// lossless delivery across swaps.
TEST(DataplaneEngineStream, ControlPlaneHammerDuringStreamIsRaceFree) {
  const auto traffic = fuzz_corpus(8000, 0xbeef02);
  const auto program = ethernet_program();
  const auto rules_a = ethernet_rules();
  auto rules_b = rules_a;
  rules_b[0].action = ActionOp::kPermit;
  rules_b[3].action = ActionOp::kDrop;
  rules_b[3].attack_class = 6;

  RateGuardSpec guard;
  guard.key_fields = {program.parser.fields[1]};
  guard.threshold = 50;
  guard.epoch_seconds = 5.0;

  EngineConfig config;
  config.workers = 4;
  config.ring_capacity = 128;
  DataplaneEngine engine(program, config);
  ASSERT_EQ(engine.install_rules(rules_a), TableWriteStatus::kOk);

  std::atomic<std::uint64_t> delivered{0};
  engine.start_stream([&delivered](std::uint64_t, const pkt::Packet&,
                                   const Verdict&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });

  std::atomic<bool> done{false};
  std::thread control([&] {
    // Every mutator on the control surface, repeatedly, while frames flow.
    for (std::size_t i = 0; !done.load(std::memory_order_acquire); ++i) {
      switch (i % 6) {
        case 0: engine.install_rules(i % 2 ? rules_a : rules_b); break;
        case 1: engine.set_rate_guard(guard); break;
        case 2: engine.set_malformed_policy(i % 4 ? MalformedPolicy::kZeroPad
                                                  : MalformedPolicy::kFailClosed); break;
        case 3: engine.clear_rate_guard(); break;
        case 4: engine.set_match_backend(i % 4 ? MatchBackend::kCompiled
                                               : MatchBackend::kLinear); break;
        case 5: engine.clear_rules();
                engine.install_rules(rules_a); break;
      }
      // Published-plan readers are thread-safe mid-stream by contract.
      (void)engine.rules_version();
      (void)engine.match_backend();
      (void)engine.rules_snapshot();
    }
  });

  constexpr std::size_t kChunk = 200;
  for (std::size_t at = 0; at < traffic.size(); at += kChunk) {
    const auto n = std::min(kChunk, traffic.size() - at);
    EXPECT_EQ(engine.stream_push(std::span(traffic).subspan(at, n)), n);
  }
  engine.stream_flush();
  done.store(true, std::memory_order_release);
  control.join();
  engine.stop_stream();

  const auto ss = engine.stream_stats();
  EXPECT_EQ(ss.accepted, traffic.size());
  EXPECT_EQ(ss.delivered, traffic.size());
  EXPECT_EQ(ss.dropped, 0u);
  EXPECT_EQ(delivered.load(), traffic.size());
  EXPECT_EQ(engine.stats().packets, traffic.size());
}

// Under kDrop every shed frame is counted exactly once and never delivered:
// pushed == delivered + dropped, the per-worker ring counters sum to the
// aggregate, and delivery order (single worker) follows push order.
TEST(DataplaneEngineStream, DropPolicyAccountsForEveryFrameExactlyOnce) {
  const auto traffic = fuzz_corpus(512, 0xbeef03);
  const auto program = ethernet_program();

  EngineConfig config;
  config.workers = 1;  // one ring: deterministic ordering check
  config.ring_capacity = 8;
  config.backpressure = BackpressurePolicy::kDrop;
  DataplaneEngine engine(program, config);
  ASSERT_EQ(engine.install_rules(ethernet_rules()), TableWriteStatus::kOk);
  ASSERT_EQ(engine.backpressure(), BackpressurePolicy::kDrop);
  ASSERT_EQ(engine.ring_capacity(), 8u);

  // Gate the sink: the worker stalls on its first delivery while the
  // producer finishes pushing, guaranteeing the tiny ring overflows.
  std::mutex gate_m;
  std::condition_variable gate_cv;
  bool open = false;
  std::vector<std::uint64_t> seqs;
  engine.start_stream([&](std::uint64_t seq_no, const pkt::Packet&,
                          const Verdict&) {
    std::unique_lock<std::mutex> lock(gate_m);
    gate_cv.wait(lock, [&] { return open; });
    seqs.push_back(seq_no);
  });

  std::uint64_t accepted = 0;
  for (const auto& p : traffic) accepted += engine.stream_push(p) ? 1 : 0;
  {
    std::lock_guard<std::mutex> lock(gate_m);
    open = true;
  }
  gate_cv.notify_all();
  engine.stop_stream();

  const auto ss = engine.stream_stats();
  EXPECT_EQ(ss.accepted, accepted);
  EXPECT_EQ(ss.delivered, accepted);
  EXPECT_EQ(ss.accepted + ss.dropped, traffic.size());
  EXPECT_GT(ss.dropped, 0u) << "ring never overflowed; test is vacuous";
  std::uint64_t per_ring = 0;
  for (std::size_t w = 0; w < engine.worker_count(); ++w)
    per_ring += engine.ring_dropped(w);
  EXPECT_EQ(per_ring, ss.dropped);
  // Every accepted frame reached the sink exactly once, in push order.
  ASSERT_EQ(seqs.size(), accepted);
  for (std::size_t i = 1; i < seqs.size(); ++i)
    EXPECT_LT(seqs[i - 1], seqs[i]) << "delivery reordered at " << i;
  EXPECT_EQ(engine.stats().packets, accepted);
}

TEST(DataplaneEngineStream, BlockPolicyDeliversEveryFrameThroughTinyRings) {
  const auto traffic = fuzz_corpus(3000, 0xbeef04);
  const auto program = ethernet_program();

  EngineConfig config;
  config.workers = 2;
  config.ring_capacity = 4;  // forces constant producer/consumer handoff
  config.backpressure = BackpressurePolicy::kBlock;
  DataplaneEngine engine(program, config);
  ASSERT_EQ(engine.install_rules(ethernet_rules()), TableWriteStatus::kOk);

  std::atomic<std::uint64_t> delivered{0};
  engine.start_stream([&delivered](std::uint64_t, const pkt::Packet&,
                                   const Verdict&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(engine.stream_push(std::span(traffic)), traffic.size());
  engine.stop_stream();

  const auto ss = engine.stream_stats();
  EXPECT_EQ(ss.accepted, traffic.size());
  EXPECT_EQ(ss.delivered, traffic.size());
  EXPECT_EQ(ss.dropped, 0u);
  EXPECT_EQ(delivered.load(), traffic.size());
  for (std::size_t w = 0; w < engine.worker_count(); ++w)
    EXPECT_EQ(engine.ring_dropped(w), 0u);
}

// A mid-stream rule swap is hitless and keeps counter credit: verdicts after
// the swap follow the new rules, and hits recorded against the old version
// stay queryable through hit_count_for_version().
TEST(DataplaneEngineStream, MidStreamSwapKeepsVerdictsAndCounterCredit) {
  const auto traffic = fuzz_corpus(4000, 0xbeef05);
  const auto program = ethernet_program();
  const auto rules_a = ethernet_rules();
  auto rules_b = rules_a;
  rules_b[0].action = ActionOp::kPermit;

  const std::size_t half = traffic.size() / 2;
  const auto first = std::span(traffic).subspan(0, half);
  const auto second = std::span(traffic).subspan(half);

  // Sequential oracle with the same swap at the same boundary.
  P4Switch seq(program);
  ASSERT_EQ(seq.install_rules(rules_a), TableWriteStatus::kOk);
  std::vector<Verdict> expected;
  expected.reserve(traffic.size());
  for (const auto& p : first) expected.push_back(seq.process(p));
  std::vector<std::uint64_t> pre_hits;
  for (std::size_t e = 0; e < seq.table().entry_count(); ++e)
    pre_hits.push_back(seq.table().hit_count(e));
  ASSERT_EQ(seq.install_rules(rules_b), TableWriteStatus::kOk);
  for (const auto& p : second) expected.push_back(seq.process(p));

  EngineConfig config;
  config.workers = 4;
  config.ring_capacity = 64;
  DataplaneEngine engine(program, config);
  ASSERT_EQ(engine.install_rules(rules_a), TableWriteStatus::kOk);

  std::vector<Verdict> got(traffic.size());
  engine.start_stream([&got](std::uint64_t seq_no, const pkt::Packet&,
                             const Verdict& v) { got[seq_no] = v; });
  EXPECT_EQ(engine.stream_push(first), first.size());
  engine.stream_flush();  // quiesce: the boundary must be exact for the oracle
  const auto pre_version = engine.rules_version();
  ASSERT_EQ(engine.install_rules(rules_b), TableWriteStatus::kOk);
  EXPECT_NE(engine.rules_version(), pre_version);
  EXPECT_EQ(engine.stream_push(second), second.size());
  engine.stop_stream();

  for (std::size_t i = 0; i < traffic.size(); ++i)
    ASSERT_TRUE(same_verdict(got[i], expected[i])) << "packet " << i;
  // Credit earned before the swap survives it, attributed to the old version.
  for (std::size_t e = 0; e < pre_hits.size(); ++e)
    EXPECT_EQ(engine.hit_count_for_version(pre_version, e), pre_hits[e])
        << "entry " << e;
  for (std::size_t e = 0; e < seq.table().entry_count(); ++e)
    EXPECT_EQ(engine.hit_count(e), seq.table().hit_count(e)) << "entry " << e;
  EXPECT_EQ(engine.default_hits(), seq.table().default_hits());
}

// Rule calls from a control thread while the producer keeps opening and
// closing streams and dispatching batches: only a worker's own thread may
// write its replica, so under TSan no rule call, stream start or stream stop
// races a worker. Plain builds check that every frame is accounted for.
TEST(DataplaneEngineStream, RuleCallsAcrossStreamRestartsAreRaceFree) {
  const auto traffic = fuzz_corpus(128, 0xbeef08);
  const auto program = ethernet_program();
  const auto rules_a = ethernet_rules();
  auto rules_b = rules_a;
  rules_b[0].action = ActionOp::kPermit;

  RateGuardSpec guard;
  guard.key_fields = {program.parser.fields[1]};
  guard.threshold = 50;

  EngineConfig config;
  config.workers = 2;
  config.ring_capacity = 64;
  DataplaneEngine engine(program, config);
  ASSERT_EQ(engine.install_rules(rules_a), TableWriteStatus::kOk);

  std::atomic<bool> done{false};
  std::thread control([&] {
    for (std::size_t i = 0; !done.load(std::memory_order_acquire); ++i) {
      switch (i % 3) {
        case 0: engine.install_rules(i % 2 ? rules_a : rules_b); break;
        case 1: engine.set_rate_guard(guard); break;
        case 2: engine.set_default_action(i % 2 ? ActionOp::kDrop : ActionOp::kPermit);
                break;
      }
    }
  });

  std::atomic<std::uint64_t> delivered{0};
  std::vector<Verdict> verdicts;
  constexpr std::size_t kRestarts = 300;
  for (std::size_t round = 0; round < kRestarts; ++round) {
    engine.start_stream([&delivered](std::uint64_t, const pkt::Packet&,
                                     const Verdict&) {
      delivered.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(engine.stream_push(std::span(traffic)), traffic.size());
    engine.stop_stream();
    const auto ss = engine.stream_stats();
    EXPECT_EQ(ss.accepted, traffic.size());
    EXPECT_EQ(ss.delivered, traffic.size());
    EXPECT_EQ(ss.dropped, 0u);
    engine.process_batch(std::span(traffic), verdicts);
    EXPECT_EQ(verdicts.size(), traffic.size());
  }
  done.store(true, std::memory_order_release);
  control.join();

  EXPECT_EQ(delivered.load(), kRestarts * traffic.size());
  EXPECT_EQ(engine.stats().packets, 2 * kRestarts * traffic.size());
}

// Workers adopt a plan only when they receive frames. After an idle swap, a
// batch of one flow reaches one worker of four; the other three still hold
// the old rules and their old credit, yet the merged counters match the
// sequential switch, because they are read against the published version.
TEST(DataplaneEngineStream, IdleSwapCountsOnlyAdoptedWorkers) {
  const auto traffic = fuzz_corpus(2000, 0xbeef09);
  const auto program = ethernet_program();
  const auto rules_a = ethernet_rules();
  auto rules_b = rules_a;
  rules_b[1].action = ActionOp::kPermit;
  rules_b.pop_back();

  P4Switch seq(program);
  ASSERT_EQ(seq.install_rules(rules_a), TableWriteStatus::kOk);
  DataplaneEngine engine(program, EngineConfig{.workers = 4});
  ASSERT_EQ(engine.install_rules(rules_a), TableWriteStatus::kOk);

  for (const auto& p : traffic) (void)seq.process(p);
  (void)engine.process_batch(std::span(traffic));
  std::vector<std::uint64_t> pre_hits;
  for (std::size_t e = 0; e < seq.table().entry_count(); ++e)
    pre_hits.push_back(seq.table().hit_count(e));
  const std::uint64_t pre_default = seq.table().default_hits();
  const std::uint64_t old_version = engine.rules_version();

  ASSERT_EQ(seq.install_rules(rules_b), TableWriteStatus::kOk);
  ASSERT_EQ(engine.install_rules(rules_b), TableWriteStatus::kOk);

  // Equal frames carry equal flow keys, so they all shard to one worker.
  const std::vector<pkt::Packet> one_flow(300, traffic[0]);
  std::vector<std::uint64_t> before(engine.worker_count());
  for (std::size_t w = 0; w < engine.worker_count(); ++w)
    before[w] = engine.worker(w).stats().packets;
  const auto got = engine.process_batch(std::span(one_flow));
  std::size_t busy = 0;
  for (std::size_t w = 0; w < engine.worker_count(); ++w)
    busy += engine.worker(w).stats().packets != before[w] ? 1 : 0;
  ASSERT_EQ(busy, 1u);

  for (std::size_t i = 0; i < one_flow.size(); ++i)
    ASSERT_TRUE(same_verdict(got[i], seq.process(one_flow[i]))) << "packet " << i;
  for (std::size_t e = 0; e < seq.table().entry_count(); ++e)
    EXPECT_EQ(engine.hit_count(e), seq.table().hit_count(e)) << "entry " << e;
  EXPECT_EQ(engine.default_hits(), seq.table().default_hits());
  for (std::size_t e = 0; e < pre_hits.size(); ++e)
    EXPECT_EQ(engine.hit_count_for_version(old_version, e), pre_hits[e]) << "entry " << e;
  EXPECT_EQ(engine.default_hits_for_version(old_version), pre_default);
}

TEST(DataplaneEngineStream, ThrowingSinkIsContainedAndRethrownOnFlush) {
  const auto traffic = fuzz_corpus(2000, 0xbeef07);
  DataplaneEngine engine(ethernet_program(), EngineConfig{.workers = 2});
  ASSERT_EQ(engine.install_rules(ethernet_rules()), TableWriteStatus::kOk);

  std::atomic<std::uint64_t> calls{0};
  engine.start_stream([&calls](std::uint64_t seq, const pkt::Packet&, const Verdict&) {
    calls.fetch_add(1, std::memory_order_relaxed);
    if (seq == 100) throw std::runtime_error("sink failed at frame 100");
  });
  EXPECT_EQ(engine.stream_push(std::span(traffic)), traffic.size());
  // The worker survives the throw, every accepted frame is accounted for,
  // and the error surfaces on the caller exactly once.
  EXPECT_THROW(engine.stream_flush(), std::runtime_error);
  EXPECT_EQ(calls.load(), traffic.size());
  auto ss = engine.stream_stats();
  EXPECT_EQ(ss.accepted, traffic.size());
  EXPECT_EQ(ss.delivered, traffic.size());
  EXPECT_NO_THROW(engine.stream_flush());

  // The stream keeps serving after the error (seq 100 is behind it now).
  EXPECT_EQ(engine.stream_push(std::span(traffic)), traffic.size());
  EXPECT_NO_THROW(engine.stop_stream());
  EXPECT_EQ(calls.load(), 2 * traffic.size());
  ss = engine.stream_stats();
  EXPECT_EQ(ss.delivered, 2 * traffic.size());
  EXPECT_EQ(engine.stats().packets, 2 * traffic.size());
}

TEST(DataplaneEngineStream, ModeMisuseThrows) {
  const auto program = ethernet_program();
  DataplaneEngine engine(program, EngineConfig{.workers = 2});
  ASSERT_EQ(engine.install_rules(ethernet_rules()), TableWriteStatus::kOk);
  const auto traffic = fuzz_corpus(16, 0xbeef06);

  engine.start_stream([](std::uint64_t, const pkt::Packet&, const Verdict&) {});
  EXPECT_THROW(engine.process_batch(std::span(traffic)), std::logic_error);
  EXPECT_THROW(engine.start_stream([](std::uint64_t, const pkt::Packet&,
                                      const Verdict&) {}),
               std::logic_error);
  engine.stop_stream();
  engine.stop_stream();  // idempotent
  // Back to batch dispatch once the stream is closed.
  const auto verdicts = engine.process_batch(std::span(traffic));
  EXPECT_EQ(verdicts.size(), traffic.size());
}

}  // namespace
}  // namespace p4iot::p4
