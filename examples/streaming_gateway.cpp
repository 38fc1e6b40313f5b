// Streaming gateway: the engine's ring-buffer ingest path serving a
// continuous arrival stream — frames pushed as they arrive, verdicts
// delivered asynchronously on worker threads, and a controller rule swap
// landing mid-stream without pausing traffic (workers adopt the published
// rule snapshot at their next chunk boundary).
//
//   $ ./streaming_gateway
#include <algorithm>
#include <atomic>
#include <cstdio>

#include "common/stopwatch.h"
#include "core/pipeline.h"
#include "p4/engine.h"
#include "trafficgen/datasets.h"

int main() {
  using namespace p4iot;

  // 1. Train the two-stage pipeline on a labelled capture.
  gen::DatasetOptions options;
  options.seed = 7;
  options.duration_s = 30.0;
  const pkt::Trace trace = gen::make_dataset(gen::DatasetId::kWifiIp, options);
  common::Rng rng(1);
  const auto [train, test] = trace.split(0.7, rng);

  core::TwoStagePipeline pipeline(core::PipelineConfig::with_fields(4));
  pipeline.fit(train);
  std::printf("trained: %zu rules over %zu selected fields\n",
              pipeline.rules().entries.size(),
              pipeline.rules().program.parser.fields.size());

  // 2. Stand up the engine: 4 workers, small rings, lossless backpressure.
  p4::EngineConfig config;
  config.workers = 4;
  config.ring_capacity = 512;
  config.backpressure = p4::BackpressurePolicy::kBlock;
  auto engine = pipeline.make_engine(config);

  // 3. Open the stream. The sink runs on worker threads as verdicts land;
  //    frames of one flow always arrive at one worker, in push order.
  std::atomic<std::uint64_t> blocked{0};
  engine->start_stream([&blocked](std::uint64_t, const pkt::Packet&,
                                  const p4::Verdict& v) {
    if (v.action == p4::ActionOp::kDrop)
      blocked.fetch_add(1, std::memory_order_relaxed);
  });

  // 4. Push a sustained arrival stream; halfway through, the controller
  //    swaps in a tightened rule set while frames are still in flight. The
  //    stream holds pushed frames by reference until it is flushed, so each
  //    round pushes a slice of `test`, which outlives the stream — never a
  //    buffer that is refilled while earlier frames may still be queued.
  const std::uint64_t before_swap = engine->rules_version();
  const std::span<const pkt::Packet> frames = test.packets();
  const std::size_t arrivals = std::min<std::size_t>(256, frames.size());
  common::Stopwatch timer;
  std::size_t served = 0;
  constexpr std::size_t kRounds = 1024;
  for (std::size_t round = 0, at = 0; round < kRounds; ++round) {
    if (at + arrivals > frames.size()) at = 0;  // replay the capture
    served += engine->stream_push(frames.subspan(at, arrivals));
    at += arrivals;
    if (round == kRounds / 2) {
      auto tightened = pipeline.rules().entries;
      if (!tightened.empty()) tightened[0].action = p4::ActionOp::kDrop;
      engine->install_rules(tightened);  // hitless: no flush, no pause
      std::printf("mid-stream rule swap: version %llu -> %llu\n",
                  static_cast<unsigned long long>(before_swap),
                  static_cast<unsigned long long>(engine->rules_version()));
    }
  }
  engine->stop_stream();  // flushes: every accepted frame is delivered
  const double seconds = timer.elapsed_seconds();

  // 5. Delivery accounting and merged statistics.
  const auto stream = engine->stream_stats();
  const auto stats = engine->stats();
  std::printf("\nstreamed %zu frames in %.3fs -> %.0f pkts/sec across %zu workers\n",
              served, seconds, static_cast<double>(served) / seconds,
              engine->worker_count());
  std::printf("delivery: %llu accepted, %llu delivered, %llu dropped at rings\n",
              static_cast<unsigned long long>(stream.accepted),
              static_cast<unsigned long long>(stream.delivered),
              static_cast<unsigned long long>(stream.dropped));
  std::printf("verdicts: %llu permitted, %llu dropped (%llu seen by the sink)\n",
              static_cast<unsigned long long>(stats.permitted),
              static_cast<unsigned long long>(stats.dropped),
              static_cast<unsigned long long>(blocked.load()));
  // Credit earned before the swap stays attributable to the old version.
  std::size_t top = 0;
  std::uint64_t top_hits = 0;
  for (std::size_t e = 0; e < pipeline.rules().entries.size(); ++e) {
    const auto h = engine->hit_count_for_version(before_swap, e);
    if (h > top_hits) { top = e; top_hits = h; }
  }
  std::printf("pre-swap credit: entry %zu had %llu hits under version %llu\n",
              top, static_cast<unsigned long long>(top_hits),
              static_cast<unsigned long long>(before_swap));
  return 0;
}
