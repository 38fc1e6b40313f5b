// Observed gateway: the full closed loop — controller bootstrap, drift-driven
// rule swap, multi-worker engine — running with the telemetry layer on, then
// exported two ways: a Prometheus text snapshot of every counter/gauge/
// histogram, and a chrome://tracing JSON of the recorded spans (controller
// swap lifecycle, engine batches). Open observed_gateway_spans.json in
// chrome://tracing or Perfetto to see the swap build→install→verify→retire
// sequence nested under controller.swap.
//
//   $ ./observed_gateway
#include <cstdio>

#include "common/telemetry.h"
#include "common/telemetry_export.h"
#include "p4/engine.h"
#include "sdn/controller.h"
#include "trafficgen/wifi_gen.h"

int main() {
  using namespace p4iot;
  namespace telemetry = common::telemetry;

  // Sample stage latency densely (1 in 4) — this is a demo, not a hot path.
  telemetry::set_stage_sampling_shift(2);

  // 1. Bootstrap capture: benign traffic plus a SYN flood.
  gen::ScenarioConfig boot_config;
  boot_config.seed = 7;
  boot_config.duration_s = 45.0;
  boot_config.benign_devices = 10;
  boot_config.attacks = {{pkt::AttackType::kSynFlood, 5.0, 40.0, 40.0}};
  const auto bootstrap = gen::generate_wifi_trace(boot_config);

  // 2. Controller with a perfect oracle; bootstrap performs the first
  //    transactional rule swap (build → install → verify → retire), which
  //    the span recorder captures.
  sdn::ControllerConfig config;
  config.pipeline = core::PipelineConfig::with_fields(4);
  sdn::Controller controller(
      config, [](const pkt::Packet& p) { return std::optional<bool>(p.is_attack()); });
  if (!controller.bootstrap(bootstrap)) {
    std::fprintf(stderr, "bootstrap failed\n");
    return 1;
  }
  std::printf("bootstrapped: %zu rules installed\n",
              controller.pipeline().rules().entries.size());

  // 3. Live phase: a new attack family appears mid-run. The controller's
  //    sampling loop sees the misses, declares drift, re-trains and swaps —
  //    a second controller.swap span, this one with cause "drift".
  gen::ScenarioConfig live_config = boot_config;
  live_config.seed = 8;
  live_config.duration_s = 120.0;
  live_config.attacks = {{pkt::AttackType::kSynFlood, 5.0, 30.0, 40.0},
                         {pkt::AttackType::kBruteForce, 40.0, 115.0, 40.0}};
  const auto live = gen::generate_wifi_trace(live_config);
  for (const auto& packet : live.packets()) (void)controller.handle(packet);
  controller.publish_telemetry();
  std::printf("live phase: %zu events, %zu retrains, miss rate %.2f\n",
              controller.events().size(), controller.retrain_count(),
              controller.current_miss_rate());

  // 4. Scale out: serve the live stream through the multi-worker engine,
  //    publishing a telemetry snapshot after every second batch.
  p4::EngineConfig engine_config;
  engine_config.workers = 2;
  auto engine = controller.pipeline().make_engine(engine_config);
  const auto& packets = live.packets();
  std::vector<p4::Verdict> verdicts;
  constexpr std::size_t kBatch = 2048;
  for (std::size_t off = 0, batch = 1; off < packets.size(); off += kBatch, ++batch) {
    const auto count = std::min(kBatch, packets.size() - off);
    engine->process_batch(std::span(packets).subspan(off, count), verdicts);
    if (batch % 2 == 0) {
      engine->publish_telemetry();
      std::printf("  [snapshot] telemetry published\n");
    }
  }
  engine->publish_telemetry();

  // 5. Everything observed so far, straight from the registry.
  const auto& registry = telemetry::Registry::global();
  std::printf("\nregistry holds %zu metrics; highlights:\n", registry.size());
  if (const auto* gauge = registry.find_gauge("p4iot_flow_cache_hit_rate"))
    std::printf("  flow cache hit rate: %.3f\n", gauge->value());
  if (const auto* counter = registry.find_counter("p4iot_controller_swaps_total"))
    std::printf("  completed rule swaps: %llu\n",
                static_cast<unsigned long long>(counter->value()));
  if (const auto* histogram = registry.find_histogram("p4iot_switch_packet_ns")) {
    const auto snap = histogram->snapshot();
    std::printf("  per-packet latency: p50=%.0fns p99=%.0fns (n=%llu sampled)\n",
                snap.percentile(50), snap.percentile(99),
                static_cast<unsigned long long>(snap.count));
  }
  std::printf("  spans recorded: %zu\n", telemetry::SpanRecorder::global().size());

  // 6. Export: Prometheus text + chrome://tracing JSON.
  if (telemetry::write_prometheus("observed_gateway_metrics.prom"))
    std::printf("\nmetrics -> observed_gateway_metrics.prom\n");
  if (telemetry::write_trace_json("observed_gateway_spans.json"))
    std::printf("spans   -> observed_gateway_spans.json (open in chrome://tracing)\n");
  return 0;
}
