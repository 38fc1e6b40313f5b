// Smart-home gateway: the full closed loop the paper motivates.
//
// A gateway bootstraps its firewall from an initial labelled capture,
// enforces in the data plane, and — via sampled oracle feedback — detects
// when a new attack family appears and re-trains its rules on the fly.
//
//   $ ./smart_home_gateway
#include <cstdio>

#include "common/logging.h"
#include "sdn/controller.h"
#include "trafficgen/wifi_gen.h"

int main() {
  using namespace p4iot;
  common::set_log_level(common::LogLevel::kInfo);

  // Day 0: the vendor ships the gateway with rules trained on known botnet
  // behaviour (SYN floods and telnet scanning).
  gen::ScenarioConfig bootstrap_config;
  bootstrap_config.seed = 11;
  bootstrap_config.duration_s = 90.0;
  bootstrap_config.benign_devices = 10;
  bootstrap_config.attacks = {
      {pkt::AttackType::kSynFlood, 10.0, 40.0, 40.0},
      {pkt::AttackType::kPortScan, 50.0, 80.0, 40.0},
  };
  const auto bootstrap_capture = gen::generate_wifi_trace(bootstrap_config);
  std::printf("bootstrap capture: %zu packets (%.1f%% attack)\n",
              bootstrap_capture.size(),
              100.0 * bootstrap_capture.stats().attack_fraction());

  sdn::ControllerConfig config;
  config.pipeline = core::PipelineConfig::with_fields(4);
  config.sample_probability = 0.25;
  config.drift_miss_threshold = 0.3;

  // The oracle stands in for the home's out-of-band IDS / cloud service
  // that inspects a sample of traffic with heavyweight tools.
  sdn::Controller gateway(config, [](const pkt::Packet& p) {
    return std::optional<bool>(p.is_attack());
  });
  if (!gateway.bootstrap(bootstrap_capture)) {
    std::fprintf(stderr, "rule install failed\n");
    return 1;
  }
  std::printf("gateway online: %zu rules over %zu header fields\n\n",
              gateway.data_plane().table().entry_count(),
              gateway.pipeline().rules().program.parser.fields.size());

  // Week 1: normal traffic, a rerun of a known attack, then a compromised
  // plug starts exfiltrating data and publishing rogue MQTT commands —
  // behaviours the gateway has never seen.
  gen::ScenarioConfig live_config;
  live_config.seed = 12;
  live_config.duration_s = 300.0;
  live_config.benign_devices = 10;
  live_config.attacks = {
      {pkt::AttackType::kSynFlood, 20.0, 60.0, 40.0},
      {pkt::AttackType::kExfiltration, 120.0, 200.0, 30.0},
      {pkt::AttackType::kMqttHijack, 220.0, 280.0, 20.0},
  };
  const auto live = gen::generate_wifi_trace(live_config);

  std::size_t attacks = 0, caught = 0, benign = 0, collateral = 0;
  for (const auto& p : live.packets()) {
    const auto verdict = gateway.handle(p);
    const bool dropped = verdict.action == p4::ActionOp::kDrop;
    if (p.is_attack()) {
      ++attacks;
      caught += dropped ? 1 : 0;
    } else {
      ++benign;
      collateral += dropped ? 1 : 0;
    }
  }

  std::printf("\n== week one report ==\n");
  std::printf("attack packets blocked: %zu/%zu (%.1f%%)\n", caught, attacks,
              100.0 * static_cast<double>(caught) / static_cast<double>(attacks));
  std::printf("benign packets lost:    %zu/%zu (%.2f%%)\n", collateral, benign,
              100.0 * static_cast<double>(collateral) / static_cast<double>(benign));
  std::printf("re-trainings performed: %zu\n", gateway.retrain_count());

  std::printf("\ncontroller event log:\n");
  for (const auto& e : gateway.events()) {
    std::printf("  t=%6.1fs  %-24s rules=%zu  miss-rate=%.2f\n", e.time_s,
                sdn::controller_event_name(e.type), e.rules_installed,
                e.observed_miss_rate);
  }

  const auto& stats = gateway.data_plane().stats();
  std::printf("\ndata plane since last reload: %llu pkts, %llu dropped, %llu mirrored\n",
              static_cast<unsigned long long>(stats.packets),
              static_cast<unsigned long long>(stats.dropped),
              static_cast<unsigned long long>(stats.mirrored));
  return 0;
}
