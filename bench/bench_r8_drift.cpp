// R8 (Figure): online adaptation under attack drift.
//
// A gateway is bootstrapped on one attack family; mid-run a new family
// appears. Series: per-5s-window detection rate for (a) static rules and
// (b) the closed-loop controller that samples, detects drift and re-trains.
// Expected shape: both detect the known attack; after drift the static
// gateway's detection collapses and stays down while the adaptive one
// recovers within a few windows.
#include "bench_common.h"

#include "common/csv.h"
#include "sdn/controller.h"
#include "trafficgen/wifi_gen.h"

using namespace p4iot;

namespace {

pkt::Trace drift_trace(std::uint64_t seed) {
  // Phase 1 (0-60s): SYN flood (known from bootstrap).
  // Phase 2 (60-180s): brute force — a different header signature.
  gen::ScenarioConfig config;
  config.seed = seed;
  config.duration_s = 180.0;
  config.benign_devices = 10;
  config.attacks = {
      {pkt::AttackType::kSynFlood, 10.0, 55.0, 40.0},
      {pkt::AttackType::kBruteForce, 60.0, 175.0, 40.0},
  };
  return gen::generate_wifi_trace(config);
}

}  // namespace

int main(int argc, char** argv) {
  // Bootstrap capture: benign + SYN flood only.
  gen::ScenarioConfig boot_config;
  boot_config.seed = 7;
  boot_config.duration_s = 60.0;
  boot_config.benign_devices = 10;
  boot_config.attacks = {{pkt::AttackType::kSynFlood, 10.0, 50.0, 40.0}};
  const auto bootstrap = gen::generate_wifi_trace(boot_config);

  sdn::ControllerConfig controller_config;
  controller_config.pipeline = bench::standard_pipeline(4);
  controller_config.sample_probability = 0.25;
  controller_config.drift_window = 150;
  controller_config.drift_miss_threshold = 0.3;
  controller_config.min_retrain_gap_s = 5.0;

  // Adaptive gateway: oracle labels a sample of traffic (the out-of-band
  // IDS feedback loop — see DESIGN.md).
  sdn::Controller adaptive(controller_config,
                           [](const pkt::Packet& p) {
                             return std::optional<bool>(p.is_attack());
                           });
  if (!adaptive.bootstrap(bootstrap)) {
    std::fprintf(stderr, "bootstrap failed\n");
    return 1;
  }

  // Static gateway: same initial pipeline, never re-trained.
  core::TwoStagePipeline static_pipeline(bench::standard_pipeline(4));
  static_pipeline.fit(bootstrap);
  auto static_switch = static_pipeline.make_switch();

  const auto live = drift_trace(19);

  constexpr double kWindowSeconds = 5.0;
  struct Window {
    std::size_t attacks = 0, static_drops = 0, adaptive_drops = 0;
    std::size_t benign = 0, static_fp = 0, adaptive_fp = 0;
  };
  std::vector<Window> windows(
      static_cast<std::size_t>(180.0 / kWindowSeconds) + 1);

  for (const auto& p : live.packets()) {
    const auto w = static_cast<std::size_t>(p.timestamp_s / kWindowSeconds);
    if (w >= windows.size()) continue;
    const bool static_drop = static_switch.process(p).action == p4::ActionOp::kDrop;
    const bool adaptive_drop = adaptive.handle(p).action == p4::ActionOp::kDrop;
    if (p.is_attack()) {
      ++windows[w].attacks;
      windows[w].static_drops += static_drop ? 1 : 0;
      windows[w].adaptive_drops += adaptive_drop ? 1 : 0;
    } else {
      ++windows[w].benign;
      windows[w].static_fp += static_drop ? 1 : 0;
      windows[w].adaptive_fp += adaptive_drop ? 1 : 0;
    }
  }

  common::TextTable table("R8: Detection rate over time under drift (new attack at t=60s)");
  table.set_header({"t_start_s", "attack_pkts", "static_detect", "adaptive_detect",
                    "static_fpr", "adaptive_fpr"});
  common::CsvWriter csv;
  csv.set_header({"t", "attacks", "static_rate", "adaptive_rate"});
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const auto& win = windows[w];
    if (win.attacks == 0 && win.benign == 0) continue;
    auto rate = [](std::size_t n, std::size_t d) {
      return d ? static_cast<double>(n) / static_cast<double>(d) : 0.0;
    };
    table.add_row({common::TextTable::num(static_cast<double>(w) * kWindowSeconds, 0),
                   common::TextTable::integer(static_cast<long long>(win.attacks)),
                   win.attacks ? common::TextTable::num(rate(win.static_drops, win.attacks), 2)
                               : "-",
                   win.attacks
                       ? common::TextTable::num(rate(win.adaptive_drops, win.attacks), 2)
                       : "-",
                   common::TextTable::num(rate(win.static_fp, win.benign), 3),
                   common::TextTable::num(rate(win.adaptive_fp, win.benign), 3)});
    csv.add_row({common::TextTable::num(static_cast<double>(w) * kWindowSeconds, 0),
                 std::to_string(win.attacks),
                 common::TextTable::num(rate(win.static_drops, win.attacks), 4),
                 common::TextTable::num(rate(win.adaptive_drops, win.attacks), 4)});
  }
  table.print();

  common::TextTable events("R8b: Controller events");
  events.set_header({"t_s", "event", "rules", "observed_miss"});
  for (const auto& e : adaptive.events()) {
    events.add_row({common::TextTable::num(e.time_s, 1),
                    sdn::controller_event_name(e.type),
                    common::TextTable::integer(static_cast<long long>(e.rules_installed)),
                    common::TextTable::num(e.observed_miss_rate, 2)});
  }
  events.print();
  const auto csv_path = bench::out_path(argc, argv, "r8_drift.csv");
  if (csv.write_file(csv_path)) std::printf("series written to %s\n", csv_path.c_str());
  return 0;
}
