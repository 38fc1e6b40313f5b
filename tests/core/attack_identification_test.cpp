// Attack-class tagging: entries carry the attack family their tree path
// covered, and the switch surfaces it per verdict + per-class counters.
#include <gtest/gtest.h>

#include <map>

#include "core/pipeline.h"
#include "trafficgen/datasets.h"

namespace p4iot::core {
namespace {

std::pair<pkt::Trace, pkt::Trace> wifi_split() {
  gen::DatasetOptions options;
  options.seed = 61;
  options.duration_s = 30.0;
  options.benign_devices = 6;
  const auto trace = gen::make_dataset(gen::DatasetId::kWifiIp, options);
  common::Rng rng(1);
  return trace.split(0.7, rng);
}

PipelineConfig fast_config() {
  auto config = PipelineConfig::with_fields(4);
  config.stage1.probe.epochs = 6;
  config.stage1.probe.hidden_sizes = {24, 12};
  config.stage1.autoencoder.epochs = 5;
  config.stage1.autoencoder.encoder_sizes = {16, 8};
  return config;
}

TEST(AttackIdentification, EntriesCarryClassTags) {
  const auto [train, test] = wifi_split();
  TwoStagePipeline pipeline(fast_config());
  pipeline.fit(train);

  std::size_t tagged = 0;
  for (const auto& entry : pipeline.rules().entries)
    tagged += entry.attack_class != 0 ? 1 : 0;
  // Every drop entry descends from an attack-dominated path that covered
  // at least one training attack packet.
  EXPECT_GT(tagged, pipeline.rules().entries.size() / 2);
  for (const auto& path : pipeline.rules().paths)
    EXPECT_LT(static_cast<int>(path.dominant_attack), pkt::kNumAttackTypes);
}

double identification_accuracy(bool class_aware) {
  const auto [train, test] = wifi_split();
  auto config = fast_config();
  config.stage2.class_aware = class_aware;
  config.stage2.max_entries = 1024;  // identification costs table space (R11)
  TwoStagePipeline pipeline(config);
  pipeline.fit(train);
  auto sw = pipeline.make_switch(2048);

  std::size_t dropped_attacks = 0, correctly_identified = 0;
  for (const auto& p : test.packets()) {
    const auto verdict = sw.process(p);
    if (verdict.action != p4::ActionOp::kDrop || !p.is_attack()) continue;
    ++dropped_attacks;
    correctly_identified +=
        verdict.attack_class == static_cast<std::uint8_t>(p.attack) ? 1 : 0;
  }
  if (dropped_attacks < 100) return -1.0;  // treated as failure by callers
  return static_cast<double>(correctly_identified) /
         static_cast<double>(dropped_attacks);
}

TEST(AttackIdentification, BinaryObjectiveBeatsChance) {
  // Paths can merge families that share header signatures, so the binary
  // objective identifies coarsely — but far above the ~17% chance level of
  // six families.
  EXPECT_GT(identification_accuracy(/*class_aware=*/false), 0.35);
}

TEST(AttackIdentification, ClassAwareIdentifiesBetter) {
  const double binary = identification_accuracy(false);
  const double aware = identification_accuracy(true);
  ASSERT_GT(binary, 0.0);
  ASSERT_GT(aware, 0.0);
  EXPECT_GT(aware, binary);
  EXPECT_GT(aware, 0.5);
}

TEST(AttackIdentification, PerClassCountersSumToDrops) {
  const auto [train, test] = wifi_split();
  TwoStagePipeline pipeline(fast_config());
  pipeline.fit(train);
  auto sw = pipeline.make_switch();
  for (const auto& p : test.packets()) sw.process(p);

  std::uint64_t by_class = 0;
  for (const auto c : sw.stats().drops_by_class) by_class += c;
  EXPECT_EQ(by_class, sw.stats().dropped);
}

TEST(AttackIdentification, PermitVerdictsUntagged) {
  const auto [train, test] = wifi_split();
  TwoStagePipeline pipeline(fast_config());
  pipeline.fit(train);
  auto sw = pipeline.make_switch();
  for (const auto& p : test.packets()) {
    const auto verdict = sw.process(p);
    if (verdict.entry_index < 0) {
      EXPECT_EQ(verdict.attack_class, 0);
    }
  }
}

}  // namespace
}  // namespace p4iot::core
