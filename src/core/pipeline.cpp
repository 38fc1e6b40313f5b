#include "core/pipeline.h"

#include "common/stopwatch.h"
#include "p4/codegen.h"

namespace p4iot::core {

void TwoStagePipeline::fit(const pkt::Trace& train) {
  common::Stopwatch total;

  FieldSelectionConfig stage1 = config_.stage1;
  stage1.window_bytes = config_.window_bytes;

  common::Stopwatch sw1;
  selection_ = select_fields(train, stage1);
  timings_.stage1_seconds = sw1.elapsed_seconds();

  common::Stopwatch sw2;
  rules_ = synthesize_rules(train, selection_.fields, config_.window_bytes, config_.stage2);
  timings_.stage2_seconds = sw2.elapsed_seconds();
  timings_.total_seconds = total.elapsed_seconds();
}

namespace {
int predict_values(const SynthesizedRules& rules, std::span<const std::uint64_t> values) {
  // Evaluate entries exactly as the table would (priority order). This loop
  // deliberately does not call p4::entry_matches: it is the independent
  // software check the switch is tested against
  // (Pipeline.SwitchAgreesWithSoftwarePredict).
  for (const auto& entry : rules.entries) {
    bool match = true;
    for (std::size_t i = 0; i < entry.fields.size() && i < values.size(); ++i) {
      if ((values[i] & entry.fields[i].mask) != entry.fields[i].value) {
        match = false;
        break;
      }
    }
    if (match) return entry.action == p4::ActionOp::kDrop ? 1 : 0;
  }
  return rules.program.default_action == p4::ActionOp::kDrop ? 1 : 0;
}
}  // namespace

int TwoStagePipeline::predict(const pkt::Packet& packet) const {
  if (!trained()) return 0;
  const auto values = rules_.program.parser.extract(packet.view());
  return predict_values(rules_, values);
}

std::vector<int> TwoStagePipeline::predict_batch(
    std::span<const pkt::Packet> packets) const {
  std::vector<int> out(packets.size(), 0);
  if (!trained()) return out;
  p4::FlowVerdictCache cache;
  std::vector<std::uint64_t> values;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    rules_.program.parser.extract_into(packets[i].view(), values);
    if (const p4::LookupResult* hit = cache.find(values)) {
      out[i] = hit->action == p4::ActionOp::kDrop ? 1 : 0;
      continue;
    }
    out[i] = predict_values(rules_, values);
    // Memoize through the cache's LookupResult shape (entry index unused).
    cache.insert(values, {out[i] ? p4::ActionOp::kDrop : p4::ActionOp::kPermit, 0});
  }
  return out;
}

double TwoStagePipeline::score(const pkt::Packet& packet) const {
  if (!trained() || !rules_.tree.trained()) return 0.0;
  const auto values = rules_.program.parser.extract(packet.view());
  std::vector<double> sample;
  sample.reserve(values.size());
  for (const auto v : values) sample.push_back(static_cast<double>(v));
  return rules_.tree.score(sample);
}

p4::P4Switch TwoStagePipeline::make_switch(std::size_t table_capacity) const {
  p4::P4Switch sw(rules_.program, table_capacity);
  sw.install_rules(rules_.entries);
  return sw;
}

std::unique_ptr<p4::DataplaneEngine> TwoStagePipeline::make_engine(
    p4::EngineConfig config) const {
  auto engine = std::make_unique<p4::DataplaneEngine>(rules_.program, config);
  engine->install_rules(rules_.entries);
  return engine;
}

p4::TableWriteStatus TwoStagePipeline::install(p4::P4Switch& sw) const {
  return sw.install_rules(rules_.entries);
}

p4::TableWriteStatus TwoStagePipeline::install(p4::DataplaneEngine& engine) const {
  return engine.install_rules(rules_.entries);
}

std::string TwoStagePipeline::p4_source() const {
  return p4::generate_p4_source(rules_.program);
}

std::string TwoStagePipeline::runtime_commands() const {
  return p4::generate_runtime_commands(rules_.program, rules_.entries);
}

}  // namespace p4iot::core
