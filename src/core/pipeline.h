// End-to-end two-stage pipeline — the library's headline public API.
//
//   TwoStagePipeline pipeline;
//   pipeline.fit(training_trace);                  // stage 1 + stage 2
//   pipeline.install(gateway_switch);              // push rules to the dataplane
//   std::string p4 = pipeline.p4_source();         // inspect the program
//
// The pipeline is also usable as a software classifier (predict/score per
// packet) so experiments can compare it head-to-head with the baselines.
#pragma once

#include <memory>
#include <string>

#include "core/field_selection.h"
#include "core/rule_synthesis.h"
#include "p4/engine.h"
#include "p4/switch.h"

namespace p4iot::core {

struct PipelineConfig {
  std::size_t window_bytes = 64;
  FieldSelectionConfig stage1;
  RuleSynthesisConfig stage2;

  PipelineConfig() { stage1.window_bytes = window_bytes; }

  /// Convenience: set the number of selected fields (the paper's k).
  static PipelineConfig with_fields(std::size_t k) {
    PipelineConfig cfg;
    cfg.stage1.num_fields = k;
    return cfg;
  }
};

struct FitTimings {
  double stage1_seconds = 0.0;
  double stage2_seconds = 0.0;
  double total_seconds = 0.0;
};

class TwoStagePipeline {
 public:
  TwoStagePipeline() = default;
  explicit TwoStagePipeline(PipelineConfig config) : config_(std::move(config)) {}

  /// Run both stages on a labelled training trace.
  void fit(const pkt::Trace& train);

  /// Reconstitute a trained pipeline from persisted state (used by
  /// core/serialize.h; timings are zeroed).
  static TwoStagePipeline restore(PipelineConfig config, FieldSelectionResult selection,
                                  SynthesizedRules rules) {
    TwoStagePipeline pipeline(std::move(config));
    pipeline.selection_ = std::move(selection);
    pipeline.rules_ = std::move(rules);
    return pipeline;
  }

  bool trained() const noexcept { return !rules_.program.parser.fields.empty(); }

  /// Data-plane-equivalent verdict for one packet (rule-set peek).
  int predict(const pkt::Packet& packet) const;
  /// Soft score from the stage-2 tree (for ROC analysis).
  double score(const pkt::Packet& packet) const;

  const FieldSelectionResult& selection() const noexcept { return selection_; }
  const SynthesizedRules& rules() const noexcept { return rules_; }
  const FitTimings& timings() const noexcept { return timings_; }
  const PipelineConfig& config() const noexcept { return config_; }

  /// Build a switch running this pipeline's program with rules installed.
  p4::P4Switch make_switch(std::size_t table_capacity = 1024) const;
  /// Build a sharded multi-worker engine running this pipeline's program
  /// with rules installed on every replica (see p4/engine.h).
  std::unique_ptr<p4::DataplaneEngine> make_engine(p4::EngineConfig config = {}) const;
  /// Install program rules into an existing switch (replaces entries).
  p4::TableWriteStatus install(p4::P4Switch& sw) const;
  /// Install program rules into an existing engine: one control-plane write
  /// publishing a fresh rule snapshot; worker replicas adopt it at their
  /// next chunk boundary (hitless under streaming — see p4/engine.h).
  p4::TableWriteStatus install(p4::DataplaneEngine& engine) const;

  /// Generated P4_16 source and runtime commands.
  std::string p4_source() const;
  std::string runtime_commands() const;

 private:
  PipelineConfig config_;
  FieldSelectionResult selection_;
  SynthesizedRules rules_;
  FitTimings timings_;
};

}  // namespace p4iot::core
