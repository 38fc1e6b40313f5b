#include "core/serialize.h"
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/evaluation.h"
#include "trafficgen/datasets.h"

namespace p4iot::core {
namespace {

TwoStagePipeline trained_pipeline(const pkt::Trace& train) {
  // Serialization tests only compare a pipeline against its reloaded twin,
  // so fit quality is irrelevant — the smallest trainable setup is fine.
  auto config = PipelineConfig::with_fields(4);
  config.stage1.probe.epochs = 5;
  config.stage1.probe.hidden_sizes = {24, 12};
  config.stage1.autoencoder.epochs = 4;
  config.stage1.autoencoder.encoder_sizes = {16, 8};
  TwoStagePipeline pipeline(config);
  pipeline.fit(train);
  return pipeline;
}

pkt::Trace small_trace() {
  gen::DatasetOptions options;
  options.seed = 31;
  options.duration_s = 12.0;
  options.benign_devices = 6;
  return gen::make_dataset(gen::DatasetId::kWifiIp, options);
}

TEST(Serialize, RoundTripPredictionsIdentical) {
  const auto trace = small_trace();
  common::Rng rng(1);
  const auto [train, test] = trace.split(0.7, rng);
  const auto pipeline = trained_pipeline(train);

  const std::string path = ::testing::TempDir() + "/p4iot_model.bin";
  ASSERT_TRUE(save_pipeline(pipeline, path));
  const auto loaded = load_pipeline(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_TRUE(loaded->trained());

  for (const auto& p : test.packets()) {
    EXPECT_EQ(loaded->predict(p), pipeline.predict(p));
    EXPECT_DOUBLE_EQ(loaded->score(p), pipeline.score(p));
  }
  std::remove(path.c_str());
}

TEST(Serialize, RoundTripPreservesStructure) {
  const auto pipeline = trained_pipeline(small_trace());
  const std::string path = ::testing::TempDir() + "/p4iot_model2.bin";
  ASSERT_TRUE(save_pipeline(pipeline, path));
  const auto loaded = load_pipeline(path);
  ASSERT_TRUE(loaded.has_value());

  EXPECT_EQ(loaded->selection().fields.size(), pipeline.selection().fields.size());
  for (std::size_t i = 0; i < pipeline.selection().fields.size(); ++i)
    EXPECT_EQ(loaded->selection().fields[i], pipeline.selection().fields[i]);

  EXPECT_EQ(loaded->rules().entries.size(), pipeline.rules().entries.size());
  EXPECT_EQ(loaded->rules().tcam_bits, pipeline.rules().tcam_bits);
  EXPECT_EQ(loaded->rules().program.default_action,
            pipeline.rules().program.default_action);
  EXPECT_EQ(loaded->rules().tree.nodes().size(), pipeline.rules().tree.nodes().size());
  std::remove(path.c_str());
}

TEST(Serialize, RoundTripP4SourceIdentical) {
  const auto pipeline = trained_pipeline(small_trace());
  const std::string path = ::testing::TempDir() + "/p4iot_model3.bin";
  ASSERT_TRUE(save_pipeline(pipeline, path));
  const auto loaded = load_pipeline(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->p4_source(), pipeline.p4_source());
  EXPECT_EQ(loaded->runtime_commands(), pipeline.runtime_commands());
  std::remove(path.c_str());
}

TEST(Serialize, LoadedPipelineInstallsOnSwitch) {
  const auto trace = small_trace();
  common::Rng rng(2);
  const auto [train, test] = trace.split(0.7, rng);
  const auto pipeline = trained_pipeline(train);

  const std::string path = ::testing::TempDir() + "/p4iot_model4.bin";
  ASSERT_TRUE(save_pipeline(pipeline, path));
  const auto loaded = load_pipeline(path);
  ASSERT_TRUE(loaded.has_value());

  auto original_switch = pipeline.make_switch();
  auto loaded_switch = loaded->make_switch();
  const auto cm_a = evaluate_switch(original_switch, test);
  const auto cm_b = evaluate_switch(loaded_switch, test);
  EXPECT_EQ(cm_a.tp, cm_b.tp);
  EXPECT_EQ(cm_a.fp, cm_b.fp);
  std::remove(path.c_str());
}

TEST(Serialize, UntrainedPipelineRefusesToSave) {
  const TwoStagePipeline pipeline;
  EXPECT_FALSE(save_pipeline(pipeline, ::testing::TempDir() + "/p4iot_untrained.bin"));
}

TEST(Serialize, MissingFileFailsToLoad) {
  EXPECT_FALSE(load_pipeline("/nonexistent/model.bin").has_value());
}

TEST(Serialize, CorruptFileFailsToLoad) {
  const std::string path = ::testing::TempDir() + "/p4iot_corrupt_model.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("GARBAGEGARBAGEGARBAGE", 1, 21, f);
  std::fclose(f);
  EXPECT_FALSE(load_pipeline(path).has_value());
  std::remove(path.c_str());
}

TEST(Serialize, TruncatedFileFailsToLoad) {
  const auto pipeline = trained_pipeline(small_trace());
  const std::string path = ::testing::TempDir() + "/p4iot_trunc_model.bin";
  ASSERT_TRUE(save_pipeline(pipeline, path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  EXPECT_FALSE(load_pipeline(path).has_value());
  std::remove(path.c_str());
}

// Byte offsets of the fields the malformed-model tests patch, found by
// walking the save format over the pipeline that was saved.
struct ModelLayout {
  std::size_t first_key_kind = 0;
  std::size_t default_action = 0;
  std::size_t first_entry_match_count = 0;
  std::size_t first_entry_action = 0;
  std::size_t root_node = 0;  ///< i32 feature, f64 threshold, i32 left, i32 right
};

ModelLayout model_layout(const TwoStagePipeline& pipeline) {
  const auto field_ref_bytes = [](const p4::FieldRef& ref) {
    return 4 + ref.name.size() + 8 + 8;
  };
  ModelLayout at;
  std::size_t pos = 8 + 4;  // magic, version
  pos += 4 + pipeline.selection().fields.size() * (8 + 8 + 8);
  pos += 4 + pipeline.selection().byte_saliency.size() * 8;
  const auto& program = pipeline.rules().program;
  pos += 4 + program.name.size() + 8;
  pos += 4;
  for (const auto& field : program.parser.fields) pos += field_ref_bytes(field);
  pos += 4;
  at.first_key_kind = pos + field_ref_bytes(program.keys.front().field);
  for (const auto& key : program.keys) pos += field_ref_bytes(key.field) + 1;
  at.default_action = pos;
  pos += 1 + 4;
  at.first_entry_match_count = pos;
  for (const auto& entry : pipeline.rules().entries) {
    pos += 4 + entry.fields.size() * 32 + 4;
    if (&entry == &pipeline.rules().entries.front()) at.first_entry_action = pos;
    pos += 1 + 1 + 4 + entry.note.size();
  }
  at.root_node = pos + 4;
  return at;
}

std::vector<char> read_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::vector<char> bytes;
  if (!f) return bytes;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.insert(bytes.end(), buf, buf + n);
  std::fclose(f);
  return bytes;
}

bool loads_after_patch(const std::vector<char>& bytes, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  const bool loaded = load_pipeline(path).has_value();
  std::remove(path.c_str());
  return loaded;
}

template <typename T>
void patch(std::vector<char>& bytes, std::size_t pos, T value) {
  std::memcpy(bytes.data() + pos, &value, sizeof value);
}

class MalformedModel : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = new TwoStagePipeline(trained_pipeline(small_trace()));
    const std::string saved = ::testing::TempDir() + "/p4iot_malformed_src.bin";
    ASSERT_TRUE(save_pipeline(*pipeline_, saved));
    bytes_ = new std::vector<char>(read_bytes(saved));
    std::remove(saved.c_str());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete bytes_;
  }
  void SetUp() override {
    ASSERT_FALSE(pipeline_->rules().entries.empty());
    ASSERT_FALSE(pipeline_->rules().tree.nodes().front().is_leaf());
    layout_ = model_layout(*pipeline_);
    bytes = *bytes_;
    // The walk must agree with the file, or the patches below hit the
    // wrong bytes: the unpatched copy loads and its last node ends the file.
    ASSERT_TRUE(loads_after_patch(bytes, path));
    ASSERT_EQ(layout_.root_node + pipeline_->rules().tree.nodes().size() * 36,
              bytes.size());
  }

  static TwoStagePipeline* pipeline_;
  static std::vector<char>* bytes_;
  ModelLayout layout_;
  std::vector<char> bytes;
  const std::string path = ::testing::TempDir() + "/p4iot_malformed.bin";
};
TwoStagePipeline* MalformedModel::pipeline_ = nullptr;
std::vector<char>* MalformedModel::bytes_ = nullptr;

TEST_F(MalformedModel, OutOfRangeMatchKindFailsToLoad) {
  patch<std::uint8_t>(bytes, layout_.first_key_kind, 4);
  EXPECT_FALSE(loads_after_patch(bytes, path));
}

TEST_F(MalformedModel, OutOfRangeActionFailsToLoad) {
  patch<std::uint8_t>(bytes, layout_.default_action, 3);
  EXPECT_FALSE(loads_after_patch(bytes, path));
  bytes = *bytes_;
  patch<std::uint8_t>(bytes, layout_.first_entry_action, 0xff);
  EXPECT_FALSE(loads_after_patch(bytes, path));
}

TEST_F(MalformedModel, EntryFieldCountOtherThanKeyCountFailsToLoad) {
  // Drop the first entry's last match field and its count in step, so the
  // rest of the file still parses: only the count check can reject it.
  const std::size_t keys = pipeline_->rules().program.keys.size();
  patch<std::uint32_t>(bytes, layout_.first_entry_match_count,
                       static_cast<std::uint32_t>(keys - 1));
  const auto last_field = static_cast<std::ptrdiff_t>(
      layout_.first_entry_match_count + 4 + (keys - 1) * 32);
  bytes.erase(bytes.begin() + last_field, bytes.begin() + last_field + 32);
  EXPECT_FALSE(loads_after_patch(bytes, path));
}

TEST_F(MalformedModel, OutOfRangeTreeFeatureFailsToLoad) {
  patch<std::int32_t>(bytes, layout_.root_node,
                      static_cast<std::int32_t>(pipeline_->rules().program.parser.fields.size()));
  EXPECT_FALSE(loads_after_patch(bytes, path));
}

TEST_F(MalformedModel, OutOfRangeTreeChildFailsToLoad) {
  const auto nodes = static_cast<std::int32_t>(pipeline_->rules().tree.nodes().size());
  patch<std::int32_t>(bytes, layout_.root_node + 12, nodes);  // left
  EXPECT_FALSE(loads_after_patch(bytes, path));
  bytes = *bytes_;
  patch<std::int32_t>(bytes, layout_.root_node + 16, 0);  // right: a cycle
  EXPECT_FALSE(loads_after_patch(bytes, path));
}

}  // namespace
}  // namespace p4iot::core
