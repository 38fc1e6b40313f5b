#include "core/serialize.h"

#include <cstdio>
#include <cstring>

namespace p4iot::core {

namespace {

constexpr char kMagic[8] = {'P', '4', 'I', 'O', 'T', 'M', 'D', 'L'};
constexpr std::uint32_t kVersion = 1;

class Writer {
 public:
  explicit Writer(std::FILE* f) : f_(f) {}
  bool ok() const noexcept { return ok_; }

  void raw(const void* data, std::size_t len) {
    ok_ = ok_ && std::fwrite(data, 1, len, f_) == len;
  }
  void u8(std::uint8_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

 private:
  std::FILE* f_;
  bool ok_ = true;
};

class Reader {
 public:
  explicit Reader(std::FILE* f) : f_(f) {}
  bool ok() const noexcept { return ok_; }

  void raw(void* data, std::size_t len) {
    ok_ = ok_ && std::fread(data, 1, len, f_) == len;
  }
  std::uint8_t u8() { std::uint8_t v = 0; raw(&v, sizeof v); return v; }
  std::uint32_t u32() { std::uint32_t v = 0; raw(&v, sizeof v); return v; }
  std::uint64_t u64() { std::uint64_t v = 0; raw(&v, sizeof v); return v; }
  std::int32_t i32() { std::int32_t v = 0; raw(&v, sizeof v); return v; }
  double f64() { double v = 0; raw(&v, sizeof v); return v; }
  std::string str() {
    const std::uint32_t len = u32();
    if (!ok_ || len > (1u << 20)) { ok_ = false; return {}; }
    std::string s(len, '\0');
    raw(s.data(), len);
    return s;
  }

 private:
  std::FILE* f_;
  bool ok_ = true;
};

void write_field_ref(Writer& w, const p4::FieldRef& ref) {
  w.str(ref.name);
  w.u64(ref.offset);
  w.u64(ref.width);
}

p4::FieldRef read_field_ref(Reader& r) {
  p4::FieldRef ref;
  ref.name = r.str();
  ref.offset = static_cast<std::size_t>(r.u64());
  ref.width = static_cast<std::size_t>(r.u64());
  return ref;
}

}  // namespace

bool save_pipeline(const TwoStagePipeline& pipeline, const std::string& path) {
  if (!pipeline.trained()) return false;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  Writer w(f);

  w.raw(kMagic, sizeof kMagic);
  w.u32(kVersion);

  // Selection.
  const auto& selection = pipeline.selection();
  w.u32(static_cast<std::uint32_t>(selection.fields.size()));
  for (const auto& field : selection.fields) {
    w.u64(field.offset);
    w.u64(field.width);
    w.f64(field.saliency);
  }
  w.u32(static_cast<std::uint32_t>(selection.byte_saliency.size()));
  for (const double s : selection.byte_saliency) w.f64(s);

  // Program.
  const auto& rules = pipeline.rules();
  const auto& program = rules.program;
  w.str(program.name);
  w.u64(program.parser.window_bytes);
  w.u32(static_cast<std::uint32_t>(program.parser.fields.size()));
  for (const auto& field : program.parser.fields) write_field_ref(w, field);
  w.u32(static_cast<std::uint32_t>(program.keys.size()));
  for (const auto& key : program.keys) {
    write_field_ref(w, key.field);
    w.u8(static_cast<std::uint8_t>(key.kind));
  }
  w.u8(static_cast<std::uint8_t>(program.default_action));

  // Entries.
  w.u32(static_cast<std::uint32_t>(rules.entries.size()));
  for (const auto& entry : rules.entries) {
    w.u32(static_cast<std::uint32_t>(entry.fields.size()));
    for (const auto& field : entry.fields) {
      w.u64(field.value);
      w.u64(field.mask);
      w.u64(field.range_lo);
      w.u64(field.range_hi);
    }
    w.i32(entry.priority);
    w.u8(static_cast<std::uint8_t>(entry.action));
    w.u8(entry.attack_class);
    w.str(entry.note);
  }

  // Stage-2 tree (for soft scores).
  const auto& nodes = rules.tree.nodes();
  w.u32(static_cast<std::uint32_t>(nodes.size()));
  for (const auto& node : nodes) {
    w.i32(node.feature);
    w.f64(node.threshold);
    w.i32(node.left);
    w.i32(node.right);
    w.f64(node.attack_probability);
    w.u64(node.samples);
  }

  const bool ok = w.ok();
  return std::fclose(f) == 0 && ok;
}

std::optional<TwoStagePipeline> load_pipeline(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  Reader r(f);
  auto fail = [&]() -> std::optional<TwoStagePipeline> {
    std::fclose(f);
    return std::nullopt;
  };
  // Enum bytes are range-checked before the cast: an out-of-range MatchKind
  // or ActionOp would fall through every switch on the packet path.
  auto read_action = [&](p4::ActionOp& action) {
    const std::uint8_t raw = r.u8();
    action = static_cast<p4::ActionOp>(raw);
    return raw <= static_cast<std::uint8_t>(p4::ActionOp::kMirror);
  };

  char magic[8];
  r.raw(magic, sizeof magic);
  if (!r.ok() || std::memcmp(magic, kMagic, sizeof kMagic) != 0) return fail();
  if (r.u32() != kVersion) return fail();

  FieldSelectionResult selection;
  const std::uint32_t n_fields = r.u32();
  if (!r.ok() || n_fields > 1024) return fail();
  for (std::uint32_t i = 0; i < n_fields; ++i) {
    SelectedField field;
    field.offset = static_cast<std::size_t>(r.u64());
    field.width = static_cast<std::size_t>(r.u64());
    field.saliency = r.f64();
    selection.fields.push_back(field);
  }
  const std::uint32_t n_saliency = r.u32();
  if (!r.ok() || n_saliency > (1u << 16)) return fail();
  for (std::uint32_t i = 0; i < n_saliency; ++i)
    selection.byte_saliency.push_back(r.f64());

  SynthesizedRules rules;
  rules.program.name = r.str();
  rules.program.parser.window_bytes = static_cast<std::size_t>(r.u64());
  const std::uint32_t n_parser = r.u32();
  if (!r.ok() || n_parser > 1024) return fail();
  for (std::uint32_t i = 0; i < n_parser; ++i)
    rules.program.parser.fields.push_back(read_field_ref(r));
  const std::uint32_t n_keys = r.u32();
  if (!r.ok() || n_keys > 1024) return fail();
  for (std::uint32_t i = 0; i < n_keys; ++i) {
    p4::KeySpec key;
    key.field = read_field_ref(r);
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(p4::MatchKind::kRange)) return fail();
    key.kind = static_cast<p4::MatchKind>(kind);
    rules.program.keys.push_back(std::move(key));
  }
  if (!read_action(rules.program.default_action)) return fail();

  const std::uint32_t n_entries = r.u32();
  if (!r.ok() || n_entries > (1u << 20)) return fail();
  for (std::uint32_t i = 0; i < n_entries; ++i) {
    p4::TableEntry entry;
    // One match field per key: entry_matches() indexes fields by key.
    const std::uint32_t n_match = r.u32();
    if (!r.ok() || n_match != n_keys) return fail();
    for (std::uint32_t j = 0; j < n_match; ++j) {
      p4::MatchField field;
      field.value = r.u64();
      field.mask = r.u64();
      field.range_lo = r.u64();
      field.range_hi = r.u64();
      entry.fields.push_back(field);
    }
    entry.priority = r.i32();
    if (!read_action(entry.action)) return fail();
    entry.attack_class = r.u8();
    entry.note = r.str();
    rules.entries.push_back(std::move(entry));
  }

  const std::uint32_t n_nodes = r.u32();
  if (!r.ok() || n_nodes > (1u << 22)) return fail();
  std::vector<ml::TreeNode> nodes;
  nodes.reserve(n_nodes);
  for (std::uint32_t i = 0; i < n_nodes; ++i) {
    ml::TreeNode node;
    node.feature = r.i32();
    node.threshold = r.f64();
    node.left = r.i32();
    node.right = r.i32();
    node.attack_probability = r.f64();
    node.samples = static_cast<std::size_t>(r.u64());
    // Split nodes read an extracted field and point forward to children
    // (the tree is stored in preorder), so a walk can neither index past
    // the sample nor loop.
    const auto n = static_cast<std::int64_t>(n_nodes);
    if (!node.is_leaf() &&
        (node.feature < 0 ||
         static_cast<std::size_t>(node.feature) >= rules.program.parser.fields.size() ||
         node.left <= static_cast<std::int64_t>(i) || node.left >= n ||
         node.right <= static_cast<std::int64_t>(i) || node.right >= n))
      return fail();
    nodes.push_back(node);
  }
  rules.tree = ml::DecisionTree::from_nodes(std::move(nodes));

  std::fclose(f);
  if (!r.ok()) return std::nullopt;

  std::size_t key_bits = 0;
  for (const auto& key : rules.program.keys) key_bits += key.field.bit_width();
  rules.tcam_bits = rules.entries.size() * 2 * key_bits;

  PipelineConfig config;
  config.window_bytes = rules.program.parser.window_bytes;
  config.stage1.num_fields = selection.fields.size();
  return TwoStagePipeline::restore(std::move(config), std::move(selection),
                                   std::move(rules));
}

}  // namespace p4iot::core
