#include "p4/match_engine.h"


namespace p4iot::p4 {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xff)) * kFnvPrime;
    v >>= 8;
  }
  return h;
}

/// Per-field hash masks of `entry` (its group signature) into `masks`.
void entry_signature(const std::vector<KeySpec>& keys, const TableEntry& entry,
                     std::vector<std::uint64_t>& masks) {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    switch (keys[i].kind) {
      case MatchKind::kExact:
        masks[i] = field_width_mask(keys[i].field.width);
        break;
      case MatchKind::kTernary:
      case MatchKind::kLpm:
        masks[i] = entry.fields[i].mask;
        break;
      case MatchKind::kRange:
        masks[i] = 0;  // not hashable; verified in the residual scan
        break;
    }
  }
}

std::uint64_t hash_masked(std::span<const std::uint64_t> values,
                          std::span<const std::uint64_t> masks) noexcept {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < masks.size(); ++i) {
    const std::uint64_t v = i < values.size() ? values[i] : 0;
    h = mix64(h, v & masks[i]);
  }
  return h;
}

std::uint64_t entry_hash(const TableEntry& entry,
                         std::span<const std::uint64_t> masks) noexcept {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < masks.size(); ++i)
    h = mix64(h, entry.fields[i].value & masks[i]);
  return h;
}

}  // namespace

const char* match_backend_name(MatchBackend backend) noexcept {
  switch (backend) {
    case MatchBackend::kLinear: return "linear";
    case MatchBackend::kCompiled: return "compiled";
  }
  return "?";
}

std::optional<MatchBackend> parse_match_backend(std::string_view name) noexcept {
  if (name == "linear") return MatchBackend::kLinear;
  if (name == "compiled") return MatchBackend::kCompiled;
  return std::nullopt;
}

CompiledMatchEngine::CompiledMatchEngine(std::vector<KeySpec> keys,
                                         std::span<const TableEntry> entries)
    : keys_(std::move(keys)) {
  // Entries are visited in index order, so each group is created at its best
  // entry and groups_ comes out already sorted by min_index: probe order.
  // Signature hash → ids of the groups with that hash (told apart by masks).
  std::unordered_multimap<std::uint64_t, std::size_t> signature_index;
  std::vector<std::uint64_t> masks(keys_.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entry_signature(keys_, entries[i], masks);
    std::uint64_t signature = kFnvOffset;
    for (const auto m : masks) signature = mix64(signature, m);
    Group* group = nullptr;
    for (auto [it, end] = signature_index.equal_range(signature); it != end; ++it) {
      if (groups_[it->second].masks == masks) {
        group = &groups_[it->second];
        break;
      }
    }
    if (group == nullptr) {
      signature_index.emplace(signature, groups_.size());
      group = &groups_.emplace_back(Group{masks, i, {}});
    }
    group->buckets[entry_hash(entries[i], group->masks)].push_back(
        static_cast<std::uint32_t>(i));
  }
}

std::size_t CompiledMatchEngine::find(std::span<const std::uint64_t> values,
                                      std::span<const TableEntry> entries) const {
  std::size_t best = knpos;
  for (const Group& group : groups_) {
    // Groups are probed best-first: once the best hit so far precedes every
    // remaining group's best possible entry, no later group can win.
    if (group.min_index >= best) break;
    const auto it = group.buckets.find(hash_masked(values, group.masks));
    if (it == group.buckets.end()) continue;
    for (const auto idx : it->second) {
      if (idx >= best) break;
      // Residual verification: exact reference predicate, so hash
      // collisions and range fields can never produce a wrong winner.
      if (entry_matches(keys_, entries[idx], values)) {
        best = idx;
        break;
      }
    }
  }
  return best;
}

}  // namespace p4iot::p4
