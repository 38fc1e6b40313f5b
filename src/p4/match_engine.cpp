#include "p4/match_engine.h"

#include <algorithm>

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

CompiledMatchEngine::CompiledMatchEngine(std::vector<KeySpec> keys)
    : keys_(std::move(keys)) {}

std::vector<std::uint64_t> CompiledMatchEngine::entry_signature(
    const TableEntry& entry) const {
  std::vector<std::uint64_t> masks(keys_.size(), 0);
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    switch (keys_[i].kind) {
      case MatchKind::kExact:
        masks[i] = field_width_mask(keys_[i].field.width);
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
  return masks;
}

std::uint64_t CompiledMatchEngine::hash_masked(
    std::span<const std::uint64_t> values,
    std::span<const std::uint64_t> masks) const noexcept {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < masks.size(); ++i) {
    const std::uint64_t v = i < values.size() ? values[i] : 0;
    h = mix64(h, v & masks[i]);
  }
  return h;
}

std::uint64_t CompiledMatchEngine::entry_hash(
    const TableEntry& entry, std::span<const std::uint64_t> masks) const noexcept {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < masks.size(); ++i)
    h = mix64(h, entry.fields[i].value & masks[i]);
  return h;
}

std::size_t CompiledMatchEngine::group_for(std::vector<std::uint64_t> masks) {
  std::uint64_t sig_hash = kFnvOffset;
  for (const auto m : masks) sig_hash = mix64(sig_hash, m);
  auto& candidates = signature_index_[sig_hash];
  for (const auto id : candidates)
    if (groups_[id].masks == masks) return id;
  const auto id = static_cast<std::uint32_t>(groups_.size());
  groups_.push_back(Group{std::move(masks), knpos, {}});
  candidates.push_back(id);
  return id;
}

void CompiledMatchEngine::refresh_min_index(Group& group) noexcept {
  group.min_index = knpos;
  for (const auto& [hash, bucket] : group.buckets) {
    (void)hash;
    if (!bucket.empty())
      group.min_index = std::min(group.min_index,
                                 static_cast<std::size_t>(bucket.front()));
  }
}

void CompiledMatchEngine::sort_probe_order() {
  probe_order_.clear();
  for (std::uint32_t id = 0; id < groups_.size(); ++id)
    if (groups_[id].min_index != knpos) probe_order_.push_back(id);
  std::sort(probe_order_.begin(), probe_order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return groups_[a].min_index < groups_[b].min_index;
            });
  // Erasing a group's last entry leaves a dead slot in groups_ (ids are
  // stable); the live count is what probing — and telemetry — care about.
  stats_.groups = probe_order_.size();
}

void CompiledMatchEngine::rebuild(std::span<const TableEntry> entries,
                                  std::uint64_t version) {
  groups_.clear();
  probe_order_.clear();
  signature_index_.clear();
  stats_.groups = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto id = group_for(entry_signature(entries[i]));
    Group& group = groups_[id];
    group.buckets[entry_hash(entries[i], group.masks)].push_back(
        static_cast<std::uint32_t>(i));
    group.min_index = std::min(group.min_index, i);
  }
  sort_probe_order();
  stats_.indexed_entries = entries.size();
  ++stats_.full_rebuilds;
  synced_version_ = version;
}

void CompiledMatchEngine::on_insert(std::span<const TableEntry> entries,
                                    std::size_t index, std::uint64_t version) {
  // Shift stored indices >= index up by one (entries after the insertion
  // point moved), then slot the new entry into its group. No re-hashing:
  // signatures and masked tuples are position-independent.
  for (auto& group : groups_)
    for (auto& [hash, bucket] : group.buckets) {
      (void)hash;
      for (auto& idx : bucket)
        if (idx >= index) ++idx;
    }
  for (auto& group : groups_)
    if (group.min_index != knpos && group.min_index >= index) ++group.min_index;

  const auto id = group_for(entry_signature(entries[index]));
  Group& group = groups_[id];
  auto& bucket = group.buckets[entry_hash(entries[index], group.masks)];
  bucket.insert(std::upper_bound(bucket.begin(), bucket.end(),
                                 static_cast<std::uint32_t>(index)),
                static_cast<std::uint32_t>(index));
  group.min_index = std::min(group.min_index, index);
  sort_probe_order();
  ++stats_.indexed_entries;
  ++stats_.incremental_inserts;
  synced_version_ = version;
}

void CompiledMatchEngine::on_erase(std::span<const TableEntry> entries,
                                   std::size_t index, std::uint64_t version) {
  const auto id = group_for(entry_signature(entries[index]));
  Group& group = groups_[id];
  const auto hash = entry_hash(entries[index], group.masks);
  auto bucket_it = group.buckets.find(hash);
  if (bucket_it != group.buckets.end()) {
    auto& bucket = bucket_it->second;
    const auto pos = std::find(bucket.begin(), bucket.end(),
                               static_cast<std::uint32_t>(index));
    if (pos != bucket.end()) bucket.erase(pos);
    if (bucket.empty()) group.buckets.erase(bucket_it);
  }
  for (auto& g : groups_)
    for (auto& [h, bucket] : g.buckets) {
      (void)h;
      for (auto& idx : bucket)
        if (idx > index) --idx;
    }
  refresh_min_index(group);
  for (auto& g : groups_)
    if (&g != &group && g.min_index != knpos && g.min_index > index) --g.min_index;
  sort_probe_order();
  --stats_.indexed_entries;
  ++stats_.incremental_erases;
  synced_version_ = version;
}

std::size_t CompiledMatchEngine::find(std::span<const std::uint64_t> values,
                                      std::span<const TableEntry> entries) const {
  std::size_t best = knpos;
  for (const auto id : probe_order_) {
    const Group& group = groups_[id];
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
