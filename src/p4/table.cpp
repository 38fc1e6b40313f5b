#include "p4/table.h"

#include <algorithm>

namespace p4iot::p4 {

const char* table_write_status_name(TableWriteStatus status) noexcept {
  switch (status) {
    case TableWriteStatus::kOk: return "ok";
    case TableWriteStatus::kTableFull: return "table-full";
    case TableWriteStatus::kKeyMismatch: return "key-mismatch";
    case TableWriteStatus::kInvalidField: return "invalid-field";
  }
  return "?";
}

namespace {
bool is_prefix_mask(std::uint64_t mask, std::size_t bits) noexcept {
  // A valid LPM mask is a left-contiguous run of 1s within the field width.
  const std::uint64_t full = bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
  if ((mask & ~full) != 0) return false;
  const std::uint64_t inverted = (~mask) & full;
  return (inverted & (inverted + 1)) == 0;  // low bits form 0...01...1
}
}  // namespace

MatchActionTable::MatchActionTable(std::string name, std::vector<KeySpec> keys,
                                   std::size_t capacity, ActionOp default_action)
    : name_(std::move(name)), capacity_(capacity) {
  auto root = std::make_shared<RuleSnapshot>();
  root->version = next_rule_version();
  root->keys = std::make_shared<const std::vector<KeySpec>>(std::move(keys));
  root->default_action = default_action;
  snap_ = std::move(root);
}

MatchActionTable::MatchActionTable(MatchActionTable&& other) noexcept
    : name_(std::move(other.name_)),
      capacity_(other.capacity_),
      snap_(std::move(other.snap_)),
      hits_(std::move(other.hits_)),
      default_hits_(other.default_hits_),
      retired_(std::move(other.retired_)) {}

MatchActionTable& MatchActionTable::operator=(MatchActionTable&& other) noexcept {
  if (this != &other) {
    name_ = std::move(other.name_);
    capacity_ = other.capacity_;
    snap_ = std::move(other.snap_);
    hits_ = std::move(other.hits_);
    default_hits_ = other.default_hits_;
    retired_ = std::move(other.retired_);
  }
  return *this;
}

TableWriteStatus MatchActionTable::validate(const TableEntry& entry) const {
  const auto& keys = *snap_->keys;
  if (entry.fields.size() != keys.size()) return TableWriteStatus::kKeyMismatch;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto& key = keys[i];
    const auto& f = entry.fields[i];
    const std::uint64_t full = field_width_mask(key.field.width);
    switch (key.kind) {
      case MatchKind::kExact:
        if ((f.value & ~full) != 0) return TableWriteStatus::kInvalidField;
        break;
      case MatchKind::kTernary:
        if ((f.value & ~full) != 0 || (f.mask & ~full) != 0 || (f.value & ~f.mask) != 0)
          return TableWriteStatus::kInvalidField;
        break;
      case MatchKind::kLpm:
        if (!is_prefix_mask(f.mask, key.field.bit_width()) || (f.value & ~f.mask) != 0)
          return TableWriteStatus::kInvalidField;
        break;
      case MatchKind::kRange:
        if (f.range_lo > f.range_hi || (f.range_hi & ~full) != 0)
          return TableWriteStatus::kInvalidField;
        break;
    }
  }
  return TableWriteStatus::kOk;
}

void MatchActionTable::publish(std::shared_ptr<const RuleSnapshot> next) {
  // Each rule version counts into its own shard: a version change archives
  // the outgoing shard (queryable through hits_for_version) and starts a
  // zeroed one before the pointer goes live, so counters and entries always
  // agree. Verdict-preserving changes keep the version and the shard.
  if (next->version != snap_->version) {
    bool any = default_hits_ != 0;
    for (const auto h : hits_) any = any || h != 0;
    if (any) {
      if (retired_.size() >= kMaxRetiredShards) retired_.erase(retired_.begin());
      retired_.push_back({snap_->version, std::move(hits_), default_hits_});
    }
    hits_.assign(next->entries.size(), 0);
    default_hits_ = 0;
  }
  std::lock_guard lock(snap_mutex_);
  snap_ = std::move(next);
}

TableWriteStatus MatchActionTable::replace_entries(std::vector<TableEntry> entries) {
  if (entries.size() > capacity_) return TableWriteStatus::kTableFull;
  for (const auto& e : entries) {
    const auto status = validate(e);
    if (status != TableWriteStatus::kOk) return status;
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const TableEntry& a, const TableEntry& b) {
                     return a.priority > b.priority;
                   });
  auto next = std::make_shared<RuleSnapshot>();
  next->version = next_rule_version();
  next->keys = snap_->keys;
  next->entries = std::move(entries);
  next->default_action = snap_->default_action;
  next->malformed_policy = snap_->malformed_policy;
  next->backend = snap_->backend;
  if (next->backend == MatchBackend::kCompiled)
    next->compiled = std::make_shared<const CompiledMatchEngine>(*next->keys, next->entries);
  publish(std::move(next));
  return TableWriteStatus::kOk;
}

TableWriteStatus MatchActionTable::add_entry(TableEntry entry) {
  // Appended, then stable-sorted by replace_entries(): the new entry lands
  // after every existing entry of equal priority.
  auto entries = snap_->entries;
  entries.push_back(std::move(entry));
  return replace_entries(std::move(entries));
}

bool MatchActionTable::remove_entry(std::size_t index) {
  if (index >= snap_->entries.size()) return false;
  auto entries = snap_->entries;
  entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(index));
  return replace_entries(std::move(entries)) == TableWriteStatus::kOk;
}

void MatchActionTable::clear() { replace_entries({}); }

void MatchActionTable::set_match_backend(MatchBackend backend) {
  if (backend == snap_->backend) return;
  // Verdict-preserving: same version, same entries, different lookup cost.
  auto next = std::make_shared<RuleSnapshot>(*snap_);
  next->backend = backend;
  next->compiled.reset();
  if (backend == MatchBackend::kCompiled)
    next->compiled = std::make_shared<const CompiledMatchEngine>(*next->keys, next->entries);
  publish(std::move(next));
}

void MatchActionTable::set_malformed_policy(MalformedPolicy policy) {
  if (policy == snap_->malformed_policy) return;
  // Verdict-preserving for every frame that reaches the table (the policy
  // only redirects frames that bypass it), so the version stays.
  auto next = std::make_shared<RuleSnapshot>(*snap_);
  next->malformed_policy = policy;
  publish(std::move(next));
}

void MatchActionTable::set_default_action(ActionOp action) {
  if (action == snap_->default_action) return;
  // New verdicts, same entries: a new version sharing the compiled index.
  auto next = std::make_shared<RuleSnapshot>(*snap_);
  next->version = next_rule_version();
  next->default_action = action;
  publish(std::move(next));
}

std::shared_ptr<const RuleSnapshot> MatchActionTable::snapshot() const {
  std::lock_guard lock(snap_mutex_);
  return snap_;
}

void MatchActionTable::adopt_snapshot(std::shared_ptr<const RuleSnapshot> snap) {
  if (!snap || snap == snap_) return;
  publish(std::move(snap));
}

LookupResult MatchActionTable::lookup(std::span<const std::uint64_t> values) {
  const RuleSnapshot& snap = *snap_;
  const auto i = snap.find(values);
  if (i == CompiledMatchEngine::knpos) {
    ++default_hits_;
    return {snap.default_action, -1};
  }
  ++hits_[i];
  return {snap.entries[i].action, static_cast<std::int64_t>(i)};
}

LookupResult MatchActionTable::peek(std::span<const std::uint64_t> values) const {
  const RuleSnapshot& snap = *snap_;
  const auto i = snap.find(values);
  if (i == CompiledMatchEngine::knpos) return {snap.default_action, -1};
  return {snap.entries[i].action, static_cast<std::int64_t>(i)};
}

void MatchActionTable::record_hit(std::int64_t entry_index) noexcept {
  if (entry_index < 0) {
    ++default_hits_;
  } else if (static_cast<std::size_t>(entry_index) < hits_.size()) {
    ++hits_[static_cast<std::size_t>(entry_index)];
  }
}

std::uint64_t MatchActionTable::hit_count(std::size_t entry_index) const {
  return entry_index < hits_.size() ? hits_[entry_index] : 0;
}

std::uint64_t MatchActionTable::hits_for_version(std::uint64_t version,
                                                 std::size_t entry_index) const {
  if (version == snap_->version) return hit_count(entry_index);
  for (const auto& shard : retired_)
    if (shard.version == version)
      return entry_index < shard.hits.size() ? shard.hits[entry_index] : 0;
  return 0;
}

std::uint64_t MatchActionTable::default_hits_for_version(std::uint64_t version) const {
  if (version == snap_->version) return default_hits_;
  for (const auto& shard : retired_)
    if (shard.version == version) return shard.default_hits;
  return 0;
}

void MatchActionTable::reset_counters() {
  std::fill(hits_.begin(), hits_.end(), 0);
  default_hits_ = 0;
  retired_.clear();
}

std::size_t MatchActionTable::key_bits() const noexcept {
  std::size_t bits = 0;
  for (const auto& k : *snap_->keys) bits += k.field.bit_width();
  return bits;
}

}  // namespace p4iot::p4
