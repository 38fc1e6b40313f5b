#include "p4/table.h"

#include <gtest/gtest.h>

namespace p4iot::p4 {
namespace {

std::vector<KeySpec> two_keys() {
  return {
      KeySpec{FieldRef{"port", 36, 2}, MatchKind::kTernary},
      KeySpec{FieldRef{"flags", 47, 1}, MatchKind::kTernary},
  };
}

// Field vectors are move-assigned from a fresh vector rather than assigned
// from a braced list: at -O3, GCC 12 reports a false -Wnonnull inside
// vector::operator=(initializer_list) for a one-element list assigned to an
// empty vector.
TableEntry drop_entry(std::uint64_t port_value, std::uint64_t port_mask,
                      std::uint64_t flags_value, std::uint64_t flags_mask,
                      std::int32_t priority = 100) {
  TableEntry e;
  e.fields = std::vector<MatchField>{MatchField{port_value, port_mask, 0, 0},
                                     MatchField{flags_value, flags_mask, 0, 0}};
  e.priority = priority;
  e.action = ActionOp::kDrop;
  return e;
}

TEST(MatchActionTable, TernaryMatchAndDefault) {
  MatchActionTable table("t", two_keys(), 10);
  ASSERT_EQ(table.add_entry(drop_entry(23, 0xffff, 0x02, 0xff)), TableWriteStatus::kOk);

  const std::vector<std::uint64_t> hit = {23, 0x02};
  const std::vector<std::uint64_t> miss = {80, 0x02};
  EXPECT_EQ(table.lookup(hit).action, ActionOp::kDrop);
  EXPECT_EQ(table.lookup(hit).entry_index, 0);
  EXPECT_EQ(table.lookup(miss).action, ActionOp::kPermit);
  EXPECT_EQ(table.lookup(miss).entry_index, -1);
  EXPECT_EQ(table.hit_count(0), 2u);   // two lookups of `hit`
  EXPECT_EQ(table.default_hits(), 2u); // two lookups of `miss`
}

TEST(MatchActionTable, WildcardMaskMatchesAnything) {
  MatchActionTable table("t", two_keys(), 10);
  ASSERT_EQ(table.add_entry(drop_entry(0, 0, 0x02, 0xff)), TableWriteStatus::kOk);
  EXPECT_EQ(table.peek(std::vector<std::uint64_t>{9999, 0x02}).action, ActionOp::kDrop);
  EXPECT_EQ(table.peek(std::vector<std::uint64_t>{9999, 0x10}).action, ActionOp::kPermit);
}

TEST(MatchActionTable, PriorityOrderWins) {
  MatchActionTable table("t", two_keys(), 10);
  // Low-priority wildcard drop, high-priority specific permit.
  TableEntry specific = drop_entry(23, 0xffff, 0, 0, 200);
  specific.action = ActionOp::kPermit;
  ASSERT_EQ(table.add_entry(drop_entry(0, 0, 0, 0, 100)), TableWriteStatus::kOk);
  ASSERT_EQ(table.add_entry(specific), TableWriteStatus::kOk);

  EXPECT_EQ(table.peek(std::vector<std::uint64_t>{23, 0}).action, ActionOp::kPermit);
  EXPECT_EQ(table.peek(std::vector<std::uint64_t>{80, 0}).action, ActionOp::kDrop);
  // Entries are stored priority-descending.
  EXPECT_EQ(table.entries()[0].priority, 200);
}

TEST(MatchActionTable, CapacityEnforced) {
  MatchActionTable table("t", two_keys(), 2);
  EXPECT_EQ(table.add_entry(drop_entry(1, 0xffff, 0, 0)), TableWriteStatus::kOk);
  EXPECT_EQ(table.add_entry(drop_entry(2, 0xffff, 0, 0)), TableWriteStatus::kOk);
  EXPECT_EQ(table.add_entry(drop_entry(3, 0xffff, 0, 0)), TableWriteStatus::kTableFull);
  EXPECT_EQ(table.entry_count(), 2u);
}

TEST(MatchActionTable, ValidationRejectsBadEntries) {
  MatchActionTable table("t", two_keys(), 10);

  TableEntry wrong_arity;
  wrong_arity.fields = std::vector<MatchField>{MatchField{1, 1, 0, 0}};
  EXPECT_EQ(table.add_entry(wrong_arity), TableWriteStatus::kKeyMismatch);

  // Value wider than the 2-byte key.
  EXPECT_EQ(table.add_entry(drop_entry(0x1ffff, 0x1ffff, 0, 0)),
            TableWriteStatus::kInvalidField);

  // value & ~mask != 0 (value bits outside the mask).
  EXPECT_EQ(table.add_entry(drop_entry(0xff, 0x0f, 0, 0)),
            TableWriteStatus::kInvalidField);
}

TEST(MatchActionTable, ExactKindRequiresEquality) {
  std::vector<KeySpec> keys = {KeySpec{FieldRef{"f", 0, 2}, MatchKind::kExact}};
  MatchActionTable table("t", keys, 4);
  TableEntry e;
  e.fields = std::vector<MatchField>{MatchField{0x1234, 0, 0, 0}};
  e.action = ActionOp::kDrop;
  ASSERT_EQ(table.add_entry(e), TableWriteStatus::kOk);
  EXPECT_EQ(table.peek(std::vector<std::uint64_t>{0x1234}).action, ActionOp::kDrop);
  EXPECT_EQ(table.peek(std::vector<std::uint64_t>{0x1235}).action, ActionOp::kPermit);
}

TEST(MatchActionTable, LpmValidatesPrefixMask) {
  std::vector<KeySpec> keys = {KeySpec{FieldRef{"addr", 26, 4}, MatchKind::kLpm}};
  MatchActionTable table("t", keys, 4);

  TableEntry good;
  // 10.0.0.0/8
  good.fields = std::vector<MatchField>{MatchField{0x0a000000, 0xff000000, 0, 0}};
  good.action = ActionOp::kDrop;
  EXPECT_EQ(table.add_entry(good), TableWriteStatus::kOk);

  TableEntry bad;
  // non-contiguous from left
  bad.fields = std::vector<MatchField>{MatchField{0, 0x00ff0000, 0, 0}};
  EXPECT_EQ(table.add_entry(bad), TableWriteStatus::kInvalidField);

  EXPECT_EQ(table.peek(std::vector<std::uint64_t>{0x0a010203}).action, ActionOp::kDrop);
  EXPECT_EQ(table.peek(std::vector<std::uint64_t>{0x34010203}).action, ActionOp::kPermit);
}

TEST(MatchActionTable, RangeKind) {
  std::vector<KeySpec> keys = {KeySpec{FieldRef{"len", 16, 2}, MatchKind::kRange}};
  MatchActionTable table("t", keys, 4);
  TableEntry e;
  e.fields = std::vector<MatchField>{MatchField{0, 0, 100, 200}};
  e.action = ActionOp::kDrop;
  ASSERT_EQ(table.add_entry(e), TableWriteStatus::kOk);
  EXPECT_EQ(table.peek(std::vector<std::uint64_t>{100}).action, ActionOp::kDrop);
  EXPECT_EQ(table.peek(std::vector<std::uint64_t>{200}).action, ActionOp::kDrop);
  EXPECT_EQ(table.peek(std::vector<std::uint64_t>{99}).action, ActionOp::kPermit);
  EXPECT_EQ(table.peek(std::vector<std::uint64_t>{201}).action, ActionOp::kPermit);

  TableEntry inverted;
  inverted.fields = std::vector<MatchField>{MatchField{0, 0, 5, 1}};
  EXPECT_EQ(table.add_entry(inverted), TableWriteStatus::kInvalidField);
}

TEST(MatchActionTable, ReplaceEntriesAtomicAndSorted) {
  MatchActionTable table("t", two_keys(), 10);
  table.add_entry(drop_entry(1, 0xffff, 0, 0));
  std::vector<TableEntry> fresh = {drop_entry(5, 0xffff, 0, 0, 50),
                                   drop_entry(6, 0xffff, 0, 0, 150)};
  ASSERT_EQ(table.replace_entries(fresh), TableWriteStatus::kOk);
  EXPECT_EQ(table.entry_count(), 2u);
  EXPECT_EQ(table.entries()[0].priority, 150);
  EXPECT_EQ(table.hit_count(0), 0u);  // counters reset

  std::vector<TableEntry> too_many(11, drop_entry(1, 0xffff, 0, 0));
  EXPECT_EQ(table.replace_entries(too_many), TableWriteStatus::kTableFull);
  EXPECT_EQ(table.entry_count(), 2u);  // unchanged on failure
}

TEST(MatchActionTable, EachRuleVersionCountsInItsOwnShard) {
  MatchActionTable table("t", two_keys(), 10);
  table.add_entry(drop_entry(1, 0xffff, 0, 0, 200));
  table.add_entry(drop_entry(2, 0xffff, 0, 0, 100));
  const std::vector<std::uint64_t> second = {2, 0};
  table.lookup(second);  // hits entry index 1

  // remove_entry: the surviving entry starts a fresh count; the old
  // version's credit stays readable under that version.
  const auto before_remove = table.version();
  EXPECT_TRUE(table.remove_entry(0));
  EXPECT_EQ(table.entry_count(), 1u);
  EXPECT_EQ(table.hit_count(0), 0u);
  EXPECT_EQ(table.hits_for_version(before_remove, 1), 1u);
  const auto after_remove = table.version();
  EXPECT_FALSE(table.remove_entry(5));
  EXPECT_EQ(table.version(), after_remove);  // a failed write publishes nothing

  // add_entry: the higher-priority newcomer shifts the survivor to index 1.
  table.lookup(second);  // hits entry index 0
  const auto before_add = table.version();
  ASSERT_EQ(table.add_entry(drop_entry(3, 0xffff, 0, 0, 300)), TableWriteStatus::kOk);
  EXPECT_EQ(table.hit_count(1), 0u);
  EXPECT_EQ(table.hits_for_version(before_add, 0), 1u);

  // set_default_action: a new version even though the entries are unchanged.
  table.lookup(second);                              // hits entry index 1
  table.lookup(std::vector<std::uint64_t>{9, 0});  // default action
  const auto before_default = table.version();
  table.set_default_action(ActionOp::kDrop);
  EXPECT_NE(table.version(), before_default);
  EXPECT_EQ(table.hit_count(1), 0u);
  EXPECT_EQ(table.default_hits(), 0u);
  EXPECT_EQ(table.hits_for_version(before_default, 1), 1u);
  EXPECT_EQ(table.default_hits_for_version(before_default), 1u);
}

TEST(MatchActionTable, TcamAccounting) {
  MatchActionTable table("t", two_keys(), 10);
  EXPECT_EQ(table.key_bits(), 24u);  // 16 + 8
  table.add_entry(drop_entry(1, 0xffff, 0, 0));
  table.add_entry(drop_entry(2, 0xffff, 0, 0));
  EXPECT_EQ(table.tcam_bits(), 2u * 2u * 24u);
}

TEST(MatchActionTable, ResetCountersClearsAll) {
  MatchActionTable table("t", two_keys(), 10);
  table.add_entry(drop_entry(1, 0xffff, 0, 0));
  table.lookup(std::vector<std::uint64_t>{1, 0});
  table.lookup(std::vector<std::uint64_t>{9, 0});
  table.reset_counters();
  EXPECT_EQ(table.hit_count(0), 0u);
  EXPECT_EQ(table.default_hits(), 0u);
}

// Regression tests for validate()'s width handling: width_mask() takes the
// key width in BYTES (exact/ternary), is_prefix_mask() takes it in BITS
// (lpm). These pin the 1-, 4- and 8-byte boundaries so a future unit mixup
// (bytes passed where bits are meant, or vice versa) fails loudly.
TEST(MatchActionTable, WidthValidationOneByteField) {
  std::vector<KeySpec> keys = {KeySpec{FieldRef{"f", 0, 1}, MatchKind::kExact}};
  MatchActionTable table("t", keys, 8);
  TableEntry max_value;
  max_value.fields = std::vector<MatchField>{MatchField{0xff, 0, 0, 0}};
  EXPECT_EQ(table.add_entry(max_value), TableWriteStatus::kOk);
  TableEntry too_wide;
  too_wide.fields = std::vector<MatchField>{MatchField{0x100, 0, 0, 0}};
  EXPECT_EQ(table.add_entry(too_wide), TableWriteStatus::kInvalidField);

  std::vector<KeySpec> tkeys = {KeySpec{FieldRef{"f", 0, 1}, MatchKind::kTernary}};
  MatchActionTable ternary("t", tkeys, 8);
  TableEntry wide_mask;
  wide_mask.fields = std::vector<MatchField>{MatchField{0, 0x1ff, 0, 0}};
  EXPECT_EQ(ternary.add_entry(wide_mask), TableWriteStatus::kInvalidField);
}

TEST(MatchActionTable, WidthValidationFourByteField) {
  std::vector<KeySpec> keys = {KeySpec{FieldRef{"addr", 0, 4}, MatchKind::kTernary}};
  MatchActionTable table("t", keys, 8);
  TableEntry full;
  full.fields = std::vector<MatchField>{MatchField{0xffffffffULL, 0xffffffffULL, 0, 0}};
  EXPECT_EQ(table.add_entry(full), TableWriteStatus::kOk);
  TableEntry over;
  over.fields = std::vector<MatchField>{MatchField{0x1'0000'0000ULL, 0x1'ffff'ffffULL, 0, 0}};
  EXPECT_EQ(table.add_entry(over), TableWriteStatus::kInvalidField);

  // LPM width is in bits: /32 on a 4-byte field is a valid full-length
  // prefix, /33 (i.e. a mask spilling past 32 bits) is not.
  std::vector<KeySpec> lkeys = {KeySpec{FieldRef{"addr", 0, 4}, MatchKind::kLpm}};
  MatchActionTable lpm("t", lkeys, 8);
  TableEntry slash32;
  slash32.fields = std::vector<MatchField>{MatchField{0x0a000001ULL, 0xffffffffULL, 0, 0}};
  EXPECT_EQ(lpm.add_entry(slash32), TableWriteStatus::kOk);
  TableEntry spill;
  spill.fields = std::vector<MatchField>{MatchField{0, 0x1'ffff'ffffULL, 0, 0}};
  EXPECT_EQ(lpm.add_entry(spill), TableWriteStatus::kInvalidField);
}

TEST(MatchActionTable, WidthValidationEightByteField) {
  // 8-byte fields fill the whole uint64 value path: the full mask must not
  // overflow width_mask's shift (bytes >= 8 → ~0).
  std::vector<KeySpec> keys = {KeySpec{FieldRef{"wide", 0, 8}, MatchKind::kTernary}};
  MatchActionTable table("t", keys, 8);
  TableEntry full;
  full.fields = std::vector<MatchField>{MatchField{~0ULL, ~0ULL, 0, 0}};
  EXPECT_EQ(table.add_entry(full), TableWriteStatus::kOk);

  std::vector<KeySpec> lkeys = {KeySpec{FieldRef{"wide", 0, 8}, MatchKind::kLpm}};
  MatchActionTable lpm("t", lkeys, 8);
  TableEntry slash64;
  slash64.fields = std::vector<MatchField>{MatchField{1, ~0ULL, 0, 0}};
  EXPECT_EQ(lpm.add_entry(slash64), TableWriteStatus::kOk);
  TableEntry slash16;
  slash16.fields = std::vector<MatchField>{MatchField{0x1234ULL << 48, 0xffffULL << 48, 0, 0}};
  EXPECT_EQ(lpm.add_entry(slash16), TableWriteStatus::kOk);
  TableEntry gap;  // not left-contiguous within 64 bits
  gap.fields = std::vector<MatchField>{MatchField{0, 0x00ff'0000'0000'0000ULL, 0, 0}};
  EXPECT_EQ(lpm.add_entry(gap), TableWriteStatus::kInvalidField);
}

TEST(MatchActionTable, WidthValidationRangeBounds) {
  std::vector<KeySpec> keys = {KeySpec{FieldRef{"len", 0, 1}, MatchKind::kRange}};
  MatchActionTable table("t", keys, 8);
  TableEntry in_range;
  in_range.fields = std::vector<MatchField>{MatchField{0, 0, 0, 0xff}};
  EXPECT_EQ(table.add_entry(in_range), TableWriteStatus::kOk);
  TableEntry hi_too_wide;
  hi_too_wide.fields = std::vector<MatchField>{MatchField{0, 0, 0, 0x100}};
  EXPECT_EQ(table.add_entry(hi_too_wide), TableWriteStatus::kInvalidField);
}

TEST(MatchActionTable, VersionMovesOnEveryMutation) {
  MatchActionTable table("t", two_keys(), 10);
  const auto v0 = table.version();
  table.add_entry(drop_entry(1, 0xffff, 0, 0));
  const auto v1 = table.version();
  EXPECT_GT(v1, v0);
  table.lookup(std::vector<std::uint64_t>{1, 0});  // lookups do NOT move it
  EXPECT_EQ(table.version(), v1);
  table.set_default_action(ActionOp::kDrop);
  const auto v2 = table.version();
  EXPECT_GT(v2, v1);
  table.remove_entry(0);
  const auto v3 = table.version();
  EXPECT_GT(v3, v2);
  table.replace_entries({drop_entry(2, 0xffff, 0, 0)});
  const auto v4 = table.version();
  EXPECT_GT(v4, v3);
  table.clear();
  EXPECT_GT(table.version(), v4);
}

TEST(MatchActionTable, MissingValuesTreatedAsZero) {
  MatchActionTable table("t", two_keys(), 10);
  table.add_entry(drop_entry(0, 0xffff, 0, 0xff));
  // Fewer extracted values than keys: missing ones read as zero.
  EXPECT_EQ(table.peek(std::vector<std::uint64_t>{0}).action, ActionOp::kDrop);
  EXPECT_EQ(table.peek(std::vector<std::uint64_t>{}).action, ActionOp::kDrop);
}

}  // namespace
}  // namespace p4iot::p4
