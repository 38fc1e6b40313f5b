// Property tests over the match-action table and code generator with
// randomly generated (but valid) programs and entries.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "p4/codegen.h"
#include "p4/table.h"

namespace p4iot::p4 {
namespace {

std::vector<KeySpec> random_keys(common::Rng& rng) {
  const std::size_t n = 1 + rng.next_below(4);
  std::vector<KeySpec> keys;
  std::size_t offset = rng.next_below(8);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t width = 1 + rng.next_below(4);
    char name[32];
    std::snprintf(name, sizeof name, "f%zu", i);
    keys.push_back(KeySpec{FieldRef{name, offset, width}, MatchKind::kTernary});
    offset += width + rng.next_below(4);
  }
  return keys;
}

TableEntry random_entry(common::Rng& rng, const std::vector<KeySpec>& keys) {
  TableEntry entry;
  for (const auto& key : keys) {
    const std::uint64_t full =
        key.field.width >= 8 ? ~0ULL : ((1ULL << (key.field.width * 8)) - 1);
    MatchField field;
    field.mask = rng.next_u64() & full;
    field.value = rng.next_u64() & field.mask;  // value ⊆ mask, always valid
    entry.fields.push_back(field);
  }
  entry.priority = static_cast<std::int32_t>(rng.next_below(1000));
  entry.action = rng.chance(0.7) ? ActionOp::kDrop : ActionOp::kPermit;
  return entry;
}

TEST(TableProperties, LookupMatchesHighestPriorityMatchingEntry) {
  common::Rng rng(1);
  for (int round = 0; round < 50; ++round) {
    const auto keys = random_keys(rng);
    MatchActionTable table("t", keys, 64);
    std::vector<TableEntry> entries;
    for (int e = 0; e < 20; ++e) {
      auto entry = random_entry(rng, keys);
      if (table.add_entry(entry) == TableWriteStatus::kOk)
        entries.push_back(std::move(entry));
    }

    for (int probe = 0; probe < 50; ++probe) {
      std::vector<std::uint64_t> values;
      for (const auto& key : keys) {
        const std::uint64_t full =
            key.field.width >= 8 ? ~0ULL : ((1ULL << (key.field.width * 8)) - 1);
        values.push_back(rng.next_u64() & full);
      }

      // Reference implementation: max priority among matching entries;
      // the table must agree on the action (ties broken by insertion order
      // inside the table, so compare priorities not indices).
      std::int32_t best_priority = -1;
      bool any = false;
      for (const auto& entry : entries) {
        bool match = true;
        for (std::size_t f = 0; f < keys.size(); ++f)
          if ((values[f] & entry.fields[f].mask) != entry.fields[f].value) {
            match = false;
            break;
          }
        if (match && entry.priority > best_priority) {
          best_priority = entry.priority;
          any = true;
        }
      }

      const auto result = table.peek(values);
      if (!any) {
        EXPECT_EQ(result.entry_index, -1);
      } else {
        ASSERT_GE(result.entry_index, 0);
        EXPECT_EQ(table.entries()[static_cast<std::size_t>(result.entry_index)].priority,
                  best_priority);
      }
    }
  }
}

TEST(TableProperties, LookupAndPeekAgree) {
  common::Rng rng(2);
  const auto keys = random_keys(rng);
  MatchActionTable table("t", keys, 64);
  for (int e = 0; e < 30; ++e) table.add_entry(random_entry(rng, keys));

  for (int probe = 0; probe < 200; ++probe) {
    std::vector<std::uint64_t> values;
    for (const auto& key : keys) {
      const std::uint64_t full =
          key.field.width >= 8 ? ~0ULL : ((1ULL << (key.field.width * 8)) - 1);
      values.push_back(rng.next_u64() & full);
    }
    const auto peeked = table.peek(values);
    const auto looked = table.lookup(values);
    EXPECT_EQ(peeked.action, looked.action);
    EXPECT_EQ(peeked.entry_index, looked.entry_index);
  }
}

TEST(TableProperties, HitCountersSumToLookups) {
  common::Rng rng(3);
  const auto keys = random_keys(rng);
  MatchActionTable table("t", keys, 64);
  for (int e = 0; e < 15; ++e) table.add_entry(random_entry(rng, keys));

  constexpr int kLookups = 500;
  for (int probe = 0; probe < kLookups; ++probe) {
    std::vector<std::uint64_t> values(keys.size());
    for (auto& v : values) v = rng.next_u64();
    table.lookup(values);
  }
  std::uint64_t total = table.default_hits();
  for (std::size_t e = 0; e < table.entry_count(); ++e) total += table.hit_count(e);
  EXPECT_EQ(total, static_cast<std::uint64_t>(kLookups));
}

TEST(CodegenProperties, RandomProgramsProduceBalancedSource) {
  common::Rng rng(4);
  for (int round = 0; round < 30; ++round) {
    P4Program program;
    program.parser.window_bytes = 32 + rng.next_below(4) * 16;
    const auto keys = random_keys(rng);
    for (const auto& key : keys) program.parser.fields.push_back(key.field);
    program.keys = keys;
    program.default_action = rng.chance(0.5) ? ActionOp::kPermit : ActionOp::kDrop;

    RateGuardSpec guard;
    guard.key_fields = {program.parser.fields.front()};
    const RateGuardSpec* maybe_guard = rng.chance(0.5) ? &guard : nullptr;
    const std::string src = generate_p4_source(program, maybe_guard);

    // Structural sanity: balanced braces/parens, all fields mentioned, the
    // slice indices stay within the window.
    long braces = 0, parens = 0;
    for (const char c : src) {
      braces += c == '{' ? 1 : c == '}' ? -1 : 0;
      parens += c == '(' ? 1 : c == ')' ? -1 : 0;
      EXPECT_GE(braces, 0);
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(parens, 0);
    for (const auto& key : keys)
      EXPECT_NE(src.find(sanitize_identifier(key.field.name)), std::string::npos);

    // The window slice for every field must be in range.
    const std::size_t window_bits = program.parser.window_bytes * 8;
    for (const auto& field : program.parser.fields) {
      const std::size_t msb = window_bits - 1 - field.offset * 8;
      EXPECT_LT(msb, window_bits);
      EXPECT_GE(msb + 1, field.bit_width());
    }
  }
}

TEST(CodegenProperties, RuntimeCommandsOnePerEntry) {
  common::Rng rng(5);
  P4Program program;
  const auto keys = random_keys(rng);
  program.keys = keys;
  for (const auto& key : keys) program.parser.fields.push_back(key.field);

  std::vector<TableEntry> entries;
  for (int e = 0; e < 25; ++e) entries.push_back(random_entry(rng, keys));
  const std::string cmds = generate_runtime_commands(program, entries);
  std::size_t lines = 0;
  for (const char c : cmds) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, entries.size() + 1);  // + header comment
}

}  // namespace
}  // namespace p4iot::p4
