// Property-based differential suite for the compiled tuple-space match
// engine (p4/match_engine.h): on seeded random rule sets mixing
// exact/ternary/lpm/range keys with overlapping priorities, the compiled
// backend must be bit-identical to the linear priority scan — same winning
// entry index, same action, same per-entry hit counters and default-action
// hits — across bulk installs, incremental adds/removes and backend swaps
// mid-stream.
//
// On a divergence the failing (rule set, probe) pair is shrunk by bisecting
// the rule set (ddmin-style chunk removal) and the minimized repro is dumped
// under tests/packet/corpus/ as a `.rules`/`.hex` pair so the case becomes a
// permanent, versioned regression input.
//
// P4IOT_MATCH_SHAPES / P4IOT_MATCH_PROBES scale the suite: the defaults
// (50 shapes x 2000 probes x 2 backends >= 100k lookups) fit the tier-1
// budget; the `slow`-labelled deep binary multiplies both for nightly runs.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/rng.h"
#include "p4/match_engine.h"
#include "p4/switch.h"
#include "p4/table.h"

#ifndef P4IOT_MATCH_SHAPES
#define P4IOT_MATCH_SHAPES 50
#endif
#ifndef P4IOT_MATCH_PROBES
#define P4IOT_MATCH_PROBES 2000
#endif

namespace p4iot::p4 {
namespace {

constexpr std::size_t kShapes = P4IOT_MATCH_SHAPES;
constexpr std::size_t kProbesPerShape = P4IOT_MATCH_PROBES;
constexpr std::uint64_t kSuiteSeed = 0x7357c0de;

std::vector<KeySpec> random_keys(common::Rng& rng) {
  const std::size_t n = 1 + rng.next_below(4);
  std::vector<KeySpec> keys;
  std::size_t offset = rng.next_below(8);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t width = 1 + rng.next_below(4);
    const auto kind = static_cast<MatchKind>(rng.next_below(4));
    char name[32];
    std::snprintf(name, sizeof name, "f%zu", i);
    keys.push_back(KeySpec{FieldRef{name, offset, width}, kind});
    offset += width + rng.next_below(3);
  }
  return keys;
}

std::uint64_t prefix_mask(std::size_t prefix_len, std::size_t bits) {
  const std::uint64_t full = field_width_mask(bits / 8);
  if (prefix_len == 0) return 0;
  if (prefix_len >= bits) return full;
  return (full << (bits - prefix_len)) & full;
}

/// `structured` draws masks from a small per-shape pool (how synthesized
/// rule sets actually look — few mask shapes, many values, so tuple-space
/// grouping pays off); otherwise masks are fully random, the adversarial
/// group-explosion regime where every entry can be its own group.
TableEntry random_entry(common::Rng& rng, const std::vector<KeySpec>& keys,
                        bool structured) {
  TableEntry entry;
  for (const auto& key : keys) {
    const std::uint64_t full = field_width_mask(key.field.width);
    const std::size_t bits = key.field.bit_width();
    MatchField f;
    switch (key.kind) {
      case MatchKind::kExact:
        f.value = rng.next_u64() & full;
        break;
      case MatchKind::kTernary:
        if (structured) {
          // Pool of 4 deterministic mask shapes per field width.
          const std::uint64_t pool[] = {full, full & 0xf0f0f0f0f0f0f0f0ULL,
                                        full & 0xffULL, 0};
          f.mask = pool[rng.next_below(4)];
        } else {
          f.mask = rng.next_u64() & full;
        }
        f.value = rng.next_u64() & f.mask;
        break;
      case MatchKind::kLpm: {
        const std::size_t len = structured
                                    ? (bits / 4) * rng.next_below(5)  // 5 lengths
                                    : rng.next_below(bits + 1);
        f.mask = prefix_mask(len, bits);
        f.value = rng.next_u64() & f.mask;
        break;
      }
      case MatchKind::kRange:
        f.range_lo = rng.next_u64() & full;
        f.range_hi = f.range_lo + rng.next_below(full - f.range_lo + 1);
        break;
    }
    entry.fields.push_back(f);
  }
  entry.priority = static_cast<std::int32_t>(rng.next_below(64));  // many ties
  const auto roll = rng.next_below(3);
  entry.action = roll == 0   ? ActionOp::kPermit
                 : roll == 1 ? ActionOp::kDrop
                             : ActionOp::kMirror;
  entry.attack_class = static_cast<std::uint8_t>(rng.next_below(16));
  return entry;
}

/// Probe values: half pure-random, half derived from a random entry so
/// matches (including exact and narrow-range hits) occur frequently.
std::vector<std::uint64_t> random_probe(common::Rng& rng,
                                        const std::vector<KeySpec>& keys,
                                        const std::vector<TableEntry>& entries) {
  std::vector<std::uint64_t> values;
  const TableEntry* seed_entry =
      (!entries.empty() && rng.chance(0.5))
          ? &entries[rng.next_below(entries.size())]
          : nullptr;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t full = field_width_mask(keys[i].field.width);
    std::uint64_t v = rng.next_u64() & full;
    if (seed_entry) {
      const auto& f = seed_entry->fields[i];
      switch (keys[i].kind) {
        case MatchKind::kExact:
          v = f.value;
          break;
        case MatchKind::kTernary:
        case MatchKind::kLpm:
          v = f.value | (rng.next_u64() & full & ~f.mask);  // inside the mask
          break;
        case MatchKind::kRange:
          v = f.range_lo + rng.next_below(f.range_hi - f.range_lo + 1);
          break;
      }
      if (rng.chance(0.2)) v = rng.next_u64() & full;  // perturb some fields
    }
    values.push_back(v);
  }
  return values;
}

/// Fresh-table oracle comparison for one probe (used by the shrinker):
/// does the compiled backend disagree with the linear scan on `values`?
bool diverges(const std::vector<KeySpec>& keys,
              const std::vector<TableEntry>& entries,
              const std::vector<std::uint64_t>& values) {
  MatchActionTable linear("lin", keys, entries.size() + 1);
  MatchActionTable compiled("cmp", keys, entries.size() + 1);
  compiled.set_match_backend(MatchBackend::kCompiled);
  if (linear.replace_entries(entries) != TableWriteStatus::kOk) return false;
  if (compiled.replace_entries(entries) != TableWriteStatus::kOk) return false;
  const auto a = linear.peek(values);
  const auto b = compiled.peek(values);
  return a.action != b.action || a.entry_index != b.entry_index;
}

/// ddmin-style bisection: repeatedly try dropping chunks of the rule set
/// while the divergence on `values` persists. Returns the minimized set.
std::vector<TableEntry> shrink_rules(const std::vector<KeySpec>& keys,
                                     std::vector<TableEntry> entries,
                                     const std::vector<std::uint64_t>& values) {
  std::size_t chunk = entries.size() / 2;
  while (chunk >= 1) {
    bool removed_any = false;
    for (std::size_t at = 0; at + chunk <= entries.size();) {
      auto candidate = entries;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(at),
                      candidate.begin() + static_cast<std::ptrdiff_t>(at + chunk));
      if (diverges(keys, candidate, values)) {
        entries = std::move(candidate);
        removed_any = true;
      } else {
        at += chunk;
      }
    }
    if (chunk == 1 && !removed_any) break;
    chunk = std::max<std::size_t>(1, chunk / 2);
    if (!removed_any && chunk == 1 && entries.size() <= 1) break;
  }
  return entries;
}

/// Dump a minimized repro under the regression corpus: a `.rules` file
/// (keys + entries, diffable text) and a `.hex` frame synthesizing the probe
/// values at the key offsets (replayable by the corpus machinery).
void dump_repro(const std::string& tag, const std::vector<KeySpec>& keys,
                const std::vector<TableEntry>& entries,
                const std::vector<std::uint64_t>& values) {
#ifdef P4IOT_CORPUS_DIR
  const std::string base = std::string(P4IOT_CORPUS_DIR) + "/match_repro_" + tag;
  std::ofstream rules(base + ".rules");
  rules << "# minimized compiled-vs-linear divergence (" << tag << ")\n";
  for (const auto& k : keys)
    rules << "key " << match_kind_name(k.kind) << " offset " << k.field.offset
          << " width " << k.field.width << "\n";
  for (const auto& e : entries) {
    rules << "entry priority " << e.priority << " action "
          << action_op_name(e.action) << " fields";
    for (const auto& f : e.fields) {
      char buf[96];
      std::snprintf(buf, sizeof buf, " %" PRIx64 "/%" PRIx64 "/%" PRIx64 "-%" PRIx64,
                    f.value, f.mask, f.range_lo, f.range_hi);
      rules << buf;
    }
    rules << "\n";
  }
  rules << "probe";
  for (const auto v : values) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %" PRIx64, v);
    rules << buf;
  }
  rules << "\n";

  // Big-endian field bytes at their parser offsets, zero elsewhere.
  std::size_t frame_len = 0;
  for (const auto& k : keys)
    frame_len = std::max(frame_len, k.field.offset + k.field.width);
  std::vector<std::uint8_t> frame(frame_len, 0);
  for (std::size_t i = 0; i < keys.size(); ++i)
    for (std::size_t b = 0; b < keys[i].field.width; ++b)
      frame[keys[i].field.offset + b] = static_cast<std::uint8_t>(
          values[i] >> (8 * (keys[i].field.width - 1 - b)));
  std::ofstream hex(base + ".hex");
  hex << "# probe frame for " << tag << ".rules\nlink ethernet\n";
  for (std::size_t i = 0; i < frame.size(); ++i) {
    char buf[8];
    std::snprintf(buf, sizeof buf, "%02x%s", frame[i],
                  (i + 1) % 16 == 0 ? "\n" : " ");
    hex << buf;
  }
  hex << "\n";
#else
  (void)tag;
  (void)keys;
  (void)entries;
  (void)values;
#endif
}

/// Shrink + dump + format a failure message for one diverging probe.
std::string report_divergence(std::uint64_t seed,
                              const std::vector<KeySpec>& keys,
                              const std::vector<TableEntry>& entries,
                              const std::vector<std::uint64_t>& values) {
  const auto minimized = shrink_rules(keys, entries, values);
  dump_repro("seed" + std::to_string(seed), keys, minimized, values);
  return "compiled/linear divergence at seed " + std::to_string(seed) +
         ": minimized to " + std::to_string(minimized.size()) +
         " entries (repro dumped under tests/packet/corpus/)";
}

enum class BuildMode { kBulk, kIncremental, kChurn };

TEST(MatchEngineProperty, CompiledAgreesWithLinearOnRandomRuleSets) {
  std::uint64_t total_lookups = 0;
  for (std::size_t shape = 0; shape < kShapes; ++shape) {
    const std::uint64_t seed = kSuiteSeed + shape;
    common::Rng rng(seed);
    const auto keys = random_keys(rng);
    const bool structured = shape % 3 != 0;  // every 3rd shape is adversarial
    const auto mode = static_cast<BuildMode>(shape % 3);
    const std::size_t entry_target = 1 + rng.next_below(192);

    std::vector<TableEntry> pool;
    for (std::size_t e = 0; e < entry_target; ++e)
      pool.push_back(random_entry(rng, keys, structured));

    MatchActionTable linear("lin", keys, entry_target + 1);
    MatchActionTable compiled("cmp", keys, entry_target + 1);
    compiled.set_match_backend(MatchBackend::kCompiled);

    // Build both tables through the same mutation sequence: one bulk
    // replace, single-entry adds, or adds interleaved with removals.
    switch (mode) {
      case BuildMode::kBulk:
        ASSERT_EQ(linear.replace_entries(pool), TableWriteStatus::kOk);
        ASSERT_EQ(compiled.replace_entries(pool), TableWriteStatus::kOk);
        break;
      case BuildMode::kIncremental:
        for (const auto& e : pool) {
          ASSERT_EQ(linear.add_entry(e), TableWriteStatus::kOk);
          ASSERT_EQ(compiled.add_entry(e), TableWriteStatus::kOk);
        }
        break;
      case BuildMode::kChurn:
        for (const auto& e : pool) {
          ASSERT_EQ(linear.add_entry(e), TableWriteStatus::kOk);
          ASSERT_EQ(compiled.add_entry(e), TableWriteStatus::kOk);
          if (linear.entry_count() > 4 && rng.chance(0.25)) {
            const auto victim = rng.next_below(linear.entry_count());
            ASSERT_TRUE(linear.remove_entry(victim));
            ASSERT_TRUE(compiled.remove_entry(victim));
          }
        }
        break;
    }
    ASSERT_EQ(linear.entry_count(), compiled.entry_count());
    const auto installed = linear.entries();

    if (mode != BuildMode::kBulk) {
      ASSERT_NE(compiled.compiled_index(), nullptr);
    }

    for (std::size_t p = 0; p < kProbesPerShape; ++p) {
      const auto values = random_probe(rng, keys, installed);
      const auto want = linear.lookup(values);
      const auto got = compiled.lookup(values);
      ++total_lookups;
      if (want.action != got.action || want.entry_index != got.entry_index) {
        FAIL() << report_divergence(seed, keys, installed, values)
               << "\n  linear: action=" << action_op_name(want.action)
               << " entry=" << want.entry_index
               << "\n  compiled: action=" << action_op_name(got.action)
               << " entry=" << got.entry_index;
      }
    }

    // Counter equality: every probe credited the same entry on both tables.
    for (std::size_t e = 0; e < linear.entry_count(); ++e)
      ASSERT_EQ(linear.hit_count(e), compiled.hit_count(e))
          << "hit counter diverged on entry " << e << " at seed " << seed;
    ASSERT_EQ(linear.default_hits(), compiled.default_hits()) << "seed " << seed;

    if (const auto* index = compiled.compiled_index()) {
      EXPECT_LE(index->group_count(), compiled.entry_count() + 1);
    }
  }
  // The acceptance bar for this suite: >= 100k lookups (each probe runs the
  // linear AND the compiled backend) across >= 50 seeded rule-set shapes,
  // zero divergences.
  EXPECT_GE(total_lookups * 2, std::uint64_t{100000} * kShapes / 50);
  EXPECT_GE(kShapes, std::size_t{50});
}

TEST(MatchEngineProperty, BackendSwapMidStreamPreservesCounters) {
  common::Rng rng(kSuiteSeed ^ 0xabcd);
  const auto keys = random_keys(rng);
  std::vector<TableEntry> pool;
  for (int e = 0; e < 64; ++e) pool.push_back(random_entry(rng, keys, true));

  MatchActionTable reference("ref", keys, 128);
  MatchActionTable swapping("swp", keys, 128);
  ASSERT_EQ(reference.replace_entries(pool), TableWriteStatus::kOk);
  ASSERT_EQ(swapping.replace_entries(pool), TableWriteStatus::kOk);

  const auto installed = reference.entries();
  for (int p = 0; p < 4000; ++p) {
    if (p % 500 == 0) {
      swapping.set_match_backend(p % 1000 == 0 ? MatchBackend::kCompiled
                                               : MatchBackend::kLinear);
    }
    const auto values = random_probe(rng, keys, installed);
    const auto want = reference.lookup(values);
    const auto got = swapping.lookup(values);
    ASSERT_EQ(want.action, got.action) << "probe " << p;
    ASSERT_EQ(want.entry_index, got.entry_index) << "probe " << p;
  }
  for (std::size_t e = 0; e < reference.entry_count(); ++e)
    EXPECT_EQ(reference.hit_count(e), swapping.hit_count(e));
  EXPECT_EQ(reference.default_hits(), swapping.default_hits());
}

TEST(MatchEngineProperty, SwitchLevelAgreementOnRandomFrames) {
  // Whole-pipeline agreement (parse -> match -> stats) on random frames,
  // including short/malformed ones, with and without the flow cache in
  // front of the compiled backend.
  common::Rng rng(kSuiteSeed ^ 0xf00d);
  for (int round = 0; round < 6; ++round) {
    const auto keys = random_keys(rng);
    P4Program program;
    program.keys = keys;
    for (const auto& k : keys) program.parser.fields.push_back(k.field);
    program.default_action = rng.chance(0.5) ? ActionOp::kPermit : ActionOp::kDrop;

    std::vector<TableEntry> pool;
    const std::size_t entry_count = 8 + rng.next_below(56);
    for (std::size_t e = 0; e < entry_count; ++e)
      pool.push_back(random_entry(rng, keys, true));

    P4Switch linear(program, 128);
    P4Switch compiled(program, 128);
    P4Switch compiled_cached(program, 128);
    compiled.set_match_backend(MatchBackend::kCompiled);
    compiled_cached.set_match_backend(MatchBackend::kCompiled);
    compiled_cached.enable_flow_cache(256);
    ASSERT_EQ(linear.install_rules(pool), TableWriteStatus::kOk);
    ASSERT_EQ(compiled.install_rules(pool), TableWriteStatus::kOk);
    ASSERT_EQ(compiled_cached.install_rules(pool), TableWriteStatus::kOk);

    for (int p = 0; p < 1500; ++p) {
      pkt::Packet packet;
      const std::size_t len = rng.next_below(48);  // often shorter than fields
      packet.bytes.resize(len);
      for (auto& b : packet.bytes) b = static_cast<std::uint8_t>(rng.next_u64());
      const auto want = linear.process(packet);
      const auto got = compiled.process(packet);
      const auto cached = compiled_cached.process(packet);
      ASSERT_EQ(want.action, got.action) << "round " << round << " pkt " << p;
      ASSERT_EQ(want.entry_index, got.entry_index);
      ASSERT_EQ(want.attack_class, got.attack_class);
      ASSERT_EQ(want.action, cached.action);
      ASSERT_EQ(want.entry_index, cached.entry_index);
    }
    for (std::size_t e = 0; e < linear.table().entry_count(); ++e) {
      ASSERT_EQ(linear.table().hit_count(e), compiled.table().hit_count(e));
      ASSERT_EQ(linear.table().hit_count(e), compiled_cached.table().hit_count(e));
    }
    EXPECT_EQ(linear.stats().dropped, compiled.stats().dropped);
    EXPECT_EQ(linear.stats().permitted, compiled_cached.stats().permitted);
  }
}

TEST(MatchEngineProperty, ShrinkerFindsMinimalCoreOnSyntheticDivergence) {
  // The shrinker itself must work, or a real failure would dump an unusable
  // repro. Feed it a fake "divergence" predicate via a rule set where only
  // one entry matters and check the bisection isolates it. We simulate by
  // checking that shrink of a non-diverging case terminates and that
  // diverges() is false on agreeing tables (the machinery's sanity).
  common::Rng rng(kSuiteSeed ^ 0x5eed);
  const auto keys = random_keys(rng);
  std::vector<TableEntry> pool;
  for (int e = 0; e < 32; ++e) pool.push_back(random_entry(rng, keys, false));
  const auto values = random_probe(rng, keys, pool);
  EXPECT_FALSE(diverges(keys, pool, values));
  const auto kept = shrink_rules(keys, pool, values);
  EXPECT_LE(kept.size(), pool.size());
}

TEST(MatchEngineProperty, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_match_backend("linear"), MatchBackend::kLinear);
  EXPECT_EQ(parse_match_backend("compiled"), MatchBackend::kCompiled);
  EXPECT_EQ(parse_match_backend("bogus"), std::nullopt);
  EXPECT_STREQ(match_backend_name(MatchBackend::kLinear), "linear");
  EXPECT_STREQ(match_backend_name(MatchBackend::kCompiled), "compiled");
}

}  // namespace
}  // namespace p4iot::p4
