#include "core/rule_synthesis.h"

#include "p4/minimize.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

namespace p4iot::core {

namespace {

std::uint64_t field_max(std::size_t bits) noexcept {
  return bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
}

/// Extract the integer wire value of a field from a zero-padded window.
std::uint64_t field_value(const common::ByteBuffer& window, const SelectedField& f) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < f.width; ++i) {
    const std::size_t pos = f.offset + i;
    v = (v << 8) | (pos < window.size() ? window[pos] : 0);
  }
  return v;
}

/// Recursively walk the tree collecting leaf paths dominated by the target
/// class: attack leaves in fail-open mode (drop rules), benign leaves in
/// fail-closed mode (permit rules over a default drop).
void collect_paths(const std::vector<ml::TreeNode>& nodes, int index,
                   std::vector<std::uint64_t>& lo, std::vector<std::uint64_t>& hi,
                   double threshold, bool target_attack, std::vector<RulePath>& out) {
  const auto& node = nodes[static_cast<std::size_t>(index)];
  if (node.is_leaf()) {
    const double target_probability =
        target_attack ? node.attack_probability : 1.0 - node.attack_probability;
    if (target_probability >= threshold) {
      out.push_back(RulePath{lo, hi, target_probability, node.samples});
    }
    return;
  }
  const auto f = static_cast<std::size_t>(node.feature);
  // Integer semantics of "value <= threshold": left gets [lo, floor(t)],
  // right gets [floor(t)+1, hi].
  const auto t = static_cast<std::uint64_t>(std::floor(node.threshold));

  const std::uint64_t saved_hi = hi[f];
  if (lo[f] <= t) {
    hi[f] = std::min(saved_hi, t);
    collect_paths(nodes, node.left, lo, hi, threshold, target_attack, out);
  }
  hi[f] = saved_hi;

  const std::uint64_t saved_lo = lo[f];
  if (saved_hi > t) {
    lo[f] = std::max(saved_lo, t + 1);
    collect_paths(nodes, node.right, lo, hi, threshold, target_attack, out);
  }
  lo[f] = saved_lo;
}

/// Multiclass analogue of collect_paths: a leaf qualifies when its
/// non-benign mass reaches the threshold; the path's dominant family is the
/// leaf's majority attack class.
void collect_multiclass_paths(const std::vector<ml::MulticlassTreeNode>& nodes,
                              int index, std::vector<std::uint64_t>& lo,
                              std::vector<std::uint64_t>& hi, double threshold,
                              std::vector<RulePath>& out) {
  const auto& node = nodes[static_cast<std::size_t>(index)];
  if (node.is_leaf()) {
    const std::size_t benign = node.class_counts.empty() ? 0 : node.class_counts[0];
    const double attack_fraction =
        node.samples ? 1.0 - static_cast<double>(benign) /
                                 static_cast<double>(node.samples)
                     : 0.0;
    if (attack_fraction >= threshold && node.samples > 0) {
      // Majority among attack classes only (class 0 is benign).
      std::size_t best = 1;
      for (std::size_t c = 2; c < node.class_counts.size(); ++c)
        if (node.class_counts[c] > node.class_counts[best]) best = c;
      RulePath path{lo, hi, attack_fraction, node.samples,
                    static_cast<pkt::AttackType>(best)};
      out.push_back(std::move(path));
    }
    return;
  }
  const auto f = static_cast<std::size_t>(node.feature);
  const auto t = static_cast<std::uint64_t>(std::floor(node.threshold));

  const std::uint64_t saved_hi = hi[f];
  if (lo[f] <= t) {
    hi[f] = std::min(saved_hi, t);
    collect_multiclass_paths(nodes, node.left, lo, hi, threshold, out);
  }
  hi[f] = saved_hi;

  const std::uint64_t saved_lo = lo[f];
  if (saved_hi > t) {
    lo[f] = std::max(saved_lo, t + 1);
    collect_multiclass_paths(nodes, node.right, lo, hi, threshold, out);
  }
  lo[f] = saved_lo;
}

}  // namespace

std::vector<std::pair<std::uint64_t, std::uint64_t>> range_to_prefixes(std::uint64_t lo,
                                                                       std::uint64_t hi,
                                                                       std::size_t bits) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  const std::uint64_t full = field_max(bits);
  hi = std::min(hi, full);
  if (lo > hi) return out;

  while (lo <= hi) {
    // Largest aligned block starting at lo that fits within [lo, hi].
    std::size_t block_bits = 0;
    while (block_bits < bits) {
      const std::uint64_t size = 1ULL << (block_bits + 1);
      if ((lo & (size - 1)) != 0) break;                    // alignment
      if (size - 1 > hi - lo) break;                        // fits
      ++block_bits;
    }
    const std::uint64_t block = 1ULL << block_bits;
    out.emplace_back(lo, full & ~(block - 1));
    if (hi - lo < block) break;  // avoid overflow when lo + block wraps
    lo += block;
    if (lo == 0) break;  // wrapped past 2^64
  }
  return out;
}

std::pair<std::uint64_t, std::uint64_t> covering_prefix(std::uint64_t lo, std::uint64_t hi,
                                                        std::size_t bits) {
  const std::uint64_t full = field_max(bits);
  hi = std::min(hi, full);
  // Shrink the mask until lo and hi agree on the masked prefix.
  std::uint64_t mask = full;
  std::uint64_t step = 1;
  while ((lo & mask) != (hi & mask)) {
    mask &= ~step;
    mask &= full;
    step <<= 1;
    if (mask == 0) break;
  }
  return {lo & mask, mask};
}

ml::Dataset field_value_dataset(const pkt::Trace& trace,
                                const std::vector<SelectedField>& fields,
                                std::size_t window_bytes) {
  ml::Dataset out;
  out.features.reserve(trace.size());
  out.labels.reserve(trace.size());
  for (const auto& p : trace.packets()) {
    const auto window = pkt::header_window(p, window_bytes);
    std::vector<double> sample;
    sample.reserve(fields.size());
    for (const auto& f : fields)
      sample.push_back(static_cast<double>(field_value(window, f)));
    out.add(std::move(sample), p.label());
  }
  return out;
}

SynthesizedRules synthesize_rules(const pkt::Trace& train,
                                  const std::vector<SelectedField>& fields,
                                  std::size_t window_bytes,
                                  const RuleSynthesisConfig& config) {
  SynthesizedRules result;

  // Build the P4 program skeleton: parser extracts exactly the selected
  // fields; the table keys them ternary.
  result.program.parser.window_bytes = window_bytes;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    char name[48];
    std::snprintf(name, sizeof name, "sel_f%zu_off%zu_w%zu", i, fields[i].offset,
                  fields[i].width);
    p4::FieldRef ref{name, fields[i].offset, fields[i].width};
    result.program.parser.fields.push_back(ref);
    result.program.keys.push_back(p4::KeySpec{ref, p4::MatchKind::kTernary});
  }
  result.program.default_action =
      config.fail_closed ? p4::ActionOp::kDrop : p4::ActionOp::kPermit;

  if (train.empty() || fields.empty()) return result;

  // Hold out a validation slice the tree never sees; rules must prove
  // themselves on it before install.
  pkt::Trace fit_trace = train;
  pkt::Trace val_trace;
  if (config.min_rule_precision > 0 && config.validation_fraction > 0 &&
      train.size() >= 40) {
    common::Rng split_rng(config.seed);
    auto [fit, val] = train.split(1.0 - config.validation_fraction, split_rng);
    fit_trace = std::move(fit);
    val_trace = std::move(val);
  }

  // Stage-2 tree over integer field values.
  const ml::Dataset data = field_value_dataset(fit_trace, fields, window_bytes);
  result.tree = ml::DecisionTree(config.tree);
  result.tree.fit(data);
  if (result.tree.nodes().empty()) return result;

  // Collect attack-dominated paths.
  std::vector<std::uint64_t> lo(fields.size(), 0), hi(fields.size());
  for (std::size_t i = 0; i < fields.size(); ++i)
    hi[i] = field_max(fields[i].width * 8);
  const bool target_attack = !config.fail_closed;
  if (config.class_aware && target_attack) {
    // Multiclass tree over attack families: leaves separate families, so
    // path class tags are exact and the entry count reflects the finer
    // partition.
    ml::MulticlassTreeConfig mc_config;
    // Separating k families needs ~log2(k) extra depth beyond the binary
    // question; without it the multiclass objective trades detection
    // coverage for family purity.
    mc_config.max_depth = config.tree.max_depth + 4;
    mc_config.min_samples_split = config.tree.min_samples_split;
    mc_config.min_samples_leaf = config.tree.min_samples_leaf;
    mc_config.min_impurity_decrease = config.tree.min_impurity_decrease;
    std::vector<int> family_labels;
    family_labels.reserve(fit_trace.size());
    for (const auto& p : fit_trace.packets())
      family_labels.push_back(static_cast<int>(p.attack));
    ml::MulticlassDecisionTree mc_tree(mc_config);
    mc_tree.fit(data.features, family_labels, pkt::kNumAttackTypes);
    collect_multiclass_paths(mc_tree.nodes(), 0, lo, hi,
                             config.attack_leaf_threshold, result.paths);
  } else {
    collect_paths(result.tree.nodes(), 0, lo, hi, config.attack_leaf_threshold,
                  target_attack, result.paths);
  }

  // Tag each path with the attack family it predominantly covers (paths are
  // disjoint leaf regions, so containment is unambiguous). Class-aware paths
  // already carry exact tags from the multiclass leaves.
  if (target_attack && !config.class_aware && !result.paths.empty()) {
    std::vector<std::array<std::size_t, pkt::kNumAttackTypes>> tallies(
        result.paths.size(), std::array<std::size_t, pkt::kNumAttackTypes>{});
    for (const auto& p : fit_trace.packets()) {
      if (!p.is_attack()) continue;
      const auto window = pkt::header_window(p, window_bytes);
      for (std::size_t pi = 0; pi < result.paths.size(); ++pi) {
        const auto& path = result.paths[pi];
        bool inside = true;
        for (std::size_t f = 0; f < fields.size() && inside; ++f) {
          const std::uint64_t v = field_value(window, fields[f]);
          inside = v >= path.lo[f] && v <= path.hi[f];
        }
        if (inside) {
          ++tallies[pi][static_cast<std::size_t>(p.attack)];
          break;
        }
      }
    }
    for (std::size_t pi = 0; pi < result.paths.size(); ++pi) {
      std::size_t best = 0;
      for (std::size_t a = 1; a < pkt::kNumAttackTypes; ++a)
        if (tallies[pi][a] > tallies[pi][best]) best = a;
      if (tallies[pi][best] > 0)
        result.paths[pi].dominant_attack = static_cast<pkt::AttackType>(best);
    }
  }

  // Expand each path into ternary entries (cross-product over fields).
  struct Candidate {
    p4::TableEntry entry;
    double weight = 0.0;         ///< training attack packets this path covered
    std::size_t path_index = 0;  ///< provenance for the path-evidence filter
  };
  std::vector<Candidate> candidates;

  for (std::size_t path_index = 0; path_index < result.paths.size(); ++path_index) {
    const auto& path = result.paths[path_index];
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> per_field;
    per_field.reserve(fields.size());
    bool ok = true;
    for (std::size_t f = 0; f < fields.size(); ++f) {
      const std::size_t bits = fields[f].width * 8;
      const bool unconstrained = path.lo[f] == 0 && path.hi[f] == field_max(bits);
      if (unconstrained) {
        per_field.push_back({{0, 0}});  // full wildcard: mask 0
        continue;
      }
      auto prefixes = config.expansion == ExpansionStrategy::kWidenedPrefix
                          ? std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                                covering_prefix(path.lo[f], path.hi[f], bits)}
                          : range_to_prefixes(path.lo[f], path.hi[f], bits);
      if (prefixes.empty()) {
        ok = false;
        break;
      }
      per_field.push_back(std::move(prefixes));
    }
    if (!ok) continue;

    // Bound the per-path cross-product by *coarsening*: align the widest
    // field's range outward one low bit at a time (which roughly halves its
    // prefix count) until the product fits. Coarsening overmatches slightly
    // — it can never lose attack coverage — and, unlike jumping straight to
    // a covering prefix, it preserves most of the field's discrimination.
    auto product_of = [&]() {
      std::size_t p = 1;
      for (const auto& v : per_field) p *= v.size();
      return p;
    };
    std::vector<std::size_t> coarsen_bits(fields.size(), 0);
    std::size_t product = product_of();
    while (product > std::max<std::size_t>(config.max_entries_per_path, 1)) {
      std::size_t widest = 0;
      for (std::size_t f = 1; f < per_field.size(); ++f)
        if (per_field[f].size() > per_field[widest].size()) widest = f;
      if (per_field[widest].size() <= 1) break;  // nothing left to coarsen
      const std::size_t bits = fields[widest].width * 8;
      ++coarsen_bits[widest];
      const std::uint64_t low = (1ULL << std::min(coarsen_bits[widest], bits)) - 1;
      const std::uint64_t lo_aligned = path.lo[widest] & ~low;
      const std::uint64_t hi_aligned = path.hi[widest] | low;
      per_field[widest] = range_to_prefixes(lo_aligned, hi_aligned, bits);
      product = product_of();
    }

    std::vector<std::size_t> idx(fields.size(), 0);
    for (std::size_t n = 0; n < product; ++n) {
      p4::TableEntry entry;
      entry.fields.resize(fields.size());
      for (std::size_t f = 0; f < fields.size(); ++f) {
        entry.fields[f].value = per_field[f][idx[f]].first;
        entry.fields[f].mask = per_field[f][idx[f]].second;
      }
      entry.action = target_attack ? config.attack_action : p4::ActionOp::kPermit;
      entry.attack_class = static_cast<std::uint8_t>(path.dominant_attack);
      // More specific (deeper constrained) paths get higher priority so
      // overlapping wildcards resolve toward the precise rule.
      int constrained = 0;
      for (std::size_t f = 0; f < fields.size(); ++f)
        if (entry.fields[f].mask != 0) ++constrained;
      entry.priority = 100 + constrained * 10;
      char note[64];
      std::snprintf(note, sizeof note, "path%zu p=%.2f n=%zu", path_index,
                    path.attack_probability, path.training_samples);
      entry.note = note;

      const double per_entry_weight = static_cast<double>(path.training_samples) *
                                      path.attack_probability /
                                      static_cast<double>(product);
      candidates.push_back({std::move(entry), per_entry_weight, path_index});

      // Advance the mixed-radix index.
      for (std::size_t f = 0; f < fields.size(); ++f) {
        if (++idx[f] < per_field[f].size()) break;
        idx[f] = 0;
      }
    }
  }

  result.entries_before_budget = candidates.size();

  // Greedy budget: keep the highest-coverage entries, then restore priority
  // order for first-match evaluation.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) { return a.weight > b.weight; });
  if (candidates.size() > config.max_entries) candidates.resize(config.max_entries);
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.entry.priority > b.entry.priority;
                   });

  // Validation pass against the held-out slice (falls back to the full
  // training trace when the dataset was too small to split). Removing an
  // entry can shift first-match assignments, so iterate (bounded).
  if (config.min_rule_precision > 0 && !candidates.empty()) {
    const pkt::Trace& replay = val_trace.empty() ? train : val_trace;
    const ml::Dataset val_data = field_value_dataset(replay, fields, window_bytes);
    std::vector<std::vector<std::uint64_t>> values;
    values.reserve(val_data.size());
    for (const auto& row : val_data.features) {
      std::vector<std::uint64_t> v;
      v.reserve(row.size());
      for (const double x : row) v.push_back(static_cast<std::uint64_t>(x));
      values.push_back(std::move(v));
    }
    // Precision and evidence are measured against the class the rules
    // target: attacks in fail-open mode, benign in fail-closed mode.
    const int target_label = target_attack ? 1 : 0;
    const auto val_targets = static_cast<std::size_t>(
        std::count(val_data.labels.begin(), val_data.labels.end(), target_label));
    const bool evidence_filter =
        !val_trace.empty() && val_targets >= config.min_validation_attacks;

    for (int round = 0; round < 4 && !candidates.empty(); ++round) {
      std::vector<std::uint64_t> target_hits(candidates.size(), 0);
      std::vector<std::uint64_t> other_hits(candidates.size(), 0);
      for (std::size_t s = 0; s < values.size(); ++s) {
        for (std::size_t e = 0; e < candidates.size(); ++e) {
          if (p4::entry_matches(result.program.keys, candidates[e].entry, values[s])) {
            (val_data.labels[s] == target_label ? target_hits[e] : other_hits[e]) += 1;
            break;  // first-match semantics
          }
        }
      }

      // Path-level target-class evidence on the held-out slice.
      std::vector<std::uint64_t> path_target_hits(result.paths.size(), 0);
      for (std::size_t e = 0; e < candidates.size(); ++e)
        path_target_hits[candidates[e].path_index] += target_hits[e];

      std::vector<Candidate> kept;
      kept.reserve(candidates.size());
      for (std::size_t e = 0; e < candidates.size(); ++e) {
        const std::uint64_t total = target_hits[e] + other_hits[e];
        const bool precise =
            total == 0 || static_cast<double>(target_hits[e]) /
                                  static_cast<double>(total) >=
                              config.min_rule_precision;
        const bool evidenced =
            !evidence_filter || path_target_hits[candidates[e].path_index] > 0;
        if (precise && evidenced) kept.push_back(std::move(candidates[e]));
      }
      const bool converged = kept.size() == candidates.size();
      candidates = std::move(kept);
      if (converged) break;
    }
  }

  result.entries.reserve(candidates.size());
  for (auto& c : candidates) result.entries.push_back(std::move(c.entry));

  // Behaviour-preserving TCAM minimization (prefix-joining).
  if (config.minimize && !result.entries.empty())
    result.entries = p4::minimize_entries(std::move(result.entries)).entries;

  std::size_t key_bits = 0;
  for (const auto& k : result.program.keys) key_bits += k.field.bit_width();
  result.tcam_bits = result.entries.size() * 2 * key_bits;
  return result;
}

}  // namespace p4iot::core
