// P4 program intermediate representation shared by the switch model, the
// rule compiler and the code generator.
//
// The model mirrors a V1Model-style pipeline narrowed to what the paper's
// firewall needs: a programmable parser that extracts a small set of
// byte-offset header fields, one priority-ordered match-action table over
// those fields, and permit/drop/count actions.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "packet/packet.h"

namespace p4iot::p4 {

/// One extracted header field: `width` bytes at byte `offset` from the start
/// of the frame. Widths up to 8 bytes fit the uint64 value path.
struct FieldRef {
  std::string name;        ///< P4-ish identifier, e.g. "hdr.sel.f0_tcp_dst_port"
  std::size_t offset = 0;  ///< bytes from start of frame
  std::size_t width = 1;   ///< bytes (1..8)

  std::size_t bit_width() const noexcept { return width * 8; }
  friend bool operator==(const FieldRef&, const FieldRef&) = default;
};

enum class MatchKind : std::uint8_t { kExact = 0, kTernary = 1, kLpm = 2, kRange = 3 };
const char* match_kind_name(MatchKind kind) noexcept;

/// All-ones mask covering a field `bytes` wide — the value domain of an
/// extracted field (shared by table validation and the compiled match
/// engine's exact-field signatures).
constexpr std::uint64_t field_width_mask(std::size_t bytes) noexcept {
  return bytes >= 8 ? ~0ULL : ((1ULL << (bytes * 8)) - 1);
}

/// A table key: a field plus how it is matched.
struct KeySpec {
  FieldRef field;
  MatchKind kind = MatchKind::kTernary;
};

enum class ActionOp : std::uint8_t { kPermit = 0, kDrop = 1, kMirror = 2 };
const char* action_op_name(ActionOp op) noexcept;

/// One match criterion of a table entry, interpretation depends on the
/// key's MatchKind:
///   exact:   value (mask ignored, full-width assumed)
///   ternary: value/mask
///   lpm:     value/mask where mask is a left-contiguous prefix
///   range:   [range_lo, range_hi] inclusive
struct MatchField {
  std::uint64_t value = 0;
  std::uint64_t mask = 0;
  std::uint64_t range_lo = 0;
  std::uint64_t range_hi = 0;
};

struct TableEntry {
  std::vector<MatchField> fields;  ///< one per table key, in key order
  std::int32_t priority = 0;       ///< higher wins
  ActionOp action = ActionOp::kDrop;
  /// Attack-class tag (pkt::AttackType value) for telemetry: the dominant
  /// attack family the entry's tree path covered in training. 0 = untagged.
  std::uint8_t attack_class = 0;
  std::string note;                ///< provenance (e.g. originating tree path)
};

/// The one match predicate for learned rules (the linear scan, the compiled
/// index's candidate check and rule synthesis' validation pass): does
/// `entry` match `values` under `keys`? Missing values read as zero, like
/// the zero-padded parser. `entry.fields` holds one field per key.
inline bool entry_matches(std::span<const KeySpec> keys, const TableEntry& entry,
                          std::span<const std::uint64_t> values) noexcept {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto v = i < values.size() ? values[i] : 0;
    const auto& f = entry.fields[i];
    switch (keys[i].kind) {
      case MatchKind::kExact:
        if (v != f.value) return false;
        break;
      case MatchKind::kTernary:
      case MatchKind::kLpm:
        if ((v & f.mask) != f.value) return false;
        break;
      case MatchKind::kRange:
        if (v < f.range_lo || v > f.range_hi) return false;
        break;
    }
  }
  return true;
}

/// The parser program: which fields to extract. The generated P4 parser
/// advances through the byte stream and slices these out.
struct ParserSpec {
  std::vector<FieldRef> fields;
  std::size_t window_bytes = 64;  ///< bytes of header guaranteed available

  /// Extract all field values from a frame (zero-padded reads past the end,
  /// matching the zero-filled header window semantics of the pipeline).
  std::vector<std::uint64_t> extract(std::span<const std::uint8_t> frame) const;
  /// Allocation-free variant for per-packet hot paths: `out` is resized to
  /// the field count and overwritten.
  void extract_into(std::span<const std::uint8_t> frame,
                    std::vector<std::uint64_t>& out) const;

  /// Shortest frame that contains every parsed field in full. Frames below
  /// this length force the parser to fabricate zero bytes — the definition
  /// of "malformed" the switch's MalformedPolicy acts on.
  std::size_t min_frame_bytes() const noexcept {
    std::size_t m = 0;
    for (const auto& f : fields) m = std::max(m, f.offset + f.width);
    return m;
  }
};

/// Complete firewall program: parser + one table + default action.
struct P4Program {
  std::string name = "iot_firewall";
  ParserSpec parser;
  std::vector<KeySpec> keys;
  ActionOp default_action = ActionOp::kPermit;  ///< fail-open by default
};

}  // namespace p4iot::p4
