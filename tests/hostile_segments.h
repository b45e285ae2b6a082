// Hand-built window segments (TSEG blobs) that parse cleanly but must
// not install: each names a window whose entries the archive cannot
// take or whose rule ids do not describe a real commit. Shared by the
// install, WAL-replay and replica-apply tests, which all require a
// typed kCorruptSegment rejection that leaves the engine unchanged.

#ifndef TARA_TESTS_HOSTILE_SEGMENTS_H_
#define TARA_TESTS_HOSTILE_SEGMENTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/byte_codec.h"
#include "core/rule_catalog.h"

namespace tara::testing_segments {

/// Every segment below describes a window of this many transactions.
inline constexpr uint64_t kWindowTransactions = 100;

struct RawEntry {
  uint64_t rule = 0;
  uint64_t rule_count = 0;
  uint64_t antecedent_delta = 0;
};

/// Encodes a TSEG blob field by field, exactly as EncodeWindowSegment
/// lays one out, without any of the invariants a real commit keeps.
inline std::vector<uint8_t> Segment(uint64_t window, uint64_t first_rule,
                                    const std::vector<Rule>& new_rules,
                                    const std::vector<RawEntry>& entries) {
  codec::ByteWriter w;
  w.Magic("TSEG", 4);
  w.U64(window);
  w.U64(first_rule);
  w.U64(new_rules.size());
  for (const Rule& rule : new_rules) {
    w.Items(rule.antecedent);
    w.Items(rule.consequent);
  }
  w.U64(entries.size());
  for (const RawEntry& e : entries) {
    w.U64(e.rule);
    w.U64(e.rule_count);
    w.U64(e.antecedent_delta);
  }
  return w.bytes();
}

struct HostileSegment {
  std::string name;
  /// Valid windows installed before the crafted one (window ids 0, 1, …).
  std::vector<std::vector<uint8_t>> prefix;
  /// The window that must be rejected (window id prefix.size()).
  std::vector<uint8_t> crafted;
};

inline std::vector<HostileSegment> HostileSegments() {
  const Rule a{{1}, {2}};
  const Rule b{{1}, {3}};
  const std::vector<uint8_t> window0 = Segment(0, 0, {a}, {{0, 5, 1}});
  return {
      {"zero_rule_count", {}, Segment(0, 0, {a}, {{0, 0, 5}})},
      {"antecedent_count_wraps", {},
       Segment(0, 0, {a}, {{0, 5, UINT64_MAX - 2}})},
      {"rule_twice_in_window", {}, Segment(0, 0, {a}, {{0, 5, 1}, {0, 6, 1}})},
      {"old_rule_twice_in_window", {window0},
       Segment(1, 1, {b}, {{0, 5, 1}, {1, 4, 0}, {0, 6, 1}})},
      {"new_rule_already_interned", {window0},
       Segment(1, 1, {a}, {{1, 5, 1}})},
      {"new_rule_repeated_in_segment", {},
       Segment(0, 0, {a, a}, {{0, 5, 1}, {1, 6, 1}})},
      {"new_rules_out_of_id_order", {},
       Segment(0, 0, {a, b}, {{1, 5, 1}, {0, 6, 1}})},
      {"new_rule_without_entry", {}, Segment(0, 0, {a, b}, {{0, 5, 1}})},
      {"rule_ids_skip_the_catalog", {window0},
       Segment(1, 2, {b}, {{2, 5, 1}})},
  };
}

/// A valid window that continues a HostileSegment's prefix (whose
/// windows intern one rule each): one new rule, plus an old one when
/// there is a prefix. Installed after a rejection, it proves the working
/// state is intact.
inline std::vector<uint8_t> NextValidSegment(size_t prefix_windows) {
  if (prefix_windows == 0) return Segment(0, 0, {Rule{{4}, {5}}}, {{0, 7, 2}});
  return Segment(prefix_windows, prefix_windows,
                 {Rule{{4}, {static_cast<ItemId>(5 + prefix_windows)}}},
                 {{0, 3, 1}, {prefix_windows, 7, 2}});
}

}  // namespace tara::testing_segments

#endif  // TARA_TESTS_HOSTILE_SEGMENTS_H_
