#ifndef TARA_CORE_TAR_ARCHIVE_H_
#define TARA_CORE_TAR_ARCHIVE_H_

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/varint.h"
#include "core/rule_catalog.h"
#include "txdb/evolving_database.h"

namespace tara {

/// One decoded archive entry: the raw counts of a rule in one window.
/// Support = rule_count / window size; confidence = rule_count /
/// antecedent_count.
struct ArchiveEntry {
  WindowId window = 0;
  uint64_t rule_count = 0;
  uint64_t antecedent_count = 0;
};

/// Interval bounds for measures over a union of windows (the roll-up
/// operation, Section 2.4.1). For windows where the rule was archived the
/// contribution is exact; for windows where it fell below the generation
/// floor its count is only known to lie in [0, floor_count - 1], which
/// widens the interval — this is the paper's roll-up approximation bound
/// made explicit.
struct RollUpBound {
  double support_lo = 0;
  double support_hi = 0;
  double confidence_lo = 0;
  double confidence_hi = 0;
  uint32_t missing_windows = 0;  ///< windows with no archived entry
};

/// Largest count an *unarchived* rule could have had in a window mined
/// with the given floors: absence means support below floor_count OR
/// confidence below confidence_floor, so the undetected count is bounded
/// by the larger escape hatch (a confident-but-rare rule by
/// floor_count - 1, a frequent-but-unconfident one by
/// confidence_floor * |D_w|).
inline uint64_t UnarchivedCountSlack(uint64_t floor_count,
                                     double confidence_floor,
                                     uint64_t window_size) {
  const uint64_t support_slack = floor_count > 0 ? floor_count - 1 : 0;
  const uint64_t confidence_slack = static_cast<uint64_t>(
      confidence_floor * static_cast<double>(window_size));
  return support_slack > confidence_slack ? support_slack : confidence_slack;
}

/// Integer sums a roll-up reduces to before the final divisions. Both the
/// linear scan and the hierarchical roll-up tree aggregate into this and
/// finish through FinishRollUp, so their intervals are bit-identical: the
/// u64 sums are associative and the doubles are produced by the same
/// divisions in the same order.
struct RollUpAggregate {
  uint64_t known_rule = 0;     ///< rule_count over archived windows
  uint64_t known_ant = 0;      ///< antecedent_count over archived windows
  uint64_t missing_slack = 0;  ///< UnarchivedCountSlack over missing windows
  uint64_t missing_size = 0;   ///< transactions in missing windows
  uint64_t total = 0;          ///< transactions in all requested windows
  uint32_t missing_windows = 0;
};

RollUpBound FinishRollUp(const RollUpAggregate& agg);

/// The Temporal Association Rule Archive (TAR Archive).
///
/// Per rule, the per-window (rule_count, antecedent_count) series is stored
/// as a delta-encoded varint byte stream: window gaps are varint-encoded
/// and counts are zigzag-delta encoded against the previous entry, so a
/// rule that stays stable across windows costs ~3 bytes per window instead
/// of 20. Entries must be appended in increasing window order (the
/// evolving build provides exactly that); decoding is a linear scan of the
/// rule's private stream, dispatched to the widest SIMD kernel the host
/// supports (see core/decode_kernels.h).
class TarArchive {
 public:
  TarArchive() = default;

  /// Registers a window's transaction count and generation floors: the
  /// absolute minimum count used when mining it and the minimum confidence
  /// used when deriving rules. Both floors bound how large an *unarchived*
  /// rule's count could be in that window (a rule is absent iff its support
  /// was below floor_count OR its confidence below confidence_floor).
  /// Windows must be registered in order, before entries referencing them
  /// are added.
  void RegisterWindow(WindowId window, uint64_t transaction_count,
                      uint64_t floor_count, double confidence_floor = 0.0);

  /// Appends one (rule, window) observation. `window` must be the most
  /// recently registered window or later than the rule's last entry.
  void Add(RuleId rule, WindowId window, uint64_t rule_count,
           uint64_t antecedent_count);

  /// Decodes the full series of a rule into `arena` via the dispatched
  /// kernel. The span stays valid until the arena's next Reset(); rules
  /// never added decode to empty. This is the hot-path decode shape —
  /// zero heap allocation once the arena is warm.
  std::span<const ArchiveEntry> DecodeInto(RuleId rule,
                                           DecodeArena& arena) const;

  /// Single-pass visitor over a rule's series in window order, no
  /// materialization. `visitor(const ArchiveEntry&)` returns false to stop
  /// early. The decode is the portable scalar scan — consumers that want
  /// the SIMD kernels should DecodeInto.
  template <typename Visitor>
  void VisitEntries(RuleId rule, Visitor&& visitor) const {
    if (rule >= streams_.size() || streams_[rule].empty) return;
    const RuleStream& s = streams_[rule];
    const uint8_t* data = s.bytes.data();
    const size_t size = s.bytes.size();
    size_t pos = 0;
    ArchiveEntry entry;
    entry.window = static_cast<WindowId>(varint::DecodeU64(data, size, &pos));
    entry.rule_count = varint::DecodeU64(data, size, &pos);
    entry.antecedent_count = varint::DecodeU64(data, size, &pos);
    if (!visitor(static_cast<const ArchiveEntry&>(entry))) return;
    while (pos < size) {
      entry.window +=
          static_cast<WindowId>(varint::DecodeU64(data, size, &pos));
      entry.rule_count = static_cast<uint64_t>(
          static_cast<int64_t>(entry.rule_count) +
          varint::DecodeS64(data, size, &pos));
      entry.antecedent_count = static_cast<uint64_t>(
          static_cast<int64_t>(entry.antecedent_count) +
          varint::DecodeS64(data, size, &pos));
      if (!visitor(static_cast<const ArchiveEntry&>(entry))) return;
    }
  }

  /// Returns the entry of `rule` in `window`, if archived. Early-exits the
  /// scan at the target window instead of decoding the whole stream.
  std::optional<ArchiveEntry> EntryFor(RuleId rule, WindowId window) const;

  /// Exact/interval measures of `rule` over the union of `windows` (any
  /// order, no duplicates — WindowSet::ids() converts implicitly). Decodes
  /// once and binary-searches per window, O(entries + windows log entries);
  /// `scratch` avoids a heap allocation when provided.
  RollUpBound RollUp(RuleId rule, std::span<const WindowId> windows,
                     DecodeArena* scratch = nullptr) const;
  RollUpBound RollUp(RuleId rule,
                     std::initializer_list<WindowId> windows) const {
    return RollUp(rule, std::span<const WindowId>(windows.begin(),
                                                  windows.size()));
  }

  /// Number of registered windows.
  uint32_t window_count() const {
    return static_cast<uint32_t>(window_sizes_.size());
  }
  uint64_t window_size(WindowId w) const;
  uint64_t floor_count(WindowId w) const;
  double confidence_floor(WindowId w) const;

  /// Total payload bytes across all rule streams (the paper's Figure 12
  /// "TAR Archive" series).
  size_t payload_bytes() const { return payload_bytes_; }

  /// Total archived (rule, window) entries — multiplied by the raw record
  /// width this gives Figure 12's "uncompressed" series.
  size_t entry_count() const { return entry_count_; }

  /// Archived entries in one rule's stream (0 for rules never added).
  uint32_t entry_count(RuleId rule) const {
    if (rule >= streams_.size()) return 0;
    return streams_[rule].entries;
  }

  /// Number of rules with at least one entry.
  size_t rule_count() const;

 private:
  struct RuleStream {
    std::vector<uint8_t> bytes;
    // Delta bases for appending.
    uint32_t last_window = 0;
    uint64_t last_rule_count = 0;
    uint64_t last_antecedent_count = 0;
    uint32_t entries = 0;
    bool empty = true;
  };

  std::vector<RuleStream> streams_;
  std::vector<uint64_t> window_sizes_;
  std::vector<uint64_t> floor_counts_;
  std::vector<double> confidence_floors_;
  size_t payload_bytes_ = 0;
  size_t entry_count_ = 0;
};

}  // namespace tara

#endif  // TARA_CORE_TAR_ARCHIVE_H_
