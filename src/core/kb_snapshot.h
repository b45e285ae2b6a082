#ifndef TARA_CORE_KB_SNAPSHOT_H_
#define TARA_CORE_KB_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/expected.h"
#include "core/query_error.h"
#include "core/rollup_tree.h"
#include "core/rule_catalog.h"
#include "core/stable_region_index.h"
#include "core/tar_archive.h"
#include "core/trajectory.h"
#include "core/window_set.h"
#include "txdb/evolving_database.h"

namespace tara {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// A (minimum support, minimum confidence) query setting.
struct ParameterSetting {
  double min_support = 0.0;
  double min_confidence = 0.0;
};

/// How a multi-window predicate combines per-window validity.
enum class MatchMode {
  kSingle,  ///< valid in at least one of the windows (union)
  kExact,   ///< valid in every window (intersection)
};

/// Knowledge-base construction options, shared by the KbBuilder and the
/// TaraEngine facade (which aliases this as TaraEngine::Options).
struct KbOptions {
  /// Generation floors (Table 4): the per-window offline mining
  /// thresholds. Each window is mined exactly once at these floors, so
  /// they bound the online parameter space from below: every online
  /// query must use minsupp/minconf at or above them (checked per
  /// query), and the roll-up interval bounds widen by at most one floor
  /// count per missing window. Valid ranges: min_support_floor in
  /// (0, 1], min_confidence_floor in [0, 1].
  double min_support_floor = 0.001;
  double min_confidence_floor = 0.1;
  /// Cap on frequent-itemset cardinality (0 = unlimited, otherwise
  /// >= 2; a cap of 1 would admit no rules at all).
  uint32_t max_itemset_size = 0;
  /// Build per-window item→rule inverted indexes (the TARA-S variant)
  /// enabling Q5 content queries at extra build cost.
  bool build_content_index = false;
  /// Worker threads for the offline build: BuildAll overlaps whole
  /// windows, AppendWindow parallelizes its intra-window hot loops
  /// (rule derivation, stable-region sort). 1 = fully sequential
  /// (default), 0 = use the hardware concurrency. Any value yields a
  /// byte-identical serialized knowledge base; this is an execution
  /// knob, not knowledge-base state, and is not serialized.
  uint32_t parallelism = 1;
  /// Destination for the engine's instruments, or nullptr for the null
  /// sink (no clocks, no atomics on the query path). The registry must
  /// outlive the engine. Like parallelism this is a runtime knob, not
  /// knowledge-base state, and is not serialized. Engines sharing a
  /// registry aggregate into the same named series.
  obs::MetricsRegistry* metrics = nullptr;
  /// Memory budget for the generation-pinned query cache serving
  /// TaraEngine::Execute / ExecuteBatch, in bytes. 0 (default) disables
  /// caching entirely — no hashing, no serialization on the query path.
  /// A runtime knob like parallelism/metrics: not serialized, and
  /// adjustable after construction via TaraEngine::SetQueryCacheBytes.
  size_t query_cache_bytes = 0;
  /// Directory of the write-ahead log for live ingestion, or "" (default)
  /// for no WAL. When set, construction replays any log found there into
  /// the engine and every committed window is fdatasync'd to the log
  /// before Append*/BuildAll return — see wal.h for the durability
  /// contract. Construction aborts if the log cannot be attached; callers
  /// that want a typed error attach via TaraEngine::AttachWal instead.
  /// A runtime knob like parallelism/metrics: not serialized.
  std::string wal_dir;

  /// Returns an actionable description of the first invalid field, or
  /// nullopt when the options are usable. The KbBuilder (and therefore
  /// the TaraEngine) constructor calls this and aborts with the returned
  /// message.
  std::optional<std::string> Validate() const;
};

/// Per-window offline timing/size breakdown (Figure 9's stacked tasks).
struct WindowBuildStats {
  WindowId window = 0;
  double itemset_seconds = 0;  ///< frequent itemset generation
  double rule_seconds = 0;     ///< rule derivation
  double archive_seconds = 0;  ///< TAR Archive append
  double index_seconds = 0;    ///< EPS (stable region) index build
  size_t itemset_count = 0;
  size_t rule_count = 0;
  size_t location_count = 0;
  size_t region_count = 0;

  double total_seconds() const {
    return itemset_seconds + rule_seconds + archive_seconds + index_seconds;
  }
};

/// A rule with counts produced outside the engine (an external miner, or
/// the knowledge-base loader).
struct PrecomputedRule {
  Rule rule;
  uint64_t rule_count = 0;
  uint64_t antecedent_count = 0;
};

/// Result of the Q1 trajectory query: the rules matching the anchor
/// setting plus each rule's trajectory over the horizon windows.
struct TrajectoryQueryResult {
  std::vector<RuleId> rules;
  std::vector<Trajectory> trajectories;
};

/// Result of the Q2 ruleset comparison.
struct RulesetDiff {
  std::vector<RuleId> only_first;
  std::vector<RuleId> only_second;
};

/// Result of mining over a rolled-up window union: rules certainly valid
/// (interval lower bounds pass) and rules whose validity depends on the
/// sub-floor windows (only upper bounds pass).
struct RolledUpRules {
  std::vector<RuleId> certain;
  std::vector<RuleId> possible;
};

/// One committed window of the knowledge base: its EPS index slice, its
/// build inputs (kept for roll-up candidate enumeration and
/// serialization), and its build breakdown. Immutable once a snapshot
/// referencing it has been published; shared by every later snapshot, so
/// appending a window never copies older windows.
struct WindowSegment {
  WindowIndex index;
  std::vector<WindowIndex::Entry> entries;
  uint64_t total_transactions = 0;
  uint64_t floor_count = 0;
  /// Catalog size after this window's commit. Rules first interned by
  /// this window occupy ids [previous segment's watermark, this
  /// watermark) — the invariant the window-segment codec relies on to
  /// persist one window at a time.
  RuleId rule_watermark = 0;
  WindowBuildStats stats;
};

/// An immutable, point-in-time view of the knowledge base: the rule
/// catalog (bounded by the rule-count watermark at publication), the TAR
/// Archive, and one WindowSegment per committed window. All online query
/// logic (Q1–Q5, roll-up/drill-down) lives here and reads only this
/// state, so any number of threads may query one snapshot — or different
/// snapshots — while a KbBuilder keeps committing new windows and
/// publishing new generations.
///
/// Snapshots are obtained from KbBuilder::snapshot() /
/// TaraEngine::Snapshot() as shared_ptr<const KnowledgeBaseSnapshot>;
/// holding the pointer pins the generation (RCU-style): the data it
/// references is never mutated and outlives the pointer.
///
/// Queries validate their request and return Expected<T, QueryError> —
/// the same crash-free contract as the TaraEngine facade, minus the
/// facade's metric spans.
class KnowledgeBaseSnapshot {
 public:
  /// The generation number: 0 for the empty snapshot published at
  /// construction, +1 per publication since.
  uint64_t generation() const { return generation_; }

  uint32_t window_count() const {
    return static_cast<uint32_t>(segments_.size());
  }

  /// Number of rules interned when this snapshot was published. The
  /// shared catalog may have grown past this since; ids >= rule_count()
  /// are *not* part of this generation and are rejected by queries.
  size_t rule_count() const { return rule_count_; }

  /// The shared rule catalog. Safe for concurrent readers (internally
  /// synchronized against the single interning writer); only ids below
  /// rule_count() belong to this snapshot.
  const RuleCatalog& catalog() const { return *catalog_; }

  /// This generation's archive. Immutable; never shared with the
  /// builder's working archive.
  const TarArchive& archive() const { return *archive_; }

  /// This generation's hierarchical roll-up index (partial sums over the
  /// archive). Immutable; answers RollUpRule/MineRolledUp/EntryFor in
  /// O(log) instead of decoding streams.
  const RollUpTree& rollup_tree() const { return *rollup_tree_; }

  /// The archived entry of `rule` in `window`, if any — O(log entries)
  /// via the roll-up tree's window offsets, no stream decode.
  std::optional<ArchiveEntry> EntryFor(RuleId rule, WindowId window) const {
    return rollup_tree_->EntryFor(rule, window);
  }

  const WindowSegment& segment(WindowId w) const;
  const WindowIndex& window_index(WindowId w) const {
    return segment(w).index;
  }
  const std::vector<WindowIndex::Entry>& window_entries(WindowId w) const {
    return segment(w).entries;
  }

  /// The construction options the knowledge base was built with (runtime
  /// knobs — parallelism, metrics — as of the owning builder).
  const KbOptions& options() const { return options_; }

  /// Approximate bytes of all EPS window indexes (Figure 12 bookkeeping).
  size_t IndexBytes() const;

  /// --- WindowSet construction -------------------------------------------

  /// A validated WindowSet over this snapshot's windows. Aborts if any id
  /// is out of range.
  WindowSet MakeWindowSet(std::vector<WindowId> ids) const {
    return WindowSet(std::move(ids), window_count());
  }

  /// Every window of the snapshot, oldest first.
  WindowSet AllWindows() const { return WindowSet::All(window_count()); }

  /// The newest `count` windows (fewer if the snapshot has fewer).
  WindowSet RecentWindows(uint32_t count) const {
    const uint32_t n = window_count();
    return WindowSet::Range(count >= n ? 0 : n - count, n, n);
  }

  /// --- Online operations ------------------------------------------------
  /// All of these validate the request and return a QueryError (never
  /// abort) on invalid thresholds, window ids, empty window sets, or
  /// unknown rules.

  /// Rules valid in window `w` under `setting`.
  Expected<std::vector<RuleId>, QueryError> MineWindow(
      WindowId w, const ParameterSetting& setting) const;

  /// Rules valid across `windows` under `setting`, combined per `mode`.
  /// Output is sorted by RuleId.
  Expected<std::vector<RuleId>, QueryError> MineWindows(
      const WindowSet& windows, const ParameterSetting& setting,
      MatchMode mode) const;

  /// Q1: rules matching `setting` in `anchor`, each with its trajectory
  /// over `horizon` (oldest window first).
  Expected<TrajectoryQueryResult, QueryError> TrajectoryQuery(
      WindowId anchor, const ParameterSetting& setting,
      const WindowSet& horizon) const;

  /// Q2: symmetric difference of the rulesets of two settings over the
  /// same windows. Outputs sorted by RuleId.
  Expected<RulesetDiff, QueryError> CompareSettings(
      const ParameterSetting& first, const ParameterSetting& second,
      const WindowSet& windows, MatchMode mode) const;

  /// Q3: the time-aware stable region of `setting` in window `w`.
  Expected<RegionInfo, QueryError> RecommendRegion(
      WindowId w, const ParameterSetting& setting) const;

  /// Q4: evolving-behavior measures of a rule over `windows`.
  Expected<TrajectoryMeasures, QueryError> RuleMeasures(
      RuleId rule, const WindowSet& windows) const;

  /// Q5: rules valid under `setting` in window `w` containing all of
  /// `items`. Requires KbOptions::build_content_index.
  Expected<std::vector<RuleId>, QueryError> ContentQuery(
      WindowId w, const Itemset& items,
      const ParameterSetting& setting) const;

  /// Builds the merged item→rules view of a window's result set (the
  /// TARA-S region-index merge).
  Expected<std::unordered_map<ItemId, std::vector<RuleId>>, QueryError>
  ContentView(WindowId w, const ParameterSetting& setting) const;

  /// Roll-up: interval measures of `rule` over the union of `windows`.
  Expected<RollUpBound, QueryError> RollUpRule(
      RuleId rule, const WindowSet& windows) const;

  /// Roll-up mining: rules valid over the union of `windows` under
  /// `setting`, split into certain and possible per the interval bounds.
  Expected<RolledUpRules, QueryError> MineRolledUp(
      const WindowSet& windows, const ParameterSetting& setting) const;

 private:
  friend class KbBuilder;

  KnowledgeBaseSnapshot() = default;

  /// --- Request validation (each returns the error, or nullopt) ---------
  std::optional<QueryError> ValidateSetting(
      const ParameterSetting& setting) const;
  std::optional<QueryError> ValidateWindow(WindowId w) const;
  std::optional<QueryError> ValidateWindows(const WindowSet& windows) const;
  std::optional<QueryError> ValidateRule(RuleId rule) const;

  /// Unvalidated single-window collect shared by the public entrypoints.
  std::vector<RuleId> CollectWindow(WindowId w,
                                    const ParameterSetting& setting) const;
  /// Unvalidated multi-window merge.
  std::vector<RuleId> MineWindowsUnchecked(const WindowSet& windows,
                                           const ParameterSetting& setting,
                                           MatchMode mode) const;

  /// Shared with the owning builder; bounded by rule_count_.
  std::shared_ptr<const RuleCatalog> catalog_;
  size_t rule_count_ = 0;
  std::shared_ptr<const TarArchive> archive_;
  /// Partial-sum mirror of archive_; rule series shared across
  /// generations copy-on-write.
  std::shared_ptr<const RollUpTree> rollup_tree_;
  /// Shared with every other generation that committed the same windows.
  std::vector<std::shared_ptr<const WindowSegment>> segments_;
  uint64_t generation_ = 0;
  KbOptions options_;
};

}  // namespace tara

#endif  // TARA_CORE_KB_SNAPSHOT_H_
