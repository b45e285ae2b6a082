#ifndef TARA_CORE_KB_BUILDER_H_
#define TARA_CORE_KB_BUILDER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/expected.h"
#include "common/thread_pool.h"
#include "core/kb_snapshot.h"
#include "core/kb_storage.h"
#include "core/load_error.h"
#include "core/rollup_tree.h"
#include "core/wal.h"
#include "mining/rule_generation.h"
#include "obs/metrics.h"
#include "txdb/evolving_database.h"

namespace tara {

/// The mutable half of the knowledge base: mines arriving windows, commits
/// them onto the current KnowledgeBaseSnapshot, and publishes each new
/// generation with a single atomic shared_ptr swap (RCU-style).
///
/// ## Concurrency contract
///
/// - **One writer.** AppendWindow / AppendPrecomputedWindow / BuildAll /
///   InstallWindows are serialized by an internal commit mutex;
///   concurrent writer calls are safe but pointless (they queue).
/// - **One publication per writer call.** A live append publishes one
///   window; BuildAll, a WAL replay and an InstallWindows batch (a mapped
///   knowledge base's materialization gate) publish all of theirs in one
///   generation.
/// - **Any number of readers, any time.** snapshot() is a lock-free atomic
///   load; the returned shared_ptr pins that generation for as long as it
///   is held. Readers never block a writer and a writer never blocks
///   readers — an in-flight query keeps answering from the generation it
///   pinned while newer windows are committed and published.
///
/// What makes the swap safe:
/// - WindowSegments are immutable once published and shared by reference
///   across generations (appending window N copies N-1 pointers, not the
///   segments themselves).
/// - The RuleCatalog is shared between the builder and all snapshots: it
///   is append-only, internally synchronized (shared_mutex), and each
///   snapshot carries the rule-count watermark valid for its generation.
/// - The TAR Archive's delta streams are rewritten in place by appends, so
///   each published snapshot receives its own immutable copy of the
///   (compressed) archive; the builder keeps the working archive private.
///
/// Determinism: the commit stage (catalog interning + archive appends)
/// runs strictly in window order whether windows arrive via BuildAll's
/// parallel pipeline or one at a time through live AppendWindow calls, so
/// RuleIds — and the serialized knowledge base — are byte-identical for
/// the same window sequence at any parallelism, on either path.
class KbBuilder {
 public:
  using Options = KbOptions;

  /// Validates the options (aborts with an actionable message on an
  /// invalid field) and publishes the empty generation-0 snapshot.
  explicit KbBuilder(const Options& options);

  /// Mines and indexes transactions [begin, end) of `db` as the next
  /// window, then publishes the new generation. Returns the new window
  /// id. This is the incremental (iPARAS) build step: prior windows are
  /// never revisited.
  WindowId AppendWindow(const TransactionDatabase& db, size_t begin,
                        size_t end);

  /// Installs a window whose rules were mined elsewhere, then publishes.
  /// The caller guarantees the rules are exactly those passing this
  /// builder's floors over a window of `total_transactions` transactions.
  WindowId AppendPrecomputedWindow(uint64_t total_transactions,
                                   const std::vector<PrecomputedRule>& rules);

  /// Appends every window of an evolving database. With
  /// Options::parallelism > 1, independent windows are mined and
  /// EPS-indexed concurrently and committed in window order. The new
  /// windows become visible to readers atomically, as ONE new generation
  /// published after the last window's commit.
  void BuildAll(const EvolvingDatabase& data);

  /// Attaches the write-ahead log in `dir`, creating it if absent. An
  /// existing log must carry this builder's construction options; its
  /// records are first replayed into the snapshot (windows the builder
  /// already has are skipped, a window past the next id is a typed gap
  /// error) as one InstallWindows batch. After a successful attach every committed window is
  /// appended to the log and fdatasync'd before the committing call
  /// returns. NOT safe concurrently with writers or another AttachWal;
  /// call once, before ingestion starts.
  Expected<WalReplayStats, LoadError> AttachWal(const std::string& dir);

  /// Resets the attached log to just its header (no-op without one).
  /// Call only after the logged windows became durable elsewhere —
  /// i.e. right after a successful AppendKnowledgeBaseBlocks checkpoint.
  std::optional<LoadError> TruncateWal();

  /// True once AttachWal has succeeded (or Options::wal_dir was set).
  bool wal_attached() const { return wal_ != nullptr; }

  /// Pins and returns the current generation. Lock-free; safe from any
  /// thread at any time, including while a writer is mid-append.
  std::shared_ptr<const KnowledgeBaseSnapshot> snapshot() const {
    return current_.load(std::memory_order_acquire);
  }

  /// The published generation number (0 = empty initial snapshot).
  uint64_t generation() const { return snapshot()->generation(); }

  /// --- Durable watermark ------------------------------------------------
  /// Publication makes a window visible BEFORE its WAL record is
  /// fdatasync'd (both under the commit mutex), so a plain snapshot()
  /// can briefly expose a window a crash could still lose. Replication
  /// must not: a follower that replayed such a window would diverge from
  /// the recovered primary. The durable watermark trails publication by
  /// exactly that fsync: windows below it are safe to stream. Without a
  /// WAL every published window counts (there is no stronger durability
  /// to wait for).

  /// Windows durably acked so far. Lock-free; safe from any thread.
  uint32_t durable_window_count() const {
    return durable_windows_.load(std::memory_order_acquire);
  }

  /// Blocks until durable_window_count() > floor or `timeout` elapses;
  /// returns the current count either way. This is how a replication
  /// stream tails new windows without polling.
  uint32_t WaitDurableWindowsAbove(uint32_t floor,
                                   std::chrono::milliseconds timeout) const;

  /// --- Quiescent accessors ----------------------------------------------
  /// Direct views of the builder's working state, for offline tooling
  /// (benches, build-stats reports). Unlike snapshot(), these are NOT
  /// synchronized with concurrent appends — use them only when no writer
  /// is active, or go through snapshot().

  const RuleCatalog& catalog() const { return *catalog_; }
  const TarArchive& archive() const { return archive_; }
  const WindowSegment& segment(WindowId w) const;
  uint32_t window_count() const {
    return static_cast<uint32_t>(segments_.size());
  }
  const std::vector<WindowBuildStats>& build_stats() const { return stats_; }
  const Options& options() const { return options_; }
  size_t IndexBytes() const;

 private:
  /// Materialization and replica apply install stored windows through
  /// InstallWindows.
  friend class TaraEngine;

  /// One window's mining output, produced off-thread by the parallel
  /// build and handed to the ordered commit stage.
  struct MinedWindow {
    uint64_t total_transactions = 0;
    uint64_t floor_count = 0;
    std::vector<MinedRule> rules;
    double itemset_seconds = 0;
    double rule_seconds = 0;
    size_t itemset_count = 0;
  };

  /// Stage 1: mines transactions [begin, end) at the floors. Touches no
  /// builder state besides (immutable) options, so any thread may run it.
  MinedWindow MineWindowSlice(const TransactionDatabase& db, size_t begin,
                              size_t end, ThreadPool* intra_pool) const;

  /// Stage 2 core: interns `rules` and appends their counts to the
  /// working archive for `window`. Must run serialized, in window order —
  /// this is what keeps RuleIds deterministic.
  std::vector<WindowIndex::Entry> InternAndArchive(
      WindowId window, const std::vector<MinedRule>& rules);

  /// Stage 2 under the commit mutex: commits `mined` as window `window`
  /// and returns its still-private segment, EPS slice not yet built.
  std::shared_ptr<WindowSegment> CommitMinedLocked(WindowId window,
                                                   const MinedWindow& mined);

  /// Stages 2+3 under the commit mutex: commit `mined` as the next
  /// window, build its EPS slice, and publish the new generation.
  WindowId CommitAndPublish(MinedWindow mined);

  /// Registers `window` with the working archive and roll-up tree
  /// (commit mutex must be held).
  void BeginWindowLocked(WindowId window, uint64_t total_transactions,
                         uint64_t floor_count);

  /// Stage 3: builds `segment`'s EPS slice and records its index stats.
  /// Reads only the (internally synchronized) catalog and the options,
  /// so pool workers may run it for still-private segments.
  void BuildIndex(WindowSegment* segment, ThreadPool* pool) const;

  /// A stored window: its parsed TSEG segment plus the transaction count
  /// that the record carrying the segment (blocks manifest row, WAL
  /// record, replication record) holds beside it.
  struct StoredWindow {
    uint64_t total_transactions = 0;
    ParsedWindowSegment segment;
  };

  /// Installs stored windows as the next windows, in order, by the rule
  /// ids their segments state: only each window's new rules are interned
  /// (checked to land at first_rule + k), and the archive, roll-up tree
  /// and segment entries are appended by id. EPS slices fan over the
  /// pool as BuildAll's stage 3 does, and the whole batch publishes ONE
  /// generation. Each window is validated whole before it touches any
  /// state; the first invalid one (wrong window id, rule ids that do not
  /// continue the catalog, a zero or overflowing count, a rule twice,
  /// new-rule contents already interned or repeated) stops the batch with
  /// kCorruptSegment, leaving the windows before it installed and itself
  /// nowhere. This is how mapped knowledge bases materialize, WAL replay
  /// recovers, and replicas apply the stream; byte-identical to
  /// appending the resolved rules one window at a time.
  std::optional<LoadError> InstallWindows(std::vector<StoredWindow> windows);

  /// Appends windows [first, window_count()) to the attached WAL,
  /// fdatasync'd, reading their bytes from the just-published snapshot.
  /// No-op without a WAL; aborts if the log cannot be written — the
  /// windows are already visible in memory, and returning success
  /// without durability would break the ack contract. Commit mutex must
  /// be held.
  void LogWindowsLocked(WindowId first);

  /// Advances the durable watermark to every committed window and wakes
  /// waiting replication streams. Call after LogWindowsLocked (commit
  /// mutex must be held).
  void MarkDurableLocked();

  /// Appends the committed `pending` segments to the working state,
  /// publishes ONE new generation holding all of them, logs them to the
  /// WAL and advances the durable watermark (commit mutex must be held).
  void PublishLocked(std::vector<std::shared_ptr<WindowSegment>> pending);
  /// Swaps in a snapshot of the current working state (commit mutex must
  /// be held). `swaps` counts publications after the initial one.
  void PublishSnapshotLocked();

  /// Registers instruments in options_.metrics (no-op when null).
  void RegisterMetrics();
  /// Refreshes the build/size gauges from stats_/archive_/segments_
  /// (no-op when the registry is null; commit mutex must be held).
  void UpdateBuildMetrics();

  /// Build-side instrument pointers, all null when Options::metrics is
  /// null (the null sink).
  struct BuilderMetrics {
    obs::Gauge* build_itemset_seconds = nullptr;
    obs::Gauge* build_rule_seconds = nullptr;
    obs::Gauge* build_archive_seconds = nullptr;
    obs::Gauge* build_index_seconds = nullptr;
    obs::Gauge* build_windows = nullptr;
    obs::Gauge* build_rules = nullptr;
    obs::Gauge* build_regions = nullptr;
    obs::Gauge* archive_payload_bytes = nullptr;
    obs::Gauge* archive_entries = nullptr;
    obs::Gauge* index_bytes = nullptr;
    obs::Gauge* kb_generation = nullptr;
    obs::Counter* kb_swaps = nullptr;
  };

  Options options_;
  /// Non-null iff the effective parallelism is > 1; owns the build worker
  /// threads. Queries never touch it.
  std::unique_ptr<ThreadPool> pool_;
  /// Serializes writers (append/build calls) and publication.
  std::mutex commit_mutex_;
  /// Master catalog, shared with every published snapshot (append-only,
  /// internally synchronized).
  std::shared_ptr<RuleCatalog> catalog_;
  /// Working archive; every published snapshot gets an immutable copy.
  TarArchive archive_;
  /// Mirrors the archive as hierarchical partial sums; every published
  /// snapshot gets an immutable tree (series shared copy-on-write).
  RollUpTreeBuilder tree_builder_;
  /// All committed segments, oldest first (each immutable once pushed).
  std::vector<std::shared_ptr<const WindowSegment>> segments_;
  std::vector<WindowBuildStats> stats_;
  uint64_t generation_ = 0;
  /// The RCU publication point: readers load, the writer stores.
  std::atomic<std::shared_ptr<const KnowledgeBaseSnapshot>> current_;
  /// Write-ahead log; null until AttachWal succeeds. Written only under
  /// the commit mutex, after each publication.
  std::unique_ptr<WalWriter> wal_;
  /// Windows whose WAL records are fdatasync'd (== window count when no
  /// WAL is attached). Readers poll the atomic; waiters park on the cv.
  std::atomic<uint32_t> durable_windows_{0};
  mutable std::mutex durable_mutex_;
  mutable std::condition_variable durable_cv_;
  BuilderMetrics metrics_;
};

}  // namespace tara

#endif  // TARA_CORE_KB_BUILDER_H_
