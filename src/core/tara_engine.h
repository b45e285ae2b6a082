#ifndef TARA_CORE_TARA_ENGINE_H_
#define TARA_CORE_TARA_ENGINE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/expected.h"
#include "core/kb_builder.h"
#include "core/kb_snapshot.h"
#include "core/query_cache.h"
#include "core/query_error.h"
#include "core/query_kind.h"
#include "core/query_request.h"
#include "core/rule_catalog.h"
#include "core/stable_region_index.h"
#include "core/tar_archive.h"
#include "core/trajectory.h"
#include "core/window_set.h"
#include "obs/metrics.h"
#include "obs/query_span.h"
#include "txdb/evolving_database.h"

namespace tara {

class MappedKb;

/// The TARA framework: offline knowledge-base construction (Association
/// Generator + Knowledge Base Constructor of Figure 2) plus the online
/// explorer operations (Q1-Q5, roll-up/drill-down).
///
/// The engine is a thin facade over two layers:
///
/// - a **KbBuilder** (the write side) that mines arriving windows,
///   interns their rules, appends the TAR Archive, builds each window's
///   EPS slice, and publishes every new generation of the knowledge base
///   with one atomic pointer swap;
/// - immutable **KnowledgeBaseSnapshot** values (the read side) that all
///   query code runs against. Every query method pins the current
///   generation for its duration; Snapshot() hands the same pin to
///   callers that want several queries answered from one consistent view.
///
/// The facade's own contribution is the observability layer (per-kind
/// latency spans, ok/rejected counters) and API stability: its public
/// surface predates the split and is preserved verbatim.
///
/// ## Error contract
///
/// Every online operation returns Expected<Result, QueryError>: a
/// malformed *request* (threshold below the generation floor, bad window
/// id, empty window set, unknown rule, Q5 without a content index) is
/// reported as a QueryError value, never an abort, so one bad client
/// request cannot take down a serving process. CHECK aborts remain for
/// internal invariants and construction-time contracts (an out-of-range
/// id passed to MakeWindowSet is the caller's bug, caught at
/// construction). One-shot tools may call .value(), which aborts with the
/// error message on misuse.
///
/// ## Observability
///
/// When Options::metrics names a registry, the engine registers per-kind
/// query latency histograms, ok/rejected counters, build/size gauges, and
/// the snapshot instruments `tara.kb.generation` (gauge) and
/// `tara.kb.swaps` (publication counter) — see DESIGN.md,
/// "Observability". With a query cache enabled the cache adds
/// `tara.cache.{hits,misses,evictions}` counters and a `tara.cache.bytes`
/// gauge. All recording is relaxed-atomic and allocation-free;
/// with metrics == nullptr every instrument pointer is null and spans
/// skip the clock read entirely (the null sink).
///
/// ## Threading model
///
/// Readers and the writer are decoupled by snapshot publication (see
/// DESIGN.md, "Threading model"):
///
/// - **Ingestion** (AppendWindow / AppendPrecomputedWindow / BuildAll):
///   one writer at a time (concurrent writer calls serialize on an
///   internal commit mutex). With Options::parallelism > 1 the builder
///   parallelizes internally — independent windows are mined and
///   EPS-indexed on a private thread pool while catalog interning and
///   archive appends go through a serialized, window-ordered commit
///   stage, so RuleIds and the serialized knowledge base are
///   byte-identical to a sequential build, on the bulk and the live path
///   alike.
/// - **Queries**: every const method (MineWindow(s), TrajectoryQuery,
///   CompareSettings, RecommendRegion, RuleMeasures, ContentQuery,
///   ContentView, RollUpRule, MineRolledUp) is safe for any number of
///   concurrent callers **at any time — including while ingestion is
///   running**. Each call pins the generation current at its start and
///   answers entirely from that immutable snapshot; a window committed
///   mid-query becomes visible to the *next* call. This is enforced by
///   the live-ingestion stress test (tests/test_live_ingestion.cc) run
///   under ThreadSanitizer.
/// - **Accessors** (catalog(), archive(), window_index(),
///   window_entries(), build_stats()): quiescent views of the builder's
///   working state for offline tooling. They are NOT synchronized with a
///   concurrent writer — under live ingestion, obtain a Snapshot() and
///   use its equivalents instead.
class TaraEngine {
 public:
  using Options = KbOptions;
  using WindowBuildStats = tara::WindowBuildStats;
  using PrecomputedRule = tara::PrecomputedRule;
  using TrajectoryQueryResult = tara::TrajectoryQueryResult;
  using RulesetDiff = tara::RulesetDiff;
  using RolledUpRules = tara::RolledUpRules;

  explicit TaraEngine(const Options& options);
  ~TaraEngine();
  TaraEngine(TaraEngine&&) noexcept;
  TaraEngine& operator=(TaraEngine&&) noexcept;

  /// Mines and indexes transactions [begin, end) of `db` as the next
  /// window and publishes the new generation. Returns the new window id.
  /// This is the incremental (iPARAS) build step: prior windows are never
  /// revisited. May run while any number of queries are in flight.
  WindowId AppendWindow(const TransactionDatabase& db, size_t begin,
                        size_t end);

  /// Installs a window whose rules were mined elsewhere. The caller
  /// guarantees the rules are exactly those passing this engine's floors
  /// over a window of `total_transactions` transactions. Used by the
  /// knowledge-base loader and by callers plugging in their own miner.
  WindowId AppendPrecomputedWindow(uint64_t total_transactions,
                                   const std::vector<PrecomputedRule>& rules);

  /// Installs a stored window — a parsed TSEG segment (ParseWindowSegment)
  /// plus the transaction count its record carries — as the next window,
  /// by the rule ids it states, and publishes it. This is how replicas
  /// apply the replication stream. A segment that does not continue this
  /// knowledge base (another window id, rule ids that do not start at the
  /// catalog's size, a zero or overflowing count, a rule twice, new-rule
  /// contents already interned) is rejected with kCorruptSegment and
  /// changes nothing.
  std::optional<LoadError> InstallWindowSegment(uint64_t total_transactions,
                                                ParsedWindowSegment segment);

  /// Appends every window of an evolving database. With
  /// Options::parallelism > 1, independent windows are mined and
  /// EPS-indexed concurrently and committed in window order. All new
  /// windows are published together as one new generation.
  void BuildAll(const EvolvingDatabase& data);

  /// --- Durability (write-ahead log) ---------------------------------------
  /// With a WAL attached, Append*/BuildAll return only after the new
  /// window's record is fdatasync'd to the log, so an ack sent after an
  /// append survives any crash: recovery (OpenKnowledgeBase with a
  /// wal_dir in kb_open.h, or AttachWal over a loaded engine) replays the
  /// log tail and reproduces the acked state byte-for-byte.

  /// Attaches (creating if absent) the write-ahead log in `dir`,
  /// replaying any records it holds into this engine first. Call once,
  /// before ingestion starts; NOT safe concurrently with writers. On a
  /// mapped engine this first materializes every remaining window
  /// (replay needs the full catalog); decode failures come back as the
  /// LoadError instead of replaying.
  Expected<WalReplayStats, LoadError> AttachWal(const std::string& dir);

  /// Resets the attached log to its header (no-op without one). Call
  /// only right after the logged windows became durable via
  /// AppendKnowledgeBaseBlocks — that pair is the checkpoint step.
  std::optional<LoadError> TruncateWal() { return builder_->TruncateWal(); }

  /// True once a WAL is attached (Options::wal_dir or AttachWal).
  bool wal_attached() const { return builder_->wal_attached(); }

  /// Windows durably acked (WAL record fdatasync'd; every published
  /// window when no WAL is attached). Publication runs ahead of the
  /// fsync, so this can briefly trail window_count() — replication
  /// streams only below this watermark, because a window above it could
  /// still be lost to a crash and a follower that replayed it would
  /// diverge from the recovered primary.
  uint32_t durable_window_count() const {
    return builder_->durable_window_count();
  }

  /// Blocks until durable_window_count() > floor or `timeout` elapses;
  /// returns the current count either way (how replication streams tail
  /// new windows without polling).
  uint32_t WaitDurableWindowsAbove(uint32_t floor,
                                   std::chrono::milliseconds timeout) const {
    return builder_->WaitDurableWindowsAbove(floor, timeout);
  }

  /// Pins and returns the current knowledge-base generation: an immutable
  /// view offering the same query API (minus metric spans). Use this to
  /// answer several queries from one consistent state while ingestion
  /// continues, or to hold a generation alive across an append. On a
  /// mapped engine this materializes every remaining window first (the
  /// caller asked for the whole knowledge base) — aborting on corrupt
  /// storage, like any other load the engine cannot serve around.
  std::shared_ptr<const KnowledgeBaseSnapshot> Snapshot() const;

  /// The published generation number (0 = empty engine; each publication
  /// increments it). A generation is one publication, not one window: an
  /// eager open publishes once (generation 1), and on a lazily mapped
  /// engine each gate that materializes windows publishes once, however
  /// many windows it installs.
  uint64_t generation() const { return builder_->generation(); }

  /// Total windows of the knowledge base — on a mapped engine this is
  /// the manifest's count and does NOT materialize anything.
  uint32_t window_count() const;

  /// --- Zero-copy (mapped) knowledge bases ----------------------------------
  /// OpenKnowledgeBase(OpenMode::kMapped) plumbing — see kb_open.h for
  /// the user-facing story and kb_blocks.h for the storage format.

  /// Attaches a mapped TARAKB3 knowledge base to a freshly constructed,
  /// empty engine (aborts otherwise; call before any query or append).
  /// With `eager` every window is materialized now and a decode failure
  /// comes back as a typed error; without it, queries materialize the
  /// window prefix they need on demand and the first query to hit
  /// corrupt storage is rejected with QueryError::Code::kCorruptStorage
  /// (sticky: the unmaterialized tail stays unavailable, already-decoded
  /// windows keep serving).
  std::optional<LoadError> AttachMappedKb(std::shared_ptr<const MappedKb> kb,
                                          bool eager);

  /// True once no lazy materialization remains (trivially true for
  /// engines without a mapped knowledge base).
  bool fully_materialized() const;

  /// Pins the current generation WITHOUT materializing anything (unlike
  /// Snapshot()): on a lazily mapped engine it holds the windows decoded
  /// so far — always a whole prefix, since each gate publishes once. Its
  /// window count lags window_count() until queries (or Snapshot()) pull
  /// the rest in — the observable proof that mapped opens are lazy.
  std::shared_ptr<const KnowledgeBaseSnapshot> MaterializedSnapshot() const {
    return builder_->snapshot();
  }

  /// --- WindowSet construction --------------------------------------------

  /// A validated WindowSet over this engine's windows. Aborts if any id is
  /// out of range.
  WindowSet MakeWindowSet(std::vector<WindowId> ids) const {
    return WindowSet(std::move(ids), window_count());
  }

  /// Every window of the engine, oldest first.
  WindowSet AllWindows() const { return WindowSet::All(window_count()); }

  /// The newest `count` windows (fewer if the engine has fewer).
  WindowSet RecentWindows(uint32_t count) const {
    const uint32_t n = window_count();
    return WindowSet::Range(count >= n ? 0 : n - count, n, n);
  }

  /// --- Online operations -------------------------------------------------
  /// All of these validate the request and return a QueryError (never
  /// abort) on invalid thresholds, window ids, empty window sets, or
  /// unknown rules — see the class-level error contract. Each pins the
  /// current snapshot for its duration.

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

  /// Q2: symmetric difference of the rulesets of two settings over the same
  /// windows. Outputs sorted by RuleId.
  Expected<RulesetDiff, QueryError> CompareSettings(
      const ParameterSetting& first, const ParameterSetting& second,
      const WindowSet& windows, MatchMode mode) const;

  /// Q3: the time-aware stable region of `setting` in window `w` — the
  /// parameter recommendation primitive (any setting inside the region is
  /// equivalent; the region's upper corner is the tightest setting with the
  /// same result).
  Expected<RegionInfo, QueryError> RecommendRegion(
      WindowId w, const ParameterSetting& setting) const;

  /// Q4: evolving-behavior measures of a rule over `windows`.
  Expected<TrajectoryMeasures, QueryError> RuleMeasures(
      RuleId rule, const WindowSet& windows) const;

  /// Q5: rules valid under `setting` in window `w` containing all of
  /// `items`. Requires Options::build_content_index.
  Expected<std::vector<RuleId>, QueryError> ContentQuery(
      WindowId w, const Itemset& items,
      const ParameterSetting& setting) const;

  /// Builds the merged item→rules view of a window's result set — the
  /// region-index merge the TARA-S variant performs during Q1 (its extra
  /// online cost in Figures 7-8).
  Expected<std::unordered_map<ItemId, std::vector<RuleId>>, QueryError>
  ContentView(WindowId w, const ParameterSetting& setting) const;

  /// Roll-up: interval measures of `rule` over the union of `windows`.
  Expected<RollUpBound, QueryError> RollUpRule(
      RuleId rule, const WindowSet& windows) const;

  /// Roll-up mining: rules valid over the union of `windows` under
  /// `setting`, split into certain and possible per the interval bounds.
  Expected<RolledUpRules, QueryError> MineRolledUp(
      const WindowSet& windows, const ParameterSetting& setting) const;

  /// --- Uniform execution, batching, and the query cache -------------------
  /// Execute/ExecuteBatch are the serving fast path: the only entrypoints
  /// that consult the generation-pinned query cache (see query_cache.h).
  /// With Options::query_cache_bytes == 0 they behave exactly like the
  /// typed methods above (same validation, same QueryError codes) — the
  /// differential harness in tests/test_query_cache.cc enforces that the
  /// cached, batched, and uncached paths return byte-identical serialized
  /// results at every generation.

  /// Executes one request against the current generation, answering from
  /// the cache when enabled. Safe for any number of concurrent callers,
  /// including while ingestion runs.
  Expected<QueryResult, QueryError> Execute(const QueryRequest& request) const;

  /// Executes a batch against ONE pinned snapshot (every request sees the
  /// same generation, even if appends land mid-batch). Identical requests
  /// (by canonical bytes) are executed once; cache misses fan out across
  /// the engine's thread pool when Options::parallelism != 1. Results are
  /// positionally aligned with `requests`.
  std::vector<Expected<QueryResult, QueryError>> ExecuteBatch(
      std::span<const QueryRequest> requests) const;

  /// Resizes (or disables, with 0) the query cache, dropping all cached
  /// entries. NOT safe concurrently with in-flight Execute/ExecuteBatch
  /// calls — a serving process sizes the cache at construction via
  /// Options::query_cache_bytes; this setter exists for tools that load a
  /// knowledge base first and opt into caching afterwards.
  void SetQueryCacheBytes(size_t bytes);

  /// The cache, or nullptr when disabled. Exposed for stats reporting
  /// (hit rate, bytes); never needed for correctness.
  const QueryCache* query_cache() const { return cache_.get(); }

  /// --- Quiescent accessors ------------------------------------------------
  /// Views of the builder's working state. NOT synchronized with a
  /// concurrent writer; under live ingestion use Snapshot() instead. On
  /// a mapped engine these materialize every remaining window first
  /// (they expose the full working state).

  const RuleCatalog& catalog() const {
    EnsureAllOrDie();
    return builder_->catalog();
  }
  const TarArchive& archive() const {
    EnsureAllOrDie();
    return builder_->archive();
  }
  const WindowIndex& window_index(WindowId w) const {
    EnsureAllOrDie();
    return builder_->segment(w).index;
  }
  /// The build inputs of a window (used by roll-up and serialization).
  const std::vector<WindowIndex::Entry>& window_entries(WindowId w) const {
    EnsureAllOrDie();
    return builder_->segment(w).entries;
  }
  const std::vector<WindowBuildStats>& build_stats() const {
    return builder_->build_stats();
  }
  const Options& options() const { return builder_->options(); }

  /// Approximate bytes of all EPS window indexes (Figure 12 bookkeeping).
  size_t IndexBytes() const {
    EnsureAllOrDie();
    return builder_->IndexBytes();
  }

 private:
  /// Query-side instrument pointers, all null when Options::metrics is
  /// null (the null sink). Raw pointers into the registry; registration
  /// happens once in the constructor.
  struct EngineMetrics {
    std::array<obs::Histogram*, kQueryKindCount> latency{};
    obs::Counter* ok = nullptr;
    obs::Counter* rejected = nullptr;
  };

  /// Books the span/counters for a finished query: cancels the latency
  /// span and bumps `rejected` on an error, bumps `ok` otherwise, and
  /// forwards the result unchanged.
  template <typename T>
  Expected<T, QueryError> Finish(obs::QuerySpan* span,
                                 Expected<T, QueryError> result) const {
    if (result.has_value()) {
      if (metrics_.ok != nullptr) metrics_.ok->Increment();
    } else {
      span->Cancel();
      if (metrics_.rejected != nullptr) metrics_.rejected->Increment();
    }
    return result;
  }

  obs::QuerySpan Span(QueryKind kind) const {
    return obs::QuerySpan(metrics_.latency[static_cast<int>(kind)]);
  }

  /// Books a lazy-materialization failure as a rejected query.
  template <typename T>
  Expected<T, QueryError> Gated(obs::QuerySpan* span, QueryError error) const {
    return Finish(span, Expected<T, QueryError>(std::move(error)));
  }

  /// Registers query instruments in options.metrics (no-op when null).
  void RegisterMetrics(obs::MetricsRegistry* registry);

  /// --- Lazy materialization (mapped knowledge bases) -----------------------
  /// All gates are no-ops (one relaxed load) once materialization is
  /// complete or when no mapped knowledge base is attached. Lock order:
  /// the lazy mutex is taken strictly before the builder's commit mutex
  /// (materialization installs windows); pool workers never touch the
  /// lazy mutex.

  /// Materializes windows so the snapshot holds at least
  /// min(required, total) of them. Sticky-fails with kCorruptStorage.
  std::optional<QueryError> EnsureWindows(uint64_t required) const;
  /// Materializes through the window that interned `rule` (everything,
  /// when the manifest never heard of it, so the rejection matches an
  /// eager engine's byte for byte).
  std::optional<QueryError> EnsureRule(RuleId rule) const;
  /// The kind-aware gate Execute/ExecuteBatch use.
  std::optional<QueryError> EnsureForRequest(const QueryRequest& request) const;
  /// Full materialization for callers with no error channel (Snapshot,
  /// appends, quiescent accessors); aborts on corrupt storage.
  void EnsureAllOrDie() const;
  /// The mutex-held worker for windows [materialized, need): a parallel
  /// hash check and structural parse, then one KbBuilder::InstallWindows
  /// batch — one publication however many windows it installs.
  std::optional<LoadError> MaterializeLocked(uint32_t need) const;

  /// unique_ptr so the engine stays movable (the builder holds mutexes
  /// and the atomic publication slot).
  std::unique_ptr<KbBuilder> builder_;
  EngineMetrics metrics_;
  /// Generation-pinned result cache; null when Options::query_cache_bytes
  /// is 0. unique_ptr keeps the engine movable (the cache holds mutexes).
  std::unique_ptr<QueryCache> cache_;
  /// Read-side pool for ExecuteBatch fan-out; created when the effective
  /// parallelism is > 1. Separate from the builder's pool so batch reads
  /// never queue behind mining tasks during live ingestion.
  std::unique_ptr<ThreadPool> query_pool_;
  /// Lazy-materialization state for a mapped knowledge base; null for
  /// eager engines (and reset once an eager attach finishes). mutable:
  /// const queries materialize windows on demand — logically the engine
  /// is unchanged (the same knowledge base, loaded further).
  struct LazyState;
  mutable std::unique_ptr<LazyState> lazy_;
};

}  // namespace tara

#endif  // TARA_CORE_TARA_ENGINE_H_
