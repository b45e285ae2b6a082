#include "core/tara_engine.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "core/kb_blocks.h"
#include "core/kb_storage.h"

namespace tara {

/// Everything a lazily mapped knowledge base needs: the mapping itself,
/// a cursor of how many windows are decoded, and the sticky failure
/// state. `materialized`/`done` are the lock-free fast path; the mutex
/// serializes actual decoding (and orders strictly before the builder's
/// commit mutex — materialization installs windows).
struct TaraEngine::LazyState {
  std::shared_ptr<const MappedKb> kb;
  std::mutex mutex;
  std::atomic<uint32_t> materialized{0};
  std::atomic<bool> done{false};
  /// Guarded by `mutex`. Once a decode fails, every later gate fails
  /// with the same message — a half-decoded tail must not silently
  /// shrink the knowledge base.
  bool failed = false;
  std::string failure;
};

TaraEngine::TaraEngine(const Options& options)
    : builder_(std::make_unique<KbBuilder>(options)) {
  RegisterMetrics(options.metrics);
  if (options.query_cache_bytes > 0) {
    cache_ = std::make_unique<QueryCache>(options.query_cache_bytes,
                                          options.metrics);
  }
  const uint32_t parallelism =
      options.parallelism == 0 ? std::thread::hardware_concurrency()
                               : options.parallelism;
  if (parallelism > 1) query_pool_ = std::make_unique<ThreadPool>(parallelism);
}

TaraEngine::~TaraEngine() = default;
TaraEngine::TaraEngine(TaraEngine&&) noexcept = default;
TaraEngine& TaraEngine::operator=(TaraEngine&&) noexcept = default;

void TaraEngine::RegisterMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  for (int k = 0; k < kQueryKindCount; ++k) {
    const std::string name =
        std::string("tara.query.") +
        std::string(QueryKindName(static_cast<QueryKind>(k))) + ".latency_ns";
    metrics_.latency[k] = registry->GetHistogram(name);
  }
  metrics_.ok = registry->GetCounter("tara.query.ok");
  metrics_.rejected = registry->GetCounter("tara.query.rejected");
}

std::optional<LoadError> TaraEngine::AttachMappedKb(
    std::shared_ptr<const MappedKb> kb, bool eager) {
  TARA_CHECK(lazy_ == nullptr) << "AttachMappedKb called twice";
  TARA_CHECK(builder_->snapshot()->window_count() == 0)
      << "AttachMappedKb needs a freshly constructed, empty engine";
  lazy_ = std::make_unique<LazyState>();
  lazy_->kb = std::move(kb);
  if (lazy_->kb->window_count() == 0) lazy_->done.store(true);
  if (eager) {
    std::optional<LoadError> error;
    {
      std::lock_guard<std::mutex> lock(lazy_->mutex);
      error = MaterializeLocked(lazy_->kb->window_count());
    }
    if (error.has_value()) return error;
    lazy_.reset();  // fully decoded — drop the gates and the mapping
  }
  return std::nullopt;
}

bool TaraEngine::fully_materialized() const {
  return lazy_ == nullptr || lazy_->done.load(std::memory_order_acquire);
}

std::shared_ptr<const KnowledgeBaseSnapshot> TaraEngine::Snapshot() const {
  EnsureAllOrDie();
  return builder_->snapshot();
}

uint32_t TaraEngine::window_count() const {
  if (lazy_ != nullptr && !lazy_->done.load(std::memory_order_acquire)) {
    // The manifest's count: appends force full materialization first, so
    // while lazy decoding is still pending the manifest is the whole
    // knowledge base.
    return lazy_->kb->window_count();
  }
  return builder_->snapshot()->window_count();
}

std::optional<LoadError> TaraEngine::MaterializeLocked(uint32_t need) const {
  const MappedKb& kb = *lazy_->kb;
  const uint32_t total = kb.window_count();
  if (need > total) need = total;
  const uint32_t have = lazy_->materialized.load(std::memory_order_relaxed);
  if (have >= need) return std::nullopt;

  // Stage 1 — catalog-free: hash-check, parse and cross-check each
  // pending segment against its manifest row, fanned across the query
  // pool. Workers touch only their slot; the lazy mutex (held by the
  // caller) is never taken here.
  const uint32_t count = need - have;
  std::vector<KbBuilder::StoredWindow> windows(count);
  std::vector<std::string> failures(count);  // empty = the slot parsed
  const auto parse_one = [&](uint32_t i) {
    const SegmentView view = kb.segment(have + i);
    const KbBlockRow& row = *view.row;
    if (HashBytes(view.data, view.size) != row.segment_hash) {
      failures[i] = "checksum does not match the blocks manifest";
      return;
    }
    auto parsed = ParseWindowSegment(view.data, view.size);
    if (!parsed.has_value()) {
      failures[i] = parsed.error().message;
    } else if (parsed->first_rule + parsed->new_rules.size() !=
               row.rule_watermark) {
      failures[i] = "rule id range disagrees with the blocks manifest";
    } else if (parsed->entries.size() != row.entry_count) {
      failures[i] = "entry count disagrees with the blocks manifest";
    } else {
      windows[i] = {row.total_transactions, *std::move(parsed)};
    }
  };
  if (query_pool_ != nullptr && count > 1) {
    query_pool_->ParallelFor(count, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        parse_one(static_cast<uint32_t>(i));
      }
    });
  } else {
    for (uint32_t i = 0; i < count; ++i) parse_one(i);
  }

  // Stage 2 — the builder installs the windows before the first failure
  // by rule id and publishes them as one generation.
  const auto first_failure = static_cast<uint32_t>(
      std::find_if(failures.begin(), failures.end(),
                   [](const std::string& f) { return !f.empty(); }) -
      failures.begin());
  windows.resize(first_failure);
  std::optional<LoadError> error =
      builder_->InstallWindows(std::move(windows));
  if (!error.has_value() && first_failure < count) {
    error = LoadError{LoadError::Code::kCorruptSegment,
                      "segment of window " +
                          std::to_string(have + first_failure) +
                          " is corrupt: " + failures[first_failure]};
  }
  // Whatever installed keeps serving, even when a later window failed.
  const uint32_t installed = builder_->snapshot()->window_count();
  lazy_->materialized.store(installed, std::memory_order_release);
  if (installed == total) lazy_->done.store(true, std::memory_order_release);
  return error;
}

std::optional<LoadError> TaraEngine::InstallWindowSegment(
    uint64_t total_transactions, ParsedWindowSegment segment) {
  EnsureAllOrDie();
  std::vector<KbBuilder::StoredWindow> windows;
  windows.push_back({total_transactions, std::move(segment)});
  return builder_->InstallWindows(std::move(windows));
}

std::optional<QueryError> TaraEngine::EnsureWindows(uint64_t required) const {
  if (lazy_ == nullptr || lazy_->done.load(std::memory_order_acquire)) {
    return std::nullopt;
  }
  // Clamp to the manifest: an out-of-range request materializes
  // everything, so the snapshot-side rejection is byte-identical to an
  // eager engine's.
  const uint32_t need = static_cast<uint32_t>(
      std::min<uint64_t>(required, lazy_->kb->window_count()));
  if (lazy_->materialized.load(std::memory_order_acquire) >= need) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(lazy_->mutex);
  if (lazy_->failed) {
    return QueryError{QueryError::Code::kCorruptStorage, lazy_->failure};
  }
  if (auto error = MaterializeLocked(need)) {
    lazy_->failed = true;
    lazy_->failure = error->message;
    return QueryError{QueryError::Code::kCorruptStorage,
                      std::move(error->message)};
  }
  return std::nullopt;
}

std::optional<QueryError> TaraEngine::EnsureRule(RuleId rule) const {
  if (lazy_ == nullptr || lazy_->done.load(std::memory_order_acquire)) {
    return std::nullopt;
  }
  const std::optional<WindowId> w = lazy_->kb->FirstWindowWithRule(rule);
  return EnsureWindows(w.has_value()
                           ? static_cast<uint64_t>(*w) + 1
                           : lazy_->kb->window_count());
}

std::optional<QueryError> TaraEngine::EnsureForRequest(
    const QueryRequest& request) const {
  if (lazy_ == nullptr || lazy_->done.load(std::memory_order_acquire)) {
    return std::nullopt;
  }
  uint64_t required = 0;
  const auto windows_max = [&request]() {
    uint64_t max = 0;
    for (const WindowId id : request.windows) {
      max = std::max(max, static_cast<uint64_t>(id) + 1);
    }
    return max;
  };
  switch (request.kind) {
    case QueryKind::kMineWindow:
    case QueryKind::kRegion:
    case QueryKind::kContent:
    case QueryKind::kContentView:
      required = static_cast<uint64_t>(request.window) + 1;
      break;
    case QueryKind::kTrajectory:
      required =
          std::max(static_cast<uint64_t>(request.window) + 1, windows_max());
      break;
    case QueryKind::kMineWindows:
    case QueryKind::kCompare:
    case QueryKind::kRollUpMine:
      required = windows_max();
      break;
    case QueryKind::kMeasures:
    case QueryKind::kRollUpRule:
      if (auto gate = EnsureRule(request.rule)) return gate;
      required = windows_max();
      break;
  }
  return EnsureWindows(required);
}

void TaraEngine::EnsureAllOrDie() const {
  if (lazy_ == nullptr || lazy_->done.load(std::memory_order_acquire)) return;
  if (auto error = EnsureWindows(lazy_->kb->window_count())) {
    TARA_CHECK(false) << error->message
                      << " — open with OpenOptions::verify = kHashes to "
                         "detect this at open time instead";
  }
}

WindowId TaraEngine::AppendWindow(const TransactionDatabase& db, size_t begin,
                                  size_t end) {
  EnsureAllOrDie();
  return builder_->AppendWindow(db, begin, end);
}

WindowId TaraEngine::AppendPrecomputedWindow(
    uint64_t total_transactions, const std::vector<PrecomputedRule>& rules) {
  EnsureAllOrDie();
  return builder_->AppendPrecomputedWindow(total_transactions, rules);
}

void TaraEngine::BuildAll(const EvolvingDatabase& data) {
  EnsureAllOrDie();
  builder_->BuildAll(data);
}

Expected<WalReplayStats, LoadError> TaraEngine::AttachWal(
    const std::string& dir) {
  if (lazy_ != nullptr && !lazy_->done.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(lazy_->mutex);
    if (lazy_->failed) {
      return LoadError{LoadError::Code::kCorruptSegment, lazy_->failure};
    }
    if (auto error = MaterializeLocked(lazy_->kb->window_count())) {
      lazy_->failed = true;
      lazy_->failure = error->message;
      return *std::move(error);
    }
  }
  return builder_->AttachWal(dir);
}

Expected<std::vector<RuleId>, QueryError> TaraEngine::MineWindow(
    WindowId w, const ParameterSetting& setting) const {
  obs::QuerySpan span = Span(QueryKind::kMineWindow);
  if (auto gate = EnsureWindows(static_cast<uint64_t>(w) + 1)) {
    return Gated<std::vector<RuleId>>(&span, *std::move(gate));
  }
  return Finish(&span, builder_->snapshot()->MineWindow(w, setting));
}

Expected<std::vector<RuleId>, QueryError> TaraEngine::MineWindows(
    const WindowSet& windows, const ParameterSetting& setting,
    MatchMode mode) const {
  obs::QuerySpan span = Span(QueryKind::kMineWindows);
  if (auto gate = EnsureWindows(windows.required_window_count())) {
    return Gated<std::vector<RuleId>>(&span, *std::move(gate));
  }
  return Finish(&span,
                builder_->snapshot()->MineWindows(windows, setting, mode));
}

Expected<TaraEngine::TrajectoryQueryResult, QueryError>
TaraEngine::TrajectoryQuery(WindowId anchor, const ParameterSetting& setting,
                            const WindowSet& horizon) const {
  obs::QuerySpan span = Span(QueryKind::kTrajectory);
  if (auto gate = EnsureWindows(
          std::max(static_cast<uint64_t>(anchor) + 1,
                   static_cast<uint64_t>(horizon.required_window_count())))) {
    return Gated<TrajectoryQueryResult>(&span, *std::move(gate));
  }
  return Finish(&span,
                builder_->snapshot()->TrajectoryQuery(anchor, setting,
                                                      horizon));
}

Expected<TaraEngine::RulesetDiff, QueryError> TaraEngine::CompareSettings(
    const ParameterSetting& first, const ParameterSetting& second,
    const WindowSet& windows, MatchMode mode) const {
  obs::QuerySpan span = Span(QueryKind::kCompare);
  if (auto gate = EnsureWindows(windows.required_window_count())) {
    return Gated<RulesetDiff>(&span, *std::move(gate));
  }
  return Finish(&span, builder_->snapshot()->CompareSettings(first, second,
                                                             windows, mode));
}

Expected<RegionInfo, QueryError> TaraEngine::RecommendRegion(
    WindowId w, const ParameterSetting& setting) const {
  obs::QuerySpan span = Span(QueryKind::kRegion);
  if (auto gate = EnsureWindows(static_cast<uint64_t>(w) + 1)) {
    return Gated<RegionInfo>(&span, *std::move(gate));
  }
  return Finish(&span, builder_->snapshot()->RecommendRegion(w, setting));
}

Expected<TrajectoryMeasures, QueryError> TaraEngine::RuleMeasures(
    RuleId rule, const WindowSet& windows) const {
  obs::QuerySpan span = Span(QueryKind::kMeasures);
  if (auto gate = EnsureRule(rule)) {
    return Gated<TrajectoryMeasures>(&span, *std::move(gate));
  }
  if (auto gate = EnsureWindows(windows.required_window_count())) {
    return Gated<TrajectoryMeasures>(&span, *std::move(gate));
  }
  return Finish(&span, builder_->snapshot()->RuleMeasures(rule, windows));
}

Expected<std::vector<RuleId>, QueryError> TaraEngine::ContentQuery(
    WindowId w, const Itemset& items, const ParameterSetting& setting) const {
  obs::QuerySpan span = Span(QueryKind::kContent);
  if (auto gate = EnsureWindows(static_cast<uint64_t>(w) + 1)) {
    return Gated<std::vector<RuleId>>(&span, *std::move(gate));
  }
  return Finish(&span, builder_->snapshot()->ContentQuery(w, items, setting));
}

Expected<std::unordered_map<ItemId, std::vector<RuleId>>, QueryError>
TaraEngine::ContentView(WindowId w, const ParameterSetting& setting) const {
  obs::QuerySpan span = Span(QueryKind::kContentView);
  if (auto gate = EnsureWindows(static_cast<uint64_t>(w) + 1)) {
    return Gated<std::unordered_map<ItemId, std::vector<RuleId>>>(
        &span, *std::move(gate));
  }
  return Finish(&span, builder_->snapshot()->ContentView(w, setting));
}

Expected<RollUpBound, QueryError> TaraEngine::RollUpRule(
    RuleId rule, const WindowSet& windows) const {
  obs::QuerySpan span = Span(QueryKind::kRollUpRule);
  if (auto gate = EnsureRule(rule)) {
    return Gated<RollUpBound>(&span, *std::move(gate));
  }
  if (auto gate = EnsureWindows(windows.required_window_count())) {
    return Gated<RollUpBound>(&span, *std::move(gate));
  }
  return Finish(&span, builder_->snapshot()->RollUpRule(rule, windows));
}

Expected<TaraEngine::RolledUpRules, QueryError> TaraEngine::MineRolledUp(
    const WindowSet& windows, const ParameterSetting& setting) const {
  obs::QuerySpan span = Span(QueryKind::kRollUpMine);
  if (auto gate = EnsureWindows(windows.required_window_count())) {
    return Gated<RolledUpRules>(&span, *std::move(gate));
  }
  return Finish(&span, builder_->snapshot()->MineRolledUp(windows, setting));
}

Expected<QueryResult, QueryError> TaraEngine::Execute(
    const QueryRequest& request) const {
  obs::QuerySpan span = Span(request.kind);
  if (auto gate = EnsureForRequest(request)) {
    return Gated<QueryResult>(&span, *std::move(gate));
  }
  const std::shared_ptr<const KnowledgeBaseSnapshot> snapshot =
      builder_->snapshot();
  if (cache_ == nullptr) {
    return Finish(&span, ExecuteQuery(*snapshot, request));
  }
  const std::string key = EncodeQueryRequest(request);
  if (std::optional<std::string> hit =
          cache_->Get(snapshot->generation(), request.kind, key)) {
    if (std::optional<QueryResult> decoded =
            DecodeQueryResult(request.kind, *hit)) {
      return Finish(&span, Expected<QueryResult, QueryError>(
                               *std::move(decoded)));
    }
  }
  Expected<QueryResult, QueryError> result = ExecuteQuery(*snapshot, request);
  if (result.has_value()) {
    cache_->Put(snapshot->generation(), request.kind, key,
                EncodeQueryResult(request.kind, result.value()));
  }
  return Finish(&span, std::move(result));
}

std::vector<Expected<QueryResult, QueryError>> TaraEngine::ExecuteBatch(
    std::span<const QueryRequest> requests) const {
  // Gate every request BEFORE pinning the snapshot or fanning out: pool
  // workers must never materialize (they would need the lazy mutex).
  if (lazy_ != nullptr && !lazy_->done.load(std::memory_order_acquire)) {
    bool any_gate_failed = false;
    std::vector<std::optional<QueryError>> gates(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      gates[i] = EnsureForRequest(requests[i]);
      any_gate_failed = any_gate_failed || gates[i].has_value();
    }
    if (any_gate_failed) {
      // Corruption path: serve what still materializes, reject the rest.
      // Throughput is irrelevant here — fall back to per-request calls.
      std::vector<Expected<QueryResult, QueryError>> results;
      results.reserve(requests.size());
      for (size_t i = 0; i < requests.size(); ++i) {
        if (gates[i].has_value()) {
          if (metrics_.rejected != nullptr) metrics_.rejected->Increment();
          results.push_back(*std::move(gates[i]));
        } else {
          results.push_back(Execute(requests[i]));
        }
      }
      return results;
    }
  }

  // One snapshot for the whole batch: every request — hit or miss — is
  // answered from the same generation.
  const std::shared_ptr<const KnowledgeBaseSnapshot> snapshot =
      builder_->snapshot();
  if (cache_ == nullptr) {
    auto results = ExecuteQueryBatch(*snapshot, requests, query_pool_.get());
    for (const auto& result : results) {
      if (result.has_value()) {
        if (metrics_.ok != nullptr) metrics_.ok->Increment();
      } else {
        if (metrics_.rejected != nullptr) metrics_.rejected->Increment();
      }
    }
    return results;
  }

  // Dedup by canonical request bytes, then partition into cache hits and
  // misses; only the misses execute (in parallel when a pool exists).
  const uint64_t generation = snapshot->generation();
  std::unordered_map<std::string, size_t> unique_index;
  std::vector<const QueryRequest*> unique_requests;
  std::vector<std::string> unique_keys;
  std::vector<size_t> request_to_unique(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    std::string key = EncodeQueryRequest(requests[i]);
    const auto [it, inserted] =
        unique_index.try_emplace(std::move(key), unique_requests.size());
    if (inserted) {
      unique_requests.push_back(&requests[i]);
      unique_keys.push_back(it->first);
    }
    request_to_unique[i] = it->second;
  }

  std::vector<std::optional<Expected<QueryResult, QueryError>>> unique_results(
      unique_requests.size());
  std::vector<size_t> miss_indexes;
  for (size_t u = 0; u < unique_requests.size(); ++u) {
    const QueryKind kind = unique_requests[u]->kind;
    if (std::optional<std::string> hit =
            cache_->Get(generation, kind, unique_keys[u])) {
      if (std::optional<QueryResult> decoded =
              DecodeQueryResult(kind, *hit)) {
        unique_results[u] = Expected<QueryResult, QueryError>(
            *std::move(decoded));
        continue;
      }
    }
    miss_indexes.push_back(u);
  }

  const auto execute_miss = [&](size_t u) {
    const QueryRequest& request = *unique_requests[u];
    Expected<QueryResult, QueryError> result =
        ExecuteQuery(*snapshot, request);
    if (result.has_value()) {
      cache_->Put(generation, request.kind, unique_keys[u],
                  EncodeQueryResult(request.kind, result.value()));
    }
    unique_results[u] = std::move(result);
  };
  if (query_pool_ != nullptr && miss_indexes.size() > 1) {
    query_pool_->ParallelFor(miss_indexes.size(),
                             [&](size_t, size_t begin, size_t end) {
                               for (size_t m = begin; m < end; ++m) {
                                 execute_miss(miss_indexes[m]);
                               }
                             });
  } else {
    for (const size_t u : miss_indexes) execute_miss(u);
  }

  std::vector<Expected<QueryResult, QueryError>> results;
  results.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto& result = *unique_results[request_to_unique[i]];
    if (result.has_value()) {
      if (metrics_.ok != nullptr) metrics_.ok->Increment();
    } else {
      if (metrics_.rejected != nullptr) metrics_.rejected->Increment();
    }
    results.push_back(result);
  }
  return results;
}

void TaraEngine::SetQueryCacheBytes(size_t bytes) {
  cache_ = bytes == 0 ? nullptr
                      : std::make_unique<QueryCache>(
                            bytes, builder_->options().metrics);
}

}  // namespace tara
