#include "core/kb_builder.h"

#include <algorithm>
#include <deque>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/kb_storage.h"
#include "mining/fp_growth.h"

namespace tara {
namespace {

/// Resolves Options::parallelism (0 = hardware concurrency) to a concrete
/// worker count.
uint32_t EffectiveParallelism(uint32_t requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

KbBuilder::KbBuilder(const Options& options)
    : options_(options), catalog_(std::make_shared<RuleCatalog>()) {
  const std::optional<std::string> error = options_.Validate();
  TARA_CHECK(!error.has_value()) << *error;
  const uint32_t parallelism = EffectiveParallelism(options_.parallelism);
  if (parallelism > 1) pool_ = std::make_unique<ThreadPool>(parallelism);
  RegisterMetrics();
  {
    // Publish the empty generation-0 snapshot so snapshot() is never null.
    std::lock_guard<std::mutex> lock(commit_mutex_);
    PublishSnapshotLocked();
  }
  if (!options_.wal_dir.empty()) {
    const auto attached = AttachWal(options_.wal_dir);
    TARA_CHECK(attached.has_value())
        << "cannot attach the write-ahead log in '" << options_.wal_dir
        << "': " << attached.error().message;
  }
}

Expected<WalReplayStats, LoadError> KbBuilder::AttachWal(
    const std::string& dir) {
  TARA_CHECK(wal_ == nullptr) << "a write-ahead log is already attached";
  WalReplayStats stats;
  uint64_t valid_bytes = 0;
  if (WalExists(dir)) {
    auto contents = ReadWal(dir);
    if (!contents.has_value()) return contents.error();
    // The log must describe this builder's engine; replaying records
    // mined at other floors would poison the knowledge base.
    if (contents->options.min_support_floor != options_.min_support_floor ||
        contents->options.min_confidence_floor !=
            options_.min_confidence_floor ||
        contents->options.max_itemset_size != options_.max_itemset_size ||
        contents->options.build_content_index !=
            options_.build_content_index) {
      return LoadError{
          LoadError::Code::kBadManifest,
          "write-ahead log in '" + dir +
              "' was written by an engine with different construction "
              "options (floors/itemset cap/content index) — refusing to "
              "attach"};
    }
    valid_bytes = contents->valid_bytes;
    stats.truncated_bytes = contents->truncated_bytes;
    stats.records_scanned = contents->records.size();
    // Parse the whole tail first, then install it as one batch: a replay
    // publishes one generation however many records it applies.
    std::vector<StoredWindow> windows;
    std::optional<LoadError> parse_error;
    for (const WalRecord& record : contents->records) {
      // Order the record by its window id BEFORE parsing it: stale records
      // are skipped unparsed, and a gap is reported as the foreign log it
      // is, not as a corrupt segment.
      const auto window = PeekWindowSegmentWindow(record.segment_bytes.data(),
                                                 record.segment_bytes.size());
      if (!window.has_value()) {
        parse_error = window.error();
        break;
      }
      const WindowId next =
          static_cast<WindowId>(segments_.size() + windows.size());
      if (*window < next) {
        // A record the last checkpoint already covers (the crash landed
        // between the checkpoint and the log truncation).
        ++stats.records_skipped;
        continue;
      }
      if (*window > next) {
        parse_error = LoadError{
            LoadError::Code::kBadManifest,
            "write-ahead log in '" + dir + "' jumps to window " +
                std::to_string(*window) + " but the engine has " +
                std::to_string(next) +
                " windows — the log does not belong to this knowledge base"};
        break;
      }
      auto parsed = ParseWindowSegment(record.segment_bytes.data(),
                                       record.segment_bytes.size());
      if (!parsed.has_value()) {
        parse_error = parsed.error();
        break;
      }
      windows.push_back(
          StoredWindow{record.total_transactions, *std::move(parsed)});
    }
    // Records before the first bad one still install, as they did when
    // replay appended one record at a time.
    stats.records_replayed = windows.size();
    if (auto error = InstallWindows(std::move(windows))) return *error;
    if (parse_error.has_value()) return *parse_error;
  }
  auto writer = WalWriter::Open(dir, options_, valid_bytes, options_.metrics);
  if (!writer.has_value()) return writer.error();
  {
    std::lock_guard<std::mutex> lock(commit_mutex_);
    wal_ = std::make_unique<WalWriter>(std::move(writer.value()));
  }
  if (options_.metrics != nullptr && stats.records_replayed > 0) {
    options_.metrics->GetCounter("tara.wal.replays")
        ->Increment(stats.records_replayed);
  }
  return stats;
}

std::optional<LoadError> KbBuilder::TruncateWal() {
  std::lock_guard<std::mutex> lock(commit_mutex_);
  if (wal_ == nullptr) return std::nullopt;
  return wal_->Truncate();
}

void KbBuilder::LogWindowsLocked(WindowId first) {
  if (wal_ == nullptr) return;
  const std::shared_ptr<const KnowledgeBaseSnapshot> snapshot =
      current_.load(std::memory_order_relaxed);
  for (WindowId w = first; w < static_cast<WindowId>(segments_.size()); ++w) {
    const auto error = wal_->Append(segments_[w]->total_transactions,
                                    EncodeWindowSegment(*snapshot, w));
    // The window is already committed and visible; returning without
    // durability would let the caller ack a window a crash can lose.
    TARA_CHECK(!error.has_value())
        << "write-ahead log append failed for window " << w << ": "
        << error->message;
  }
}

void KbBuilder::MarkDurableLocked() {
  {
    std::lock_guard<std::mutex> lock(durable_mutex_);
    durable_windows_.store(static_cast<uint32_t>(segments_.size()),
                           std::memory_order_release);
  }
  durable_cv_.notify_all();
}

uint32_t KbBuilder::WaitDurableWindowsAbove(
    uint32_t floor, std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(durable_mutex_);
  durable_cv_.wait_for(lock, timeout, [&] {
    return durable_windows_.load(std::memory_order_acquire) > floor;
  });
  return durable_windows_.load(std::memory_order_acquire);
}

void KbBuilder::RegisterMetrics() {
  obs::MetricsRegistry* registry = options_.metrics;
  if (registry == nullptr) return;
  metrics_.build_itemset_seconds =
      registry->GetGauge("tara.build.itemset_seconds");
  metrics_.build_rule_seconds = registry->GetGauge("tara.build.rule_seconds");
  metrics_.build_archive_seconds =
      registry->GetGauge("tara.build.archive_seconds");
  metrics_.build_index_seconds =
      registry->GetGauge("tara.build.index_seconds");
  metrics_.build_windows = registry->GetGauge("tara.build.windows");
  metrics_.build_rules = registry->GetGauge("tara.build.rules");
  metrics_.build_regions = registry->GetGauge("tara.build.regions");
  metrics_.archive_payload_bytes =
      registry->GetGauge("tara.archive.payload_bytes");
  metrics_.archive_entries = registry->GetGauge("tara.archive.entries");
  metrics_.index_bytes = registry->GetGauge("tara.index.bytes");
  metrics_.kb_generation = registry->GetGauge("tara.kb.generation");
  metrics_.kb_swaps = registry->GetCounter("tara.kb.swaps");
}

void KbBuilder::UpdateBuildMetrics() {
  if (options_.metrics == nullptr) return;
  double itemset = 0, rule = 0, archive = 0, index = 0;
  double regions = 0;
  for (const WindowBuildStats& s : stats_) {
    itemset += s.itemset_seconds;
    rule += s.rule_seconds;
    archive += s.archive_seconds;
    index += s.index_seconds;
    regions += static_cast<double>(s.region_count);
  }
  metrics_.build_itemset_seconds->Set(itemset);
  metrics_.build_rule_seconds->Set(rule);
  metrics_.build_archive_seconds->Set(archive);
  metrics_.build_index_seconds->Set(index);
  metrics_.build_windows->Set(static_cast<double>(segments_.size()));
  metrics_.build_rules->Set(static_cast<double>(catalog_->size()));
  metrics_.build_regions->Set(regions);
  metrics_.archive_payload_bytes->Set(
      static_cast<double>(archive_.payload_bytes()));
  metrics_.archive_entries->Set(static_cast<double>(archive_.entry_count()));
  metrics_.index_bytes->Set(static_cast<double>(IndexBytes()));
}

const WindowSegment& KbBuilder::segment(WindowId w) const {
  TARA_CHECK_LT(w, segments_.size()) << "bad window id";
  return *segments_[w];
}

size_t KbBuilder::IndexBytes() const {
  size_t bytes = 0;
  for (const auto& segment : segments_) {
    bytes += segment->index.ApproximateBytes();
  }
  return bytes;
}

KbBuilder::MinedWindow KbBuilder::MineWindowSlice(
    const TransactionDatabase& db, size_t begin, size_t end,
    ThreadPool* intra_pool) const {
  MinedWindow mined;
  mined.total_transactions = end - begin;

  // (1) Frequent itemset generation at the floor support.
  Stopwatch timer;
  FpGrowthMiner miner;
  FrequentItemsetMiner::Options mine_options;
  mine_options.min_count =
      MinCountForSupport(options_.min_support_floor, mined.total_transactions);
  mine_options.max_size = options_.max_itemset_size;
  mined.floor_count = mine_options.min_count;
  const std::vector<FrequentItemset> frequent =
      miner.Mine(db, begin, end, mine_options);
  mined.itemset_seconds = timer.ElapsedSeconds();
  mined.itemset_count = frequent.size();

  // (2) Rule derivation at the floor confidence.
  timer.Restart();
  mined.rules =
      GenerateRules(frequent, options_.min_confidence_floor, intra_pool);
  mined.rule_seconds = timer.ElapsedSeconds();
  return mined;
}

std::vector<WindowIndex::Entry> KbBuilder::InternAndArchive(
    WindowId window, const std::vector<MinedRule>& rules) {
  std::vector<WindowIndex::Entry> entries;
  entries.reserve(rules.size());
  for (const MinedRule& r : rules) {
    const RuleId id = catalog_->Intern(Rule{r.antecedent, r.consequent});
    archive_.Add(id, window, r.rule_count, r.antecedent_count);
    tree_builder_.AddEntry(id, r.rule_count, r.antecedent_count);
    entries.push_back(
        WindowIndex::Entry{id, r.rule_count, r.antecedent_count});
  }
  return entries;
}

void KbBuilder::BeginWindowLocked(WindowId window, uint64_t total_transactions,
                                  uint64_t floor_count) {
  archive_.RegisterWindow(window, total_transactions, floor_count,
                          options_.min_confidence_floor);
  tree_builder_.BeginWindow(
      window, total_transactions,
      UnarchivedCountSlack(floor_count, options_.min_confidence_floor,
                           total_transactions));
}

void KbBuilder::BuildIndex(WindowSegment* segment, ThreadPool* pool) const {
  Stopwatch timer;
  segment->index.Build(segment->entries, segment->total_transactions,
                       options_.build_content_index, *catalog_, pool);
  segment->stats.index_seconds = timer.ElapsedSeconds();
  segment->stats.location_count = segment->index.location_count();
  segment->stats.region_count = segment->index.region_count();
}

std::shared_ptr<WindowSegment> KbBuilder::CommitMinedLocked(
    WindowId window, const MinedWindow& mined) {
  auto segment = std::make_shared<WindowSegment>();
  segment->total_transactions = mined.total_transactions;
  segment->floor_count = mined.floor_count;
  WindowBuildStats& stats = segment->stats;
  stats.window = window;
  stats.itemset_seconds = mined.itemset_seconds;
  stats.rule_seconds = mined.rule_seconds;
  stats.itemset_count = mined.itemset_count;
  stats.rule_count = mined.rules.size();

  // (3) Archive append + catalog interning (the serialized commit stage).
  Stopwatch timer;
  BeginWindowLocked(window, mined.total_transactions, mined.floor_count);
  segment->entries = InternAndArchive(window, mined.rules);
  segment->rule_watermark = static_cast<RuleId>(catalog_->size());
  stats.archive_seconds = timer.ElapsedSeconds();
  return segment;
}

WindowId KbBuilder::CommitAndPublish(MinedWindow mined) {
  std::lock_guard<std::mutex> lock(commit_mutex_);
  const WindowId window = static_cast<WindowId>(segments_.size());
  std::shared_ptr<WindowSegment> segment = CommitMinedLocked(window, mined);
  // (4) EPS slice (stable region index) build.
  BuildIndex(segment.get(), pool_.get());
  PublishLocked({std::move(segment)});
  return window;
}

void KbBuilder::PublishLocked(
    std::vector<std::shared_ptr<WindowSegment>> pending) {
  const WindowId first = static_cast<WindowId>(segments_.size());
  for (auto& segment : pending) {
    stats_.push_back(segment->stats);
    segments_.push_back(std::move(segment));
  }
  PublishSnapshotLocked();
  LogWindowsLocked(first);
  MarkDurableLocked();
}

namespace {

/// Checks everything InstallWindows assumes of a stored window that is
/// to become window `window` over a catalog of `catalog_size` rules,
/// touching no state: each entry's counts are archivable, no rule
/// appears twice, and the window's new rules are exactly the ids
/// [first_rule, first_rule + new_rules.size()), first referenced in id
/// order — the order in which interning the entries one by one would
/// have numbered them.
std::optional<LoadError> CheckStoredWindow(const ParsedWindowSegment& p,
                                           WindowId window,
                                           size_t catalog_size) {
  const auto corrupt = [window](const std::string& what) {
    return LoadError{LoadError::Code::kCorruptSegment,
                     "segment of window " + std::to_string(window) +
                         " is corrupt: " + what};
  };
  if (p.window != window) {
    return corrupt("it names window " + std::to_string(p.window));
  }
  if (p.first_rule != catalog_size) {
    return corrupt("its rule ids start at " + std::to_string(p.first_rule) +
                   " but the catalog holds " + std::to_string(catalog_size) +
                   " rules");
  }
  const uint64_t end = p.first_rule + p.new_rules.size();
  std::vector<bool> seen(end, false);
  uint64_t next_new = p.first_rule;
  for (const ParsedWindowSegment::RawEntry& e : p.entries) {
    if (e.rule >= end) return corrupt("an entry names an unknown rule");
    if (e.rule_count == 0) return corrupt("an entry has a zero rule count");
    if (e.antecedent_delta > UINT64_MAX - e.rule_count) {
      return corrupt("an entry's antecedent count overflows");
    }
    if (seen[e.rule]) {
      return corrupt("rule " + std::to_string(e.rule) + " appears twice");
    }
    seen[e.rule] = true;
    if (e.rule >= p.first_rule && e.rule != next_new++) {
      return corrupt("new rule " + std::to_string(e.rule) +
                     " is referenced out of id order");
    }
  }
  if (next_new != end) return corrupt("a new rule has no entry");
  return std::nullopt;
}

}  // namespace

std::optional<LoadError> KbBuilder::InstallWindows(
    std::vector<StoredWindow> windows) {
  std::lock_guard<std::mutex> lock(commit_mutex_);
  // EPS slices fan over the pool (as BuildAll's stage 3) while later
  // windows commit; a single window keeps the pool for its own build.
  ThreadPool* fan_out = windows.size() > 1 ? pool_.get() : nullptr;
  std::vector<std::shared_ptr<WindowSegment>> pending;
  pending.reserve(windows.size());
  std::vector<std::future<void>> eps_builds;
  std::optional<LoadError> error;
  for (StoredWindow& stored : windows) {
    const WindowId window =
        static_cast<WindowId>(segments_.size() + pending.size());
    error = CheckStoredWindow(stored.segment, window, catalog_->size());
    if (error.has_value()) break;
    Stopwatch timer;
    // All or nothing, so a rejected window leaves the catalog as it was;
    // nothing else has been touched yet.
    if (!catalog_->InternNew(std::move(stored.segment.new_rules))) {
      error = LoadError{LoadError::Code::kCorruptSegment,
                        "segment of window " + std::to_string(window) +
                            " is corrupt: its new rules are already "
                            "interned or repeat within the segment"};
      break;
    }
    auto segment = std::make_shared<WindowSegment>();
    segment->total_transactions = stored.total_transactions;
    segment->floor_count = MinCountForSupport(options_.min_support_floor,
                                              stored.total_transactions);
    BeginWindowLocked(window, segment->total_transactions,
                      segment->floor_count);
    segment->entries.reserve(stored.segment.entries.size());
    for (const ParsedWindowSegment::RawEntry& e : stored.segment.entries) {
      const RuleId id = static_cast<RuleId>(e.rule);
      const uint64_t antecedent_count = e.rule_count + e.antecedent_delta;
      archive_.Add(id, window, e.rule_count, antecedent_count);
      tree_builder_.AddEntry(id, e.rule_count, antecedent_count);
      segment->entries.push_back(
          WindowIndex::Entry{id, e.rule_count, antecedent_count});
    }
    segment->rule_watermark = static_cast<RuleId>(catalog_->size());
    segment->stats.window = window;
    segment->stats.rule_count = segment->entries.size();
    segment->stats.archive_seconds = timer.ElapsedSeconds();
    if (fan_out != nullptr) {
      WindowSegment* slot = segment.get();
      eps_builds.push_back(
          fan_out->Submit([this, slot] { BuildIndex(slot, nullptr); }));
    }
    pending.push_back(std::move(segment));
  }
  for (std::future<void>& f : eps_builds) f.get();
  if (fan_out == nullptr) {
    for (const auto& segment : pending) BuildIndex(segment.get(), pool_.get());
  }
  if (!pending.empty()) PublishLocked(std::move(pending));
  return error;
}

void KbBuilder::PublishSnapshotLocked() {
  auto snapshot =
      std::shared_ptr<KnowledgeBaseSnapshot>(new KnowledgeBaseSnapshot());
  snapshot->catalog_ = catalog_;
  snapshot->rule_count_ = catalog_->size();
  // Readers must never observe the builder's in-place archive appends, so
  // each generation carries its own immutable copy of the (compressed)
  // delta streams.
  snapshot->archive_ = std::make_shared<const TarArchive>(archive_);
  snapshot->rollup_tree_ = tree_builder_.Snapshot();
  snapshot->segments_ = segments_;
  snapshot->options_ = options_;
  const bool initial = current_.load(std::memory_order_relaxed) == nullptr;
  snapshot->generation_ = initial ? 0 : ++generation_;
  current_.store(std::move(snapshot), std::memory_order_release);
  UpdateBuildMetrics();
  if (options_.metrics != nullptr) {
    metrics_.kb_generation->Set(static_cast<double>(generation_));
    if (!initial) metrics_.kb_swaps->Increment();
  }
}

WindowId KbBuilder::AppendWindow(const TransactionDatabase& db, size_t begin,
                                 size_t end) {
  return CommitAndPublish(MineWindowSlice(db, begin, end, pool_.get()));
}

WindowId KbBuilder::AppendPrecomputedWindow(
    uint64_t total_transactions, const std::vector<PrecomputedRule>& rules) {
  MinedWindow mined;
  mined.total_transactions = total_transactions;
  mined.floor_count =
      MinCountForSupport(options_.min_support_floor, total_transactions);
  mined.rules.reserve(rules.size());
  for (const PrecomputedRule& r : rules) {
    MinedRule rule;
    rule.antecedent = r.rule.antecedent;
    rule.consequent = r.rule.consequent;
    rule.rule_count = r.rule_count;
    rule.antecedent_count = r.antecedent_count;
    mined.rules.push_back(std::move(rule));
  }
  return CommitAndPublish(std::move(mined));
}

void KbBuilder::BuildAll(const EvolvingDatabase& data) {
  const uint32_t n = data.window_count();
  ThreadPool* pool = pool_.get();
  if (pool == nullptr || n <= 1) {
    for (WindowId w = 0; w < n; ++w) {
      const WindowInfo& info = data.window(w);
      AppendWindow(data.database(), info.begin, info.end);
    }
    return;
  }

  // Parallel pipeline. Windows are independent by construction (the iPARAS
  // increment never revisits prior windows), so:
  //   stage 1 (fan-out):  mine itemsets + derive rules per window;
  //   stage 2 (serial):   intern rules + append archive counts, strictly
  //                       in window order — RuleIds and the archive byte
  //                       stream come out identical to a sequential build;
  //   stage 3 (fan-out):  build each committed window's EPS slice.
  // The pending segments stay private to this call until every index
  // build has joined; a single publication then makes all of them visible
  // to readers atomically. In-flight queries keep answering from the
  // generation they pinned throughout.
  std::lock_guard<std::mutex> lock(commit_mutex_);
  const TransactionDatabase& db = data.database();
  const WindowId base = static_cast<WindowId>(segments_.size());
  std::vector<std::shared_ptr<WindowSegment>> pending;
  pending.reserve(n);

  // Keep only a few windows of mined-but-uncommitted rules in memory.
  const uint32_t max_ahead = pool->size() + 2;
  std::deque<std::future<MinedWindow>> in_flight;
  WindowId next_to_mine = 0;
  const auto submit_next_mine = [&] {
    if (next_to_mine >= n) return;
    const WindowInfo info = data.window(next_to_mine);
    in_flight.push_back(pool->Submit([this, &db, info] {
      // Intra-window loops stay sequential here: the window fan-out
      // already keeps every worker busy.
      return MineWindowSlice(db, info.begin, info.end, nullptr);
    }));
    ++next_to_mine;
  };
  while (next_to_mine < n && next_to_mine < max_ahead) submit_next_mine();

  std::vector<std::future<void>> eps_builds;
  eps_builds.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    MinedWindow mined = in_flight.front().get();
    in_flight.pop_front();
    submit_next_mine();

    std::shared_ptr<WindowSegment> segment =
        CommitMinedLocked(base + i, mined);
    // Stage 3 reads the catalog (content index only) while later windows
    // intern — safe: RuleCatalog readers lock shared against the writer.
    // Each task writes only its own (still private) segment.
    WindowSegment* slot = segment.get();
    eps_builds.push_back(
        pool->Submit([this, slot] { BuildIndex(slot, nullptr); }));
    pending.push_back(std::move(segment));
  }
  for (std::future<void>& f : eps_builds) f.get();
  PublishLocked(std::move(pending));
}

}  // namespace tara
