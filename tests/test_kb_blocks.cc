// Block-partitioned (TARAKB3) persistence and the zero-copy open path:
// round-trips through both OpenMode's, balanced partitioning, the
// append-only block contract, lazy materialization observability, a
// mapped-vs-eager differential oracle over the full query surface, and
// corruption fuzz that must always come back as a typed error — at open
// (verify = kHashes), or as QueryError::kCorruptStorage on the first
// lazy decode that hits it — never a crash.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/kb_blocks.h"
#include "core/kb_open.h"
#include "core/kb_storage.h"
#include "core/query_request.h"
#include "core/tara_engine.h"
#include "datagen/quest_generator.h"
#include "obs/metrics.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

namespace fs = std::filesystem;

constexpr double kSupportFloor = 0.01;
constexpr double kConfidenceFloor = 0.1;

EvolvingDatabase MakeData(uint32_t windows) {
  QuestGenerator::Params params;
  params.num_transactions = 500 * windows;
  params.num_items = 80;
  params.num_patterns = 40;
  params.avg_transaction_len = 8;
  params.seed = 42;
  const TransactionDatabase db = QuestGenerator(params).Generate();
  return EvolvingDatabase::PartitionIntoBatches(db, windows);
}

TaraEngine BuildEngine(const EvolvingDatabase& data) {
  TaraEngine::Options options;
  options.min_support_floor = kSupportFloor;
  options.min_confidence_floor = kConfidenceFloor;
  options.max_itemset_size = 4;
  TaraEngine engine(options);
  engine.BuildAll(data);
  return engine;
}

Expected<TaraEngine, LoadError> Open(const std::string& dir, OpenMode mode,
                                     OpenVerify verify = OpenVerify::kNone) {
  OpenOptions options;
  options.kb_dir = dir;
  options.mode = mode;
  options.verify = verify;
  return OpenKnowledgeBase(options);
}

std::string ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFileBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class KbBlocksTest : public ::testing::Test {
 protected:
  KbBlocksTest()
      : dir_(fs::path(::testing::TempDir()) /
             ("kb_blocks_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name())) {
    fs::remove_all(dir_);
  }
  ~KbBlocksTest() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TaraEngine BuildEngine(const EvolvingDatabase& data, bool content_index) {
  TaraEngine::Options options;
  options.min_support_floor = kSupportFloor;
  options.min_confidence_floor = kConfidenceFloor;
  options.max_itemset_size = 5;
  options.build_content_index = content_index;
  TaraEngine engine(options);
  engine.BuildAll(data);
  return engine;
}

// The round trip over three sources: a plain 4-window KB, one with the
// content index (floors, itemset cap and the index flag must survive),
// and a zero-window KB. Every loaded engine keeps evolving: a live
// append on top of it equals the same append on the source.
TEST_F(KbBlocksTest, RoundTripsThroughBothOpenModes) {
  const EvolvingDatabase data = MakeData(4);
  const EvolvingDatabase more = MakeData(5);
  const WindowInfo& extra = more.window(4);
  struct Source {
    const char* name;
    TaraEngine engine;
  };
  Source sources[] = {
      {"plain", BuildEngine(data)},
      {"content_index", BuildEngine(data, /*content_index=*/true)},
      {"empty", BuildEngine(EvolvingDatabase())},
  };
  for (Source& source : sources) {
    SCOPED_TRACE(source.name);
    const TaraEngine& original = source.engine;
    const fs::path dir = dir_ / source.name;
    ASSERT_FALSE(SaveKnowledgeBaseBlocks(*original.Snapshot(), dir.string())
                     .has_value());
    EXPECT_TRUE(fs::exists(dir / "blocks.tarakb3"));
    EXPECT_TRUE(KnowledgeBaseBlocksDirExists(dir.string()));
    const std::string encoded = EncodeKnowledgeBase(*original.Snapshot());

    for (const OpenMode mode : {OpenMode::kEager, OpenMode::kMapped}) {
      auto loaded = Open(dir.string(), mode);
      ASSERT_TRUE(loaded.has_value()) << loaded.error();
      TaraEngine& engine = loaded.value();
      EXPECT_EQ(engine.window_count(), original.window_count());
      const KbOptions& options = engine.options();
      EXPECT_EQ(options.min_support_floor,
                original.options().min_support_floor);
      EXPECT_EQ(options.min_confidence_floor,
                original.options().min_confidence_floor);
      EXPECT_EQ(options.max_itemset_size, original.options().max_itemset_size);
      EXPECT_EQ(options.build_content_index,
                original.options().build_content_index);
      const ParameterSetting setting{0.02, 0.3};
      for (WindowId w = 0; w < original.window_count(); ++w) {
        EXPECT_EQ(engine.MineWindow(w, setting).value(),
                  original.MineWindow(w, setting).value());
      }
      if (options.build_content_index) {
        // Content queries work on the reloaded base.
        const auto rules = engine.MineWindow(0, setting).value();
        ASSERT_FALSE(rules.empty());
        const ItemId item = engine.catalog().rule(rules[0]).antecedent[0];
        EXPECT_EQ(engine.ContentQuery(0, {item}, setting).value(),
                  original.ContentQuery(0, {item}, setting).value());
      }
      // Once every window is materialized the loaded engine encodes to
      // the exact bytes of the source engine.
      EXPECT_EQ(EncodeKnowledgeBase(*engine.Snapshot()), encoded);

      // The loaded engine keeps evolving exactly like the source would.
      TaraEngine grown(original.options());
      for (WindowId w = 0; w < original.window_count(); ++w) {
        const WindowInfo& info = data.window(w);
        grown.AppendWindow(data.database(), info.begin, info.end);
      }
      const WindowId appended =
          engine.AppendWindow(more.database(), extra.begin, extra.end);
      grown.AppendWindow(more.database(), extra.begin, extra.end);
      EXPECT_EQ(appended, original.window_count());
      EXPECT_EQ(EncodeKnowledgeBase(*engine.Snapshot()),
                EncodeKnowledgeBase(*grown.Snapshot()));
    }
  }
}

TEST_F(KbBlocksTest, PartitionsIntoBalancedContiguousBlocks) {
  const TaraEngine engine = BuildEngine(MakeData(6));
  // A tiny byte target forces several blocks; every block must still get
  // at least one window and the spans must tile [0, window_count).
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
                   .has_value());
  const auto manifest = ReadKnowledgeBaseBlocksManifest(dir_.string());
  ASSERT_TRUE(manifest.has_value()) << manifest.error();
  ASSERT_GT(manifest->blocks.size(), 1u);
  EXPECT_EQ(manifest->window_count(), 6u);

  WindowId next_window = 0;
  for (const KbBlockInfo& block : manifest->blocks) {
    EXPECT_EQ(block.first_window, next_window);
    ASSERT_FALSE(block.rows.empty());
    next_window += static_cast<WindowId>(block.rows.size());
    const fs::path file = dir_ / KnowledgeBaseBlockFileName(block.file_index);
    ASSERT_TRUE(fs::exists(file)) << file;
    EXPECT_EQ(fs::file_size(file), block.file_bytes);
    for (const KbBlockRow& row : block.rows) {
      EXPECT_EQ(row.offset % kBlockSegmentAlignment, 0u);
      EXPECT_LE(row.offset + row.segment_bytes, block.file_bytes);
    }
  }
  EXPECT_EQ(next_window, 6u);

  // The default target comfortably holds this KB in one block.
  const fs::path one = dir_.parent_path() / (dir_.filename().string() + "_one");
  fs::remove_all(one);
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*engine.Snapshot(), one.string()).has_value());
  const auto single = ReadKnowledgeBaseBlocksManifest(one.string());
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->blocks.size(), 1u);
  fs::remove_all(one);
}

TEST_F(KbBlocksTest, AppendPacksOnlyNewWindowsIntoFreshBlocks) {
  const EvolvingDatabase data = MakeData(4);
  TaraEngine engine = BuildEngine(EvolvingDatabase());
  for (uint32_t w = 0; w < 3; ++w) {
    const WindowInfo& info = data.window(w);
    engine.AppendWindow(data.database(), info.begin, info.end);
  }
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
                   .has_value());
  const auto before = ReadKnowledgeBaseBlocksManifest(dir_.string());
  ASSERT_TRUE(before.has_value());
  std::vector<std::pair<fs::path, std::string>> old_blocks;
  for (const KbBlockInfo& block : before->blocks) {
    const fs::path file = dir_ / KnowledgeBaseBlockFileName(block.file_index);
    old_blocks.emplace_back(file, ReadFileBytes(file));
  }

  const WindowInfo& info = data.window(3);
  engine.AppendWindow(data.database(), info.begin, info.end);
  ASSERT_FALSE(
      AppendKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
          .has_value());

  // Every pre-existing block file is byte-identical; the new window went
  // into one or more fresh-indexed files.
  for (const auto& [file, bytes] : old_blocks) {
    EXPECT_EQ(ReadFileBytes(file), bytes) << file;
  }
  const auto after = ReadKnowledgeBaseBlocksManifest(dir_.string());
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->window_count(), 4u);
  EXPECT_GT(after->blocks.size(), before->blocks.size());

  const auto loaded = Open(dir_.string(), OpenMode::kMapped);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  EXPECT_EQ(EncodeKnowledgeBase(*loaded->Snapshot()),
            EncodeKnowledgeBase(*BuildEngine(data).Snapshot()));
}

TEST_F(KbBlocksTest, MappedOpenMaterializesNothingUntilQueried) {
  const TaraEngine original = BuildEngine(MakeData(5));
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*original.Snapshot(), dir_.string(),
                                       4096)
                   .has_value());
  const auto loaded = Open(dir_.string(), OpenMode::kMapped);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  const TaraEngine& engine = *loaded;

  // Open itself decoded nothing.
  EXPECT_EQ(engine.window_count(), 5u);
  EXPECT_EQ(engine.MaterializedSnapshot()->window_count(), 0u);
  EXPECT_FALSE(engine.fully_materialized());

  // A query against window 1 pulls in exactly the prefix it needs.
  const ParameterSetting setting{0.02, 0.3};
  ASSERT_TRUE(engine.MineWindow(1, setting).has_value());
  EXPECT_EQ(engine.MaterializedSnapshot()->window_count(), 2u);
  EXPECT_FALSE(engine.fully_materialized());

  // Touching the last window completes materialization.
  ASSERT_TRUE(engine.MineWindow(4, setting).has_value());
  EXPECT_EQ(engine.MaterializedSnapshot()->window_count(), 5u);
  EXPECT_TRUE(engine.fully_materialized());
}

TEST_F(KbBlocksTest, FirstWindowWithRuleFollowsTheWatermarks) {
  const TaraEngine engine = BuildEngine(MakeData(4));
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
                   .has_value());
  auto mapped = MappedKb::Open(dir_.string());
  ASSERT_TRUE(mapped.has_value()) << mapped.error();
  const KbBlocksManifest& manifest = mapped->manifest();

  uint64_t watermark = 0;
  WindowId w = 0;
  for (const KbBlockInfo& block : manifest.blocks) {
    for (const KbBlockRow& row : block.rows) {
      if (row.rule_watermark > watermark) {
        // The first and last rule interned by this window map back to it.
        EXPECT_EQ(mapped->FirstWindowWithRule(
                      static_cast<RuleId>(watermark)),
                  std::optional<WindowId>(w));
        EXPECT_EQ(mapped->FirstWindowWithRule(
                      static_cast<RuleId>(row.rule_watermark - 1)),
                  std::optional<WindowId>(w));
      }
      watermark = row.rule_watermark;
      ++w;
    }
  }
  ASSERT_GT(watermark, 0u);
  EXPECT_FALSE(mapped->FirstWindowWithRule(static_cast<RuleId>(watermark))
                   .has_value());
}

/// A random request of any kind, window ids occasionally out of range and
/// settings occasionally below the floors, so the oracle also proves the
/// two modes reject identically.
QueryRequest RandomRequest(Rng* rng, uint32_t window_count) {
  const auto setting = [&]() -> ParameterSetting {
    if (rng->NextBool(0.08)) return {kSupportFloor / 10, kConfidenceFloor};
    return {kSupportFloor + rng->NextDouble() * 0.02,
            kConfidenceFloor + rng->NextDouble() * 0.4};
  };
  const auto window = [&]() -> WindowId {
    return static_cast<WindowId>(
        rng->NextBounded(window_count + (rng->NextBool(0.08) ? 2 : 0)));
  };
  const auto windows = [&]() -> std::vector<WindowId> {
    std::vector<WindowId> ids;
    const uint64_t n = 1 + rng->NextBounded(window_count);
    for (uint64_t i = 0; i < n; ++i) ids.push_back(window());
    return ids;
  };
  const auto rule = [&]() -> RuleId {
    return static_cast<RuleId>(rng->NextBounded(4000));
  };
  const MatchMode mode =
      rng->NextBool(0.5) ? MatchMode::kSingle : MatchMode::kExact;
  switch (static_cast<QueryKind>(rng->NextBounded(kQueryKindCount))) {
    case QueryKind::kMineWindow:
      return QueryRequest::MineWindow(window(), setting());
    case QueryKind::kMineWindows:
      return QueryRequest::MineWindows(windows(), setting(), mode);
    case QueryKind::kTrajectory:
      return QueryRequest::Trajectory(window(), setting(), windows());
    case QueryKind::kCompare:
      return QueryRequest::Compare(setting(), setting(), windows(), mode);
    case QueryKind::kRegion:
      return QueryRequest::Region(window(), setting());
    case QueryKind::kMeasures:
      return QueryRequest::Measures(rule(), windows());
    case QueryKind::kContent: {
      Itemset items;
      const uint64_t n = 1 + rng->NextBounded(2);
      for (uint64_t i = 0; i < n; ++i) {
        items.push_back(static_cast<ItemId>(rng->NextBounded(80)));
      }
      return QueryRequest::Content(window(), std::move(items), setting());
    }
    case QueryKind::kContentView:
      return QueryRequest::ContentView(window(), setting());
    case QueryKind::kRollUpRule:
      return QueryRequest::RollUpRule(rule(), windows());
    case QueryKind::kRollUpMine:
      return QueryRequest::RollUpMine(windows(), setting());
  }
  return QueryRequest::MineWindow(0, setting());
}

::testing::AssertionResult SameAnswer(
    const QueryRequest& request,
    const Expected<QueryResult, QueryError>& eager,
    const Expected<QueryResult, QueryError>& mapped) {
  if (eager.has_value() != mapped.has_value()) {
    return ::testing::AssertionFailure()
           << QueryKindName(request.kind) << ": eager "
           << (eager.has_value() ? "succeeded" : "failed") << ", mapped "
           << (mapped.has_value() ? "succeeded" : "failed");
  }
  if (!eager.has_value()) {
    if (eager.error().code != mapped.error().code) {
      return ::testing::AssertionFailure()
             << QueryKindName(request.kind) << ": error codes differ";
    }
    return ::testing::AssertionSuccess();
  }
  const std::string eager_bytes = EncodeQueryResult(request.kind, eager.value());
  const std::string mapped_bytes =
      EncodeQueryResult(request.kind, mapped.value());
  if (eager_bytes != mapped_bytes) {
    return ::testing::AssertionFailure()
           << QueryKindName(request.kind) << ": serialized results differ ("
           << eager_bytes.size() << " vs " << mapped_bytes.size() << " bytes)";
  }
  return ::testing::AssertionSuccess();
}

// The mode-equivalence oracle: one KB opened eagerly and zero-copy, fed
// the same randomized Q1-Q5 / roll-up stream — byte-identical serialized
// answers (or identical error codes) throughout, including after live
// windows are appended to both opens.
TEST_F(KbBlocksTest, MappedAnswersAreByteIdenticalToEager) {
  const EvolvingDatabase data = MakeData(6);
  {
    TaraEngine base(BuildEngine(EvolvingDatabase()));
    for (uint32_t w = 0; w < 4; ++w) {
      const WindowInfo& info = data.window(w);
      base.AppendWindow(data.database(), info.begin, info.end);
    }
    ASSERT_FALSE(SaveKnowledgeBaseBlocks(*base.Snapshot(), dir_.string(), 4096)
                     .has_value());
  }
  auto eager = Open(dir_.string(), OpenMode::kEager);
  auto mapped = Open(dir_.string(), OpenMode::kMapped);
  ASSERT_TRUE(eager.has_value()) << eager.error();
  ASSERT_TRUE(mapped.has_value()) << mapped.error();
  TaraEngine& eager_engine = eager.value();
  TaraEngine& mapped_engine = mapped.value();

  Rng rng(20260808);
  uint32_t appended = 4;
  constexpr int kSteps = 300;
  for (int step = 0; step < kSteps; ++step) {
    // Two live appends land mid-stream, on both engines.
    if (step > 0 && step % 120 == 0 && appended < data.window_count()) {
      const WindowInfo& info = data.window(appended);
      eager_engine.AppendWindow(data.database(), info.begin, info.end);
      mapped_engine.AppendWindow(data.database(), info.begin, info.end);
      ++appended;
    }
    const QueryRequest request = RandomRequest(&rng, appended);
    EXPECT_TRUE(SameAnswer(request, eager_engine.Execute(request),
                           mapped_engine.Execute(request)))
        << "step " << step;
  }
  EXPECT_EQ(appended, data.window_count());
  EXPECT_EQ(EncodeKnowledgeBase(*eager_engine.Snapshot()),
            EncodeKnowledgeBase(*mapped_engine.Snapshot()));
}

// TSan target: racing queries must materialize each window exactly once
// and never tear the lazy bookkeeping. Every snapshot a reader pins holds
// a whole materialized prefix: each of its windows is complete and
// byte-identical to the source's, and its catalog, archive and roll-up
// tree end exactly at its last window.
TEST_F(KbBlocksTest, ConcurrentQueriesMaterializeLazilyWithoutRacing) {
  const EvolvingDatabase data = MakeData(6);
  const TaraEngine original = BuildEngine(data);
  const auto source = original.Snapshot();
  std::vector<std::vector<uint8_t>> segments;
  for (WindowId w = 0; w < source->window_count(); ++w) {
    segments.push_back(EncodeWindowSegment(*source, w));
  }
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*source, dir_.string(), 4096)
                   .has_value());
  const auto loaded = Open(dir_.string(), OpenMode::kMapped);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  const TaraEngine& engine = *loaded;
  ASSERT_EQ(engine.MaterializedSnapshot()->window_count(), 0u);

  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::atomic<int> torn{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x5eed0000 + static_cast<uint64_t>(t));
      const ParameterSetting setting{0.02, 0.3};
      for (int i = 0; i < 40; ++i) {
        const WindowId w =
            static_cast<WindowId>(rng.NextBounded(engine.window_count()));
        if (!engine.MineWindow(w, setting).has_value()) failures.fetch_add(1);
        const auto pinned = engine.MaterializedSnapshot();
        const uint32_t n = pinned->window_count();
        bool whole = n > w && pinned->archive().window_count() == n &&
                     pinned->rollup_tree().window_count() == n &&
                     pinned->rule_count() ==
                         pinned->segment(n - 1).rule_watermark;
        for (WindowId k = 0; whole && k < n; ++k) {
          whole = EncodeWindowSegment(*pinned, k) == segments[k];
        }
        if (!whole) torn.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(torn.load(), 0) << "a reader pinned a partial materialization";
  ASSERT_TRUE(engine.fully_materialized());
  EXPECT_EQ(EncodeKnowledgeBase(*engine.Snapshot()),
            EncodeKnowledgeBase(*source));
}

// A generation is one publication, not one window: an eager open
// publishes once, and each lazy gate publishes once however many windows
// it installs — both on generation() and on the tara.kb.swaps counter.
TEST_F(KbBlocksTest, EachMaterializationGatePublishesOneGeneration) {
  const TaraEngine original = BuildEngine(MakeData(6));
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*original.Snapshot(), dir_.string(),
                                       4096)
                   .has_value());
  const auto swaps = [](obs::MetricsRegistry& registry) {
    return registry.GetCounter("tara.kb.swaps")->Value();
  };

  obs::MetricsRegistry eager_metrics;
  OpenOptions eager_options;
  eager_options.kb_dir = dir_.string();
  eager_options.mode = OpenMode::kEager;
  eager_options.metrics = &eager_metrics;
  const auto eager = OpenKnowledgeBase(eager_options);
  ASSERT_TRUE(eager.has_value()) << eager.error();
  EXPECT_EQ(eager->window_count(), 6u);
  EXPECT_EQ(eager->generation(), 1u);
  EXPECT_EQ(swaps(eager_metrics), 1u);

  obs::MetricsRegistry mapped_metrics;
  OpenOptions mapped_options = eager_options;
  mapped_options.mode = OpenMode::kMapped;
  mapped_options.metrics = &mapped_metrics;
  const auto mapped = OpenKnowledgeBase(mapped_options);
  ASSERT_TRUE(mapped.has_value()) << mapped.error();
  EXPECT_EQ(mapped->generation(), 0u);

  // A window-3 query materializes windows 0..3 in one publication.
  const ParameterSetting setting{0.02, 0.3};
  ASSERT_TRUE(mapped->MineWindow(3, setting).has_value());
  EXPECT_EQ(mapped->MaterializedSnapshot()->window_count(), 4u);
  EXPECT_EQ(mapped->generation(), 1u);
  EXPECT_EQ(swaps(mapped_metrics), 1u);

  // Gated queries inside the prefix publish nothing.
  ASSERT_TRUE(mapped->MineWindow(1, setting).has_value());
  EXPECT_EQ(mapped->generation(), 1u);

  // A full query installs the remaining two windows: one more.
  ASSERT_TRUE(
      mapped->MineWindows(mapped->AllWindows(), setting, MatchMode::kExact)
          .has_value());
  EXPECT_TRUE(mapped->fully_materialized());
  EXPECT_EQ(mapped->generation(), 2u);
  EXPECT_EQ(swaps(mapped_metrics), 2u);
}

// Materializing in two lazy gates, in one eager open, and building from
// the transactions all produce the same knowledge-base bytes.
TEST_F(KbBlocksTest, LazyEagerAndBuiltEnginesEncodeIdentically) {
  const EvolvingDatabase data = MakeData(5);
  const TaraEngine built = BuildEngine(data);
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*built.Snapshot(), dir_.string(), 4096)
                   .has_value());
  const auto eager = Open(dir_.string(), OpenMode::kEager);
  const auto lazy = Open(dir_.string(), OpenMode::kMapped);
  ASSERT_TRUE(eager.has_value()) << eager.error();
  ASSERT_TRUE(lazy.has_value()) << lazy.error();
  ASSERT_TRUE(lazy->MineWindow(1, ParameterSetting{0.02, 0.3}).has_value());
  ASSERT_EQ(lazy->MaterializedSnapshot()->window_count(), 2u);
  const std::string bytes = EncodeKnowledgeBase(*built.Snapshot());
  EXPECT_EQ(EncodeKnowledgeBase(*lazy->Snapshot()), bytes);
  EXPECT_EQ(EncodeKnowledgeBase(*eager->Snapshot()), bytes);
  EXPECT_EQ(lazy->generation(), 2u);
}

TEST_F(KbBlocksTest, VerifyHashesCatchesEveryInjectedBlockCorruption) {
  const TaraEngine engine = BuildEngine(MakeData(4));
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
                   .has_value());
  const auto manifest = ReadKnowledgeBaseBlocksManifest(dir_.string());
  ASSERT_TRUE(manifest.has_value());

  // Flip one byte inside every window's segment in turn; both the plain
  // and the pooled verifier must refuse each time, and a mapped open
  // without verification must still succeed (it reads no payload).
  for (const KbBlockInfo& block : manifest->blocks) {
    const fs::path file = dir_ / KnowledgeBaseBlockFileName(block.file_index);
    const std::string valid = ReadFileBytes(file);
    for (const KbBlockRow& row : block.rows) {
      std::string mutated = valid;
      mutated[row.offset + row.segment_bytes / 2] ^= 0x5a;
      WriteFileBytes(file, mutated);

      auto mapped = MappedKb::Open(dir_.string());
      ASSERT_TRUE(mapped.has_value()) << mapped.error();
      EXPECT_TRUE(mapped->VerifyHashes().has_value());
      ThreadPool pool(2);
      EXPECT_TRUE(mapped->VerifyHashes(&pool).has_value());

      // The unified entrypoint surfaces it as a typed open failure.
      const auto checked =
          Open(dir_.string(), OpenMode::kMapped, OpenVerify::kHashes);
      ASSERT_FALSE(checked.has_value());
      EXPECT_EQ(checked.error().code, LoadError::Code::kCorruptSegment);
    }
    WriteFileBytes(file, valid);
  }
  EXPECT_FALSE(MappedKb::Open(dir_.string())->VerifyHashes().has_value());
}

TEST_F(KbBlocksTest, LazyDecodeOfCorruptStorageIsATypedQueryError) {
  const TaraEngine engine = BuildEngine(MakeData(4));
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
                   .has_value());
  const auto manifest = ReadKnowledgeBaseBlocksManifest(dir_.string());
  ASSERT_TRUE(manifest.has_value());

  // Corrupt the LAST window's segment: the mapped open and every query
  // on earlier windows still work, and the first query that needs the
  // damaged window is rejected — sticky, typed, no crash.
  const KbBlockInfo& last_block = manifest->blocks.back();
  const KbBlockRow& last_row = last_block.rows.back();
  const fs::path victim =
      dir_ / KnowledgeBaseBlockFileName(last_block.file_index);
  std::string bytes = ReadFileBytes(victim);
  bytes[last_row.offset + last_row.segment_bytes / 2] ^= 0x5a;
  WriteFileBytes(victim, bytes);

  const auto loaded = Open(dir_.string(), OpenMode::kMapped);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  const ParameterSetting setting{0.02, 0.3};
  EXPECT_TRUE(loaded->MineWindow(0, setting).has_value());

  const auto rejected = loaded->MineWindow(3, setting);
  ASSERT_FALSE(rejected.has_value());
  EXPECT_EQ(rejected.error().code, QueryError::Code::kCorruptStorage);

  // Sticky: the tail stays unavailable, decoded windows keep serving.
  EXPECT_FALSE(loaded->MineWindow(3, setting).has_value());
  EXPECT_TRUE(loaded->MineWindow(0, setting).has_value());
  EXPECT_FALSE(loaded->fully_materialized());

  // The eager open refuses outright with the load-side error.
  const auto eager = Open(dir_.string(), OpenMode::kEager);
  ASSERT_FALSE(eager.has_value());
  EXPECT_EQ(eager.error().code, LoadError::Code::kCorruptSegment);
}

// Corruption fuzz over the blocks manifest: seeded single-byte flips and
// truncations. Every mutation must produce a loaded engine or a typed
// LoadError — never a crash — and the vast majority must be detected.
TEST_F(KbBlocksTest, ManifestByteFlipsNeverCrashEitherOpenMode) {
  const TaraEngine engine = BuildEngine(MakeData(3));
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
                   .has_value());
  const fs::path manifest = dir_ / "blocks.tarakb3";
  const std::string valid = ReadFileBytes(manifest);

  Rng rng(0xB10C5);
  int rejected = 0;
  constexpr int kFlips = 60;
  for (int i = 0; i < kFlips; ++i) {
    std::string mutated = valid;
    const size_t pos = rng.NextBounded(mutated.size());
    mutated[pos] ^= static_cast<char>(1 + rng.NextBounded(255));
    WriteFileBytes(manifest, mutated);
    const auto mapped = Open(dir_.string(), OpenMode::kMapped);
    if (!mapped.has_value()) {
      EXPECT_FALSE(mapped.error().message.empty());
    }
    // The eager opener must survive the same mutation, and may reject
    // strictly more than the mapped open: a flipped stored hash passes
    // the structural checks (all a mapped open runs) but fails the
    // decode-time verification.
    const auto eager = Open(dir_.string(), OpenMode::kEager);
    if (eager.has_value()) {
      EXPECT_TRUE(mapped.has_value());
    } else {
      ++rejected;
      EXPECT_FALSE(eager.error().message.empty());
    }
  }
  EXPECT_GT(rejected, kFlips / 2);

  WriteFileBytes(manifest, valid);
  EXPECT_TRUE(Open(dir_.string(), OpenMode::kMapped).has_value());
}

TEST_F(KbBlocksTest, ManifestTruncationsAreTypedErrors) {
  const TaraEngine engine = BuildEngine(MakeData(3));
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
                   .has_value());
  const fs::path manifest = dir_ / "blocks.tarakb3";
  const std::string valid = ReadFileBytes(manifest);

  Rng rng(0x7au);
  for (int i = 0; i < 25; ++i) {
    WriteFileBytes(manifest,
                   valid.substr(0, rng.NextBounded(valid.size())));
    const auto loaded = Open(dir_.string(), OpenMode::kMapped);
    ASSERT_FALSE(loaded.has_value());
    EXPECT_FALSE(loaded.error().message.empty());
  }
  WriteFileBytes(manifest, "junk that is surely not a manifest");
  EXPECT_EQ(Open(dir_.string(), OpenMode::kMapped).error().code,
            LoadError::Code::kBadMagic);
  WriteFileBytes(manifest, valid + "x");
  EXPECT_EQ(Open(dir_.string(), OpenMode::kMapped).error().code,
            LoadError::Code::kTrailingBytes);

  // A manifest that names a missing or short block file is refused by
  // the open (fstat size check), not by a later fault.
  WriteFileBytes(manifest, valid);
  const auto parsed = ReadKnowledgeBaseBlocksManifest(dir_.string());
  ASSERT_TRUE(parsed.has_value());
  const fs::path block =
      dir_ / KnowledgeBaseBlockFileName(parsed->blocks.front().file_index);
  const std::string block_bytes = ReadFileBytes(block);
  WriteFileBytes(block, block_bytes.substr(0, block_bytes.size() - 1));
  EXPECT_FALSE(Open(dir_.string(), OpenMode::kMapped).has_value());
  fs::remove(block);
  EXPECT_EQ(Open(dir_.string(), OpenMode::kMapped).error().code,
            LoadError::Code::kIoError);
}

TEST_F(KbBlocksTest, RepartitionTrimAndRemoveRoundTrip) {
  const EvolvingDatabase data = MakeData(4);
  const TaraEngine original = BuildEngine(data);
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*original.Snapshot(), dir_.string()).has_value());
  const auto saved = ReadKnowledgeBaseBlocksManifest(dir_.string());
  ASSERT_TRUE(saved.has_value());
  ASSERT_EQ(saved->blocks.size(), 1u);

  // Splitting is a byte-level move: same windows, same encoded bytes,
  // the old block file gone.
  ASSERT_FALSE(RepartitionKnowledgeBase(dir_.string(), 4096).has_value());
  const auto split = ReadKnowledgeBaseBlocksManifest(dir_.string());
  ASSERT_TRUE(split.has_value());
  EXPECT_GT(split->blocks.size(), 1u);
  EXPECT_FALSE(fs::exists(
      dir_ / KnowledgeBaseBlockFileName(saved->blocks[0].file_index)));
  {
    const auto loaded = Open(dir_.string(), OpenMode::kMapped);
    ASSERT_TRUE(loaded.has_value()) << loaded.error();
    EXPECT_EQ(EncodeKnowledgeBase(*loaded->Snapshot()),
              EncodeKnowledgeBase(*original.Snapshot()));
  }

  // Rebalance into one big block: fresh file indices, same bytes.
  ASSERT_FALSE(RepartitionKnowledgeBase(dir_.string()).has_value());
  const auto rebalanced = ReadKnowledgeBaseBlocksManifest(dir_.string());
  ASSERT_TRUE(rebalanced.has_value());
  EXPECT_EQ(rebalanced->blocks.size(), 1u);

  // Trim to a 2-window prefix; it must equal a direct 2-window build's
  // persisted form when loaded.
  ASSERT_FALSE(TrimKnowledgeBase(dir_.string(), 2).has_value());
  {
    const auto loaded = Open(dir_.string(), OpenMode::kEager);
    ASSERT_TRUE(loaded.has_value()) << loaded.error();
    EXPECT_EQ(loaded->window_count(), 2u);
    TaraEngine prefix = BuildEngine(EvolvingDatabase());
    for (uint32_t w = 0; w < 2; ++w) {
      const WindowInfo& info = data.window(w);
      prefix.AppendWindow(data.database(), info.begin, info.end);
    }
    EXPECT_EQ(EncodeKnowledgeBase(*loaded->Snapshot()),
              EncodeKnowledgeBase(*prefix.Snapshot()));
  }
  // Over-trim is a typed refusal.
  EXPECT_TRUE(TrimKnowledgeBase(dir_.string(), 7).has_value());

  // rm deletes exactly the manifest-named files; strangers survive.
  WriteFileBytes(dir_ / "bystander.txt", "not part of the kb");
  ASSERT_FALSE(RemoveKnowledgeBase(dir_.string()).has_value());
  EXPECT_FALSE(KnowledgeBaseBlocksDirExists(dir_.string()));
  std::vector<std::string> leftovers;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    leftovers.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(leftovers, std::vector<std::string>{"bystander.txt"});
}

TEST_F(KbBlocksTest, WalRecoveryOverBlocksReproducesAckedState) {
  const EvolvingDatabase data = MakeData(4);
  const fs::path wal_dir = dir_ / "wal";

  // Checkpoint the first two windows as blocks, then append two more
  // through an attached WAL without re-checkpointing.
  std::string reference;
  {
    TaraEngine engine = BuildEngine(EvolvingDatabase());
    for (uint32_t w = 0; w < 2; ++w) {
      const WindowInfo& info = data.window(w);
      engine.AppendWindow(data.database(), info.begin, info.end);
    }
    ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(),
                                         4096)
                     .has_value());
    const auto attach = engine.AttachWal(wal_dir.string());
    ASSERT_TRUE(attach.has_value()) << attach.error();
    for (uint32_t w = 2; w < 4; ++w) {
      const WindowInfo& info = data.window(w);
      engine.AppendWindow(data.database(), info.begin, info.end);
    }
    reference = EncodeKnowledgeBase(*engine.Snapshot());
  }

  // Recover-on-open: mapped checkpoint + WAL tail. Replay forces full
  // materialization, so the recovered engine is immediately appendable.
  OpenOptions options;
  options.kb_dir = dir_.string();
  options.mode = OpenMode::kMapped;
  options.wal_dir = wal_dir.string();
  WalReplayStats stats;
  options.replay_stats = &stats;
  const auto recovered = OpenKnowledgeBase(options);
  ASSERT_TRUE(recovered.has_value()) << recovered.error();
  EXPECT_TRUE(recovered->wal_attached());
  EXPECT_TRUE(recovered->fully_materialized());
  EXPECT_EQ(recovered->window_count(), 4u);
  EXPECT_EQ(stats.records_replayed, 2u);
  EXPECT_EQ(EncodeKnowledgeBase(*recovered->Snapshot()), reference);
}

}  // namespace
}  // namespace tara
