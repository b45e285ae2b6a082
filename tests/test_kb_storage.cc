// Durable knowledge-base storage: the TARAKB3 append contract under a
// crash at every durability step, clean saves, typed refusal of missing,
// torn, mismatched or leftover TARAKB2 directories, and the segment
// codec the WAL and the block files share, fuzzed as untrusted input.

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crash_point.h"
#include "common/rng.h"
#include "core/kb_blocks.h"
#include "core/kb_open.h"
#include "core/kb_storage.h"
#include "core/tara_engine.h"
#include "core/wal.h"
#include "datagen/quest_generator.h"
#include "hostile_segments.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

namespace fs = std::filesystem;

EvolvingDatabase MakeData(uint32_t windows) {
  QuestGenerator::Params params;
  params.num_transactions = 500 * windows;
  params.num_items = 80;
  params.num_patterns = 40;
  params.avg_transaction_len = 8;
  params.seed = 77;
  const TransactionDatabase db = QuestGenerator(params).Generate();
  return EvolvingDatabase::PartitionIntoBatches(db, windows);
}

TaraEngine::Options EngineOptions() {
  TaraEngine::Options options;
  options.min_support_floor = 0.01;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 4;
  return options;
}

/// An engine holding the first `windows` windows of `data`, appended live.
TaraEngine BuildEngine(const EvolvingDatabase& data, uint32_t windows) {
  TaraEngine engine(EngineOptions());
  for (uint32_t w = 0; w < windows; ++w) {
    const WindowInfo& info = data.window(w);
    engine.AppendWindow(data.database(), info.begin, info.end);
  }
  return engine;
}

std::string Encode(const TaraEngine& engine) {
  return EncodeKnowledgeBase(*engine.Snapshot());
}

Expected<TaraEngine, LoadError> Load(const std::string& dir) {
  OpenOptions options;
  options.kb_dir = dir;
  return OpenKnowledgeBase(options);
}

void WriteFile(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class KbStorageTest : public ::testing::Test {
 protected:
  // The pid keeps concurrent suite runs (e.g. plain + sanitized build
  // trees on one machine) from clobbering each other's fixtures.
  KbStorageTest()
      : dir_(fs::path(::testing::TempDir()) /
             ("kb_storage_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name())) {
    fs::remove_all(dir_);
  }
  ~KbStorageTest() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(KbStorageTest, AppendIntoEmptyDirectoryDoesAFullSave) {
  const EvolvingDatabase data = MakeData(2);
  const TaraEngine engine = BuildEngine(data, 2);
  ASSERT_FALSE(
      AppendKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string()).has_value());
  const auto loaded = Load(dir_.string());
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  EXPECT_EQ(Encode(*loaded), Encode(engine));
}

TEST_F(KbStorageTest, AppendRefusesAMismatchedDirectory) {
  const EvolvingDatabase data = MakeData(3);
  const TaraEngine first = BuildEngine(data, 3);
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*first.Snapshot(), dir_.string()).has_value());

  // A different engine (different floors) must not append over it...
  TaraEngine::Options options;
  options.min_support_floor = 0.02;
  options.min_confidence_floor = 0.2;
  const TaraEngine other(options);
  auto error = AppendKnowledgeBaseBlocks(*other.Snapshot(), dir_.string());
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, LoadError::Code::kBadManifest);

  // ...nor one with the same floors but a shorter history.
  const TaraEngine shorter = BuildEngine(data, 2);
  error = AppendKnowledgeBaseBlocks(*shorter.Snapshot(), dir_.string());
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, LoadError::Code::kBadManifest);
}

TEST_F(KbStorageTest, ZeroLengthManifestIsATypedTornWriteError) {
  // The signature damage of an in-place truncating rewrite: a crash
  // after open(trunc) but before the write leaves a 0-byte manifest.
  // The loader must name the torn write, not crash or claim "wrong file
  // format".
  const TaraEngine engine = BuildEngine(MakeData(2), 2);
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string()).has_value());
  WriteFile(dir_ / KnowledgeBaseBlocksManifestFileName(), "");
  const auto loaded = Load(dir_.string());
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, LoadError::Code::kTruncated);
  EXPECT_NE(loaded.error().message.find("zero-length"), std::string::npos)
      << loaded.error().message;
  // Appending over it refuses for the same typed reason.
  const auto append =
      AppendKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string());
  ASSERT_TRUE(append.has_value());
  EXPECT_EQ(append->code, LoadError::Code::kTruncated);
}

TEST_F(KbStorageTest, CleanSavesLeaveNoTempFiles) {
  const EvolvingDatabase data = MakeData(3);
  TaraEngine engine = BuildEngine(data, 2);
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string()).has_value());
  const WindowInfo& info = data.window(2);
  engine.AppendWindow(data.database(), info.begin, info.end);
  ASSERT_FALSE(
      AppendKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string()).has_value());
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

// Crash-point matrix: kill the process (SIGKILL, no destructors — the
// user-space stand-in for a power cut) between every pair of durability
// steps inside AppendKnowledgeBaseBlocks, then require the directory to
// load as either the old 3-window prefix or the full 4-window KB,
// byte-identical to an uncrashed reference either way, and a re-run of
// the append over whatever the crash left to complete the KB. Exercises
// every write/fsync/rename/dirsync boundary until one run completes
// cleanly.
TEST_F(KbStorageTest, AppendSurvivesACrashAtEveryDurabilityStep) {
  const EvolvingDatabase data = MakeData(4);
  TaraEngine engine = BuildEngine(data, 3);
  const fs::path seed_dir = dir_ / "seed";
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), seed_dir.string())
                   .has_value());
  const std::string reference3 = Encode(engine);
  const WindowInfo& info = data.window(3);
  engine.AppendWindow(data.database(), info.begin, info.end);
  const std::string reference4 = Encode(engine);

  bool completed_cleanly = false;
  for (long crash_at = 0; crash_at < 64 && !completed_cleanly; ++crash_at) {
    const fs::path trial = dir_ / ("trial_" + std::to_string(crash_at));
    fs::remove_all(trial);
    fs::copy(seed_dir, trial);
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // Forked child: arm the injector, run the append, report a clean
      // pass via the exit code. _exit skips gtest/atexit teardown.
      ArmCrashPoint(crash_at);
      const auto error =
          AppendKnowledgeBaseBlocks(*engine.Snapshot(), trial.string());
      _exit(error.has_value() ? 2 : 0);
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    if (WIFEXITED(status)) {
      ASSERT_EQ(WEXITSTATUS(status), 0) << "append failed in the child";
      completed_cleanly = true;  // injector ran out of crossings
    } else {
      ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
          << "unexpected child termination, status " << status;
    }
    // Killed or not, the directory must load — to the old prefix or the
    // fully-appended KB, never anything else and never an error.
    for (const OpenMode mode : {OpenMode::kEager, OpenMode::kMapped}) {
      OpenOptions options;
      options.kb_dir = trial.string();
      options.mode = mode;
      options.verify = OpenVerify::kHashes;
      const auto loaded = OpenKnowledgeBase(options);
      ASSERT_TRUE(loaded.has_value())
          << "crash point " << crash_at << ": " << loaded.error();
      const std::string recovered = Encode(*loaded);
      if (loaded->window_count() == 3u) {
        EXPECT_EQ(recovered, reference3) << "crash point " << crash_at;
        EXPECT_FALSE(completed_cleanly)
            << "a clean append must surface the new window";
      } else {
        ASSERT_EQ(loaded->window_count(), 4u) << "crash point " << crash_at;
        EXPECT_EQ(recovered, reference4) << "crash point " << crash_at;
      }
    }
    // The checkpoint retried over the debris (an unreferenced block file,
    // a stray .tmp) completes the knowledge base.
    ASSERT_FALSE(AppendKnowledgeBaseBlocks(*engine.Snapshot(), trial.string())
                     .has_value())
        << "crash point " << crash_at;
    const auto retried = Load(trial.string());
    ASSERT_TRUE(retried.has_value()) << retried.error();
    EXPECT_EQ(Encode(*retried), reference4) << "crash point " << crash_at;
  }
  EXPECT_TRUE(completed_cleanly)
      << "crash-point matrix never exhausted the injection sites";
}

TEST_F(KbStorageTest, RejectsMissingPieces) {
  // No directory / no manifest at all.
  auto loaded = Load((dir_ / "nowhere").string());
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, LoadError::Code::kIoError);

  // A block file the manifest names is gone: a typed error for every
  // open mode, and for the db tooling that reads the blocks.
  const TaraEngine engine = BuildEngine(MakeData(3), 3);
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
                   .has_value());
  const auto manifest = ReadKnowledgeBaseBlocksManifest(dir_.string());
  ASSERT_TRUE(manifest.has_value()) << manifest.error();
  ASSERT_GT(manifest->blocks.size(), 1u);
  fs::remove(dir_ /
             KnowledgeBaseBlockFileName(manifest->blocks.back().file_index));
  for (const OpenMode mode : {OpenMode::kEager, OpenMode::kMapped}) {
    OpenOptions options;
    options.kb_dir = dir_.string();
    options.mode = mode;
    loaded = OpenKnowledgeBase(options);
    ASSERT_FALSE(loaded.has_value());
    EXPECT_EQ(loaded.error().code, LoadError::Code::kIoError);
  }
  const auto split = RepartitionKnowledgeBase(dir_.string());
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->code, LoadError::Code::kIoError);
}

// A directory an older build left in the TARAKB2 layout (manifest.tarakb
// plus one window-NNNNNN.seg per window, no blocks manifest) is refused
// as kBadVersion on every path. It must never open as an empty knowledge
// base, never be rebuilt from the WAL alone (that would drop its
// checkpointed windows), and never be saved over.
TEST_F(KbStorageTest, RefusesALeftoverTarakb2Directory) {
  const EvolvingDatabase data = MakeData(3);
  const TaraEngine engine = BuildEngine(data, 2);
  const fs::path kb = dir_ / "kb";
  fs::create_directories(kb);
  // The canonical encoding starts with the TARAKB2 manifest; the segment
  // files hold the same blobs the block files do.
  WriteFile(kb / "manifest.tarakb", Encode(engine));
  for (WindowId w = 0; w < 2; ++w) {
    const std::vector<uint8_t> segment =
        EncodeWindowSegment(*engine.Snapshot(), w);
    char name[32];
    std::snprintf(name, sizeof(name), "window-%06u.seg", w);
    WriteFile(kb / name, std::string(segment.begin(), segment.end()));
  }

  // A write-ahead log holding a window past the leftover checkpoint.
  const std::string wal_dir = (dir_ / "wal").string();
  {
    TaraEngine logged = BuildEngine(data, 2);
    ASSERT_TRUE(logged.AttachWal(wal_dir).has_value());
    const WindowInfo& info = data.window(2);
    logged.AppendWindow(data.database(), info.begin, info.end);
  }
  const std::string missing_wal = (dir_ / "no_wal").string();

  for (const std::string& wal : {std::string(), wal_dir, missing_wal}) {
    for (const OpenMode mode : {OpenMode::kEager, OpenMode::kMapped}) {
      OpenOptions options;
      options.kb_dir = kb.string();
      options.wal_dir = wal;
      options.mode = mode;
      const auto opened = OpenKnowledgeBase(options);
      ASSERT_FALSE(opened.has_value()) << "wal_dir '" << wal << "'";
      EXPECT_EQ(opened.error().code, LoadError::Code::kBadVersion)
          << "wal_dir '" << wal << "': " << opened.error();
      EXPECT_NE(opened.error().message.find("TARAKB2"), std::string::npos)
          << opened.error().message;
    }
  }
  EXPECT_FALSE(fs::exists(missing_wal)) << "a refused open created a log";

  const auto append = AppendKnowledgeBaseBlocks(*engine.Snapshot(), kb);
  ASSERT_TRUE(append.has_value());
  EXPECT_EQ(append->code, LoadError::Code::kBadVersion);
  EXPECT_FALSE(KnowledgeBaseBlocksDirExists(kb));
  for (const auto& refused :
       {RepartitionKnowledgeBase(kb), TrimKnowledgeBase(kb, 1),
        RemoveKnowledgeBase(kb)}) {
    ASSERT_TRUE(refused.has_value());
    EXPECT_EQ(refused->code, LoadError::Code::kBadVersion);
  }
  EXPECT_TRUE(fs::exists(kb / "manifest.tarakb"));
  EXPECT_TRUE(fs::exists(kb / "window-000001.seg"));
}

/// A fresh engine holding window 0 of `snapshot`, installed from its
/// segment bytes.
TaraEngine EngineWithFirstWindow(const KnowledgeBaseSnapshot& snapshot) {
  TaraEngine engine(EngineOptions());
  const std::vector<uint8_t> bytes = EncodeWindowSegment(snapshot, 0);
  auto parsed = ParseWindowSegment(bytes.data(), bytes.size());
  EXPECT_TRUE(parsed.has_value()) << parsed.error();
  EXPECT_FALSE(engine
                   .InstallWindowSegment(snapshot.segment(0).total_transactions,
                                         *std::move(parsed))
                   .has_value());
  return engine;
}

// The segment codec fuzz: seeded single-byte flips and truncations of a
// real window segment — the bytes the WAL, the replication record and
// the block files carry — parsed and then installed onto an engine
// holding the window before it. Every mutation must come back as an
// installed window or a typed LoadError that left the engine unchanged —
// never a crash, hang, or (under the ASan preset) a leak. A flipped byte
// may land somewhere the codec legitimately tolerates (a rule's count,
// say), so a successful install is acceptable; an abort is not.
TEST(KbStorageFuzz, SingleByteFlipsNeverCrashTheSegmentInstall) {
  const TaraEngine engine = BuildEngine(MakeData(2), 2);
  const auto snapshot = engine.Snapshot();
  const std::vector<uint8_t> valid = EncodeWindowSegment(*snapshot, 1);
  const uint64_t total = snapshot->segment(1).total_transactions;
  ASSERT_GT(valid.size(), 64u);
  const std::string before = Encode(EngineWithFirstWindow(*snapshot));
  {
    TaraEngine installed = EngineWithFirstWindow(*snapshot);
    auto parsed = ParseWindowSegment(valid.data(), valid.size());
    ASSERT_TRUE(parsed.has_value());
    ASSERT_FALSE(installed.InstallWindowSegment(total, *std::move(parsed))
                     .has_value());
    EXPECT_EQ(Encode(installed), Encode(engine));
  }

  Rng rng(0xF00DF00D);
  int rejected = 0;
  for (int i = 0; i < 300; ++i) {
    std::vector<uint8_t> mutated = valid;
    const size_t pos = rng.NextBounded(mutated.size());
    mutated[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    auto parsed = ParseWindowSegment(mutated.data(), mutated.size());
    if (!parsed.has_value()) {
      EXPECT_EQ(parsed.error().code, LoadError::Code::kCorruptSegment);
      EXPECT_FALSE(parsed.error().message.empty());
      ++rejected;
      continue;
    }
    TaraEngine target = EngineWithFirstWindow(*snapshot);
    const auto error = target.InstallWindowSegment(total, *std::move(parsed));
    if (error.has_value()) {
      EXPECT_EQ(error->code, LoadError::Code::kCorruptSegment);
      EXPECT_EQ(target.window_count(), 1u);
      EXPECT_EQ(Encode(target), before) << "a rejected install changed state";
      ++rejected;
    } else {
      EXPECT_EQ(target.window_count(), 2u);
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(KbStorageFuzz, TruncationsNeverCrashTheSegmentParser) {
  const TaraEngine engine = BuildEngine(MakeData(2), 2);
  const auto snapshot = engine.Snapshot();
  const std::vector<uint8_t> valid = EncodeWindowSegment(*snapshot, 1);

  Rng rng(0xBADC0FFE);
  for (int i = 0; i < 50; ++i) {
    // A strict prefix can never be a whole segment.
    const size_t cut = rng.NextBounded(valid.size());
    const auto parsed = ParseWindowSegment(valid.data(), cut);
    ASSERT_FALSE(parsed.has_value()) << "cut at " << cut;
    EXPECT_EQ(parsed.error().code, LoadError::Code::kCorruptSegment);
  }
  // Every exact-boundary truncation near the tail as well, and one
  // trailing byte too many.
  for (size_t cut = valid.size() - 16; cut < valid.size(); ++cut) {
    ASSERT_FALSE(ParseWindowSegment(valid.data(), cut).has_value());
  }
  std::vector<uint8_t> longer = valid;
  longer.push_back(0);
  EXPECT_FALSE(ParseWindowSegment(longer.data(), longer.size()).has_value());
}

/// Installs each of `segments` (window ids 0, 1, …) onto `engine`.
void InstallAll(TaraEngine* engine,
                const std::vector<std::vector<uint8_t>>& segments) {
  for (const std::vector<uint8_t>& bytes : segments) {
    auto parsed = ParseWindowSegment(bytes.data(), bytes.size());
    ASSERT_TRUE(parsed.has_value()) << parsed.error();
    const auto error = engine->InstallWindowSegment(
        testing_segments::kWindowTransactions, *std::move(parsed));
    ASSERT_FALSE(error.has_value()) << *error;
  }
}

// Segments that parse but describe no real commit (a zero count, an
// antecedent count that wraps, a rule twice, new-rule contents already
// interned or repeated, rule ids that skip or misorder) used to abort in
// TarArchive::Add or silently renumber rules. The install must reject
// each with kCorruptSegment and leave catalog, archive, roll-up tree and
// segments as they were: a valid window installed right after lands
// exactly as on an engine that never saw the hostile one.
TEST(KbStorageHostile, InstallRejectsEveryHostileSegmentUnchanged) {
  for (const auto& hostile : testing_segments::HostileSegments()) {
    SCOPED_TRACE(hostile.name);
    TaraEngine engine(EngineOptions());
    InstallAll(&engine, hostile.prefix);
    const std::string before = Encode(engine);
    const size_t rules = engine.catalog().size();
    const uint64_t archive_entries = engine.archive().entry_count();
    const uint64_t generation = engine.generation();

    auto parsed =
        ParseWindowSegment(hostile.crafted.data(), hostile.crafted.size());
    ASSERT_TRUE(parsed.has_value()) << parsed.error();
    const auto error = engine.InstallWindowSegment(
        testing_segments::kWindowTransactions, *std::move(parsed));
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->code, LoadError::Code::kCorruptSegment) << *error;
    EXPECT_EQ(Encode(engine), before);
    EXPECT_EQ(engine.catalog().size(), rules);
    EXPECT_EQ(engine.archive().entry_count(), archive_entries);
    EXPECT_EQ(engine.generation(), generation) << "a rejection published";

    TaraEngine reference(EngineOptions());
    InstallAll(&reference, hostile.prefix);
    const auto next =
        testing_segments::NextValidSegment(hostile.prefix.size());
    InstallAll(&engine, {next});
    InstallAll(&reference, {next});
    EXPECT_EQ(Encode(engine), Encode(reference));
    EXPECT_EQ(engine.archive().entry_count(),
              reference.archive().entry_count());
  }

  // A blob naming another window than the next one is refused too.
  TaraEngine engine(EngineOptions());
  const auto blob = testing_segments::Segment(1, 0, {Rule{{1}, {2}}},
                                              {{0, 5, 1}});
  auto parsed = ParseWindowSegment(blob.data(), blob.size());
  ASSERT_TRUE(parsed.has_value());
  const auto error = engine.InstallWindowSegment(
      testing_segments::kWindowTransactions, *std::move(parsed));
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, LoadError::Code::kCorruptSegment);
  EXPECT_EQ(engine.window_count(), 0u);
}

// The same segments as crafted write-ahead records: replay installs the
// valid records before the hostile one, then fails typed — no abort.
TEST_F(KbStorageTest, WalReplayRejectsEveryHostileSegment) {
  for (const auto& hostile : testing_segments::HostileSegments()) {
    SCOPED_TRACE(hostile.name);
    const std::string wal = (dir_ / ("wal_" + hostile.name)).string();
    {
      auto opened = WalWriter::Open(wal, EngineOptions(), 0, nullptr);
      ASSERT_TRUE(opened.has_value()) << opened.error();
      WalWriter& writer = opened.value();
      for (const auto& bytes : hostile.prefix) {
        ASSERT_FALSE(writer.Append(testing_segments::kWindowTransactions,
                                   bytes)
                         .has_value());
      }
      ASSERT_FALSE(writer.Append(testing_segments::kWindowTransactions,
                                 hostile.crafted)
                       .has_value());
    }
    TaraEngine engine(EngineOptions());
    const auto replay = engine.AttachWal(wal);
    ASSERT_FALSE(replay.has_value());
    EXPECT_EQ(replay.error().code, LoadError::Code::kCorruptSegment)
        << replay.error();
    EXPECT_FALSE(engine.wal_attached());

    TaraEngine reference(EngineOptions());
    InstallAll(&reference, hostile.prefix);
    EXPECT_EQ(Encode(engine), Encode(reference));
    EXPECT_LE(engine.generation(), 1u) << "replay published per record";
  }
}

}  // namespace
}  // namespace tara
