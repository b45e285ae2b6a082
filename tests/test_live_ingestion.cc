// Live ingestion: the RCU snapshot layer under the engine facade.
//
// Three properties are pinned down here:
//   1. Snapshot isolation — a pinned generation never changes, no matter
//      how many windows are appended after it was pinned.
//   2. Determinism across paths — the serialized knowledge base is
//      byte-identical whether windows arrive via BuildAll (at any
//      parallelism) or one at a time through live AppendWindow calls.
//   3. Consistency under concurrency — readers hammering Q1-Q5 while a
//      writer appends windows always observe some complete generation:
//      window_count == generation (each live append publishes exactly
//      once) and every per-window answer equals a single-threaded
//      reference. Run under ThreadSanitizer (tools/run_tsan.sh) this is
//      the proof the atomic publication protocol has no data races.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/kb_storage.h"
#include "core/tara_engine.h"
#include "datagen/basket_generators.h"
#include "obs/metrics.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

constexpr uint32_t kWindows = 8;
constexpr uint32_t kTransactionsPerWindow = 600;

EvolvingDatabase MakeData() {
  BasketGenerator::Params params = BasketGenerator::RetailPreset();
  params.num_transactions = kTransactionsPerWindow;
  params.num_items = 150;
  const BasketGenerator gen(params);
  EvolvingDatabase data;
  for (uint32_t w = 0; w < kWindows; ++w) {
    data.AppendBatch(
        gen.GenerateBatch(w, w * kTransactionsPerWindow).transactions());
  }
  return data;
}

TaraEngine::Options MakeOptions(obs::MetricsRegistry* registry = nullptr,
                                uint32_t parallelism = 1) {
  TaraEngine::Options options;
  options.min_support_floor = 0.005;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 4;
  options.build_content_index = true;
  options.parallelism = parallelism;
  options.metrics = registry;
  return options;
}

/// Appends window `w` of `data` to `engine` (the live-path step).
WindowId AppendOne(TaraEngine* engine, const EvolvingDatabase& data,
                   uint32_t w) {
  const WindowInfo& info = data.window(w);
  return engine->AppendWindow(data.database(), info.begin, info.end);
}

TEST(LiveIngestionTest, PinnedSnapshotIsImmuneToLaterAppends) {
  const EvolvingDatabase data = MakeData();
  TaraEngine engine(MakeOptions());
  AppendOne(&engine, data, 0);
  AppendOne(&engine, data, 1);

  const std::shared_ptr<const KnowledgeBaseSnapshot> pinned =
      engine.Snapshot();
  ASSERT_EQ(pinned->window_count(), 2u);
  ASSERT_EQ(pinned->generation(), 2u);
  const ParameterSetting setting{0.01, 0.3};
  const auto before = pinned->MineWindow(1, setting).value();
  const size_t rules_before = pinned->rule_count();
  const std::string bytes_before = EncodeKnowledgeBase(*pinned);

  for (uint32_t w = 2; w < kWindows; ++w) AppendOne(&engine, data, w);

  // The pinned generation is frozen: same windows, same rules, same
  // answers, same serialized bytes — even though the engine moved on.
  EXPECT_EQ(pinned->window_count(), 2u);
  EXPECT_EQ(pinned->rule_count(), rules_before);
  EXPECT_EQ(pinned->MineWindow(1, setting).value(), before);
  EXPECT_EQ(EncodeKnowledgeBase(*pinned), bytes_before);
  // A window committed after the pin is out of range *for that pin*.
  EXPECT_FALSE(pinned->MineWindow(2, setting).has_value());

  // The engine's current view does see everything.
  EXPECT_EQ(engine.window_count(), kWindows);
  EXPECT_EQ(engine.generation(), kWindows);
  EXPECT_TRUE(engine.MineWindow(kWindows - 1, setting).has_value());
}

TEST(LiveIngestionTest, LiveAppendsSerializeIdenticallyToBuildAll) {
  const EvolvingDatabase data = MakeData();

  TaraEngine bulk(MakeOptions());
  bulk.BuildAll(data);
  const std::string bulk_bytes = EncodeKnowledgeBase(*bulk.Snapshot());

  // Pure live path: one publication per window.
  TaraEngine live(MakeOptions());
  for (uint32_t w = 0; w < kWindows; ++w) AppendOne(&live, data, w);
  EXPECT_EQ(EncodeKnowledgeBase(*live.Snapshot()), bulk_bytes);

  // Parallel bulk build, then the byte-identity must still hold.
  TaraEngine parallel(MakeOptions(nullptr, 3));
  parallel.BuildAll(data);
  EXPECT_EQ(EncodeKnowledgeBase(*parallel.Snapshot()), bulk_bytes);

  // Mixed path: bulk prefix, live suffix.
  EvolvingDatabase prefix;
  for (uint32_t w = 0; w < kWindows / 2; ++w) {
    const WindowInfo& info = data.window(w);
    std::vector<Transaction> batch;
    for (size_t t = info.begin; t < info.end; ++t) {
      batch.push_back(data.database()[t]);
    }
    prefix.AppendBatch(std::move(batch));
  }
  TaraEngine mixed(MakeOptions(nullptr, 2));
  mixed.BuildAll(prefix);
  for (uint32_t w = kWindows / 2; w < kWindows; ++w) {
    AppendOne(&mixed, data, w);
  }
  EXPECT_EQ(EncodeKnowledgeBase(*mixed.Snapshot()), bulk_bytes);
}

TEST(LiveIngestionTest, ConcurrentReadersSeeOnlyCompleteGenerations) {
  const EvolvingDatabase data = MakeData();

  // Single-threaded reference over the full history; any pinned prefix
  // generation must agree with it window for window (WindowSegments are
  // shared, never rebuilt).
  TaraEngine reference(MakeOptions());
  reference.BuildAll(data);
  const ParameterSetting setting{0.01, 0.3};
  const ParameterSetting tighter{0.02, 0.4};

  // Per-prefix baselines, indexed by window count k (1..kWindows).
  std::vector<std::vector<RuleId>> mine_base(kWindows + 1);
  std::vector<RegionInfo> region_base(kWindows + 1);
  std::vector<RollUpBound> rollup_base(kWindows + 1);
  std::vector<std::vector<RuleId>> content_base(kWindows + 1);
  const RuleId probe =
      reference.MineWindow(0, setting).value().at(0);
  const Itemset probe_items = {
      reference.catalog().rule(probe).antecedent[0]};
  for (uint32_t k = 1; k <= kWindows; ++k) {
    std::vector<WindowId> ids(k);
    for (uint32_t w = 0; w < k; ++w) ids[w] = w;
    const WindowSet windows = reference.MakeWindowSet(ids);
    mine_base[k] = reference.MineWindow(k - 1, setting).value();
    region_base[k] = reference.RecommendRegion(k - 1, setting).value();
    rollup_base[k] = reference.RollUpRule(probe, windows).value();
    content_base[k] =
        reference.ContentQuery(k - 1, probe_items, setting).value();
  }

  obs::MetricsRegistry registry;
  TaraEngine engine(MakeOptions(&registry));
  std::atomic<bool> done{false};
  std::atomic<size_t> observations{0};
  std::atomic<size_t> failures{0};

  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load(std::memory_order_acquire)) {
        const std::shared_ptr<const KnowledgeBaseSnapshot> snapshot =
            engine.Snapshot();
        const uint32_t k = snapshot->window_count();
        // Only live appends publish here, so every generation holds
        // exactly as many windows as publications: a torn/partial
        // publication would break this equality.
        if (snapshot->generation() != k) {
          failures.fetch_add(1);
          continue;
        }
        if (k == 0) continue;
        const WindowSet all = snapshot->AllWindows();
        bool ok = true;
        // Q1 anchored at the snapshot's newest window.
        const auto q1 =
            snapshot->TrajectoryQuery(k - 1, setting, all).value();
        ok &= q1.rules == mine_base[k];
        // Q2 between the two settings (smoke: must not crash/race; the
        // diff is validated against the per-prefix mine baselines).
        const auto q2 =
            snapshot->CompareSettings(setting, tighter, all,
                                      MatchMode::kSingle)
                .value();
        ok &= q2.only_second.empty();  // tighter set is a subset
        // Q3 region of the newest window.
        const RegionInfo q3 =
            snapshot->RecommendRegion(k - 1, setting).value();
        ok &= q3.result_size == region_base[k].result_size &&
              q3.support_upper == region_base[k].support_upper &&
              q3.confidence_upper == region_base[k].confidence_upper;
        // Q4/roll-up of the probe rule over every pinned window.
        const RollUpBound q4 = snapshot->RollUpRule(probe, all).value();
        ok &= q4.support_lo == rollup_base[k].support_lo &&
              q4.support_hi == rollup_base[k].support_hi &&
              q4.missing_windows == rollup_base[k].missing_windows;
        // Q5 content query in the newest window.
        const auto q5 =
            snapshot->ContentQuery(k - 1, probe_items, setting).value();
        ok &= q5 == content_base[k];
        if (!ok) failures.fetch_add(1);
        observations.fetch_add(1);
        // Round-robin a facade-level query too: it pins its own
        // (possibly newer) snapshot and exercises the metric spans.
        switch (r % 3) {
          case 0:
            (void)engine.MineWindow(0, setting);
            break;
          case 1:
            (void)engine.RecommendRegion(0, setting);
            break;
          default:
            (void)engine.RuleMeasures(probe, all);
            break;
        }
      }
    });
  }

  // The writer: live-append all windows, one publication each.
  for (uint32_t w = 0; w < kWindows; ++w) AppendOne(&engine, data, w);
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(engine.window_count(), kWindows);
  EXPECT_EQ(engine.generation(), kWindows);
  // Final state answers exactly like the reference.
  EXPECT_EQ(engine.MineWindow(kWindows - 1, setting).value(),
            mine_base[kWindows]);
  EXPECT_EQ(EncodeKnowledgeBase(*engine.Snapshot()),
            EncodeKnowledgeBase(*reference.Snapshot()));
  // The snapshot gauges tracked the publications.
  EXPECT_NE(registry.SnapshotText().find("tara.kb.generation"),
            std::string::npos);
}

TEST(LiveIngestionTest, GenerationZeroIsAnEmptyQueryableSnapshot) {
  TaraEngine engine(MakeOptions());
  const std::shared_ptr<const KnowledgeBaseSnapshot> empty =
      engine.Snapshot();
  EXPECT_EQ(empty->generation(), 0u);
  EXPECT_EQ(empty->window_count(), 0u);
  EXPECT_EQ(empty->rule_count(), 0u);
  // Queries against the empty generation reject cleanly, never crash.
  const auto mined = empty->MineWindow(0, ParameterSetting{0.01, 0.3});
  ASSERT_FALSE(mined.has_value());
  EXPECT_EQ(mined.error().code, QueryError::Code::kBadWindow);
}

}  // namespace
}  // namespace tara
