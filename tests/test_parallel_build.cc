// The parallel offline build must be an execution detail: any
// Options::parallelism value has to produce a knowledge base that is
// byte-identical, once serialized, to the sequential build's.

#include <string>

#include <gtest/gtest.h>

#include "core/kb_storage.h"
#include "core/tara_engine.h"
#include "datagen/basket_generators.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

EvolvingDatabase MakeData(uint32_t windows, uint32_t seed_offset = 0) {
  BasketGenerator::Params params = BasketGenerator::RetailPreset();
  params.num_transactions = 1200;
  params.num_items = 300;
  const BasketGenerator gen(params);
  EvolvingDatabase data;
  for (uint32_t w = 0; w < windows; ++w) {
    data.AppendBatch(
        gen.GenerateBatch(w + seed_offset, (w + seed_offset) * 1200)
            .transactions());
  }
  return data;
}

TaraEngine::Options BaseOptions() {
  TaraEngine::Options options;
  options.min_support_floor = 0.005;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 4;
  return options;
}

std::string BuildSerialized(const EvolvingDatabase& data, uint32_t parallelism,
                            bool content_index) {
  TaraEngine::Options options = BaseOptions();
  options.parallelism = parallelism;
  options.build_content_index = content_index;
  TaraEngine engine(options);
  engine.BuildAll(data);
  return EncodeKnowledgeBase(*engine.Snapshot());
}

TEST(ParallelBuildTest, ParallelKnowledgeBaseIsByteIdentical) {
  const EvolvingDatabase data = MakeData(6);
  const std::string sequential = BuildSerialized(data, 1, false);
  EXPECT_EQ(BuildSerialized(data, 2, false), sequential);
  EXPECT_EQ(BuildSerialized(data, 4, false), sequential);
  EXPECT_EQ(BuildSerialized(data, 8, false), sequential);
}

TEST(ParallelBuildTest, ByteIdenticalWithContentIndex) {
  const EvolvingDatabase data = MakeData(4);
  EXPECT_EQ(BuildSerialized(data, 4, true), BuildSerialized(data, 1, true));
}

TEST(ParallelBuildTest, HardwareParallelismIsByteIdenticalToo) {
  const EvolvingDatabase data = MakeData(3);
  // parallelism = 0 resolves to the hardware concurrency.
  EXPECT_EQ(BuildSerialized(data, 0, false), BuildSerialized(data, 1, false));
}

TEST(ParallelBuildTest, ParallelEngineAnswersMatchSequential) {
  const EvolvingDatabase data = MakeData(5);
  TaraEngine::Options options = BaseOptions();
  TaraEngine sequential(options);
  sequential.BuildAll(data);
  options.parallelism = 4;
  TaraEngine parallel(options);
  parallel.BuildAll(data);

  ASSERT_EQ(parallel.window_count(), sequential.window_count());
  const ParameterSetting setting{0.008, 0.3};
  for (WindowId w = 0; w < sequential.window_count(); ++w) {
    EXPECT_EQ(parallel.MineWindow(w, setting).value(),
              sequential.MineWindow(w, setting).value())
        << "window " << w;
  }
  const WindowSet all = sequential.AllWindows();
  EXPECT_EQ(parallel
                .MineWindows(parallel.AllWindows(), setting, MatchMode::kExact)
                .value(),
            sequential.MineWindows(all, setting, MatchMode::kExact).value());
}

TEST(ParallelBuildTest, ParallelAppendWindowMatchesSequential) {
  // AppendWindow parallelizes intra-window loops; the committed window must
  // be unchanged.
  const EvolvingDatabase data = MakeData(1);
  TaraEngine::Options options = BaseOptions();
  TaraEngine sequential(options);
  options.parallelism = 4;
  TaraEngine parallel(options);
  const WindowInfo& info = data.window(0);
  sequential.AppendWindow(data.database(), info.begin, info.end);
  parallel.AppendWindow(data.database(), info.begin, info.end);
  EXPECT_EQ(EncodeKnowledgeBase(*parallel.Snapshot()),
            EncodeKnowledgeBase(*sequential.Snapshot()));
}

TEST(ParallelBuildTest, BuildStatsArePopulatedPerWindow) {
  const EvolvingDatabase data = MakeData(3);
  TaraEngine::Options options = BaseOptions();
  options.parallelism = 4;
  TaraEngine engine(options);
  engine.BuildAll(data);
  ASSERT_EQ(engine.build_stats().size(), 3u);
  for (WindowId w = 0; w < 3; ++w) {
    const auto& stats = engine.build_stats()[w];
    EXPECT_EQ(stats.window, w);
    EXPECT_GT(stats.rule_count, 0u);
    EXPECT_GT(stats.location_count, 0u);
    EXPECT_GE(stats.total_seconds(), 0.0);
  }
}

TEST(OptionsValidateTest, AcceptsDefaultsAndSaneValues) {
  EXPECT_FALSE(TaraEngine::Options{}.Validate().has_value());
  TaraEngine::Options options = BaseOptions();
  options.parallelism = 0;
  options.max_itemset_size = 0;
  EXPECT_FALSE(options.Validate().has_value());
}

TEST(OptionsValidateTest, RejectsOutOfRangeFloors) {
  TaraEngine::Options options = BaseOptions();
  options.min_support_floor = 0.0;
  ASSERT_TRUE(options.Validate().has_value());
  EXPECT_NE(options.Validate()->find("min_support_floor"), std::string::npos);

  options = BaseOptions();
  options.min_support_floor = 1.5;
  EXPECT_TRUE(options.Validate().has_value());

  options = BaseOptions();
  options.min_confidence_floor = -0.1;
  ASSERT_TRUE(options.Validate().has_value());
  EXPECT_NE(options.Validate()->find("min_confidence_floor"),
            std::string::npos);

  options = BaseOptions();
  options.min_confidence_floor = 1.1;
  EXPECT_TRUE(options.Validate().has_value());
}

TEST(OptionsValidateTest, RejectsItemsetCapOfOne) {
  TaraEngine::Options options = BaseOptions();
  options.max_itemset_size = 1;
  ASSERT_TRUE(options.Validate().has_value());
  EXPECT_NE(options.Validate()->find("max_itemset_size"), std::string::npos);
}

TEST(OptionsValidateTest, ConstructorAbortsWithTheValidateMessage) {
  TaraEngine::Options options = BaseOptions();
  options.min_support_floor = -1.0;
  EXPECT_DEATH(TaraEngine{options}, "min_support_floor");
}

}  // namespace
}  // namespace tara
