// End-to-end integration tests: whole pipelines crossing module
// boundaries — generator → windowing → engine → TARAKB3 save/open →
// exploration, drill-down consistency, and TARA applied to the
// pharmacovigilance reports themselves.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "baselines/dctar.h"
#include "core/exploration.h"
#include "core/kb_blocks.h"
#include "core/kb_open.h"
#include "core/tara_engine.h"
#include "datagen/basket_generators.h"
#include "datagen/faers_generator.h"
#include "maras/evaluation.h"
#include "maras/maras_engine.h"
#include "txdb/evolving_database.h"
#include "txdb/io.h"

namespace tara {
namespace {

TEST(IntegrationTest, RetailPipelineEndToEnd) {
  // Generate drifting retail batches, build, save, reload, explore — and
  // every reloaded answer must match scratch mining of the raw data.
  BasketGenerator::Params params = BasketGenerator::RetailPreset();
  params.num_transactions = 2000;
  params.num_items = 500;
  const BasketGenerator gen(params);
  EvolvingDatabase data;
  for (uint32_t w = 0; w < 4; ++w) {
    data.AppendBatch(gen.GenerateBatch(w, w * 2000).transactions());
  }

  TaraEngine::Options options;
  options.min_support_floor = 0.004;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 4;
  TaraEngine engine(options);
  engine.BuildAll(data);

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("integration_kb_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir.string()).has_value());
  OpenOptions open;
  open.kb_dir = dir.string();
  const TaraEngine reloaded = OpenKnowledgeBase(open).value();
  std::filesystem::remove_all(dir);
  const DctarBaseline scratch(&data, 4);

  const ParameterSetting setting{0.006, 0.3};
  for (WindowId w = 0; w < 4; ++w) {
    std::set<std::pair<Itemset, Itemset>> from_index;
    for (RuleId id : reloaded.MineWindow(w, setting).value()) {
      const Rule& r = reloaded.catalog().rule(id);
      from_index.emplace(r.antecedent, r.consequent);
    }
    std::set<std::pair<Itemset, Itemset>> from_scratch;
    for (const MinedRule& r : scratch.MineWindow(w, setting)) {
      from_scratch.emplace(r.antecedent, r.consequent);
    }
    EXPECT_EQ(from_index, from_scratch) << "window " << w;
  }

  // The exploration service runs on the reloaded base.
  ExplorationService service(&reloaded);
  const auto stable =
      service.TopStable(reloaded.AllWindows(), setting, 5).value();
  EXPECT_FALSE(stable.empty());
  EXPECT_GT(stable[0].measures.coverage, 0.0);
}

TEST(IntegrationTest, DrillDownRefinesRollUp) {
  // Build at fine granularity; rolled-up measures over all fine windows
  // must agree with a single-window build of the same data whenever the
  // rule is archived in every fine window (counts are additive).
  BasketGenerator::Params params = BasketGenerator::RetailPreset();
  params.num_transactions = 6000;
  params.num_items = 300;
  params.drift_rate = 0;  // stationary so rules appear in all windows
  const TransactionDatabase batch =
      BasketGenerator(params).GenerateBatch(0, 0);
  const EvolvingDatabase fine =
      EvolvingDatabase::PartitionIntoBatches(batch, 3);
  const EvolvingDatabase coarse =
      EvolvingDatabase::PartitionIntoBatches(batch, 1);

  TaraEngine::Options options;
  options.min_support_floor = 0.005;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 4;
  TaraEngine fine_engine(options);
  fine_engine.BuildAll(fine);
  TaraEngine coarse_engine(options);
  coarse_engine.BuildAll(coarse);

  const ParameterSetting setting{0.01, 0.3};
  const auto coarse_rules = coarse_engine.MineWindow(0, setting).value();
  size_t checked = 0;
  for (RuleId coarse_id : coarse_rules) {
    const Rule& rule = coarse_engine.catalog().rule(coarse_id);
    const RuleId fine_id = fine_engine.catalog().Find(rule);
    if (fine_id == RuleCatalog::kNotFound) continue;
    // Only exact when archived in all three fine windows.
    if (fine_engine.archive().entry_count(fine_id) != 3) continue;
    const RollUpBound bound =
        fine_engine.RollUpRule(fine_id, fine_engine.AllWindows()).value();
    const auto coarse_entry =
        coarse_engine.archive().EntryFor(coarse_id, 0);
    ASSERT_TRUE(coarse_entry.has_value());
    const double coarse_support =
        static_cast<double>(coarse_entry->rule_count) / batch.size();
    const double coarse_confidence =
        static_cast<double>(coarse_entry->rule_count) /
        coarse_entry->antecedent_count;
    EXPECT_NEAR(bound.support_lo, coarse_support, 1e-12);
    EXPECT_NEAR(bound.support_hi, coarse_support, 1e-12);
    EXPECT_NEAR(bound.confidence_lo, coarse_confidence, 1e-12);
    EXPECT_NEAR(bound.confidence_hi, coarse_confidence, 1e-12);
    ++checked;
  }
  EXPECT_GT(checked, 10u) << "too few fully-archived rules to be meaningful";
}

TEST(IntegrationTest, TaraOverFaersQuartersTracksDdiRules) {
  // The TARA engine itself runs over the pharmacovigilance reports: each
  // quarter is a window, and a planted DDI shows up as a temporal
  // drug-ADR association with full coverage.
  FaersGenerator::Params params;
  params.reports_per_quarter = 4000;
  params.num_drugs = 100;
  params.num_adrs = 50;
  params.num_ddis = 5;
  params.seed = 77;
  const FaersGenerator gen(params);
  EvolvingDatabase data;
  for (uint32_t q = 0; q < 3; ++q) {
    data.AppendBatch(gen.GenerateQuarter(q, q * 10000).transactions());
  }

  TaraEngine::Options options;
  options.min_support_floor = 0.002;
  options.min_confidence_floor = 0.2;
  options.max_itemset_size = 4;
  TaraEngine engine(options);
  engine.BuildAll(data);

  size_t tracked = 0;
  for (const PlantedDdi& ddi : gen.ground_truth()) {
    const RuleId id = engine.catalog().Find(Rule{ddi.drugs, {ddi.adr}});
    if (id == RuleCatalog::kNotFound) continue;
    const TrajectoryMeasures m =
        engine.RuleMeasures(id, engine.AllWindows()).value();
    EXPECT_GT(m.mean_confidence, 0.5)
        << "interaction ADR should follow the combo";
    if (m.coverage == 1.0) ++tracked;
  }
  EXPECT_GE(tracked, 3u) << "most DDI rules persist across quarters";
}

TEST(IntegrationTest, TextRoundTripFeedsTheEngine) {
  // Databases survive text serialization and produce identical indexes.
  BasketGenerator::Params params = BasketGenerator::RetailPreset();
  params.num_transactions = 1500;
  params.num_items = 200;
  const TransactionDatabase original =
      BasketGenerator(params).GenerateBatch(0, 0);
  const TransactionDatabase reloaded =
      DatabaseFromString(DatabaseToString(original));

  TaraEngine::Options options;
  options.min_support_floor = 0.01;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 4;
  TaraEngine a(options);
  a.AppendWindow(original, 0, original.size());
  TaraEngine b(options);
  b.AppendWindow(reloaded, 0, reloaded.size());

  const ParameterSetting setting{0.02, 0.3};
  EXPECT_EQ(a.MineWindow(0, setting).value().size(),
            b.MineWindow(0, setting).value().size());
  EXPECT_EQ(a.archive().payload_bytes(), b.archive().payload_bytes());
}

TEST(IntegrationTest, MarasAndTaraAgreeOnAssociationCounts) {
  // The MARAS tidset counts and the TARA archive record the same reality.
  FaersGenerator::Params params;
  params.reports_per_quarter = 3000;
  params.num_drugs = 80;
  params.num_adrs = 40;
  params.num_ddis = 4;
  params.seed = 13;
  const FaersGenerator gen(params);
  const TransactionDatabase reports = gen.GenerateQuarter(0, 0);

  MarasEngine::Options maras_options;
  maras_options.adr_base = gen.adr_base();
  maras_options.min_count = 8;
  maras_options.max_itemset_size = 6;
  maras_options.classify_support = false;
  const MarasEngine maras(reports, 0, reports.size(), maras_options);

  TaraEngine::Options tara_options;
  tara_options.min_support_floor = 0.002;
  tara_options.min_confidence_floor = 0.0;
  tara_options.max_itemset_size = 4;
  TaraEngine engine(tara_options);
  engine.AppendWindow(reports, 0, reports.size());

  size_t compared = 0;
  for (const MdarSignal& signal : maras.signals()) {
    if (signal.assoc.drugs.size() + signal.assoc.adrs.size() > 4) continue;
    const RuleId id =
        engine.catalog().Find(Rule{signal.assoc.drugs, signal.assoc.adrs});
    if (id == RuleCatalog::kNotFound) continue;
    const auto entry = engine.archive().EntryFor(id, 0);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->rule_count, signal.count);
    EXPECT_EQ(entry->antecedent_count,
              maras.tidset().Count(signal.assoc.drugs));
    ++compared;
  }
  EXPECT_GT(compared, 5u);
}

}  // namespace
}  // namespace tara
