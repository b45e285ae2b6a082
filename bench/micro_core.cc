// Micro-benchmarks (google-benchmark) for the core data structures —
// ablation-level measurements behind the figure harnesses: archive
// encode/decode throughput, stable-region query cost versus result size,
// tidset counting, contrast scoring, and the observability layer's
// overhead on the online query path (null sink versus live registry).

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/stable_region_index.h"
#include "core/tar_archive.h"
#include "core/tara_engine.h"
#include "datagen/faers_generator.h"
#include "datagen/quest_generator.h"
#include "maras/contrast.h"
#include "maras/tidset_index.h"
#include "mining/frequent_itemset.h"
#include "obs/metrics.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

void BM_ArchiveAppend(benchmark::State& state) {
  const int windows = 20;
  for (auto _ : state) {
    state.PauseTiming();
    TarArchive archive;
    for (WindowId w = 0; w < windows; ++w) {
      archive.RegisterWindow(w, 10000, 10);
    }
    Rng rng(1);
    state.ResumeTiming();
    for (WindowId w = 0; w < windows; ++w) {
      for (RuleId r = 0; r < 1000; ++r) {
        const uint64_t count = 10 + rng.NextBounded(100);
        archive.Add(r, w, count, count + rng.NextBounded(100));
      }
    }
    benchmark::DoNotOptimize(archive.payload_bytes());
  }
  state.SetItemsProcessed(state.iterations() * windows * 1000);
}
BENCHMARK(BM_ArchiveAppend);

void BM_ArchiveVisitEntries(benchmark::State& state) {
  TarArchive archive;
  const int windows = static_cast<int>(state.range(0));
  for (int w = 0; w < windows; ++w) archive.RegisterWindow(w, 10000, 10);
  Rng rng(2);
  for (int w = 0; w < windows; ++w) {
    const uint64_t count = 50 + rng.NextBounded(20);
    archive.Add(0, w, count, count * 2);
  }
  for (auto _ : state) {
    uint64_t sum = 0;
    archive.VisitEntries(0, [&sum](const ArchiveEntry& e) {
      sum += e.rule_count;
      return true;
    });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * windows);
}
BENCHMARK(BM_ArchiveVisitEntries)->Arg(5)->Arg(50)->Arg(500);

void BM_ArchiveDecodeInto(benchmark::State& state) {
  TarArchive archive;
  const int windows = static_cast<int>(state.range(0));
  for (int w = 0; w < windows; ++w) archive.RegisterWindow(w, 10000, 10);
  Rng rng(2);
  for (int w = 0; w < windows; ++w) {
    const uint64_t count = 50 + rng.NextBounded(20);
    archive.Add(0, w, count, count * 2);
  }
  DecodeArena arena;
  for (auto _ : state) {
    arena.Reset();
    benchmark::DoNotOptimize(archive.DecodeInto(0, arena).data());
  }
  state.SetItemsProcessed(state.iterations() * windows);
}
BENCHMARK(BM_ArchiveDecodeInto)->Arg(5)->Arg(50)->Arg(500);

WindowIndex BuildIndex(size_t rules, RuleCatalog* catalog) {
  Rng rng(3);
  std::vector<WindowIndex::Entry> entries;
  for (size_t i = 0; i < rules; ++i) {
    const RuleId id = catalog->Intern(
        Rule{{static_cast<ItemId>(i)}, {static_cast<ItemId>(100000 + i)}});
    const uint64_t count = 10 + rng.NextBounded(1000);
    entries.push_back(
        WindowIndex::Entry{id, count, count + rng.NextBounded(1000)});
  }
  WindowIndex index;
  index.Build(entries, 100000, false, *catalog);
  return index;
}

void BM_StableRegionCollect(benchmark::State& state) {
  RuleCatalog catalog;
  const WindowIndex index = BuildIndex(state.range(0), &catalog);
  std::vector<RuleId> out;
  for (auto _ : state) {
    out.clear();
    index.CollectRules(0.001, 0.3, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel("result=" + std::to_string(out.size()));
}
BENCHMARK(BM_StableRegionCollect)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_StableRegionLocate(benchmark::State& state) {
  RuleCatalog catalog;
  const WindowIndex index = BuildIndex(10000, &catalog);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Locate(0.003, 0.42));
  }
}
BENCHMARK(BM_StableRegionLocate);

void BM_TidsetCount(benchmark::State& state) {
  FaersGenerator::Params params;
  params.reports_per_quarter = static_cast<uint32_t>(state.range(0));
  const FaersGenerator gen(params);
  const TransactionDatabase db = gen.GenerateQuarter(0, 0);
  const TidsetIndex index(db, 0, db.size());
  const Itemset query = {gen.ground_truth()[0].drugs[0],
                         gen.ground_truth()[0].drugs[1],
                         gen.ground_truth()[0].adr};
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Count(query));
  }
}
BENCHMARK(BM_TidsetCount)->Arg(2000)->Arg(16000);

// --- Observability overhead: the same online queries against an engine
// with metrics disabled (Options::metrics == nullptr, the null sink) and
// one recording into a live registry. The acceptance bar is <3% on the
// hot path; compare the paired benchmarks below.

const EvolvingDatabase& ObsData() {
  static const EvolvingDatabase* data = [] {
    QuestGenerator::Params params;
    params.num_transactions = 8000;
    params.num_items = 150;
    params.num_patterns = 60;
    params.avg_transaction_len = 8;
    params.seed = 23;
    const TransactionDatabase db = QuestGenerator(params).Generate();
    return new EvolvingDatabase(EvolvingDatabase::PartitionIntoBatches(db, 4));
  }();
  return *data;
}

TaraEngine& ObsEngine(obs::MetricsRegistry* registry) {
  auto make = [registry] {
    TaraEngine::Options options;
    options.min_support_floor = 0.01;
    options.min_confidence_floor = 0.1;
    options.max_itemset_size = 4;
    options.metrics = registry;
    auto* engine = new TaraEngine(options);
    engine->BuildAll(ObsData());
    return engine;
  };
  if (registry == nullptr) {
    static TaraEngine* null_sink = make();
    return *null_sink;
  }
  static TaraEngine* recording = make();
  return *recording;
}

obs::MetricsRegistry& ObsRegistry() {
  static obs::MetricsRegistry* registry = new obs::MetricsRegistry;
  return *registry;
}

void MineWindowLoop(benchmark::State& state, TaraEngine& engine) {
  const WindowId newest = engine.window_count() - 1;
  const ParameterSetting setting{0.02, 0.3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.MineWindow(newest, setting).value());
  }
}

void BM_MineWindowNullSink(benchmark::State& state) {
  MineWindowLoop(state, ObsEngine(nullptr));
}
BENCHMARK(BM_MineWindowNullSink);

void BM_MineWindowRegistry(benchmark::State& state) {
  MineWindowLoop(state, ObsEngine(&ObsRegistry()));
}
BENCHMARK(BM_MineWindowRegistry);

// RecommendRegion is the cheapest query (a point-locate on the EPS), so
// it is the most sensitive to per-query span overhead.
void RecommendRegionLoop(benchmark::State& state, TaraEngine& engine) {
  const WindowId newest = engine.window_count() - 1;
  const ParameterSetting setting{0.02, 0.3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.RecommendRegion(newest, setting).value());
  }
}

void BM_RecommendRegionNullSink(benchmark::State& state) {
  RecommendRegionLoop(state, ObsEngine(nullptr));
}
BENCHMARK(BM_RecommendRegionNullSink);

void BM_RecommendRegionRegistry(benchmark::State& state) {
  RecommendRegionLoop(state, ObsEngine(&ObsRegistry()));
}
BENCHMARK(BM_RecommendRegionRegistry);

// Raw instrument costs, for attributing any query-path delta.
void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram histogram;
  uint64_t value = 1;
  for (auto _ : state) {
    histogram.Record(value);
    value = value * 2654435761u % (1u << 20);
  }
  benchmark::DoNotOptimize(histogram.Count());
}
BENCHMARK(BM_HistogramRecord);

void BM_CounterIncrement(benchmark::State& state) {
  obs::Counter counter;
  for (auto _ : state) {
    counter.Increment();
  }
  benchmark::DoNotOptimize(counter.Value());
}
BENCHMARK(BM_CounterIncrement);

void BM_ContrastScore(benchmark::State& state) {
  FaersGenerator gen(FaersGenerator::Params{});
  const TransactionDatabase db = gen.GenerateQuarter(0, 0);
  const TidsetIndex index(db, 0, db.size());
  const PlantedDdi& ddi = gen.ground_truth()[0];
  const DrugAdrAssociation target{ddi.drugs, {ddi.adr}};
  for (auto _ : state) {
    const Cac cac = BuildCac(target, index);
    benchmark::DoNotOptimize(ContrastScore(cac, 0.75));
  }
}
BENCHMARK(BM_ContrastScore);

}  // namespace
}  // namespace tara

BENCHMARK_MAIN();
