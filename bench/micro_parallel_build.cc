// Build-throughput scaling of the parallel offline pipeline: BuildAll over
// the same evolving database at parallelism 1/2/4/8, reporting wall-clock
// speedup versus the sequential build and verifying that every run
// serializes to a byte-identical knowledge base.
//
// On a machine with fewer cores than the requested parallelism the extra
// threads time-slice one core, so the speedup column saturates at roughly
// the core count (std::thread::hardware_concurrency, printed below).

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_report.h"
#include "core/kb_storage.h"
#include "core/tara_engine.h"
#include "datagen/basket_generators.h"
#include "obs/metrics.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

EvolvingDatabase MakeData(uint32_t windows, uint32_t tx_per_window) {
  BasketGenerator::Params params = BasketGenerator::RetailPreset();
  params.num_transactions = tx_per_window;
  params.num_items = 400;
  const BasketGenerator gen(params);
  EvolvingDatabase data;
  for (uint32_t w = 0; w < windows; ++w) {
    data.AppendBatch(gen.GenerateBatch(w, w * tx_per_window).transactions());
  }
  return data;
}

struct RunResult {
  double seconds = 0;
  std::string serialized;
};

RunResult BuildOnce(const EvolvingDatabase& data, uint32_t parallelism) {
  TaraEngine::Options options;
  options.min_support_floor = 0.003;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 4;
  options.parallelism = parallelism;
  options.metrics = &obs::MetricsRegistry::Global();
  TaraEngine engine(options);
  const auto start = std::chrono::steady_clock::now();
  engine.BuildAll(data);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return RunResult{elapsed.count(),
                   EncodeKnowledgeBase(*engine.Snapshot())};
}

int Run() {
  constexpr uint32_t kWindows = 8;
  constexpr uint32_t kTxPerWindow = 12000;
  constexpr int kReps = 3;

  std::printf("parallel BuildAll scaling: %u windows x %u transactions, "
              "best of %d runs (hardware threads: %u)\n\n",
              kWindows, kTxPerWindow, kReps,
              std::thread::hardware_concurrency());

  const EvolvingDatabase data = MakeData(kWindows, kTxPerWindow);
  const uint64_t total_tx = static_cast<uint64_t>(kWindows) * kTxPerWindow;

  std::printf("%-8s %12s %12s %10s %12s\n", "threads", "seconds", "tx/sec",
              "speedup", "identical");

  bench::BenchReport report("micro_parallel_build");
  double sequential_seconds = 0;
  std::string sequential_bytes;
  bool all_identical = true;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    RunResult best;
    for (int rep = 0; rep < kReps; ++rep) {
      RunResult run = BuildOnce(data, threads);
      if (rep == 0 || run.seconds < best.seconds) best = std::move(run);
    }
    if (threads == 1) {
      sequential_seconds = best.seconds;
      sequential_bytes = best.serialized;
    }
    const bool identical = best.serialized == sequential_bytes;
    all_identical = all_identical && identical;
    std::printf("%-8u %12.3f %12.0f %9.2fx %12s\n", threads, best.seconds,
                total_tx / best.seconds, sequential_seconds / best.seconds,
                identical ? "yes" : "NO");
    report.AddRow()
        .Set("threads", threads)
        .Set("seconds", best.seconds)
        .Set("tx_per_sec", total_tx / best.seconds)
        .Set("speedup", sequential_seconds / best.seconds)
        .Set("identical", identical);
  }

  report.SetMetricsJson(obs::MetricsRegistry::Global().SnapshotJson());
  if (!report.WriteFile()) return 1;

  if (!all_identical) {
    std::printf("\nFAIL: parallel builds diverged from the sequential "
                "knowledge base\n");
    return 1;
  }
  std::printf("\nall knowledge bases byte-identical (%zu bytes)\n",
              sequential_bytes.size());
  return 0;
}

}  // namespace
}  // namespace tara

int main() { return tara::Run(); }
