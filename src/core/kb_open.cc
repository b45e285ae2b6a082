#include "core/kb_open.h"

#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/thread_pool.h"
#include "core/kb_blocks.h"

namespace tara {

Expected<TaraEngine, LoadError> OpenKnowledgeBase(const OpenOptions& options) {
  std::optional<TaraEngine> engine;
  auto mapped = MappedKb::Open(options.kb_dir);
  if (mapped.has_value()) {
    const uint32_t parallelism =
        options.parallelism == 0 ? std::thread::hardware_concurrency()
                                 : options.parallelism;
    if (options.verify == OpenVerify::kHashes) {
      std::unique_ptr<ThreadPool> pool;
      if (parallelism > 1 && mapped->manifest().blocks.size() > 1) {
        pool = std::make_unique<ThreadPool>(parallelism);
      }
      if (auto error = mapped->VerifyHashes(pool.get())) return *error;
    }

    const KbBlocksManifest& manifest = mapped->manifest();
    KbOptions engine_options;
    engine_options.min_support_floor = manifest.min_support_floor;
    engine_options.min_confidence_floor = manifest.min_confidence_floor;
    engine_options.max_itemset_size =
        static_cast<uint32_t>(manifest.max_itemset_size);
    engine_options.build_content_index = manifest.build_content_index;
    engine_options.metrics = options.metrics;
    engine_options.parallelism = options.parallelism;
    engine_options.query_cache_bytes = options.query_cache_bytes;
    engine.emplace(engine_options);

    // WAL replay installs windows on top of the full catalog — a mapped
    // open with recovery materializes everything up front.
    const bool eager =
        options.mode == OpenMode::kEager || !options.wal_dir.empty();
    if (auto error = engine->AttachMappedKb(
            std::make_shared<const MappedKb>(std::move(mapped.value())),
            eager)) {
      return *error;
    }
  } else if (!options.wal_dir.empty() &&
             mapped.error().code == LoadError::Code::kIoError &&
             !KnowledgeBaseBlocksDirExists(options.kb_dir)) {
    // No checkpoint yet: the crash happened before the first save. The
    // WAL header carries the construction options, so the whole engine
    // rebuilds from the log alone. Only a missing blocks manifest gets
    // here — a leftover TARAKB2 directory is kBadVersion, and rebuilding
    // over it would silently drop its checkpointed windows.
    auto contents = ReadWal(options.wal_dir);
    if (!contents.has_value()) return contents.error();
    KbOptions engine_options = contents->options;
    engine_options.metrics = options.metrics;
    engine_options.parallelism = options.parallelism;
    engine_options.query_cache_bytes = options.query_cache_bytes;
    engine.emplace(engine_options);
  } else {
    return mapped.error();
  }

  if (!options.wal_dir.empty()) {
    auto replayed = engine->AttachWal(options.wal_dir);
    if (!replayed.has_value()) return replayed.error();
    if (options.replay_stats != nullptr) {
      *options.replay_stats = replayed.value();
    }
  }
  return std::move(*engine);
}

}  // namespace tara
