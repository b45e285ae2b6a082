#ifndef TARA_CORE_KB_OPEN_H_
#define TARA_CORE_KB_OPEN_H_

#include <cstdint>
#include <string>

#include "common/expected.h"
#include "core/load_error.h"
#include "core/tara_engine.h"
#include "core/wal.h"

namespace tara {

/// The one knowledge-base entrypoint: it maps a TARAKB3 directory
/// (kb_blocks.h), optionally verifies it, optionally replays a write-ahead
/// log on top, and returns a ready engine.

/// How segment payloads reach memory.
enum class OpenMode {
  /// Map the block files and materialize every window before returning —
  /// open cost O(total bytes), queries never touch the disk format again.
  kEager,
  /// Memory-map the TARAKB3 block files and decode windows on first
  /// access — open cost O(blocks), independent of window count; no
  /// segment payload byte is read at open. Queries materialize exactly
  /// the window prefix they need. Corruption discovered during a lazy
  /// decode surfaces as QueryError::Code::kCorruptStorage on the query
  /// that hit it (open with verify = kHashes to fail at open instead).
  kMapped,
};

/// How much of the on-disk state is checked at open.
enum class OpenVerify {
  /// Structural validation only (the manifest is always fully
  /// validated). Every segment checksum is still verified as the segment
  /// is decoded: at open for eager opens, on first access for mapped ones.
  kNone,
  /// Additionally verify every block/segment checksum at open — for
  /// mapped opens this reads all payload bytes (block-parallel when
  /// parallelism > 1), trading the O(1) open for fail-fast integrity.
  kHashes,
};

struct OpenOptions {
  /// Directory holding the TARAKB3 knowledge base (blocks.tarakb3). A
  /// directory holding only a TARAKB2 manifest (manifest.tarakb) left by
  /// an older build is refused with LoadError::Code::kBadVersion, with or
  /// without a wal_dir.
  std::string kb_dir;

  OpenMode mode = OpenMode::kEager;
  OpenVerify verify = OpenVerify::kNone;

  /// When non-empty, recover-on-open: after loading the checkpoint in
  /// `kb_dir` (or starting empty from the WAL header's options when
  /// `kb_dir` holds no knowledge base yet), the log's tail is replayed
  /// on top and left attached so ingestion can continue. Replay requires
  /// the full catalog, so a mapped open with a wal_dir materializes
  /// every window before returning.
  std::string wal_dir;

  /// Becomes the engine's Options::metrics (runtime knob, never
  /// serialized state).
  obs::MetricsRegistry* metrics = nullptr;

  /// Engine parallelism (Options::parallelism); also fans hash
  /// verification and eager segment parsing across a pool.
  /// 0 = hardware concurrency.
  uint32_t parallelism = 1;

  /// Engine query cache size (Options::query_cache_bytes).
  uint64_t query_cache_bytes = 0;

  /// When non-null and wal_dir is set, receives the replay outcome.
  WalReplayStats* replay_stats = nullptr;
};

/// Opens the knowledge base described by `options`. Every failure —
/// missing or corrupt files, format mismatches, WAL damage — is a typed
/// LoadError, never an abort.
Expected<TaraEngine, LoadError> OpenKnowledgeBase(const OpenOptions& options);

}  // namespace tara

#endif  // TARA_CORE_KB_OPEN_H_
