#ifndef TARA_CORE_KB_STORAGE_H_
#define TARA_CORE_KB_STORAGE_H_

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/expected.h"
#include "core/load_error.h"
#include "core/kb_snapshot.h"

namespace tara {

/// The window-segment codec (TSEG) every persisted form of a TARA
/// knowledge base carries, plus the canonical byte encoding the
/// byte-identity oracles compare.
///
/// A window's **segment** holds the contents of the rules that window
/// interned first (ids [previous watermark, watermark) — contiguous by
/// the commit-order invariant) and the window's (rule, counts) entries.
/// The write-ahead log (wal.h), the replication record, and the TARAKB3
/// block files (kb_blocks.h) all hold these exact bytes; TARAKB3 is the
/// only on-disk knowledge-base format.
///
/// Integers are LEB128 varints, doubles and checksums are 8-byte
/// little-endian; itemsets are delta-encoded. Decoders treat all input as
/// untrusted and return LoadError instead of aborting.

/// The canonical encoding of one pinned generation: a manifest (the
/// serialized options plus one row per window, magic "TARAKB2") followed
/// by every window segment. Deterministic — byte-identical for the same
/// window sequence regardless of build parallelism, live appends vs
/// BuildAll, or eager vs mapped opens — which is what the tests'
/// byte-identity oracles compare. Nothing reads it back.
std::string EncodeKnowledgeBase(const KnowledgeBaseSnapshot& snapshot);

/// --- Window-segment codec -------------------------------------------------

/// Encodes window `window` of `snapshot` as its segment blob.
std::vector<uint8_t> EncodeWindowSegment(const KnowledgeBaseSnapshot& snapshot,
                                         WindowId window);

/// A segment blob parsed WITHOUT a catalog: entries keep their raw rule
/// ids and count deltas. Parsing touches no engine state, so loaders may
/// parse many segments concurrently; the builder then installs the
/// parsed windows in window order, by rule id (KbBuilder validates every
/// entry and the new rules' contents before it changes anything).
struct ParsedWindowSegment {
  WindowId window = 0;
  RuleId first_rule = 0;
  /// Contents of the rules this window interned first
  /// (ids [first_rule, first_rule + new_rules.size())).
  std::vector<Rule> new_rules;
  struct RawEntry {
    uint64_t rule = 0;
    uint64_t rule_count = 0;
    uint64_t antecedent_delta = 0;
  };
  std::vector<RawEntry> entries;
};

/// Catalog-free structural parse of a segment blob. Safe to run on many
/// segments concurrently. Untrusted-input discipline: any inconsistency
/// is a LoadError, never an abort.
Expected<ParsedWindowSegment, LoadError> ParseWindowSegment(
    const uint8_t* data, size_t size);

/// Reads just the window id from a segment blob's header, so WAL replay
/// can order records before parsing them.
Expected<WindowId, LoadError> PeekWindowSegmentWindow(const uint8_t* data,
                                                      size_t size);

/// --- File plumbing (internal) ---------------------------------------------
/// Used by the TARAKB3 writer (kb_blocks.cc). Not part of the public API
/// surface; subject to change without a deprecation cycle.
namespace internal {

/// Crash-safe file replacement: bytes land in `<path>.tmp`, are fsync'd,
/// renamed over `path`, then the parent directory entry is fsync'd. A
/// crash at any step leaves either the old file intact or the new one
/// fully in place. CrashPoint crossings ("storage.tmp_written",
/// "storage.tmp_synced", "storage.renamed", "storage.dir_synced")
/// separate the durability steps for the crash-matrix tests.
std::optional<LoadError> AtomicWriteFileBytes(
    const std::filesystem::path& path, const std::vector<uint8_t>& bytes);

/// Slurps a file, typed kIoError on failure.
std::optional<LoadError> ReadFileBytes(const std::filesystem::path& path,
                                       std::vector<uint8_t>* out);

}  // namespace internal

}  // namespace tara

#endif  // TARA_CORE_KB_STORAGE_H_
