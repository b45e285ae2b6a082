#ifndef TARA_CORE_WAL_H_
#define TARA_CORE_WAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/expected.h"
#include "core/kb_snapshot.h"
#include "core/load_error.h"
#include "obs/metrics.h"

namespace tara {

/// Write-ahead log for live window ingestion (file format TARAWAL1).
///
/// One file, `<dir>/wal.tarawal`:
///
///   header:  "TARAWAL1" magic, then the serialized KbOptions subset
///            (support floor F64, confidence floor F64, itemset cap
///            varint, content-index flag varint) — enough to reject a
///            mismatched engine and to reconstruct one from the log
///            alone.
///   records: u32 payload length (LE) + u64 payload checksum (LE) +
///            payload. The payload is the window's transaction count
///            (varint) followed by its segment blob (kb_storage.h) —
///            the same bytes a TARAKB3 block file holds for the window,
///            so the WAL reuses the segment codec end to end.
///
/// Durability contract: WalWriter::Append returns only after the record
/// is fdatasync'd, so an engine that logs each committed window before
/// acknowledging it never loses an acknowledged window. A torn tail
/// (crash mid-append) is detected by the length/checksum pair and
/// truncated away on the next open; everything before it replays.
/// After the windows land durably in a knowledge-base directory
/// (AppendKnowledgeBaseBlocks), Truncate() resets the log to just its
/// header.

/// One logged window.
struct WalRecord {
  uint64_t total_transactions = 0;
  std::vector<uint8_t> segment_bytes;
};

/// Everything a scan of the log recovered.
struct WalContents {
  /// The construction options from the header (serialized subset only;
  /// runtime knobs take their defaults).
  KbOptions options;
  std::vector<WalRecord> records;
  /// File offset just past the last valid record; a writer reopening
  /// the log truncates to this before appending.
  uint64_t valid_bytes = 0;
  /// Bytes of torn tail past valid_bytes (0 for a clean log).
  uint64_t truncated_bytes = 0;
};

/// Outcome of replaying a log into an engine (KbBuilder::AttachWal).
struct WalReplayStats {
  uint64_t records_scanned = 0;   ///< valid records found in the log
  uint64_t records_replayed = 0;  ///< appended into the engine
  uint64_t records_skipped = 0;   ///< pre-checkpoint leftovers ignored
  uint64_t truncated_bytes = 0;   ///< torn tail discarded
};

/// Scans `<dir>/wal.tarawal`. A torn tail is expected damage and comes
/// back inside the value (valid_bytes / truncated_bytes); a missing
/// file, unreadable header, or option field outside the valid ranges is
/// a LoadError.
Expected<WalContents, LoadError> ReadWal(const std::string& dir);

/// True if `<dir>/wal.tarawal` exists.
bool WalExists(const std::string& dir);

/// Appender with fdatasync-before-return semantics. Move-only (owns the
/// file descriptor). Instruments, when `metrics` is a registry:
/// `tara.wal.records`, `tara.wal.bytes`, `tara.wal.fsyncs` counters.
class WalWriter {
 public:
  /// Opens (creating `dir` and the log as needed) for appending.
  /// A fresh log gets the header written and synced before Open
  /// returns; an existing log must carry a matching-options header and
  /// is truncated to `valid_bytes` (from a prior ReadWal) first —
  /// dropping the torn tail, never a valid record.
  static Expected<WalWriter, LoadError> Open(const std::string& dir,
                                             const KbOptions& options,
                                             uint64_t valid_bytes,
                                             obs::MetricsRegistry* metrics);

  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  /// Appends one record and fdatasyncs it. When this returns nullopt the
  /// window is durable: a crash at any later instant replays it.
  std::optional<LoadError> Append(uint64_t total_transactions,
                                  const std::vector<uint8_t>& segment_bytes);

  /// Drops every record (the header stays), fdatasync'd. Call only after
  /// the logged windows are durable elsewhere — i.e. right after a
  /// successful AppendKnowledgeBaseBlocks checkpoint.
  std::optional<LoadError> Truncate();

  const std::string& path() const { return path_; }

 private:
  WalWriter(int fd, std::string path, uint64_t header_bytes,
            obs::MetricsRegistry* metrics);

  std::optional<LoadError> Fsync();

  int fd_ = -1;
  std::string path_;
  uint64_t header_bytes_ = 0;
  obs::Counter* records_ = nullptr;
  obs::Counter* bytes_ = nullptr;
  obs::Counter* fsyncs_ = nullptr;
};

}  // namespace tara

#endif  // TARA_CORE_WAL_H_
