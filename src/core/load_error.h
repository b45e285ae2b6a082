#ifndef TARA_CORE_LOAD_ERROR_H_
#define TARA_CORE_LOAD_ERROR_H_

#include <ostream>
#include <string>
#include <string_view>

namespace tara {

/// Why a persisted knowledge base or log could not be loaded. The loaders
/// (OpenKnowledgeBase, MappedKb::Open, ReadWal, ...) treat their input as
/// untrusted bytes and return one of these (inside an Expected) instead
/// of aborting: a corrupt or mismatched file is an operational problem
/// the calling process decides how to survive — fall back to a rebuild,
/// skip the cache, or report and exit cleanly.
struct LoadError {
  enum class Code {
    /// The underlying stream/file could not be opened or read.
    kIoError,
    /// The bytes do not start with a TARA knowledge-base magic.
    kBadMagic,
    /// A TARA magic with a format version this build cannot read.
    kBadVersion,
    /// The stream ended mid-structure (truncated varint, short field,
    /// or fewer bytes than the manifest promised).
    kTruncated,
    /// The manifest is self-inconsistent (impossible counts, watermarks
    /// that do not increase, ...).
    kBadManifest,
    /// A window segment's bytes do not match the manifest (checksum or
    /// size mismatch, rule ids outside the segment's watermark range).
    kCorruptSegment,
    /// Well-formed knowledge base followed by unexpected extra bytes.
    kTrailingBytes,
  };

  Code code = Code::kIoError;
  /// Actionable description naming the offending file/offset/field.
  std::string message;
};

/// Stable identifier string of a code ("bad_magic", ...), used in CLI
/// output and tests.
std::string_view LoadErrorCodeName(LoadError::Code code);

/// gtest-friendly printing.
std::ostream& operator<<(std::ostream& out, const LoadError& error);

}  // namespace tara

#endif  // TARA_CORE_LOAD_ERROR_H_
