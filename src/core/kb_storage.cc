#include "core/kb_storage.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/crash_point.h"
#include "common/hash.h"
#include "core/byte_codec.h"

namespace tara {
namespace {

using codec::ByteReader;
using codec::ByteWriter;

constexpr char kManifestMagic[] = "TARAKB2";
constexpr size_t kManifestMagicLen = sizeof(kManifestMagic) - 1;
constexpr char kSegmentMagic[] = "TSEG";
constexpr size_t kSegmentMagicLen = sizeof(kSegmentMagic) - 1;

/// One manifest row of the canonical encoding: a window and its segment.
struct ManifestRow {
  uint64_t total_transactions = 0;
  uint64_t rule_watermark = 0;
  uint64_t entry_count = 0;
  uint64_t segment_bytes = 0;
  uint64_t segment_hash = 0;
};

/// The canonical encoding's manifest: the serialized construction options
/// plus one row per window.
struct Manifest {
  double min_support_floor = 0;
  double min_confidence_floor = 0;
  uint64_t max_itemset_size = 0;
  bool build_content_index = false;
  std::vector<ManifestRow> rows;
};

LoadError Err(LoadError::Code code, std::string message) {
  return LoadError{code, std::move(message)};
}

std::vector<uint8_t> EncodeSegmentBytes(const KnowledgeBaseSnapshot& snapshot,
                                        WindowId window) {
  const WindowSegment& segment = snapshot.segment(window);
  const RuleId first_rule =
      window == 0 ? 0 : snapshot.segment(window - 1).rule_watermark;
  ByteWriter w;
  w.Magic(kSegmentMagic, kSegmentMagicLen);
  w.U64(window);
  w.U64(first_rule);
  w.U64(segment.rule_watermark - first_rule);
  for (RuleId id = first_rule; id < segment.rule_watermark; ++id) {
    const Rule& rule = snapshot.catalog().rule(id);
    w.Items(rule.antecedent);
    w.Items(rule.consequent);
  }
  w.U64(segment.entries.size());
  for (const WindowIndex::Entry& e : segment.entries) {
    w.U64(e.rule);
    w.U64(e.rule_count);
    w.U64(e.antecedent_count - e.rule_count);  // delta, always >= 0
  }
  return w.bytes();
}

ManifestRow RowFor(const KnowledgeBaseSnapshot& snapshot, WindowId window,
                   const std::vector<uint8_t>& segment_bytes) {
  const WindowSegment& segment = snapshot.segment(window);
  ManifestRow row;
  row.total_transactions = segment.total_transactions;
  row.rule_watermark = segment.rule_watermark;
  row.entry_count = segment.entries.size();
  row.segment_bytes = segment_bytes.size();
  row.segment_hash = HashBytes(segment_bytes.data(), segment_bytes.size());
  return row;
}

std::vector<uint8_t> EncodeManifestBytes(const Manifest& manifest) {
  ByteWriter w;
  w.Magic(kManifestMagic, kManifestMagicLen);
  w.F64(manifest.min_support_floor);
  w.F64(manifest.min_confidence_floor);
  w.U64(manifest.max_itemset_size);
  w.U64(manifest.build_content_index ? 1 : 0);
  w.U64(manifest.rows.size());
  for (const ManifestRow& row : manifest.rows) {
    w.U64(row.total_transactions);
    w.U64(row.rule_watermark);
    w.U64(row.entry_count);
    w.U64(row.segment_bytes);
    w.Raw64(row.segment_hash);
  }
  return w.bytes();
}

Manifest ManifestFor(const KnowledgeBaseSnapshot& snapshot) {
  const KbOptions& options = snapshot.options();
  Manifest manifest;
  manifest.min_support_floor = options.min_support_floor;
  manifest.min_confidence_floor = options.min_confidence_floor;
  manifest.max_itemset_size = options.max_itemset_size;
  manifest.build_content_index = options.build_content_index;
  return manifest;
}

LoadError ErrnoErr(const std::string& what, const std::filesystem::path& path) {
  return Err(LoadError::Code::kIoError,
             what + " " + path.string() + ": " + std::strerror(errno));
}

/// Flushes the directory entry for `path` so a just-renamed file survives
/// a crash. Best-effort on filesystems where directories cannot be opened.
std::optional<LoadError> SyncParentDir(const std::filesystem::path& path) {
  const std::filesystem::path parent =
      path.has_parent_path() ? path.parent_path() : ".";
  const int dir_fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return ErrnoErr("cannot open directory", parent);
  const int rc = ::fsync(dir_fd);
  ::close(dir_fd);
  if (rc != 0) return ErrnoErr("fsync failed on directory", parent);
  return std::nullopt;
}

}  // namespace

namespace internal {

std::optional<LoadError> ReadFileBytes(const std::filesystem::path& path,
                                       std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Err(LoadError::Code::kIoError,
               "cannot open " + path.string() + " for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Err(LoadError::Code::kIoError, "read failed on " + path.string());
  }
  const std::string& data = buffer.str();
  out->assign(data.begin(), data.end());
  return std::nullopt;
}

std::optional<LoadError> AtomicWriteFileBytes(
    const std::filesystem::path& path, const std::vector<uint8_t>& bytes) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoErr("cannot open", tmp);
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written,
                              bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const LoadError error = ErrnoErr("write failed on", tmp);
      ::close(fd);
      return error;
    }
    written += static_cast<size_t>(n);
  }
  CrashPoint("storage.tmp_written");
  if (::fsync(fd) != 0) {
    const LoadError error = ErrnoErr("fsync failed on", tmp);
    ::close(fd);
    return error;
  }
  if (::close(fd) != 0) return ErrnoErr("close failed on", tmp);
  CrashPoint("storage.tmp_synced");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return ErrnoErr("rename failed onto", path);
  }
  CrashPoint("storage.renamed");
  if (auto error = SyncParentDir(path)) return error;
  CrashPoint("storage.dir_synced");
  return std::nullopt;
}

}  // namespace internal

std::string EncodeKnowledgeBase(const KnowledgeBaseSnapshot& snapshot) {
  Manifest manifest = ManifestFor(snapshot);
  std::vector<std::vector<uint8_t>> segments;
  segments.reserve(snapshot.window_count());
  for (WindowId w = 0; w < snapshot.window_count(); ++w) {
    segments.push_back(EncodeSegmentBytes(snapshot, w));
    manifest.rows.push_back(RowFor(snapshot, w, segments.back()));
  }
  const std::vector<uint8_t> header = EncodeManifestBytes(manifest);
  std::string out(header.begin(), header.end());
  for (const std::vector<uint8_t>& segment : segments) {
    out.append(segment.begin(), segment.end());
  }
  return out;
}

std::vector<uint8_t> EncodeWindowSegment(const KnowledgeBaseSnapshot& snapshot,
                                         WindowId window) {
  return EncodeSegmentBytes(snapshot, window);
}

Expected<WindowId, LoadError> PeekWindowSegmentWindow(const uint8_t* data,
                                                      size_t size) {
  ByteReader r(data, size);
  uint64_t stored_window = 0;
  if (!r.Magic(kSegmentMagic, kSegmentMagicLen) || !r.U64(&stored_window) ||
      static_cast<WindowId>(stored_window) != stored_window) {
    return Err(LoadError::Code::kCorruptSegment,
               "window segment is corrupt: unreadable window id");
  }
  return static_cast<WindowId>(stored_window);
}

Expected<ParsedWindowSegment, LoadError> ParseWindowSegment(
    const uint8_t* data, size_t size) {
  const auto corrupt = [](const std::string& what) {
    return Err(LoadError::Code::kCorruptSegment,
               "window segment is corrupt: " + what);
  };
  ByteReader r(data, size);
  if (!r.Magic(kSegmentMagic, kSegmentMagicLen)) {
    return corrupt("TSEG magic missing");
  }
  uint64_t stored_window = 0, first_rule = 0, new_rule_count = 0;
  if (!r.U64(&stored_window) || !r.U64(&first_rule) ||
      !r.U64(&new_rule_count)) {
    return corrupt("truncated segment header");
  }
  ParsedWindowSegment parsed;
  parsed.window = static_cast<WindowId>(stored_window);
  parsed.first_rule = static_cast<RuleId>(first_rule);
  if (parsed.window != stored_window || parsed.first_rule != first_rule) {
    return corrupt("window or rule id overflows");
  }
  if (new_rule_count > r.remaining()) {  // each rule takes >= 2 bytes
    return corrupt("truncated rule contents");
  }
  parsed.new_rules.reserve(new_rule_count);
  for (uint64_t i = 0; i < new_rule_count; ++i) {
    Rule rule;
    if (!r.Items(&rule.antecedent) || !r.Items(&rule.consequent)) {
      return corrupt("truncated rule contents");
    }
    parsed.new_rules.push_back(std::move(rule));
  }
  uint64_t entry_count = 0;
  if (!r.U64(&entry_count)) return corrupt("truncated entry count");
  if (entry_count > r.remaining()) {  // each entry takes >= 3 bytes
    return corrupt("truncated entry list");
  }
  parsed.entries.reserve(entry_count);
  for (uint64_t i = 0; i < entry_count; ++i) {
    ParsedWindowSegment::RawEntry e;
    if (!r.U64(&e.rule) || !r.U64(&e.rule_count) ||
        !r.U64(&e.antecedent_delta)) {
      return corrupt("truncated entry list");
    }
    if (e.rule >= first_rule + parsed.new_rules.size()) {
      return corrupt("entry references a rule past the segment's range");
    }
    parsed.entries.push_back(e);
  }
  if (r.remaining() != 0) return corrupt("trailing bytes after the entries");
  return parsed;
}

}  // namespace tara
