#ifndef TARA_CORE_BYTE_CODEC_H_
#define TARA_CORE_BYTE_CODEC_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/varint.h"
#include "txdb/evolving_database.h"
#include "txdb/types.h"

namespace tara {
namespace codec {

/// The shared byte-level codec of the TARA persistence formats (window
/// segments, TARAKB3 block manifests, the write-ahead log):
/// integers are LEB128 varints, doubles and checksums are 8-byte
/// little-endian, itemsets are delta-encoded sorted item ids.

class ByteWriter {
 public:
  void Magic(const char* magic, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      bytes_.push_back(static_cast<uint8_t>(magic[i]));
    }
  }
  void U64(uint64_t v) { varint::EncodeU64(v, &bytes_); }
  void Raw64(uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<uint8_t>(bits >> (8 * i)));
    }
  }
  void F64(double v) { Raw64(std::bit_cast<uint64_t>(v)); }
  void Items(const Itemset& items) {
    U64(items.size());
    // Delta-encode the sorted item ids.
    ItemId previous = 0;
    for (ItemId item : items) {
      U64(item - previous);
      previous = item;
    }
  }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

/// Abort-free cursor over untrusted bytes; every getter reports
/// truncation instead of CHECK-failing.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool Magic(const char* magic, size_t len) {
    if (pos_ + len > size_) return false;
    if (std::memcmp(data_ + pos_, magic, len) != 0) return false;
    pos_ += len;
    return true;
  }
  bool U64(uint64_t* out) {
    return varint::TryDecodeU64(data_, size_, &pos_, out);
  }
  bool Raw64(uint64_t* out) {
    if (pos_ + 8 > size_) return false;
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
    }
    *out = bits;
    return true;
  }
  bool F64(double* out) {
    uint64_t bits = 0;
    if (!Raw64(&bits)) return false;
    *out = std::bit_cast<double>(bits);
    return true;
  }
  bool Items(Itemset* out) {
    uint64_t n = 0;
    if (!U64(&n)) return false;
    if (n > remaining()) return false;  // each item takes >= 1 byte
    out->clear();
    out->reserve(n);
    ItemId previous = 0;
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t delta = 0;
      if (!U64(&delta)) return false;
      previous += static_cast<ItemId>(delta);
      out->push_back(previous);
    }
    return true;
  }
  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace codec
}  // namespace tara

#endif  // TARA_CORE_BYTE_CODEC_H_
