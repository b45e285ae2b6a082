#include "core/tar_archive.h"

#include <algorithm>

#include "common/logging.h"
#include "core/decode_kernels.h"

namespace tara {

RollUpBound FinishRollUp(const RollUpAggregate& agg) {
  RollUpBound bound;
  bound.missing_windows = agg.missing_windows;
  if (agg.total > 0) {
    bound.support_lo = static_cast<double>(agg.known_rule) / agg.total;
    bound.support_hi =
        static_cast<double>(agg.known_rule + agg.missing_slack) / agg.total;
  }
  // Confidence lower bound: rule absent in missing windows while the
  // antecedent could fill them entirely. Upper bound: rule count at the
  // floor slack with antecedent no larger than that.
  const uint64_t lo_den = agg.known_ant + agg.missing_size;
  if (lo_den > 0) {
    bound.confidence_lo = static_cast<double>(agg.known_rule) / lo_den;
  }
  const uint64_t hi_num = agg.known_rule + agg.missing_slack;
  const uint64_t hi_den = agg.known_ant + agg.missing_slack;
  if (hi_den > 0) {
    bound.confidence_hi = static_cast<double>(hi_num) / hi_den;
  }
  return bound;
}

void TarArchive::RegisterWindow(WindowId window, uint64_t transaction_count,
                                uint64_t floor_count,
                                double confidence_floor) {
  TARA_CHECK_EQ(window, window_sizes_.size())
      << "windows must be registered consecutively";
  TARA_CHECK(confidence_floor >= 0.0 && confidence_floor <= 1.0);
  window_sizes_.push_back(transaction_count);
  floor_counts_.push_back(floor_count);
  confidence_floors_.push_back(confidence_floor);
}

void TarArchive::Add(RuleId rule, WindowId window, uint64_t rule_count,
                     uint64_t antecedent_count) {
  TARA_CHECK_LT(window, window_sizes_.size()) << "unregistered window";
  TARA_CHECK(rule_count > 0 && antecedent_count >= rule_count);
  if (rule >= streams_.size()) streams_.resize(rule + 1);
  RuleStream& s = streams_[rule];
  const size_t before = s.bytes.size();
  if (s.empty) {
    varint::EncodeU64(window, &s.bytes);
    varint::EncodeU64(rule_count, &s.bytes);
    varint::EncodeU64(antecedent_count, &s.bytes);
    s.empty = false;
  } else {
    TARA_CHECK_GT(window, s.last_window) << "entries must advance in time";
    varint::EncodeU64(window - s.last_window, &s.bytes);
    varint::EncodeS64(static_cast<int64_t>(rule_count) -
                          static_cast<int64_t>(s.last_rule_count),
                      &s.bytes);
    varint::EncodeS64(static_cast<int64_t>(antecedent_count) -
                          static_cast<int64_t>(s.last_antecedent_count),
                      &s.bytes);
  }
  s.last_window = window;
  s.last_rule_count = rule_count;
  s.last_antecedent_count = antecedent_count;
  ++s.entries;
  payload_bytes_ += s.bytes.size() - before;
  ++entry_count_;
}

std::span<const ArchiveEntry> TarArchive::DecodeInto(
    RuleId rule, DecodeArena& arena) const {
  if (rule >= streams_.size() || streams_[rule].empty) return {};
  const RuleStream& s = streams_[rule];
  const decode::DecodeKernel& kernel = decode::ActiveDecodeKernel();
  std::span<ArchiveEntry> out = arena.AllocSpan<ArchiveEntry>(s.entries);
  std::span<uint64_t> scratch;
  if (kernel.needs_scratch) {
    scratch = arena.AllocSpan<uint64_t>(
        decode::MaxValuesForStream(s.bytes.size()));
  }
  const decode::DecodeResult result =
      kernel.decode(s.bytes.data(), s.bytes.size(), out.data(), out.size(),
                    scratch.data(), scratch.size());
  // Internal streams are valid by construction (Add is the only writer);
  // anything else is memory corruption, not a recoverable input error.
  TARA_CHECK(result.status == decode::Status::kOk &&
             result.entries == s.entries)
      << "corrupt rule stream: " << decode::StatusName(result.status);
  return out;
}

std::optional<ArchiveEntry> TarArchive::EntryFor(RuleId rule,
                                                 WindowId window) const {
  std::optional<ArchiveEntry> found;
  VisitEntries(rule, [&](const ArchiveEntry& e) {
    if (e.window == window) {
      found = e;
      return false;
    }
    return e.window < window;  // series is window-ordered: stop once past
  });
  return found;
}

RollUpBound TarArchive::RollUp(RuleId rule, std::span<const WindowId> windows,
                               DecodeArena* scratch) const {
  DecodeArena local;
  DecodeArena& arena = scratch != nullptr ? *scratch : local;
  const std::span<const ArchiveEntry> series = DecodeInto(rule, arena);

  RollUpAggregate agg;
  for (WindowId w : windows) {
    TARA_CHECK_LT(w, window_sizes_.size());
    agg.total += window_sizes_[w];
    const auto it = std::lower_bound(
        series.begin(), series.end(), w,
        [](const ArchiveEntry& e, WindowId target) { return e.window < target; });
    if (it != series.end() && it->window == w) {
      agg.known_rule += it->rule_count;
      agg.known_ant += it->antecedent_count;
    } else {
      ++agg.missing_windows;
      agg.missing_slack += UnarchivedCountSlack(
          floor_counts_[w], confidence_floors_[w], window_sizes_[w]);
      agg.missing_size += window_sizes_[w];
    }
  }
  return FinishRollUp(agg);
}

uint64_t TarArchive::window_size(WindowId w) const {
  TARA_CHECK_LT(w, window_sizes_.size());
  return window_sizes_[w];
}

uint64_t TarArchive::floor_count(WindowId w) const {
  TARA_CHECK_LT(w, floor_counts_.size());
  return floor_counts_[w];
}

double TarArchive::confidence_floor(WindowId w) const {
  TARA_CHECK_LT(w, confidence_floors_.size());
  return confidence_floors_[w];
}

size_t TarArchive::rule_count() const {
  size_t n = 0;
  for (const RuleStream& s : streams_) n += s.empty ? 0 : 1;
  return n;
}

}  // namespace tara
