// Differential oracle for the decode kernel layer: every SIMD variant the
// host supports must match the scalar reference byte-for-byte on valid
// streams, agree with it on the typed status of corrupt streams, and never
// crash on arbitrary bytes.

#include <cstdint>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "common/varint.h"
#include "core/decode_kernels.h"
#include "core/tar_archive.h"
#include "gtest/gtest.h"

namespace tara {
namespace {

using decode::CheckedDecode;
using decode::DecodeKernel;
using decode::DecodeStreamCheckedWith;
using decode::Status;

std::span<const DecodeKernel> Kernels() {
  return decode::SupportedDecodeKernels();
}

/// Encodes a synthetic entry sequence exactly the way TarArchive::Add
/// does: first triple absolute, then (gap, zigzag delta, zigzag delta).
std::vector<uint8_t> EncodeSeries(const std::vector<ArchiveEntry>& entries) {
  std::vector<uint8_t> bytes;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i == 0) {
      varint::EncodeU64(entries[i].window, &bytes);
      varint::EncodeU64(entries[i].rule_count, &bytes);
      varint::EncodeU64(entries[i].antecedent_count, &bytes);
    } else {
      varint::EncodeU64(entries[i].window - entries[i - 1].window, &bytes);
      varint::EncodeS64(
          static_cast<int64_t>(entries[i].rule_count) -
              static_cast<int64_t>(entries[i - 1].rule_count),
          &bytes);
      varint::EncodeS64(
          static_cast<int64_t>(entries[i].antecedent_count) -
              static_cast<int64_t>(entries[i - 1].antecedent_count),
          &bytes);
    }
  }
  return bytes;
}

/// A randomized series exercising every varint lane width: counts are
/// drawn near the 2^(7k) encoding boundaries so deltas span 1..10 byte
/// varints, including large negative swings (zigzag).
std::vector<ArchiveEntry> RandomSeries(Rng& rng, size_t max_entries) {
  const size_t n = rng.NextBounded(max_entries + 1);
  std::vector<ArchiveEntry> entries(n);
  WindowId window = static_cast<WindowId>(rng.NextBounded(4));
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) {
      // Gap pattern mix: dense appends (gap 1) and sparse jumps.
      const uint64_t kind = rng.NextBounded(4);
      const uint32_t gap =
          kind == 0 ? 1
                    : static_cast<uint32_t>(1 + rng.NextBounded(1u << 16));
      window += gap;
    }
    // Lane-width sweep: values around 2^0 .. 2^62, so consecutive deltas
    // hit every zigzag varint length.
    const int shift = static_cast<int>(rng.NextBounded(63));
    const uint64_t base = 1ULL << shift;
    const uint64_t rule_count = 1 + rng.NextBounded(base);
    entries[i].window = window;
    entries[i].rule_count = rule_count;
    entries[i].antecedent_count = rule_count + rng.NextBounded(base);
  }
  return entries;
}

TEST(DecodeKernels, HostReportsAtLeastScalar) {
  ASSERT_GE(Kernels().size(), 1u);
  EXPECT_STREQ(Kernels()[0].name, "scalar");
}

TEST(DecodeKernels, AllKernelsMatchScalarOnRandomizedStreams) {
  Rng rng(0x5eed5eedULL);
  for (int round = 0; round < 200; ++round) {
    const std::vector<ArchiveEntry> expected = RandomSeries(rng, 300);
    const std::vector<uint8_t> bytes = EncodeSeries(expected);
    for (const DecodeKernel& kernel : Kernels()) {
      DecodeArena arena;
      const CheckedDecode result = DecodeStreamCheckedWith(
          kernel, std::span<const uint8_t>(bytes), arena);
      ASSERT_EQ(result.status, Status::kOk) << kernel.name;
      ASSERT_EQ(result.entries.size(), expected.size()) << kernel.name;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(result.entries[i].window, expected[i].window)
            << kernel.name << " entry " << i;
        EXPECT_EQ(result.entries[i].rule_count, expected[i].rule_count)
            << kernel.name << " entry " << i;
        EXPECT_EQ(result.entries[i].antecedent_count,
                  expected[i].antecedent_count)
            << kernel.name << " entry " << i;
      }
    }
  }
}

TEST(DecodeKernels, MatchesArchiveDecodeOnDenseAppends) {
  // The stable-rule shape the SIMD fast path is built for: gap 1 and tiny
  // count wobble, so nearly every varint is one byte. The reference is
  // the (window, rule_count, antecedent_count) triples as appended, not
  // another decode of the same stream.
  TarArchive archive;
  Rng rng(42);
  std::vector<ArchiveEntry> reference;
  for (WindowId w = 0; w < 512; ++w) archive.RegisterWindow(w, 1000, 3);
  for (WindowId w = 0; w < 512; ++w) {
    const uint64_t rule_count = 500 + rng.NextBounded(9);
    const uint64_t antecedent_count = rule_count + rng.NextBounded(3);
    archive.Add(9, w, rule_count, antecedent_count);
    reference.push_back(ArchiveEntry{w, rule_count, antecedent_count});
  }
  DecodeArena arena;
  const std::span<const ArchiveEntry> dispatched =
      archive.DecodeInto(9, arena);
  ASSERT_EQ(dispatched.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(dispatched[i].window, reference[i].window);
    EXPECT_EQ(dispatched[i].rule_count, reference[i].rule_count);
    EXPECT_EQ(dispatched[i].antecedent_count, reference[i].antecedent_count);
  }
}

TEST(DecodeKernels, EmptyStreamDecodesEmpty) {
  for (const DecodeKernel& kernel : Kernels()) {
    DecodeArena arena;
    const CheckedDecode result =
        DecodeStreamCheckedWith(kernel, {}, arena);
    EXPECT_EQ(result.status, Status::kOk) << kernel.name;
    EXPECT_TRUE(result.entries.empty()) << kernel.name;
  }
}

TEST(DecodeKernels, CorruptByteFuzzNeverCrashesAndKernelsAgree) {
  Rng rng(0xf022dULL);
  for (int round = 0; round < 400; ++round) {
    std::vector<uint8_t> bytes = EncodeSeries(RandomSeries(rng, 40));
    // Corruption mix: bit flips, truncation, garbage appends, and pure
    // random buffers.
    switch (rng.NextBounded(4)) {
      case 0:
        if (!bytes.empty()) {
          bytes[rng.NextBounded(bytes.size())] ^=
              static_cast<uint8_t>(1u << rng.NextBounded(8));
        }
        break;
      case 1:
        bytes.resize(rng.NextBounded(bytes.size() + 1));
        break;
      case 2:
        for (int i = 0; i < 8; ++i) {
          bytes.push_back(static_cast<uint8_t>(rng.Next()));
        }
        break;
      default:
        bytes.assign(rng.NextBounded(64), 0);
        for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
        break;
    }

    DecodeArena scalar_arena;
    const CheckedDecode reference = DecodeStreamCheckedWith(
        decode::ScalarDecodeKernel(), std::span<const uint8_t>(bytes),
        scalar_arena);
    for (const DecodeKernel& kernel : Kernels()) {
      DecodeArena arena;
      const CheckedDecode result = DecodeStreamCheckedWith(
          kernel, std::span<const uint8_t>(bytes), arena);
      // Typed status, never a crash — and every kernel classifies the
      // corruption identically and salvages the same valid prefix.
      EXPECT_EQ(result.status, reference.status)
          << kernel.name << " round " << round;
      ASSERT_EQ(result.entries.size(), reference.entries.size())
          << kernel.name << " round " << round;
      for (size_t i = 0; i < reference.entries.size(); ++i) {
        EXPECT_EQ(result.entries[i].window, reference.entries[i].window);
        EXPECT_EQ(result.entries[i].rule_count,
                  reference.entries[i].rule_count);
        EXPECT_EQ(result.entries[i].antecedent_count,
                  reference.entries[i].antecedent_count);
      }
    }
  }
}

TEST(DecodeKernels, TruncationMidVarintIsTruncated) {
  std::vector<uint8_t> bytes;
  varint::EncodeU64(0, &bytes);
  varint::EncodeU64(1u << 20, &bytes);  // multi-byte varint
  bytes.pop_back();                     // cut its last byte
  for (const DecodeKernel& kernel : Kernels()) {
    DecodeArena arena;
    const CheckedDecode result = DecodeStreamCheckedWith(
        kernel, std::span<const uint8_t>(bytes), arena);
    EXPECT_EQ(result.status, Status::kTruncated) << kernel.name;
    EXPECT_TRUE(result.entries.empty()) << kernel.name;
  }
}

TEST(DecodeKernels, DanglingValuesIsTyped) {
  // Two complete varints, then a clean end: value count % 3 != 0.
  std::vector<uint8_t> bytes;
  varint::EncodeU64(3, &bytes);
  varint::EncodeU64(7, &bytes);
  for (const DecodeKernel& kernel : Kernels()) {
    DecodeArena arena;
    const CheckedDecode result = DecodeStreamCheckedWith(
        kernel, std::span<const uint8_t>(bytes), arena);
    EXPECT_EQ(result.status, Status::kDanglingValues) << kernel.name;
    EXPECT_TRUE(result.entries.empty()) << kernel.name;
  }
}

TEST(DecodeKernels, OverlongVarintIsTyped) {
  // Eleven continuation bytes never terminate a 64-bit varint.
  std::vector<uint8_t> bytes(11, 0x80);
  for (const DecodeKernel& kernel : Kernels()) {
    DecodeArena arena;
    const CheckedDecode result = DecodeStreamCheckedWith(
        kernel, std::span<const uint8_t>(bytes), arena);
    EXPECT_EQ(result.status, Status::kOverlong) << kernel.name;
  }
}

TEST(DecodeKernels, DispatchPrefersWidestAndHonorsForceScalar) {
  CpuFeatures none;
  EXPECT_STREQ(decode::DispatchDecodeKernel(none, false).name, "scalar");

  CpuFeatures sse;
  sse.sse41 = true;
  CpuFeatures avx;
  avx.sse41 = true;
  avx.avx2 = true;
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_STREQ(decode::DispatchDecodeKernel(sse, false).name, "sse4");
  EXPECT_STREQ(decode::DispatchDecodeKernel(avx, false).name, "avx2");
#endif
  // TARA_FORCE_SCALAR pins dispatch regardless of features.
  EXPECT_STREQ(decode::DispatchDecodeKernel(sse, true).name, "scalar");
  EXPECT_STREQ(decode::DispatchDecodeKernel(avx, true).name, "scalar");
}

TEST(DecodeKernels, ActiveKernelMatchesProcessDispatch) {
  const DecodeKernel& expected = decode::DispatchDecodeKernel(
      GetCpuFeatures(), ScalarDecodeForced());
  EXPECT_STREQ(decode::ActiveDecodeKernel().name, expected.name);
}

TEST(DecodeKernels, VisitEntriesEarlyExitMatchesEntryFor) {
  TarArchive archive;
  for (WindowId w = 0; w < 64; ++w) archive.RegisterWindow(w, 100, 2);
  for (WindowId w = 0; w < 64; w += 3) archive.Add(4, w, 10 + w, 20 + w);

  size_t visited = 0;
  archive.VisitEntries(4, [&](const ArchiveEntry& e) {
    ++visited;
    return e.window < 30;
  });
  // Early exit: stops at the first window >= 30, not the full 22 entries.
  EXPECT_EQ(visited, 11u);

  for (WindowId w = 0; w < 64; ++w) {
    const auto entry = archive.EntryFor(4, w);
    if (w % 3 == 0) {
      ASSERT_TRUE(entry.has_value()) << w;
      EXPECT_EQ(entry->rule_count, 10u + w);
      EXPECT_EQ(entry->antecedent_count, 20u + w);
    } else {
      EXPECT_FALSE(entry.has_value()) << w;
    }
  }
  EXPECT_FALSE(archive.EntryFor(4, 1000).has_value());
  EXPECT_FALSE(archive.EntryFor(999, 0).has_value());
}

TEST(DecodeKernels, ConcurrentDecodeIntoWithPrivateArenas) {
  // DecodeInto is const and takes the arena by reference: concurrent
  // readers with private arenas must not race (tsan coverage).
  TarArchive archive;
  for (WindowId w = 0; w < 128; ++w) archive.RegisterWindow(w, 1000, 3);
  for (RuleId r = 0; r < 16; ++r) {
    for (WindowId w = 0; w < 128; ++w) {
      archive.Add(r, w, 100 + r + (w % 7), 200 + r + (w % 11));
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&archive, t] {
      DecodeArena arena;
      for (int round = 0; round < 50; ++round) {
        arena.Reset();
        const RuleId rule = static_cast<RuleId>((t + round) % 16);
        const auto entries = archive.DecodeInto(rule, arena);
        ASSERT_EQ(entries.size(), 128u);
        ASSERT_EQ(entries.front().rule_count, 100u + rule);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST(DecodeArenaTest, ReusesCapacityAfterReset) {
  DecodeArena arena;
  EXPECT_EQ(arena.heap_block_count(), 0u);
  (void)arena.AllocSpan<uint64_t>(100);  // fits inline
  EXPECT_EQ(arena.heap_block_count(), 0u);
  (void)arena.AllocSpan<uint64_t>(10000);  // overflows to the heap
  (void)arena.AllocSpan<uint64_t>(10000);  // second block
  EXPECT_GE(arena.heap_block_count(), 1u);
  const size_t high_water = arena.high_water_bytes();
  arena.Reset();
  EXPECT_EQ(arena.used_bytes(), 0u);
  // Steady state: one consolidated block, no further allocation churn.
  EXPECT_EQ(arena.heap_block_count(), 1u);
  (void)arena.AllocSpan<uint64_t>(10000);
  (void)arena.AllocSpan<uint64_t>(10000);
  EXPECT_EQ(arena.heap_block_count(), 1u);
  EXPECT_EQ(arena.high_water_bytes(), high_water);
}

}  // namespace
}  // namespace tara
