#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/tar_archive.h"

namespace tara {
namespace {

TEST(TarArchiveTest, RoundTripsSingleRule) {
  TarArchive archive;
  archive.RegisterWindow(0, 100, 2);
  archive.RegisterWindow(1, 120, 2);
  archive.RegisterWindow(2, 90, 2);
  archive.Add(7, 0, 10, 20);
  archive.Add(7, 2, 12, 25);

  DecodeArena arena;
  const auto series = archive.DecodeInto(7, arena);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].window, 0u);
  EXPECT_EQ(series[0].rule_count, 10u);
  EXPECT_EQ(series[0].antecedent_count, 20u);
  EXPECT_EQ(series[1].window, 2u);
  EXPECT_EQ(series[1].rule_count, 12u);
  EXPECT_EQ(series[1].antecedent_count, 25u);

  EXPECT_TRUE(archive.EntryFor(7, 0).has_value());
  EXPECT_FALSE(archive.EntryFor(7, 1).has_value());
  EXPECT_EQ(archive.EntryFor(7, 2)->rule_count, 12u);
}

TEST(TarArchiveTest, UnknownRuleDecodesEmpty) {
  TarArchive archive;
  archive.RegisterWindow(0, 10, 1);
  DecodeArena arena;
  EXPECT_TRUE(archive.DecodeInto(3, arena).empty());
  EXPECT_TRUE(archive.DecodeInto(12345, arena).empty());
  int visited = 0;
  archive.VisitEntries(3, [&](const ArchiveEntry&) { return ++visited > 0; });
  EXPECT_EQ(visited, 0);
}

TEST(TarArchiveTest, DecreasingCountsRoundTrip) {
  TarArchive archive;
  for (WindowId w = 0; w < 5; ++w) archive.RegisterWindow(w, 1000, 3);
  uint64_t counts[] = {500, 400, 450, 100, 90};
  uint64_t ants[] = {800, 700, 650, 300, 95};
  for (WindowId w = 0; w < 5; ++w) archive.Add(0, w, counts[w], ants[w]);
  DecodeArena arena;
  const auto series = archive.DecodeInto(0, arena);
  ASSERT_EQ(series.size(), 5u);
  for (WindowId w = 0; w < 5; ++w) {
    EXPECT_EQ(series[w].rule_count, counts[w]);
    EXPECT_EQ(series[w].antecedent_count, ants[w]);
  }
}

TEST(TarArchiveTest, StableRulesCompressWell) {
  // A rule with identical counts across many windows should take ~3 bytes
  // per entry after the first, versus 20 raw.
  TarArchive archive;
  for (WindowId w = 0; w < 100; ++w) archive.RegisterWindow(w, 1000, 3);
  for (WindowId w = 0; w < 100; ++w) archive.Add(0, w, 50, 100);
  EXPECT_EQ(archive.entry_count(), 100u);
  EXPECT_LT(archive.payload_bytes(), 100u * 4);
  DecodeArena arena;
  const auto series = archive.DecodeInto(0, arena);
  ASSERT_EQ(series.size(), 100u);
  EXPECT_EQ(series[99].rule_count, 50u);
}

TEST(TarArchiveTest, RollUpIsExactWhenAllWindowsPresent) {
  TarArchive archive;
  archive.RegisterWindow(0, 100, 2);
  archive.RegisterWindow(1, 100, 2);
  archive.Add(1, 0, 10, 20);
  archive.Add(1, 1, 30, 40);
  const RollUpBound bound = archive.RollUp(1, {0, 1});
  EXPECT_EQ(bound.missing_windows, 0u);
  EXPECT_DOUBLE_EQ(bound.support_lo, 40.0 / 200.0);
  EXPECT_DOUBLE_EQ(bound.support_hi, 40.0 / 200.0);
  EXPECT_DOUBLE_EQ(bound.confidence_lo, 40.0 / 60.0);
  EXPECT_DOUBLE_EQ(bound.confidence_hi, 40.0 / 60.0);
}

TEST(TarArchiveTest, RollUpBoundsWidenForMissingWindows) {
  TarArchive archive;
  archive.RegisterWindow(0, 100, 5);
  archive.RegisterWindow(1, 100, 5);
  archive.Add(2, 0, 10, 20);  // absent in window 1 (count must be < 5)
  const RollUpBound bound = archive.RollUp(2, {0, 1});
  EXPECT_EQ(bound.missing_windows, 1u);
  // Support: known 10 plus at most 4 undetected, over 200.
  EXPECT_DOUBLE_EQ(bound.support_lo, 10.0 / 200.0);
  EXPECT_DOUBLE_EQ(bound.support_hi, 14.0 / 200.0);
  // Confidence: worst case antecedent fills window 1 (100 tx) with no rule;
  // best case 4 more rule occurrences with antecedent only on those.
  EXPECT_DOUBLE_EQ(bound.confidence_lo, 10.0 / 120.0);
  EXPECT_DOUBLE_EQ(bound.confidence_hi, 14.0 / 24.0);
  EXPECT_LE(bound.support_lo, bound.support_hi);
  EXPECT_LE(bound.confidence_lo, bound.confidence_hi);
}

TEST(TarArchiveTest, RollUpOfRuleAbsentEverywhereIsPureSlack) {
  TarArchive archive;
  archive.RegisterWindow(0, 100, 5, 0.0);
  archive.RegisterWindow(1, 100, 5, 0.0);
  archive.Add(0, 0, 10, 20);  // some other rule exists; 9 was never added
  const RollUpBound bound = archive.RollUp(9, {0, 1});
  EXPECT_EQ(bound.missing_windows, 2u);
  // Nothing known: lower bounds collapse to zero, upper bounds are pure
  // floor slack — at most floor-1 = 4 undetected occurrences per window.
  EXPECT_DOUBLE_EQ(bound.support_lo, 0.0);
  EXPECT_DOUBLE_EQ(bound.support_hi, 8.0 / 200.0);
  EXPECT_DOUBLE_EQ(bound.confidence_lo, 0.0);
  // Best case: every undetected occurrence is also the whole antecedent.
  EXPECT_DOUBLE_EQ(bound.confidence_hi, 1.0);
}

TEST(TarArchiveTest, RollUpSlackStaysStrictlyBelowTheFloor) {
  // A rule observed at EXACTLY the floor count is archived and exact; an
  // absent window contributes at most floor-1 — so a missing window can
  // never account for a rule that actually met the floor there.
  TarArchive archive;
  archive.RegisterWindow(0, 100, 5, 0.0);
  archive.RegisterWindow(1, 100, 5, 0.0);
  archive.Add(0, 0, 5, 10);  // at the floor: present, not slack
  archive.Add(0, 1, 5, 10);
  archive.Add(1, 0, 5, 10);  // same counts, but absent from window 1
  const RollUpBound at_floor = archive.RollUp(0, {0, 1});
  EXPECT_EQ(at_floor.missing_windows, 0u);
  EXPECT_DOUBLE_EQ(at_floor.support_lo, 10.0 / 200.0);
  EXPECT_DOUBLE_EQ(at_floor.support_hi, 10.0 / 200.0);

  const RollUpBound missing_one = archive.RollUp(1, {0, 1});
  EXPECT_EQ(missing_one.missing_windows, 1u);
  EXPECT_DOUBLE_EQ(missing_one.support_hi, 9.0 / 200.0);
  EXPECT_LT(missing_one.support_hi, at_floor.support_hi);
}

TEST(TarArchiveTest, RollUpOverASingleWindowSet) {
  TarArchive archive;
  archive.RegisterWindow(0, 100, 5, 0.2);
  archive.Add(3, 0, 25, 50);
  // Present in the only window: a single-window roll-up is exact and
  // degenerates to that window's point measures.
  const RollUpBound present = archive.RollUp(3, {0});
  EXPECT_EQ(present.missing_windows, 0u);
  EXPECT_DOUBLE_EQ(present.support_lo, 0.25);
  EXPECT_DOUBLE_EQ(present.support_hi, 0.25);
  EXPECT_DOUBLE_EQ(present.confidence_lo, 0.5);
  EXPECT_DOUBLE_EQ(present.confidence_hi, 0.5);

  // Absent from the only window, with a confidence floor that dominates
  // the count floor: slack = max(5-1, 0.2 * 100) = 20.
  const RollUpBound absent = archive.RollUp(4, {0});
  EXPECT_EQ(absent.missing_windows, 1u);
  EXPECT_DOUBLE_EQ(absent.support_lo, 0.0);
  EXPECT_DOUBLE_EQ(absent.support_hi, 20.0 / 100.0);
  EXPECT_DOUBLE_EQ(absent.confidence_lo, 0.0);
  EXPECT_DOUBLE_EQ(absent.confidence_hi, 1.0);
}

TEST(TarArchiveTest, RollUpBoundsAreNeverInverted) {
  Rng rng(2026);
  TarArchive archive;
  const uint32_t windows = 8;
  for (WindowId w = 0; w < windows; ++w) {
    archive.RegisterWindow(w, 200 + rng.NextBounded(800),
                           1 + rng.NextBounded(10),
                           rng.NextDouble() * 0.3);
  }
  constexpr RuleId kRules = 50;
  for (WindowId w = 0; w < windows; ++w) {
    for (RuleId r = 0; r < kRules; ++r) {
      if (rng.NextBool(0.5)) continue;
      const uint64_t count = 1 + rng.NextBounded(100);
      archive.Add(r, w, count, count + rng.NextBounded(100));
    }
  }
  for (RuleId r = 0; r < kRules; ++r) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<WindowId> subset;
      for (WindowId w = 0; w < windows; ++w) {
        if (rng.NextBool(0.5)) subset.push_back(w);
      }
      if (subset.empty()) subset.push_back(0);
      const RollUpBound bound = archive.RollUp(r, subset);
      EXPECT_LE(bound.support_lo, bound.support_hi) << "rule " << r;
      EXPECT_LE(bound.confidence_lo, bound.confidence_hi) << "rule " << r;
      EXPECT_GE(bound.support_lo, 0.0);
      EXPECT_LE(bound.support_hi, 1.0);
      EXPECT_GE(bound.confidence_lo, 0.0);
      EXPECT_LE(bound.confidence_hi, 1.0);
      EXPECT_LE(bound.missing_windows, subset.size());
    }
  }
}

TEST(TarArchiveTest, PayloadIsSmallerThanRawEncoding) {
  Rng rng(3);
  TarArchive archive;
  const uint32_t windows = 20;
  for (WindowId w = 0; w < windows; ++w) archive.RegisterWindow(w, 5000, 5);
  for (RuleId r = 0; r < 500; ++r) {
    uint64_t count = 50 + rng.NextBounded(100);
    uint64_t ant = count + rng.NextBounded(100);
    for (WindowId w = 0; w < windows; ++w) {
      // Small random walk — the realistic evolving-rule profile.
      const int64_t dc = static_cast<int64_t>(rng.NextBounded(11)) - 5;
      count = static_cast<uint64_t>(
          std::max<int64_t>(5, static_cast<int64_t>(count) + dc));
      ant = std::max(ant, count);
      archive.Add(r, w, count, ant);
    }
  }
  // Raw record: window(4) + two counts(8+8) = 20 bytes per entry.
  const size_t raw = archive.entry_count() * 20;
  EXPECT_LT(archive.payload_bytes(), raw / 3)
      << "delta+varint should compress at least 3x on stable rules";
  EXPECT_EQ(archive.rule_count(), 500u);
}

TEST(TarArchiveTest, RandomizedRoundTripAgainstShadow) {
  Rng rng(99);
  TarArchive archive;
  const uint32_t windows = 30;
  for (WindowId w = 0; w < windows; ++w) {
    archive.RegisterWindow(w, 1000, 3);
  }
  std::vector<std::vector<ArchiveEntry>> shadow(200);
  for (WindowId w = 0; w < windows; ++w) {
    for (RuleId r = 0; r < 200; ++r) {
      if (rng.NextBool(0.4)) continue;  // rule absent this window
      const uint64_t count = 3 + rng.NextBounded(500);
      const uint64_t ant = count + rng.NextBounded(500);
      archive.Add(r, w, count, ant);
      shadow[r].push_back(ArchiveEntry{w, count, ant});
    }
  }
  DecodeArena arena;
  for (RuleId r = 0; r < 200; ++r) {
    arena.Reset();
    const auto series = archive.DecodeInto(r, arena);
    ASSERT_EQ(series.size(), shadow[r].size()) << "rule " << r;
    for (size_t i = 0; i < series.size(); ++i) {
      EXPECT_EQ(series[i].window, shadow[r][i].window);
      EXPECT_EQ(series[i].rule_count, shadow[r][i].rule_count);
      EXPECT_EQ(series[i].antecedent_count, shadow[r][i].antecedent_count);
    }
  }
}

}  // namespace
}  // namespace tara
