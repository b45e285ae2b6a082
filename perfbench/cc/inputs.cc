#include <algorithm>

#include "bench.h"
#include "datagen/basket_generators.h"

namespace tara::perfbench {

KbOptions EngineOptions() {
  KbOptions options;
  options.min_support_floor = 0.004;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 4;
  options.build_content_index = true;
  options.parallelism = 1;
  return options;
}

EvolvingDatabase MakeWindows(uint64_t seed, uint32_t count,
                             uint32_t tx_per_window) {
  BasketGenerator::Params params = BasketGenerator::RetailPreset();
  params.num_transactions = tx_per_window;
  params.num_items = 250;
  params.seed = Rng(seed ^ 0x7a3a2016ULL).Next();
  const BasketGenerator generator(params);
  EvolvingDatabase data;
  for (uint32_t w = 0; w < count; ++w) {
    data.AppendBatch(
        generator.GenerateBatch(w, static_cast<Timestamp>(w) * tx_per_window)
            .transactions());
  }
  return data;
}

MixShape ExploreShape(uint32_t windows) {
  const KbOptions floors = EngineOptions();
  MixShape shape{floors.min_support_floor, 5 * floors.min_support_floor,
                 floors.min_confidence_floor, 0.9,
                 std::max<uint32_t>(1, windows / 4),
                 std::max<uint32_t>(1, windows / 2)};
  // Extra trajectory, multi-window and comparison requests put the median
  // inside the per-rule path rather than on the gap between the cheap
  // single-window kinds and the rest.
  shape.weights = {1, 2, 3, 2, 1, 1, 1, 1, 1, 1};
  shape.rollup_span_lo = 2;
  shape.rollup_span_hi = 4;
  return shape;
}

MixShape ServeShape(uint32_t windows) {
  const KbOptions floors = EngineOptions();
  MixShape shape{4 * floors.min_support_floor, 12 * floors.min_support_floor,
                 0.3, 0.9, 2, std::max<uint32_t>(2, windows / 3)};
  shape.rollup_span_lo = 2;
  shape.rollup_span_hi = 4;
  return shape;
}

namespace {

double Between(Rng* rng, double lo, double hi) {
  return lo + (hi - lo) * rng->NextDouble();
}

ParameterSetting DrawSetting(Rng* rng, const MixShape& shape) {
  return ParameterSetting{Between(rng, shape.support_lo, shape.support_hi),
                          Between(rng, shape.confidence_lo,
                                  shape.confidence_hi)};
}

std::vector<WindowId> DrawSpan(Rng* rng, uint32_t windows, uint32_t span_lo,
                               uint32_t span_hi) {
  const uint32_t hi = std::min(span_hi, windows);
  const uint32_t lo = std::min(span_lo, hi);
  const uint32_t span =
      lo + static_cast<uint32_t>(rng->NextBounded(hi - lo + 1));
  const uint32_t first =
      static_cast<uint32_t>(rng->NextBounded(windows - span + 1));
  std::vector<WindowId> ids(span);
  for (uint32_t i = 0; i < span; ++i) ids[i] = first + i;
  return ids;
}

Itemset DrawProbe(Rng* rng, const EvolvingDatabase& data, WindowId w) {
  const WindowInfo& info = data.window(w);
  for (;;) {
    const Transaction& t =
        data.database()[info.begin + rng->NextBounded(info.size())];
    if (t.items.size() < 2) continue;
    Itemset probe = {t.items[rng->NextBounded(t.items.size())]};
    if (rng->NextBool(0.3)) {
      probe.push_back(t.items[rng->NextBounded(t.items.size())]);
      Canonicalize(&probe);
    }
    return probe;
  }
}

}  // namespace

std::vector<QueryRequest> DrawRequests(Rng* rng, size_t count,
                                       uint32_t windows, size_t rules,
                                       const EvolvingDatabase& data,
                                       const MixShape& shape) {
  std::vector<QueryRequest> requests;
  requests.reserve(count);
  // Kinds come in shuffled rounds, so every prefix of the sequence holds
  // them in near the shares the weights give.
  std::vector<int> round;
  for (int k = 0; k < kQueryKindCount; ++k) {
    round.insert(round.end(), shape.weights[k], k);
  }
  for (size_t i = 0; i < count; ++i) {
    if (i % round.size() == 0) {
      for (size_t k = round.size() - 1; k > 0; --k) {
        std::swap(round[k], round[rng->NextBounded(k + 1)]);
      }
    }
    const auto kind = static_cast<QueryKind>(round[i % round.size()]);
    const WindowId w = static_cast<WindowId>(rng->NextBounded(windows));
    const ParameterSetting setting = DrawSetting(rng, shape);
    const MatchMode mode =
        rng->NextBool(0.5) ? MatchMode::kSingle : MatchMode::kExact;
    const RuleId rule = static_cast<RuleId>(rng->NextBounded(rules));
    std::vector<WindowId> span =
        kind == QueryKind::kRollUpMine
            ? DrawSpan(rng, windows, shape.rollup_span_lo, shape.rollup_span_hi)
            : DrawSpan(rng, windows, shape.span_lo, shape.span_hi);
    switch (kind) {
      case QueryKind::kMineWindow:
        requests.push_back(QueryRequest::MineWindow(w, setting));
        break;
      case QueryKind::kMineWindows:
        requests.push_back(QueryRequest::MineWindows(
            std::move(span), setting, mode));
        break;
      case QueryKind::kTrajectory:
        requests.push_back(QueryRequest::Trajectory(
            w, setting, std::move(span)));
        break;
      case QueryKind::kCompare: {
        const ParameterSetting second{
            setting.min_support + Between(rng, 0, shape.support_lo),
            std::min(1.0, setting.min_confidence + Between(rng, 0, 0.2))};
        requests.push_back(QueryRequest::Compare(
            setting, second, std::move(span), mode));
        break;
      }
      case QueryKind::kRegion:
        requests.push_back(QueryRequest::Region(w, setting));
        break;
      case QueryKind::kMeasures:
        requests.push_back(
            QueryRequest::Measures(rule, std::move(span)));
        break;
      case QueryKind::kContent:
        requests.push_back(
            QueryRequest::Content(w, DrawProbe(rng, data, w), setting));
        break;
      case QueryKind::kContentView:
        requests.push_back(QueryRequest::ContentView(w, setting));
        break;
      case QueryKind::kRollUpRule:
        requests.push_back(
            QueryRequest::RollUpRule(rule, std::move(span)));
        break;
      case QueryKind::kRollUpMine:
        requests.push_back(
            QueryRequest::RollUpMine(std::move(span), setting));
        break;
    }
  }
  return requests;
}

}  // namespace tara::perfbench
