// Answer checks made apart from the query path. Every figure is recomputed
// from the raw transactions by a plain scan, or is a property the method
// must have; the from-scratch rulesets come from Eclat plus a rule
// derivation written here, because FP-Growth builds both the knowledge
// base and the DCTAR baseline and so cannot give a second opinion.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <sstream>

#include "bench.h"
#include "mining/eclat.h"
#include "mining/frequent_itemset.h"

namespace tara::perfbench {
namespace {

constexpr double kEps = 1e-12;
constexpr size_t kRulesPerAnswer = 6;

struct RawRule {
  uint64_t rule = 0;
  uint64_t ant = 0;
  uint64_t n = 0;
};

Itemset Joined(const Rule& r) {
  Itemset all;
  std::set_union(r.antecedent.begin(), r.antecedent.end(),
                 r.consequent.begin(), r.consequent.end(),
                 std::back_inserter(all));
  return all;
}

RawRule RawCounts(const EvolvingDatabase& data, const Rule& rule, WindowId w) {
  return RawRule{RawCount(data, w, Joined(rule)),
                 RawCount(data, w, rule.antecedent), data.window(w).size()};
}

double RawConfidence(const RawRule& raw) {
  return raw.ant == 0 ? 0.0
                      : static_cast<double>(raw.rule) /
                            static_cast<double>(raw.ant);
}

/// The rule is valid under `setting` in its window by raw counts.
bool Passes(const RawRule& raw, const ParameterSetting& setting) {
  return raw.rule >= MinCountForSupport(setting.min_support, raw.n) &&
         raw.ant > 0 && RawConfidence(raw) + kEps >= setting.min_confidence;
}

ParameterSetting Floors(const KnowledgeBaseSnapshot& snapshot) {
  return {snapshot.options().min_support_floor,
          snapshot.options().min_confidence_floor};
}

std::string Describe(const char* check, const QueryRequest* request,
                     const std::string& what) {
  std::ostringstream out;
  out << check;
  if (request != nullptr) {
    out << " [" << QueryKindName(request->kind) << " w=" << request->window
        << " s=" << request->setting.min_support
        << " c=" << request->setting.min_confidence << "]";
  }
  out << ": " << what;
  return out.str();
}

/// Up to `k` evenly spaced elements of `all`.
template <typename T>
std::vector<T> Sample(const std::vector<T>& all, size_t k) {
  std::vector<T> out;
  if (all.empty()) return out;
  const size_t step = std::max<size_t>(1, all.size() / k);
  for (size_t i = 0; i < all.size() && out.size() < k; i += step) {
    out.push_back(all[i]);
  }
  return out;
}

std::vector<RuleId> Sorted(std::vector<RuleId> rules) {
  std::sort(rules.begin(), rules.end());
  return rules;
}

std::vector<RuleId> Mine(const KnowledgeBaseSnapshot& snapshot, WindowId w,
                         const ParameterSetting& setting) {
  return Sorted(snapshot.MineWindow(w, setting).value());
}

// --- The individual checks ---------------------------------------------------

/// Trajectory points against raw counts: present exactly where the rule
/// clears the floors, with support and confidence equal to the raw ratios.
std::optional<std::string> CheckPoints(const EvolvingDatabase& data,
                                       const KnowledgeBaseSnapshot& snapshot,
                                       RuleId rule_id,
                                       std::span<const TrajectoryPoint> points) {
  const Rule& rule = snapshot.catalog().rule(rule_id);
  for (const TrajectoryPoint& p : points) {
    const RawRule raw = RawCounts(data, rule, p.window);
    const bool archived = Passes(raw, Floors(snapshot));
    std::ostringstream what;
    what << "rule " << rule_id << " window " << p.window;
    if (p.present != archived) {
      what << " present=" << p.present << " but raw counts " << raw.rule
           << "/" << raw.ant << "/" << raw.n;
      return what.str();
    }
    if (!p.present) continue;
    const double support =
        static_cast<double>(raw.rule) / static_cast<double>(raw.n);
    if (std::fabs(p.support - support) > kEps ||
        std::fabs(p.confidence - RawConfidence(raw)) > kEps) {
      what << " measures " << p.support << "/" << p.confidence << " raw "
           << support << "/" << RawConfidence(raw);
      return what.str();
    }
  }
  return std::nullopt;
}

/// The window's ruleset at `setting`, mined from scratch with Eclat and a
/// rule derivation independent of the library's.
std::vector<Rule> ScratchRules(const EvolvingDatabase& data,
                               const KnowledgeBaseSnapshot& snapshot,
                               WindowId w, const ParameterSetting& setting) {
  const WindowInfo& info = data.window(w);
  FrequentItemsetMiner::Options options;
  options.min_count = MinCountForSupport(setting.min_support, info.size());
  options.max_size = snapshot.options().max_itemset_size;
  const std::vector<FrequentItemset> frequent =
      EclatMiner().Mine(data.database(), info.begin, info.end, options);
  std::map<Itemset, uint64_t> counts;
  for (const FrequentItemset& f : frequent) counts[f.items] = f.count;
  std::vector<Rule> rules;
  for (const FrequentItemset& f : frequent) {
    const size_t k = f.items.size();
    if (k < 2) continue;
    for (uint32_t mask = 1; mask + 1 < (1u << k); ++mask) {
      Rule r;
      for (size_t i = 0; i < k; ++i) {
        (mask >> i & 1 ? r.antecedent : r.consequent).push_back(f.items[i]);
      }
      const double confidence = static_cast<double>(f.count) /
                                static_cast<double>(counts.at(r.antecedent));
      if (confidence + kEps >= setting.min_confidence) {
        rules.push_back(std::move(r));
      }
    }
  }
  return rules;
}

bool RuleLess(const Rule& a, const Rule& b) {
  return std::tie(a.antecedent, a.consequent) <
         std::tie(b.antecedent, b.consequent);
}

std::optional<std::string> CheckScratch(const EvolvingDatabase& data,
                                        const KnowledgeBaseSnapshot& snapshot,
                                        WindowId w,
                                        const ParameterSetting& setting,
                                        const std::vector<RuleId>& answer) {
  std::vector<Rule> expected = ScratchRules(data, snapshot, w, setting);
  std::vector<Rule> got;
  got.reserve(answer.size());
  for (RuleId r : answer) got.push_back(snapshot.catalog().rule(r));
  std::sort(expected.begin(), expected.end(), RuleLess);
  std::sort(got.begin(), got.end(), RuleLess);
  if (expected == got) return std::nullopt;
  std::ostringstream what;
  what << "ruleset of " << got.size() << " rules, Eclat from scratch gives "
       << expected.size();
  return what.str();
}

/// Q3: the region's upper corner yields the query setting's ruleset.
std::optional<std::string> CheckRegion(const KnowledgeBaseSnapshot& snapshot,
                                       WindowId w,
                                       const ParameterSetting& setting,
                                       const RegionInfo& region) {
  const ParameterSetting corner{region.support_upper,
                                region.confidence_upper};
  const std::vector<RuleId> at_query = Mine(snapshot, w, setting);
  if (corner.min_support + kEps < setting.min_support ||
      corner.min_confidence + kEps < setting.min_confidence) {
    return "region corner lies below the query setting";
  }
  const std::vector<RuleId> at_corner = Mine(snapshot, w, corner);
  if (at_query != at_corner || at_query.size() != region.result_size) {
    std::ostringstream what;
    what << "corner gives " << at_corner.size() << " rules, query "
         << at_query.size() << ", region says " << region.result_size;
    return what.str();
  }
  return std::nullopt;
}

/// Rulesets shrink as thresholds rise.
std::optional<std::string> CheckMonotone(const KnowledgeBaseSnapshot& snapshot,
                                         WindowId w,
                                         const ParameterSetting& setting,
                                         const std::vector<RuleId>& answer) {
  const ParameterSetting tighter{setting.min_support * 1.3,
                                 std::min(1.0, setting.min_confidence + 0.1)};
  const std::vector<RuleId> narrow = Mine(snapshot, w, tighter);
  const std::vector<RuleId> wide = Sorted(answer);
  if (std::includes(wide.begin(), wide.end(), narrow.begin(), narrow.end())) {
    return std::nullopt;
  }
  return "a tighter setting returns a rule the looser one lacks";
}

/// Roll-up: raw union measures lie inside the bounds, and equal both when
/// the rule is archived in every window of the set.
std::optional<std::string> CheckRollUp(const EvolvingDatabase& data,
                                       const KnowledgeBaseSnapshot& snapshot,
                                       RuleId rule_id,
                                       const std::vector<WindowId>& windows,
                                       const RollUpBound& bound) {
  const Rule& rule = snapshot.catalog().rule(rule_id);
  uint64_t r = 0, a = 0, n = 0;
  bool everywhere = true;
  for (WindowId w : windows) {
    const RawRule raw = RawCounts(data, rule, w);
    r += raw.rule;
    a += raw.ant;
    n += raw.n;
    everywhere = everywhere && Passes(raw, Floors(snapshot));
  }
  const double s = static_cast<double>(r) / static_cast<double>(n);
  const double c = a == 0 ? 0.0 : static_cast<double>(r) / a;
  std::ostringstream what;
  what << "rule " << rule_id << " raw " << s << "/" << c << " bounds ["
       << bound.support_lo << "," << bound.support_hi << "] ["
       << bound.confidence_lo << "," << bound.confidence_hi << "]";
  if (bound.support_lo > s + kEps || bound.support_hi + kEps < s) {
    return what.str();
  }
  if (a > 0 && (bound.confidence_lo > c + kEps ||
                bound.confidence_hi + kEps < c)) {
    return what.str();
  }
  if (everywhere &&
      (std::fabs(bound.support_lo - s) > kEps ||
       std::fabs(bound.support_hi - s) > kEps ||
       std::fabs(bound.confidence_lo - c) > kEps ||
       std::fabs(bound.confidence_hi - c) > kEps ||
       bound.missing_windows != 0)) {
    return what.str() + " (archived everywhere, so exact)";
  }
  return std::nullopt;
}

/// Q4: the measures recomputed from the raw-count trajectory.
std::optional<std::string> CheckMeasures(const EvolvingDatabase& data,
                                         const KnowledgeBaseSnapshot& snapshot,
                                         RuleId rule_id,
                                         const std::vector<WindowId>& windows,
                                         const TrajectoryMeasures& m) {
  const Rule& rule = snapshot.catalog().rule(rule_id);
  std::vector<double> support(windows.size(), 0.0);
  std::vector<double> confidence(windows.size(), 0.0);
  std::vector<bool> present(windows.size(), false);
  size_t count = 0;
  for (size_t i = 0; i < windows.size(); ++i) {
    const RawRule raw = RawCounts(data, rule, windows[i]);
    if (!Passes(raw, Floors(snapshot))) continue;
    present[i] = true;
    ++count;
    support[i] = static_cast<double>(raw.rule) / static_cast<double>(raw.n);
    confidence[i] = RawConfidence(raw);
  }
  TrajectoryMeasures e;
  e.coverage = static_cast<double>(count) / windows.size();
  if (count > 0) {
    for (size_t i = 0; i < windows.size(); ++i) {
      e.mean_support += support[i] / count;
      e.mean_confidence += confidence[i] / count;
    }
    double vs = 0, vc = 0;
    for (size_t i = 0; i < windows.size(); ++i) {
      if (!present[i]) continue;
      vs += (support[i] - e.mean_support) * (support[i] - e.mean_support);
      vc += (confidence[i] - e.mean_confidence) *
            (confidence[i] - e.mean_confidence);
    }
    e.support_stddev = std::sqrt(vs / count);
    e.confidence_stddev = std::sqrt(vc / count);
    double change = 0;
    for (size_t i = 1; i < windows.size(); ++i) {
      change += std::fabs(support[i] - support[i - 1]);
    }
    const size_t steps = windows.size() - 1;
    e.stability = steps == 0 || e.mean_support <= 0
                      ? 1.0
                      : std::max(0.0, 1.0 - (change / steps) / e.mean_support);
  }
  const double got[] = {m.coverage,          m.stability,
                        m.support_stddev,    m.confidence_stddev,
                        m.mean_support,      m.mean_confidence};
  const double want[] = {e.coverage,         e.stability,
                         e.support_stddev,   e.confidence_stddev,
                         e.mean_support,     e.mean_confidence};
  for (int i = 0; i < 6; ++i) {
    if (std::fabs(got[i] - want[i]) > 1e-9) {
      std::ostringstream what;
      what << "rule " << rule_id << " measure " << i << " is " << got[i]
           << ", raw trajectory gives " << want[i];
      return what.str();
    }
  }
  return std::nullopt;
}

/// Q5: exactly the window's rules at the setting that contain the probe.
std::optional<std::string> CheckContent(const KnowledgeBaseSnapshot& snapshot,
                                        WindowId w, const Itemset& items,
                                        const ParameterSetting& setting,
                                        const std::vector<RuleId>& answer) {
  std::vector<RuleId> expected;
  for (RuleId r : Mine(snapshot, w, setting)) {
    const Itemset all = Joined(snapshot.catalog().rule(r));
    if (std::includes(all.begin(), all.end(), items.begin(), items.end())) {
      expected.push_back(r);
    }
  }
  if (Sorted(answer) == expected) return std::nullopt;
  std::ostringstream what;
  what << answer.size() << " rules, the window's ruleset holds "
       << expected.size() << " containing the probe";
  return what.str();
}

/// Raw membership of a multi-window ruleset: valid in some window
/// (kSingle) or in every window (kExact).
bool PassesSet(const EvolvingDatabase& data, const Rule& rule,
               const std::vector<WindowId>& windows,
               const ParameterSetting& setting, MatchMode mode) {
  for (WindowId w : windows) {
    const bool ok = Passes(RawCounts(data, rule, w), setting);
    if (mode == MatchMode::kSingle && ok) return true;
    if (mode == MatchMode::kExact && !ok) return false;
  }
  return mode == MatchMode::kExact;
}

std::optional<std::string> CheckSetMembers(
    const EvolvingDatabase& data, const KnowledgeBaseSnapshot& snapshot,
    const std::vector<RuleId>& rules, const std::vector<WindowId>& windows,
    const ParameterSetting& in, const ParameterSetting* out, MatchMode mode) {
  for (RuleId r : Sample(rules, kRulesPerAnswer)) {
    const Rule& rule = snapshot.catalog().rule(r);
    if (!PassesSet(data, rule, windows, in, mode) ||
        (out != nullptr && PassesSet(data, rule, windows, *out, mode))) {
      return "rule " + std::to_string(r) + " fails its raw-count membership";
    }
  }
  return std::nullopt;
}

std::optional<std::string> CheckView(const EvolvingDatabase& data,
                                     const KnowledgeBaseSnapshot& snapshot,
                                     WindowId w,
                                     const ParameterSetting& setting,
                                     const ContentViewResult& view) {
  std::vector<ItemId> items;
  for (const auto& [item, rules] : view) items.push_back(item);
  std::sort(items.begin(), items.end());
  for (ItemId item : Sample(items, kRulesPerAnswer)) {
    for (RuleId r : Sample(view.at(item), 2)) {
      const Rule& rule = snapshot.catalog().rule(r);
      const Itemset all = Joined(rule);
      if (!std::binary_search(all.begin(), all.end(), item) ||
          !Passes(RawCounts(data, rule, w), setting)) {
        return "item " + std::to_string(item) + " lists rule " +
               std::to_string(r) + " that lacks it or fails raw counts";
      }
    }
  }
  return std::nullopt;
}

/// Rules a roll-up mining calls certain clear the setting over the raw
/// union of the windows.
std::optional<std::string> CheckCertain(const EvolvingDatabase& data,
                                        const KnowledgeBaseSnapshot& snapshot,
                                        const std::vector<WindowId>& windows,
                                        const ParameterSetting& setting,
                                        const std::vector<RuleId>& certain) {
  for (RuleId r : Sample(certain, kRulesPerAnswer)) {
    const Rule& rule = snapshot.catalog().rule(r);
    uint64_t rc = 0, ac = 0, n = 0;
    for (WindowId w : windows) {
      const RawRule raw = RawCounts(data, rule, w);
      rc += raw.rule;
      ac += raw.ant;
      n += raw.n;
    }
    const double s = static_cast<double>(rc) / static_cast<double>(n);
    const double c = ac == 0 ? 0.0 : static_cast<double>(rc) / ac;
    if (s + kEps < setting.min_support || c + kEps < setting.min_confidence) {
      return "certain rule " + std::to_string(r) +
             " fails the setting over the raw union";
    }
  }
  return std::nullopt;
}

/// An archived entry equals the raw counts of its window.
std::optional<std::string> CheckEntry(const EvolvingDatabase& data,
                                      const KnowledgeBaseSnapshot& snapshot,
                                      RuleId rule_id, WindowId w,
                                      const std::optional<ArchiveEntry>& e) {
  const RawRule raw = RawCounts(data, snapshot.catalog().rule(rule_id), w);
  if (e.has_value() && e->rule_count == raw.rule &&
      e->antecedent_count == raw.ant) {
    return std::nullopt;
  }
  return "rule " + std::to_string(rule_id) + " in appended window " +
         std::to_string(w) + " disagrees with the raw counts";
}

void Note(std::vector<std::string>* errors, const char* check,
          const QueryRequest* request, std::optional<std::string> error) {
  if (error.has_value()) errors->push_back(Describe(check, request, *error));
}

}  // namespace

uint64_t RawCount(const EvolvingDatabase& data, WindowId w,
                  const Itemset& items) {
  const WindowInfo& info = data.window(w);
  uint64_t count = 0;
  for (size_t i = info.begin; i < info.end; ++i) {
    const Itemset& t = data.database()[i].items;
    if (std::includes(t.begin(), t.end(), items.begin(), items.end())) {
      ++count;
    }
  }
  return count;
}

void CheckAnswer(const EvolvingDatabase& data,
                 const KnowledgeBaseSnapshot& snapshot,
                 const QueryRequest& request, const QueryResult& result,
                 int* scratch_budget, std::vector<std::string>* errors) {
  const QueryRequest* q = &request;
  const auto scratch = [&](const std::vector<RuleId>& rules) {
    if (*scratch_budget <= 0) return;
    --*scratch_budget;
    Note(errors, "scratch", q,
         CheckScratch(data, snapshot, request.window, request.setting, rules));
  };
  switch (request.kind) {
    case QueryKind::kMineWindow: {
      const auto& rules = std::get<std::vector<RuleId>>(result);
      scratch(rules);
      Note(errors, "monotone", q,
           CheckMonotone(snapshot, request.window, request.setting, rules));
      break;
    }
    case QueryKind::kMineWindows:
      Note(errors, "raw-members", q,
           CheckSetMembers(data, snapshot,
                           std::get<std::vector<RuleId>>(result),
                           request.windows, request.setting, nullptr,
                           request.mode));
      break;
    case QueryKind::kTrajectory: {
      const auto& t = std::get<TrajectoryQueryResult>(result);
      scratch(t.rules);
      const size_t step = std::max<size_t>(1, t.rules.size() / kRulesPerAnswer);
      for (size_t i = 0; i < t.rules.size(); i += step) {
        Note(errors, "raw-trajectory", q,
             CheckPoints(data, snapshot, t.rules[i], t.trajectories[i]));
      }
      break;
    }
    case QueryKind::kCompare: {
      const auto& diff = std::get<RulesetDiff>(result);
      Note(errors, "raw-compare", q,
           CheckSetMembers(data, snapshot, diff.only_first, request.windows,
                           request.setting, &request.second, request.mode));
      Note(errors, "raw-compare", q,
           CheckSetMembers(data, snapshot, diff.only_second, request.windows,
                           request.second, &request.setting, request.mode));
      break;
    }
    case QueryKind::kRegion:
      Note(errors, "region-corner", q,
           CheckRegion(snapshot, request.window, request.setting,
                       std::get<RegionInfo>(result)));
      break;
    case QueryKind::kMeasures:
      Note(errors, "measures", q,
           CheckMeasures(data, snapshot, request.rule, request.windows,
                         std::get<TrajectoryMeasures>(result)));
      break;
    case QueryKind::kContent:
      Note(errors, "content", q,
           CheckContent(snapshot, request.window, request.items,
                        request.setting,
                        std::get<std::vector<RuleId>>(result)));
      break;
    case QueryKind::kContentView:
      Note(errors, "content-view", q,
           CheckView(data, snapshot, request.window, request.setting,
                     std::get<ContentViewResult>(result)));
      break;
    case QueryKind::kRollUpRule:
      Note(errors, "rollup", q,
           CheckRollUp(data, snapshot, request.rule, request.windows,
                       std::get<RollUpBound>(result)));
      break;
    case QueryKind::kRollUpMine:
      Note(errors, "rollup-certain", q,
           CheckCertain(data, snapshot, request.windows, request.setting,
                        std::get<RolledUpRules>(result).certain));
      break;
  }
}

void CheckAppendedWindow(const EvolvingDatabase& data,
                         const KnowledgeBaseSnapshot& snapshot, WindowId w,
                         std::vector<std::string>* errors) {
  for (RuleId r : Sample(Mine(snapshot, w, Floors(snapshot)), 16)) {
    Note(errors, "appended-window", nullptr,
         CheckEntry(data, snapshot, r, w, snapshot.EntryFor(r, w)));
  }
}

int RunCheckSelfTest() {
  const EvolvingDatabase data = MakeWindows(7, 6, 1000);
  TaraEngine engine(EngineOptions());
  for (WindowId w = 0; w < data.window_count(); ++w) {
    engine.AppendWindow(data.database(), data.window(w).begin,
                        data.window(w).end);
  }
  const auto snapshot = engine.Snapshot();
  const KnowledgeBaseSnapshot& s = *snapshot;
  const std::vector<WindowId> all = {0, 1, 2, 3, 4, 5};
  const ParameterSetting setting{0.008, 0.3};
  const WindowId w = 2;
  const std::vector<RuleId> rules = Mine(s, w, setting);
  const std::vector<RuleId> floor_rules = Mine(s, w, Floors(s));
  // A rule valid at the floors but not at `setting`: an answer that must
  // not appear in any ruleset at `setting`.
  RuleId outsider = 0;
  for (RuleId r : floor_rules) {
    if (!std::binary_search(rules.begin(), rules.end(), r)) outsider = r;
  }
  const RuleId rule = rules.front();

  struct Case {
    const char* name;
    std::function<std::optional<std::string>(bool perturb)> run;
  };
  const std::vector<Case> cases = {
      {"raw-trajectory",
       [&](bool perturb) {
         Trajectory t = BuildTrajectory(s.archive(), rule, all);
         if (perturb) t[1].support += 1.0 / 1000;
         return CheckPoints(data, s, rule, t);
       }},
      {"scratch",
       [&](bool perturb) {
         std::vector<RuleId> answer = rules;
         if (perturb) answer.pop_back();
         return CheckScratch(data, s, w, setting, answer);
       }},
      {"region-corner",
       [&](bool perturb) {
         RegionInfo region =
             s.RecommendRegion(w, setting).value();
         if (perturb) region.support_upper += 0.01;
         return CheckRegion(s, w, setting, region);
       }},
      {"monotone",
       [&](bool perturb) {
         std::vector<RuleId> answer = rules;
         const std::vector<RuleId> narrow = Mine(
             s, w, {setting.min_support * 1.3, setting.min_confidence + 0.1});
         if (perturb) {
           answer.erase(std::find(answer.begin(), answer.end(), narrow[0]));
         }
         return CheckMonotone(s, w, setting, answer);
       }},
      {"rollup",
       [&](bool perturb) {
         RollUpBound bound = s.RollUpRule(rule, s.MakeWindowSet(all)).value();
         if (perturb) bound.support_hi = bound.support_lo / 2;
         return CheckRollUp(data, s, rule, all, bound);
       }},
      {"measures",
       [&](bool perturb) {
         TrajectoryMeasures m =
             s.RuleMeasures(rule, s.MakeWindowSet(all)).value();
         if (perturb) m.stability += 0.01;
         return CheckMeasures(data, s, rule, all, m);
       }},
      {"content",
       [&](bool perturb) {
         const Itemset probe = {s.catalog().rule(rule).consequent[0]};
         std::vector<RuleId> answer =
             s.ContentQuery(w, probe, setting).value();
         if (perturb) answer.pop_back();
         return CheckContent(s, w, probe, setting, answer);
       }},
      {"raw-members",
       [&](bool perturb) {
         std::vector<RuleId> answer =
             s.MineWindows(s.MakeWindowSet(all), setting, MatchMode::kExact)
                 .value();
         if (perturb) answer = {outsider};
         return CheckSetMembers(data, s, answer, all, setting, nullptr,
                                MatchMode::kExact);
       }},
      {"raw-compare",
       [&](bool perturb) {
         const ParameterSetting second{0.012, 0.5};
         RulesetDiff diff = s.CompareSettings(setting, second,
                                              s.MakeWindowSet({w}),
                                              MatchMode::kSingle)
                                .value();
         if (perturb) diff.only_first = Mine(s, w, second);
         return CheckSetMembers(data, s, diff.only_first, {w}, setting,
                                &second, MatchMode::kSingle);
       }},
      {"content-view",
       [&](bool perturb) {
         ContentViewResult view = s.ContentView(w, setting).value();
         if (perturb) {
           for (auto& [item, list] : view) list.assign(6, outsider);
         }
         return CheckView(data, s, w, setting, view);
       }},
      {"rollup-certain",
       [&](bool perturb) {
         RolledUpRules r =
             s.MineRolledUp(s.MakeWindowSet(all), setting).value();
         if (perturb) r.certain = {outsider};
         return CheckCertain(data, s, all, setting, r.certain);
       }},
      {"appended-window",
       [&](bool perturb) {
         std::optional<ArchiveEntry> e = s.EntryFor(rule, w);
         if (perturb) e->antecedent_count += 1;
         return CheckEntry(data, s, rule, w, e);
       }},
      {"byte-identity",
       [&](bool perturb) -> std::optional<std::string> {
         const QueryRequest request = QueryRequest::MineWindow(w, setting);
         const std::string want = EncodeQueryResult(
             request.kind, ExecuteQuery(s, request).value());
         std::string got =
             EncodeQueryResult(request.kind, engine.Execute(request).value());
         if (perturb) got[got.size() / 2] ^= 1;
         if (got == want) return std::nullopt;
         return "response bytes differ from the uncached execution";
       }},
  };
  int bad = 0;
  std::printf("%-16s %-8s %s\n", "check", "correct", "perturbed");
  for (const Case& c : cases) {
    const std::optional<std::string> clean = c.run(false);
    const std::optional<std::string> dirty = c.run(true);
    const bool ok = !clean.has_value() && dirty.has_value();
    bad += ok ? 0 : 1;
    std::printf("%-16s %-8s %s\n", c.name, clean ? "REJECTED" : "passes",
                dirty ? dirty->c_str() : "NOT REJECTED");
    if (clean) std::printf("  unexpected: %s\n", clean->c_str());
  }
  std::printf("%s\n", bad == 0 ? "selftest ok" : "selftest FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace tara::perfbench
