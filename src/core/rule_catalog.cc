#include "core/rule_catalog.h"

#include <mutex>
#include <sstream>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace tara {

size_t RuleCatalog::RuleHash::operator()(const Rule& r) const {
  return HashCombine(HashSpan(r.antecedent), HashSpan(r.consequent));
}

RuleCatalog::RuleCatalog(RuleCatalog&& other) noexcept {
  std::unique_lock<std::shared_mutex> lock(other.mutex_);
  ids_ = std::move(other.ids_);
  rules_ = std::move(other.rules_);
}

RuleCatalog& RuleCatalog::operator=(RuleCatalog&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(mutex_, other.mutex_);
    ids_ = std::move(other.ids_);
    rules_ = std::move(other.rules_);
  }
  return *this;
}

RuleId RuleCatalog::Intern(const Rule& rule) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto [it, inserted] =
      ids_.try_emplace(rule, static_cast<RuleId>(rules_.size()));
  if (inserted) rules_.push_back(rule);
  return it->second;
}

bool RuleCatalog::InternNew(std::vector<Rule> rules) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  const RuleId base = static_cast<RuleId>(rules_.size());
  for (size_t k = 0; k < rules.size(); ++k) {
    if (!ids_.try_emplace(rules[k], base + static_cast<RuleId>(k)).second) {
      // Roll back under the same lock: readers never see a partial batch.
      for (size_t j = 0; j < k; ++j) ids_.erase(rules[j]);
      return false;
    }
  }
  for (Rule& rule : rules) rules_.push_back(std::move(rule));
  return true;
}

RuleId RuleCatalog::Find(const Rule& rule) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = ids_.find(rule);
  return it == ids_.end() ? kNotFound : it->second;
}

const Rule& RuleCatalog::rule(RuleId id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  TARA_CHECK_LT(id, rules_.size()) << "unknown rule id";
  return rules_[id];
}

size_t RuleCatalog::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return rules_.size();
}

std::string RuleCatalog::FormatRule(RuleId id) const {
  const Rule& r = rule(id);
  std::ostringstream out;
  for (size_t i = 0; i < r.antecedent.size(); ++i) {
    if (i) out << ' ';
    out << r.antecedent[i];
  }
  out << " -> ";
  for (size_t i = 0; i < r.consequent.size(); ++i) {
    if (i) out << ' ';
    out << r.consequent[i];
  }
  return out.str();
}

}  // namespace tara
