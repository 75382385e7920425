#include "analysis/global_history.h"

#include <algorithm>
#include <numeric>

namespace pardb::analysis {

void GlobalHistory::Add(std::uint64_t key,
                        const std::vector<AccessEvent>& events) {
  const auto [it, inserted] = vertex_of_.try_emplace(
      key, static_cast<std::uint32_t>(keys_.size()));
  if (inserted) keys_.push_back(key);
  for (const AccessEvent& e : events) {
    accesses_.push_back(
        Access{e.entity.value(), e.version, it->second, e.is_write});
  }
}

ConflictGraph GlobalHistory::ByKey(std::vector<std::uint64_t>* sorted) const {
  std::vector<std::uint32_t> order(keys_.size());  // rank -> vertex
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return keys_[a] < keys_[b];
            });
  std::vector<std::uint32_t> rank(keys_.size());
  for (std::uint32_t r = 0; r < order.size(); ++r) {
    rank[order[r]] = r;
    sorted->push_back(keys_[order[r]]);
  }
  std::vector<Access> ranked(accesses_);
  for (Access& a : ranked) a.vertex = rank[a.vertex];
  return ConflictGraph(static_cast<std::uint32_t>(keys_.size()), ranked);
}

std::vector<std::uint64_t> GlobalHistory::WitnessCycle() const {
  std::vector<std::uint64_t> sorted;
  std::vector<std::uint64_t> out;
  for (std::uint32_t v : ByKey(&sorted).WitnessCycle()) {
    out.push_back(sorted[v]);
  }
  return out;
}

std::vector<std::uint64_t> GlobalHistory::SerialOrder() const {
  std::vector<std::uint64_t> sorted;
  const ConflictGraph g = ByKey(&sorted);
  std::vector<std::uint64_t> out;
  if (g.divergence()) return out;
  for (std::uint32_t v : g.SmallestFirstOrder()) out.push_back(sorted[v]);
  return out;
}

}  // namespace pardb::analysis
