#include "core/vertex_cut.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace pardb::core {

namespace {

constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();

}  // namespace

void VertexCutSolver::Reset(std::size_t num_members, std::size_t num_cycles) {
  num_members_ = num_members;
  num_cycles_ = num_cycles;
  words_ = (num_cycles + 63) / 64;
  costs_.assign(num_members, 0);
  rows_.assign(num_members * words_, 0);
}

// Greedy weighted hitting set: repeatedly pick the member covering the most
// uncovered cycles per unit cost. Members are scanned in ascending index
// order and only a strictly better ratio replaces the pick, so ties go to
// the lowest index.
void VertexCutSolver::Greedy() {
  result_.members.clear();
  result_.total_cost = 0;
  result_.exact = false;
  uncovered_.assign(words_, ~std::uint64_t{0});
  if (num_cycles_ % 64 != 0) {
    uncovered_.back() = (std::uint64_t{1} << (num_cycles_ % 64)) - 1;
  }
  for (;;) {
    std::size_t best = SIZE_MAX;
    double best_ratio = -1.0;
    for (std::size_t m = 0; m < num_members_; ++m) {
      const std::uint64_t* row = Row(m);
      std::size_t gain = 0;
      for (std::size_t w = 0; w < words_; ++w) {
        gain += static_cast<std::size_t>(std::popcount(row[w] & uncovered_[w]));
      }
      if (gain == 0) continue;
      const double denom = static_cast<double>(costs_[m]) + 1.0;
      const double ratio = static_cast<double>(gain) / denom;
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = m;
      }
    }
    // Done when every cycle is cut, or when the uncovered ones have no
    // member at all (an empty cycle).
    if (best == SIZE_MAX) break;
    result_.members.push_back(best);
    result_.total_cost += costs_[best];
    const std::uint64_t* row = Row(best);
    for (std::size_t w = 0; w < words_; ++w) uncovered_[w] &= ~row[w];
  }
  std::sort(result_.members.begin(), result_.members.end());
}

// Exact branch and bound on the first cycle the current choice leaves open.
void VertexCutSolver::Branch(std::size_t depth, std::uint64_t cost_so_far) {
  if (cost_so_far >= best_cost_) return;
  const std::uint64_t* hit = hits_.data() + depth * words_;
  std::size_t open = num_cycles_;
  for (std::size_t w = 0; w < words_; ++w) {
    if (~hit[w] != 0) {
      open = w * 64 + static_cast<std::size_t>(std::countr_zero(~hit[w]));
      break;
    }
  }
  if (open >= num_cycles_) {
    best_cost_ = cost_so_far;
    result_.members.assign(chosen_.begin(), chosen_.end());
    return;
  }
  const std::size_t open_word = open / 64;
  const std::uint64_t open_bit = std::uint64_t{1} << (open % 64);
  std::uint64_t* child = hits_.data() + (depth + 1) * words_;
  for (std::size_t m = 0; m < num_members_; ++m) {
    const std::uint64_t* row = Row(m);
    if ((row[open_word] & open_bit) == 0) continue;
    for (std::size_t w = 0; w < words_; ++w) child[w] = hit[w] | row[w];
    chosen_.push_back(m);
    Branch(depth + 1, cost_so_far + costs_[m]);
    chosen_.pop_back();
  }
}

const VertexCutResult& VertexCutSolver::Solve(std::size_t exact_limit) {
  if (num_cycles_ == 0) {
    result_.members.clear();
    result_.total_cost = 0;
    result_.exact = true;
    return result_;
  }
  std::size_t distinct = 0;
  for (std::size_t m = 0; m < num_members_; ++m) {
    const std::uint64_t* row = Row(m);
    distinct += std::any_of(row, row + words_,
                            [](std::uint64_t w) { return w != 0; });
  }

  // Seed the bound with the greedy solution, then branch.
  Greedy();
  if (distinct > exact_limit) return result_;
  best_cost_ = result_.members.empty() ? kInf : result_.total_cost;
  // Each depth cuts at least one more cycle with one more member, so the
  // search is at most min(members, cycles) deep; one spare level holds the
  // child mask of the deepest node. Bits past num_cycles_ in the last word
  // start set, so they never read as an open cycle.
  const std::size_t max_depth = std::min(num_members_, num_cycles_);
  hits_.assign((max_depth + 2) * words_, 0);
  if (num_cycles_ % 64 != 0) {
    hits_[words_ - 1] = ~((std::uint64_t{1} << (num_cycles_ % 64)) - 1);
  }
  chosen_.clear();
  Branch(0, 0);
  std::sort(result_.members.begin(), result_.members.end());
  result_.total_cost = best_cost_ == kInf ? 0 : best_cost_;
  result_.exact = true;
  return result_;
}

VertexCutResult SolveVertexCut(
    const std::vector<std::vector<std::size_t>>& cycles,
    const std::vector<std::uint64_t>& costs, std::size_t exact_limit) {
  VertexCutSolver solver;
  solver.Reset(costs.size(), cycles.size());
  for (std::size_t m = 0; m < costs.size(); ++m) solver.SetCost(m, costs[m]);
  for (std::size_t c = 0; c < cycles.size(); ++c) {
    for (std::size_t m : cycles[c]) {
      assert(m < costs.size());
      solver.Add(m, c);
    }
  }
  return solver.Solve(exact_limit);
}

}  // namespace pardb::core
