#ifndef PARDB_CORE_VERTEX_CUT_H_
#define PARDB_CORE_VERTEX_CUT_H_

#include <cstdint>
#include <vector>

namespace pardb::core {

// Minimum-cost vertex cut-set for deadlock removal with shared locks
// (paper §3.2): given the cycles closed by one wait — all of which pass
// through the requesting transaction — find a set of member transactions
// whose combined rollback cost is minimal and whose removal breaks every
// cycle. The general problem is NP-complete (related to feedback vertex
// set); the instances here are small (cycles through one vertex), so an
// exact branch-and-bound is practical, with a greedy fallback beyond
// `exact_limit` distinct members.
//
// Members are indices into the caller's candidate array; the requester
// should be passed as a member of every cycle so the solver can weigh
// "roll back the requester" against multi-victim cuts.
struct VertexCutResult {
  std::vector<std::size_t> members;  // chosen member indices, ascending
  std::uint64_t total_cost = 0;
  bool exact = true;  // false when the greedy fallback was used
};

// Solves over a cycle-incidence matrix: row m is the bitset of the cycles
// member m lies on, one 64-bit word per 64 cycles. The greedy pass scores
// a member by popcount(row & uncovered); branch and bound takes the first
// open cycle as the lowest bit its hit mask lacks and tries that cycle's
// members in ascending index order. Buffers keep their capacity across
// instances, so a warm solver allocates nothing.
class VertexCutSolver {
 public:
  // Starts an instance of `num_members` members (cost 0, on no cycle) and
  // `num_cycles` cycles.
  void Reset(std::size_t num_members, std::size_t num_cycles);
  void SetCost(std::size_t member, std::uint64_t cost) {
    costs_[member] = cost;
  }
  // Marks `member` as lying on `cycle`; idempotent.
  void Add(std::size_t member, std::size_t cycle) {
    rows_[member * words_ + cycle / 64] |= std::uint64_t{1} << (cycle % 64);
  }
  // Cut of the instance built since Reset; valid until the next Reset.
  const VertexCutResult& Solve(std::size_t exact_limit);

 private:
  const std::uint64_t* Row(std::size_t m) const {
    return rows_.data() + m * words_;
  }
  void Greedy();
  void Branch(std::size_t depth, std::uint64_t cost_so_far);

  std::size_t num_members_ = 0;
  std::size_t num_cycles_ = 0;
  std::size_t words_ = 0;  // words per row: ceil(num_cycles / 64)
  std::vector<std::uint64_t> costs_;
  std::vector<std::uint64_t> rows_;       // num_members_ rows of words_
  std::vector<std::uint64_t> uncovered_;  // greedy: cycles not yet cut
  // Branch and bound: the hit mask of each depth (depth d at d * words_),
  // the members chosen along the current path, and the best cut so far.
  std::vector<std::uint64_t> hits_;
  std::vector<std::size_t> chosen_;
  std::uint64_t best_cost_ = 0;
  VertexCutResult result_;
};

// One-shot form for callers holding member lists (tests, benches):
// `cycles[i]` lists the member indices on cycle i; `costs[m]` is member
// m's rollback cost.
VertexCutResult SolveVertexCut(
    const std::vector<std::vector<std::size_t>>& cycles,
    const std::vector<std::uint64_t>& costs, std::size_t exact_limit = 24);

}  // namespace pardb::core

#endif  // PARDB_CORE_VERTEX_CUT_H_
