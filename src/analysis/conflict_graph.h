#ifndef PARDB_ANALYSIS_CONFLICT_GRAPH_H_
#define PARDB_ANALYSIS_CONFLICT_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pardb::analysis {

// One access of a committed projection: dense vertex `vertex` read or
// published `version` of `entity`.
struct Access {
  std::uint64_t entity;
  std::uint64_t version;
  std::uint32_t vertex;
  bool is_write;
};

// The conflict-precedence graph of a committed projection over dense
// vertices [0, num_vertices), in CSR form: the one serializability kernel
// (DESIGN D21). Arcs are not deduplicated; no verdict or walk needs it.
class ConflictGraph {
 public:
  ConflictGraph(std::uint32_t num_vertices,
                const std::vector<Access>& accesses);

  // True when two distinct vertices published the same (entity, version);
  // no serial history over one database explains that.
  bool divergence() const { return divergence_; }

  // True iff there is no divergence and the graph is acyclic.
  bool Serializable() const;

  // One cycle's vertices in DFS stack order, empty when acyclic. Roots and
  // neighbours are visited in ascending order.
  std::vector<std::uint32_t> WitnessCycle() const;

  // Topological order taking the smallest ready vertex first; shorter than
  // num_vertices exactly when the graph is cyclic.
  std::vector<std::uint32_t> SmallestFirstOrder() const;

 private:
  std::uint32_t num_vertices_;
  std::vector<std::size_t> offsets_;  // CSR row starts, num_vertices_ + 1
  std::vector<std::uint32_t> targets_;
  bool divergence_ = false;
};

}  // namespace pardb::analysis

#endif  // PARDB_ANALYSIS_CONFLICT_GRAPH_H_
