#ifndef PARDB_ANALYSIS_GLOBAL_HISTORY_H_
#define PARDB_ANALYSIS_GLOBAL_HISTORY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "analysis/conflict_graph.h"
#include "analysis/history.h"
#include "common/types.h"

namespace pardb::analysis {

// Conflict-serializability of a keyed committed projection, a thin adapter
// over ConflictGraph: everything Added under one key is one vertex.
// HistoryRecorder keys by txn id; par::CheckShardedSerializability keys a
// local transaction as LocalKey(shard, txn) and every slice of global `seq`
// as GlobalKey(seq), so slices fuse. Merged, a cycle may close only across
// shards, and two engines publishing one (entity, version) is replica
// divergence (the hole D12 closed).
class GlobalHistory {
 public:
  // Key for a transaction local to one shard.
  static std::uint64_t LocalKey(std::uint32_t shard, TxnId txn) {
    return (1ull << 63) | (static_cast<std::uint64_t>(shard) << 48) |
           txn.value();
  }
  // Key shared by every slice of cross-shard transaction `seq`.
  static std::uint64_t GlobalKey(std::uint64_t seq) { return seq; }

  // Appends `events` to the transaction `key`'s log. Slices of one global
  // transaction Add under the same key (their entity sets are disjoint,
  // so order between shards does not matter).
  void Add(std::uint64_t key, const std::vector<AccessEvent>& events);

  // True iff no two keys published the same (entity, version) and the
  // conflict graph is acyclic.
  bool IsConflictSerializable() const { return Graph().Serializable(); }

  // True when two keys published the same (entity, version) — divergent
  // per-shard replicas of one entity.
  bool HasReplicaDivergence() const { return Graph().divergence(); }

  // A witness cycle of keys when the conflict graph is cyclic; empty
  // otherwise. The walk visits keys in ascending order.
  std::vector<std::uint64_t> WitnessCycle() const;

  // The keys in a serial order consistent with the conflict graph,
  // smallest ready key first; shorter than size() when none exists.
  std::vector<std::uint64_t> SerialOrder() const;

  std::size_t size() const { return keys_.size(); }

 private:
  ConflictGraph Graph() const {
    return ConflictGraph(static_cast<std::uint32_t>(keys_.size()), accesses_);
  }
  // The graph with vertices renumbered in ascending key order; `sorted`
  // receives the keys in that order.
  ConflictGraph ByKey(std::vector<std::uint64_t>* sorted) const;

  std::unordered_map<std::uint64_t, std::uint32_t> vertex_of_;
  std::vector<std::uint64_t> keys_;  // vertex -> key, in first-Add order
  std::vector<Access> accesses_;
};

}  // namespace pardb::analysis

#endif  // PARDB_ANALYSIS_GLOBAL_HISTORY_H_
