#ifndef PARDB_ANALYSIS_HISTORY_H_
#define PARDB_ANALYSIS_HISTORY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"

namespace pardb::analysis {

class GlobalHistory;

// One read or publish performed by a transaction. `state` is the
// transaction's state index (program counter) at the time, so a partial
// rollback can erase exactly the undone suffix.
struct AccessEvent {
  EntityId entity;
  std::uint64_t version;  // version read, or the new version published
  StateIndex state;
  bool is_write;
};

// Records the interleaved execution produced by an Engine and checks the
// committed projection for conflict-serializability. The paper (§2) claims
// rollbacks never interfere with the serializability guarantee of two-phase
// locking; the property tests assert it on every random run.
class HistoryRecorder {
 public:
  HistoryRecorder() = default;

  HistoryRecorder(const HistoryRecorder&) = delete;
  HistoryRecorder& operator=(const HistoryRecorder&) = delete;

  void OnBegin(TxnId txn, Timestamp entry);
  // Read of `version` of `entity` (the current global version; local
  // copies always mirror some global version plus own writes).
  void OnRead(TxnId txn, EntityId entity, std::uint64_t version,
              StateIndex state);
  // Publish of a new global version at unlock/commit time.
  void OnPublish(TxnId txn, EntityId entity, std::uint64_t version,
                 StateIndex state);
  // Partial (or total) rollback: erase the transaction's events with state
  // index >= `target_state`. Publishes are never erased — a two-phase
  // transaction cannot be rolled back after its first unlock.
  void OnRollback(TxnId txn, StateIndex target_state);
  void OnCommit(TxnId txn);

  std::size_t committed_count() const { return committed_.size(); }

  // One committed transaction's access log.
  struct CommittedTxn {
    TxnId txn;
    Timestamp entry = 0;
    std::vector<AccessEvent> events;
  };
  // The committed projection in commit order, read in place by checks that
  // merge several recorders (par::CheckShardedSerializability).
  const std::vector<CommittedTxn>& committed() const { return committed_; }

  // True iff the committed projection is conflict-serializable: no version
  // published twice and an acyclic precedence graph.
  bool IsConflictSerializable() const;

  // A witness cycle of transaction ids when the precedence graph is
  // cyclic; empty otherwise.
  std::vector<TxnId> WitnessCycle() const;

  // A serial order consistent with the precedence graph (topological
  // order, smallest id first), when one exists.
  Result<std::vector<TxnId>> SerialOrder() const;

 private:
  // The committed projection keyed by txn id.
  GlobalHistory Keyed() const;

  std::unordered_map<TxnId, CommittedTxn> active_;
  // Append-only commit log (commit order, not txn order): OnCommit sits on
  // every transaction's completion path, so it must not pay a tree insert.
  // Readers sort on demand.
  std::vector<CommittedTxn> committed_;
};

}  // namespace pardb::analysis

#endif  // PARDB_ANALYSIS_HISTORY_H_
