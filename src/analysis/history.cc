#include "analysis/history.h"

#include <algorithm>
#include <cassert>

#include "analysis/global_history.h"

namespace pardb::analysis {

void HistoryRecorder::OnBegin(TxnId txn, Timestamp entry) {
  active_[txn] = CommittedTxn{txn, entry, {}};
}

void HistoryRecorder::OnRead(TxnId txn, EntityId entity, std::uint64_t version,
                             StateIndex state) {
  auto it = active_.find(txn);
  if (it == active_.end()) return;
  it->second.events.push_back(AccessEvent{entity, version, state, false});
}

void HistoryRecorder::OnPublish(TxnId txn, EntityId entity,
                                std::uint64_t version, StateIndex state) {
  auto it = active_.find(txn);
  if (it == active_.end()) return;
  it->second.events.push_back(AccessEvent{entity, version, state, true});
}

void HistoryRecorder::OnRollback(TxnId txn, StateIndex target_state) {
  auto it = active_.find(txn);
  if (it == active_.end()) return;
  auto& events = it->second.events;
  // Publishes cannot be rolled back (two-phase rule); only reads are
  // dropped.
  events.erase(std::remove_if(events.begin(), events.end(),
                              [target_state](const AccessEvent& e) {
                                assert(!e.is_write ||
                                       e.state < target_state);
                                return e.state >= target_state;
                              }),
               events.end());
}

void HistoryRecorder::OnCommit(TxnId txn) {
  auto it = active_.find(txn);
  if (it == active_.end()) return;
  committed_.push_back(std::move(it->second));
  active_.erase(it);
}

GlobalHistory HistoryRecorder::Keyed() const {
  GlobalHistory keyed;
  for (const CommittedTxn& c : committed_) keyed.Add(c.txn.value(), c.events);
  return keyed;
}

bool HistoryRecorder::IsConflictSerializable() const {
  return Keyed().IsConflictSerializable();
}

std::vector<TxnId> HistoryRecorder::WitnessCycle() const {
  std::vector<TxnId> out;
  for (std::uint64_t key : Keyed().WitnessCycle()) out.push_back(TxnId(key));
  return out;
}

Result<std::vector<TxnId>> HistoryRecorder::SerialOrder() const {
  const GlobalHistory keyed = Keyed();
  const std::vector<std::uint64_t> order = keyed.SerialOrder();
  if (order.size() != keyed.size()) {
    return Status::FailedPrecondition(
        "history is not conflict-serializable; no serial order exists");
  }
  std::vector<TxnId> out;
  for (std::uint64_t key : order) out.push_back(TxnId(key));
  return out;
}

}  // namespace pardb::analysis
