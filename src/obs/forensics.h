#ifndef PARDB_OBS_FORENSICS_H_
#define PARDB_OBS_FORENSICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace pardb::obs {

// One transaction on a detected cycle, with the paper's §3.1 cost model:
// cost = current state index minus the rollback target's state index.
struct DeadlockParticipant {
  TxnId txn;
  Timestamp entry = 0;  // ω-order position (Theorem 2's total order)
  std::uint64_t cost = 0;        // what its rollback strategy would pay
  std::uint64_t ideal_cost = 0;  // what exact restoration would pay
  LockIndex target = 0;          // lock state a rollback would restore
  LockIndex ideal_target = 0;    // latest lock state clearing the conflicts
  bool is_requester = false;
  bool is_victim = false;
};

// One waits-for arc on the cycle: `waiter` waits for `holder` because of
// `entity`.
struct WaitsForArc {
  TxnId waiter;
  TxnId holder;
  EntityId entity;
};

// Everything known about one detected deadlock at resolution time: the
// engine's one record per resolved deadlock, behind the DOT dump, the
// /debug/deadlocks ring and every figure reproduction. The first cycle's
// holders and entities are arcs[i].holder and arcs[i].entity.
struct DeadlockDump {
  std::uint64_t step = 0;  // engine step at detection
  TxnId requester;
  EntityId requested_entity;
  std::size_t num_cycles = 0;        // simple cycles through the requester
  std::vector<WaitsForArc> arcs;     // arcs of the first cycle found
  std::vector<DeadlockParticipant> participants;  // §3.1 candidates
  std::vector<TxnId> victims;        // chosen set (vertex cuts: several)
  std::string policy;                // victim policy name
};

// Summed over the victims (participants with is_victim): what their
// rollbacks pay, and what exact restoration would pay.
std::uint64_t VictimCost(const DeadlockDump& dump);
std::uint64_t VictimIdealCost(const DeadlockDump& dump);

// Renders the dump as Graphviz DOT: cycle members as nodes annotated with
// ω-order and rollback costs, victims filled red, the requester boxed, and
// waits-for arcs labeled with the contended entity. Deterministic output.
std::string DeadlockDumpToDot(const DeadlockDump& dump);

// Receiver for forensic dumps; the engine calls OnDeadlock once per
// resolved deadlock when a sink is installed.
class DeadlockDumpSink {
 public:
  virtual ~DeadlockDumpSink() = default;
  virtual void OnDeadlock(const DeadlockDump& dump) = 0;
};

// Keeps the first `max_dumps` dumps in memory (tests, report assembly,
// figure reproductions; kUnbounded keeps every dump).
class CollectingDeadlockSink final : public DeadlockDumpSink {
 public:
  static constexpr std::size_t kUnbounded = ~std::size_t{0};

  explicit CollectingDeadlockSink(std::size_t max_dumps = 256)
      : max_dumps_(max_dumps) {}

  void OnDeadlock(const DeadlockDump& dump) override;

  const std::vector<DeadlockDump>& dumps() const { return dumps_; }
  std::uint64_t total_seen() const { return total_seen_; }

 private:
  std::size_t max_dumps_;
  std::vector<DeadlockDump> dumps_;
  std::uint64_t total_seen_ = 0;
};

// Forwards each dump to two sinks (either may be null). The engine accepts
// a single sink; drivers that feed both a collecting sink and the live
// hub's ring install one of these.
class FanOutDeadlockSink final : public DeadlockDumpSink {
 public:
  FanOutDeadlockSink() = default;
  FanOutDeadlockSink(DeadlockDumpSink* first, DeadlockDumpSink* second)
      : first_(first), second_(second) {}

  void set_first(DeadlockDumpSink* s) { first_ = s; }
  void set_second(DeadlockDumpSink* s) { second_ = s; }

  void OnDeadlock(const DeadlockDump& dump) override {
    if (first_ != nullptr) first_->OnDeadlock(dump);
    if (second_ != nullptr) second_->OnDeadlock(dump);
  }

 private:
  DeadlockDumpSink* first_ = nullptr;
  DeadlockDumpSink* second_ = nullptr;
};

// Writes each dump as DOT to `<prefix><n>.dot` (n counts from 0), up to
// `max_files` files.
class DotFileDeadlockSink final : public DeadlockDumpSink {
 public:
  explicit DotFileDeadlockSink(std::string prefix, std::size_t max_files = 64)
      : prefix_(std::move(prefix)), max_files_(max_files) {}

  void OnDeadlock(const DeadlockDump& dump) override;

  std::size_t files_written() const { return next_; }

 private:
  std::string prefix_;
  std::size_t max_files_;
  std::size_t next_ = 0;
};

}  // namespace pardb::obs

#endif  // PARDB_OBS_FORENSICS_H_
