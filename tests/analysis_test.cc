#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "analysis/history.h"

namespace pardb::analysis {
namespace {

const TxnId kT1(1), kT2(2), kT3(3);
const EntityId kA(10), kB(11);

TEST(HistoryTest, EmptyHistorySerializable) {
  HistoryRecorder h;
  EXPECT_TRUE(h.IsConflictSerializable());
  EXPECT_TRUE(h.WitnessCycle().empty());
  EXPECT_TRUE(h.SerialOrder().ok());
}

TEST(HistoryTest, SingleWriterSerializable) {
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnRead(kT1, kA, 0, 1);
  h.OnPublish(kT1, kA, 1, 3);
  h.OnCommit(kT1);
  EXPECT_TRUE(h.IsConflictSerializable());
  auto order = h.SerialOrder();
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order.value(), std::vector<TxnId>{kT1});
}

TEST(HistoryTest, WriteWriteOrderRespected) {
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnPublish(kT1, kA, 1, 2);
  h.OnPublish(kT2, kA, 2, 2);
  h.OnCommit(kT1);
  h.OnCommit(kT2);
  EXPECT_TRUE(h.IsConflictSerializable());
  auto order = h.SerialOrder();
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order.value(), (std::vector<TxnId>{kT1, kT2}));
}

TEST(HistoryTest, ClassicNonSerializableCycleDetected) {
  // T1 reads A(v0) then publishes B; T2 reads B(v0) then publishes A.
  // r1(A) w2(A) and r2(B) w1(B): T1 < T2 (A) and T2 < T1 (B): cycle.
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnRead(kT1, kA, 0, 1);
  h.OnRead(kT2, kB, 0, 1);
  h.OnPublish(kT2, kA, 1, 3);
  h.OnPublish(kT1, kB, 1, 3);
  h.OnCommit(kT1);
  h.OnCommit(kT2);
  EXPECT_FALSE(h.IsConflictSerializable());
  auto cycle = h.WitnessCycle();
  EXPECT_GE(cycle.size(), 2u);
  EXPECT_FALSE(h.SerialOrder().ok());
}

TEST(HistoryTest, ReadersOrderAgainstLaterWriters) {
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnRead(kT2, kA, 0, 1);      // reads initial version
  h.OnPublish(kT1, kA, 1, 2);   // later writer
  h.OnCommit(kT1);
  h.OnCommit(kT2);
  auto order = h.SerialOrder();
  ASSERT_TRUE(order.ok());
  // T2 read the pre-T1 version, so T2 must precede T1.
  EXPECT_EQ(order.value(), (std::vector<TxnId>{kT2, kT1}));
}

TEST(HistoryTest, ReaderAfterWriterOrdersForward) {
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnPublish(kT1, kA, 1, 2);
  h.OnRead(kT2, kA, 1, 1);  // reads T1's version
  h.OnCommit(kT1);
  h.OnCommit(kT2);
  auto order = h.SerialOrder();
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order.value(), (std::vector<TxnId>{kT1, kT2}));
}

TEST(HistoryTest, RollbackErasesUndoneReads) {
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  // T1 reads A's initial version at state 5, then is rolled back to state
  // 2: the read never happened.
  h.OnRead(kT1, kA, 0, 5);
  h.OnRollback(kT1, 2);
  h.OnPublish(kT2, kA, 1, 1);
  h.OnCommit(kT2);
  // T1 re-executes and reads T2's version.
  h.OnRead(kT1, kA, 1, 5);
  h.OnPublish(kT1, kB, 1, 7);
  h.OnCommit(kT1);
  EXPECT_TRUE(h.IsConflictSerializable());
  auto order = h.SerialOrder();
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order.value(), (std::vector<TxnId>{kT2, kT1}));
}

TEST(HistoryTest, UncommittedTransactionsExcluded) {
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnRead(kT1, kA, 0, 1);
  h.OnRead(kT2, kB, 0, 1);
  h.OnPublish(kT2, kA, 1, 3);
  h.OnPublish(kT1, kB, 1, 3);
  h.OnCommit(kT1);
  // T2 never commits: the committed projection is the single T1.
  EXPECT_TRUE(h.IsConflictSerializable());
  EXPECT_EQ(h.committed_count(), 1u);
}

TEST(HistoryTest, ThreeTxnCycle) {
  HistoryRecorder h;
  const EntityId kC(12);
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnBegin(kT3, 2);
  h.OnRead(kT1, kA, 0, 1);
  h.OnPublish(kT2, kA, 1, 2);  // T1 < T2
  h.OnRead(kT2, kB, 0, 1);
  h.OnPublish(kT3, kB, 1, 2);  // T2 < T3
  h.OnRead(kT3, kC, 0, 1);
  h.OnPublish(kT1, kC, 1, 2);  // T3 < T1
  h.OnCommit(kT1);
  h.OnCommit(kT2);
  h.OnCommit(kT3);
  EXPECT_FALSE(h.IsConflictSerializable());
  // Pinned visit order: the DFS walks ids ascending, neighbours ascending.
  EXPECT_EQ(h.WitnessCycle(), (std::vector<TxnId>{kT1, kT2, kT3}));
}

TEST(HistoryTest, WitnessTakesTheSmallestNeighbourFirst) {
  // T1 sits on two cycles, T1 <-> T2 and T1 <-> T3. The DFS leaves T1 for
  // its smallest neighbour first, so the witness is {T1, T2} whatever the
  // commit order.
  HistoryRecorder h;
  const EntityId kC(12), kD(13);
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnBegin(kT3, 2);
  h.OnRead(kT1, kA, 0, 1);
  h.OnPublish(kT2, kA, 1, 2);  // T1 < T2
  h.OnRead(kT2, kB, 0, 1);
  h.OnPublish(kT1, kB, 1, 2);  // T2 < T1
  h.OnRead(kT1, kC, 0, 1);
  h.OnPublish(kT3, kC, 1, 2);  // T1 < T3
  h.OnRead(kT3, kD, 0, 1);
  h.OnPublish(kT1, kD, 1, 2);  // T3 < T1
  h.OnCommit(kT3);
  h.OnCommit(kT2);
  h.OnCommit(kT1);
  EXPECT_EQ(h.WitnessCycle(), (std::vector<TxnId>{kT1, kT2}));
}

TEST(HistoryTest, SerialOrderTakesTheSmallestReadyIdFirst) {
  // Only T1 < T2 is forced; T3 is free. Smallest ready id first gives
  // T1, T2, T3 whatever the commit order.
  HistoryRecorder h;
  const EntityId kC(12);
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnBegin(kT3, 2);
  h.OnPublish(kT3, kC, 1, 1);
  h.OnPublish(kT1, kA, 1, 1);
  h.OnRead(kT2, kA, 1, 1);
  h.OnCommit(kT3);
  h.OnCommit(kT2);
  h.OnCommit(kT1);
  auto order = h.SerialOrder();
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order.value(), (std::vector<TxnId>{kT1, kT2, kT3}));
}

TEST(HistoryTest, SparseEntityIdsAreCheckedLikeDenseOnes) {
  // Entity ids far beyond the history's size take the kernel's ranked
  // path instead of indexing groups directly; verdicts must not change.
  for (const std::uint64_t base : {std::uint64_t{10}, std::uint64_t{1} << 40}) {
    HistoryRecorder h;
    const EntityId x(base), y(base + 7);
    h.OnBegin(kT1, 0);
    h.OnBegin(kT2, 1);
    h.OnRead(kT1, x, 0, 1);
    h.OnRead(kT2, y, 0, 1);
    h.OnPublish(kT2, x, 1, 2);  // T1 < T2
    h.OnPublish(kT1, y, 1, 2);  // T2 < T1
    h.OnCommit(kT1);
    h.OnCommit(kT2);
    EXPECT_FALSE(h.IsConflictSerializable()) << base;
    EXPECT_EQ(h.WitnessCycle(), (std::vector<TxnId>{kT1, kT2})) << base;
  }
}

// ---------------------------------------------------------------------------
// An oracle for the oracle: the dense kernel against a brute-force checker
// ---------------------------------------------------------------------------

// A transaction's surviving events, mirrored outside the recorder.
struct RefTxn {
  TxnId id;
  bool commits = false;  // only committing transactions publish
  StateIndex state = 0;
  StateIndex last_publish = 0;  // state after the latest publish
  std::vector<AccessEvent> events;
};

// Direct precedence over committed transactions, from every conflicting
// pair of accesses ordered by version: w(v) before w(v') when v < v', w(v)
// before r(u) when v <= u, r(u) before w(v) when u < v.
using Relation = std::vector<std::vector<bool>>;

Relation DirectPrecedence(const std::vector<const RefTxn*>& c) {
  Relation arc(c.size(), std::vector<bool>(c.size(), false));
  for (std::size_t i = 0; i < c.size(); ++i) {
    for (std::size_t j = 0; j < c.size(); ++j) {
      if (i == j) continue;
      for (const AccessEvent& a : c[i]->events) {
        if (!a.is_write) continue;
        for (const AccessEvent& b : c[j]->events) {
          if (a.entity != b.entity) continue;
          if (b.is_write ? a.version < b.version : a.version <= b.version) {
            arc[i][j] = true;
          } else if (!b.is_write || a.version > b.version) {
            arc[j][i] = true;
          }
        }
      }
    }
  }
  return arc;
}

bool Diverges(const std::vector<const RefTxn*>& c) {
  for (std::size_t i = 0; i < c.size(); ++i) {
    for (std::size_t j = i + 1; j < c.size(); ++j) {
      for (const AccessEvent& a : c[i]->events) {
        for (const AccessEvent& b : c[j]->events) {
          if (a.is_write && b.is_write && a.entity == b.entity &&
              a.version == b.version) {
            return true;
          }
        }
      }
    }
  }
  return false;
}

bool BruteForceSerializable(const std::vector<const RefTxn*>& c) {
  if (Diverges(c)) return false;
  Relation reach = DirectPrecedence(c);
  for (std::size_t k = 0; k < c.size(); ++k) {
    for (std::size_t i = 0; i < c.size(); ++i) {
      for (std::size_t j = 0; j < c.size(); ++j) {
        if (reach[i][k] && reach[k][j]) reach[i][j] = true;
      }
    }
  }
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (reach[i][i]) return false;
  }
  return true;
}

TEST(HistoryOracleTest, VerdictMatchesBruteForceOnRandomHistories) {
  std::mt19937_64 rng(20261020);
  auto Pick = [&rng](std::uint64_t n) { return rng() % n; };
  int serializable = 0, cyclic = 0, divergent = 0, rolled_back_reads = 0;
  for (int trial = 0; trial < 2500; ++trial) {
    const std::size_t num_txns = 1 + Pick(8);
    const std::uint64_t num_entities = 1 + Pick(4);
    std::vector<std::uint64_t> current(num_entities, 0);  // store versions
    std::vector<RefTxn> txns(num_txns);
    HistoryRecorder h;
    for (std::size_t t = 0; t < num_txns; ++t) {
      txns[t].id = TxnId(100 + Pick(1000) * 8 + t);  // distinct, unordered
      txns[t].commits = Pick(5) != 0;
      h.OnBegin(txns[t].id, t);
    }
    const std::size_t num_ops = 2 + Pick(3 * num_txns + 6);
    for (std::size_t k = 0; k < num_ops; ++k) {
      RefTxn& t = txns[Pick(num_txns)];
      const EntityId e(Pick(num_entities));
      const std::uint64_t op = Pick(20);
      if (op < 10) {  // read the current version
        h.OnRead(t.id, e, current[e.value()], t.state);
        t.events.push_back(AccessEvent{e, current[e.value()], t.state, false});
        ++t.state;
      } else if (op < 16 && t.commits) {  // publish the next version
        const std::uint64_t v = ++current[e.value()];
        h.OnPublish(t.id, e, v, t.state);
        t.events.push_back(AccessEvent{e, v, t.state, true});
        t.last_publish = ++t.state;
      } else if (op < 17 && t.commits && current[e.value()] > 0) {
        // Publish an existing version again: a store that did this (or two
        // replicas of one entity) has no serial explanation.
        const std::uint64_t v = current[e.value()];
        h.OnPublish(t.id, e, v, t.state);
        t.events.push_back(AccessEvent{e, v, t.state, true});
        t.last_publish = ++t.state;
      } else if (t.state > t.last_publish) {  // roll back reads only
        const StateIndex target =
            t.last_publish + Pick(t.state - t.last_publish + 1);
        h.OnRollback(t.id, target);
        const std::size_t before = t.events.size();
        t.events.erase(std::remove_if(t.events.begin(), t.events.end(),
                                      [target](const AccessEvent& ev) {
                                        return ev.state >= target;
                                      }),
                       t.events.end());
        if (t.events.size() < before) ++rolled_back_reads;
        t.state = target;
      }
    }
    std::vector<const RefTxn*> committed;
    for (const RefTxn& r : txns) {
      if (r.commits) committed.push_back(&r);
    }
    std::shuffle(committed.begin(), committed.end(), rng);  // commit order
    for (const RefTxn* r : committed) h.OnCommit(r->id);
    std::sort(committed.begin(), committed.end(),
              [](const RefTxn* a, const RefTxn* b) { return a->id < b->id; });

    const bool expected = BruteForceSerializable(committed);
    std::string dump;
    for (const RefTxn* r : committed) {
      dump += "\n" + std::to_string(r->id.value()) + ":";
      for (const AccessEvent& ev : r->events) {
        dump += std::string(ev.is_write ? " w" : " r") +
                std::to_string(ev.entity.value()) + "." +
                std::to_string(ev.version);
      }
    }
    ASSERT_EQ(h.IsConflictSerializable(), expected)
        << "trial " << trial << dump;
    const auto order = h.SerialOrder();
    ASSERT_EQ(order.ok(), expected) << "trial " << trial;
    const Relation arc = DirectPrecedence(committed);
    auto IndexOf = [&committed](TxnId id) {
      for (std::size_t i = 0; i < committed.size(); ++i) {
        if (committed[i]->id == id) return i;
      }
      ADD_FAILURE() << "unknown txn " << id;
      return std::size_t{0};
    };
    if (expected) {
      ++serializable;
      // The serial order respects every conflict.
      ASSERT_EQ(order->size(), committed.size());
      std::vector<std::size_t> pos(committed.size());
      for (std::size_t p = 0; p < order->size(); ++p) {
        pos[IndexOf((*order)[p])] = p;
      }
      for (std::size_t i = 0; i < committed.size(); ++i) {
        for (std::size_t j = 0; j < committed.size(); ++j) {
          if (arc[i][j]) {
            ASSERT_LT(pos[i], pos[j]) << "trial " << trial;
          }
        }
      }
      EXPECT_TRUE(h.WitnessCycle().empty());
      continue;
    }
    if (Diverges(committed)) {
      ++divergent;
      continue;
    }
    ++cyclic;
    // The witness is a cycle of the brute-force relation.
    const std::vector<TxnId> cycle = h.WitnessCycle();
    ASSERT_GE(cycle.size(), 2u) << "trial " << trial;
    for (std::size_t k = 0; k < cycle.size(); ++k) {
      const std::size_t from = IndexOf(cycle[k]);
      const std::size_t to = IndexOf(cycle[(k + 1) % cycle.size()]);
      ASSERT_TRUE(arc[from][to]) << "trial " << trial << " arc " << k;
    }
  }
  // Every branch of the generator was exercised.
  EXPECT_GT(serializable, 200);
  EXPECT_GT(cyclic, 200);
  EXPECT_GT(divergent, 50);
  EXPECT_GT(rolled_back_reads, 200);
}

}  // namespace
}  // namespace pardb::analysis
