#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/digraph.h"
#include "graph/undirected.h"

namespace pardb::graph {
namespace {

TEST(DigraphTest, AddRemoveVertices) {
  Digraph g;
  g.AddVertex(1);
  g.AddVertex(2);
  g.AddVertex(1);  // idempotent
  EXPECT_EQ(g.VertexCount(), 2u);
  EXPECT_TRUE(g.HasVertex(1));
  g.RemoveVertex(1);
  EXPECT_FALSE(g.HasVertex(1));
  EXPECT_EQ(g.VertexCount(), 1u);
}

TEST(DigraphTest, EdgesWithLabels) {
  Digraph g;
  g.AddEdge(1, 2, 100);
  g.AddEdge(1, 2, 101);  // parallel with a different label
  g.AddEdge(1, 2, 100);  // duplicate ignored
  EXPECT_EQ(g.EdgeCount(), 2u);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(1, 2, 100));
  EXPECT_FALSE(g.HasEdge(2, 1));
  g.RemoveEdge(1, 2, 100);
  EXPECT_EQ(g.EdgeCount(), 1u);
  EXPECT_TRUE(g.HasEdge(1, 2, 101));
  g.RemoveEdgesBetween(1, 2);
  EXPECT_EQ(g.EdgeCount(), 0u);
}

TEST(DigraphTest, RemoveVertexDropsIncidentEdges) {
  Digraph g;
  g.AddEdge(1, 2, 0);
  g.AddEdge(2, 3, 1);
  g.AddEdge(3, 1, 2);
  g.RemoveVertex(2);
  EXPECT_EQ(g.EdgeCount(), 1u);
  EXPECT_TRUE(g.HasEdge(3, 1));
}

TEST(DigraphTest, SetEdgesLabeledEmptyRemovesTheLabel) {
  Digraph g;
  g.AddEdge(1, 2, 7);
  g.AddEdge(2, 3, 7);
  g.AddEdge(3, 4, 8);
  std::vector<std::pair<VertexId, VertexId>> none;
  g.SetEdgesLabeled(7, &none);
  EXPECT_EQ(g.EdgeCount(), 1u);
  EXPECT_TRUE(g.HasEdge(3, 4, 8));
  EXPECT_FALSE(g.HasEdgesLabeled(7));
}

// The delta update must leave exactly the graph that clearing the label
// and re-adding every arc leaves: same arcs, same sorted adjacency, same
// vertices.
TEST(DigraphTest, SetEdgesLabeledMatchesRebuild) {
  pardb::Rng rng(4242);
  Digraph delta;
  for (int step = 0; step < 400; ++step) {
    const EdgeLabel label = rng.Uniform(4);
    std::vector<std::pair<VertexId, VertexId>> arcs;
    const std::size_t n = rng.Uniform(6);
    for (std::size_t i = 0; i < n; ++i) {
      arcs.emplace_back(rng.Uniform(8), rng.Uniform(8));
    }
    std::vector<std::pair<VertexId, VertexId>> copy = arcs;
    // Reference: every other label's arcs, then this label's from scratch.
    Digraph rebuilt;
    for (VertexId v : delta.Vertices()) rebuilt.AddVertex(v);
    for (const Edge& e : delta.Edges()) {
      if (e.label != label) rebuilt.AddEdge(e.from, e.to, e.label);
    }
    for (const auto& [from, to] : copy) rebuilt.AddEdge(from, to, label);

    delta.SetEdgesLabeled(label, &arcs);
    ASSERT_EQ(delta.Edges(), rebuilt.Edges()) << "step " << step;
    ASSERT_EQ(delta.Vertices(), rebuilt.Vertices()) << "step " << step;
    ASSERT_EQ(delta.EdgeCount(), rebuilt.EdgeCount()) << "step " << step;
    for (VertexId v : delta.Vertices()) {
      ASSERT_EQ(delta.Predecessors(v), rebuilt.Predecessors(v));
      ASSERT_EQ(delta.InDegree(v), rebuilt.InDegree(v));
    }
    ASSERT_EQ(delta.HasEdgesLabeled(label), !copy.empty());
  }
}

TEST(DigraphTest, DegreesAndNeighbors) {
  Digraph g;
  g.AddEdge(1, 2, 0);
  g.AddEdge(1, 3, 1);
  g.AddEdge(4, 1, 2);
  EXPECT_EQ(g.OutDegree(1), 2u);
  EXPECT_EQ(g.InDegree(1), 1u);
  auto succ = g.Successors(1);
  EXPECT_EQ(succ, (std::vector<VertexId>{2, 3}));
  auto pred = g.Predecessors(1);
  EXPECT_EQ(pred, (std::vector<VertexId>{4}));
}

TEST(DigraphTest, HasPath) {
  Digraph g;
  g.AddEdge(1, 2, 0);
  g.AddEdge(2, 3, 0);
  g.AddEdge(3, 4, 0);
  EXPECT_TRUE(g.HasPath(1, 4));
  EXPECT_TRUE(g.HasPath(2, 2));
  EXPECT_FALSE(g.HasPath(4, 1));
  EXPECT_FALSE(g.HasPath(1, 99));
}

TEST(DigraphTest, WouldCreateCycle) {
  Digraph g;
  g.AddEdge(1, 2, 0);
  g.AddEdge(2, 3, 0);
  EXPECT_TRUE(g.WouldCreateCycle(3, 1));   // 1->2->3 then 3->1 closes
  EXPECT_FALSE(g.WouldCreateCycle(1, 3));  // parallel path, no cycle
}

TEST(DigraphTest, FindCycleThrough) {
  Digraph g;
  g.AddEdge(1, 2, 10);
  g.AddEdge(2, 3, 11);
  g.AddEdge(3, 1, 12);
  g.AddEdge(3, 4, 13);  // dangling tail
  auto cycle = g.FindCycleThrough(1);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->vertices.size(), 3u);
  EXPECT_TRUE(cycle->Contains(1));
  EXPECT_TRUE(cycle->Contains(2));
  EXPECT_TRUE(cycle->Contains(3));
  EXPECT_FALSE(cycle->Contains(4));
  EXPECT_EQ(cycle->edges.size(), 3u);
  EXPECT_FALSE(g.FindCycleThrough(4).has_value());
}

TEST(DigraphTest, EnumerateMultipleCyclesThroughVertex) {
  // Two cycles through 1: 1->2->1 and 1->2->3->1 (the paper's Figure 3(b)
  // shape).
  Digraph g;
  g.AddEdge(1, 2, 0);
  g.AddEdge(2, 1, 1);
  g.AddEdge(2, 3, 2);
  g.AddEdge(3, 1, 3);
  std::vector<Cycle> cycles;
  std::size_t n = g.EnumerateCyclesThrough(1, 10, [&](const Cycle& c) {
    cycles.push_back(c);
    return true;
  });
  EXPECT_EQ(n, 2u);
  ASSERT_EQ(cycles.size(), 2u);
  std::vector<std::size_t> sizes{cycles[0].vertices.size(),
                                 cycles[1].vertices.size()};
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 3}));
}

TEST(DigraphTest, EnumerateHonorsLimit) {
  Digraph g;
  g.AddEdge(1, 2, 0);
  g.AddEdge(2, 1, 1);
  g.AddEdge(2, 3, 2);
  g.AddEdge(3, 1, 3);
  std::size_t n = g.EnumerateCyclesThrough(1, 1, [](const Cycle&) {
    return true;
  });
  EXPECT_EQ(n, 1u);
}

TEST(DigraphTest, IsAcyclic) {
  Digraph g;
  g.AddEdge(1, 2, 0);
  g.AddEdge(2, 3, 0);
  EXPECT_TRUE(g.IsAcyclic());
  g.AddEdge(3, 1, 0);
  EXPECT_FALSE(g.IsAcyclic());
}

TEST(DigraphTest, ForestProperty) {
  // Theorem 1: X-only deadlock-free graphs are forests of out-trees.
  Digraph g;
  g.AddEdge(1, 2, 0);
  g.AddEdge(1, 3, 1);  // branching out is fine
  g.AddEdge(3, 4, 2);
  EXPECT_TRUE(g.IsForest());
  g.AddEdge(5, 4, 3);  // 4 now has two predecessors: not a forest
  EXPECT_FALSE(g.IsForest());
}

TEST(DigraphTest, CycleBreaksForest) {
  Digraph g;
  g.AddEdge(1, 2, 0);
  g.AddEdge(2, 1, 1);
  EXPECT_FALSE(g.IsForest());
}

TEST(DigraphTest, ToDotMentionsEdges) {
  Digraph g;
  g.AddEdge(1, 2, 5);
  std::string dot = g.ToDot();
  EXPECT_NE(dot.find("\"v1\" -> \"v2\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"5\""), std::string::npos);
}

TEST(DigraphTest, StronglyConnectedComponents) {
  Digraph g;
  // Two cycles {1,2,3} and {5,6}, plus singletons 4 and 7.
  g.AddEdge(1, 2, 0);
  g.AddEdge(2, 3, 0);
  g.AddEdge(3, 1, 0);
  g.AddEdge(3, 4, 0);
  g.AddEdge(5, 6, 0);
  g.AddEdge(6, 5, 0);
  g.AddVertex(7);
  auto sccs = g.StronglyConnectedComponents();
  ASSERT_EQ(sccs.size(), 4u);
  EXPECT_EQ(sccs[0], (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(sccs[1], (std::vector<VertexId>{4}));
  EXPECT_EQ(sccs[2], (std::vector<VertexId>{5, 6}));
  EXPECT_EQ(sccs[3], (std::vector<VertexId>{7}));
  auto cyclic = g.CyclicComponents();
  ASSERT_EQ(cyclic.size(), 2u);
  EXPECT_EQ(cyclic[0], (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(cyclic[1], (std::vector<VertexId>{5, 6}));
}

TEST(DigraphTest, SccAgreesWithAcyclicity) {
  pardb::Rng rng(404);
  for (int trial = 0; trial < 100; ++trial) {
    Digraph g;
    const std::size_t n = 2 + rng.Uniform(8);
    for (std::size_t v = 0; v < n; ++v) g.AddVertex(v);
    const std::size_t edges = rng.Uniform(2 * n);
    for (std::size_t e = 0; e < edges; ++e) {
      g.AddEdge(rng.Uniform(n), rng.Uniform(n), e);
    }
    EXPECT_EQ(g.CyclicComponents().empty(), g.IsAcyclic()) << trial;
  }
}

// Cross-check EnumerateCyclesThrough against brute-force permutation
// search on small random graphs.
TEST(DigraphTest, EnumerationMatchesBruteForce) {
  pardb::Rng rng(777);
  for (int trial = 0; trial < 60; ++trial) {
    Digraph g;
    const std::size_t n = 3 + rng.Uniform(4);  // 3..6 vertices
    for (std::size_t v = 0; v < n; ++v) g.AddVertex(v);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (a != b && rng.Bernoulli(0.3)) g.AddEdge(a, b, a * n + b);
      }
    }
    const VertexId root = 0;
    // Brute force: all simple vertex sequences starting at root that close
    // a cycle, canonicalised as sorted vertex sets with order.
    std::set<std::vector<VertexId>> expected;
    std::vector<VertexId> path{root};
    std::set<VertexId> used{root};
    std::function<void()> Dfs = [&]() {
      VertexId last = path.back();
      for (VertexId next = 0; next < n; ++next) {
        if (!g.HasEdge(last, next)) continue;
        if (next == root) expected.insert(path);
        if (used.count(next)) continue;
        used.insert(next);
        path.push_back(next);
        Dfs();
        path.pop_back();
        used.erase(next);
      }
    };
    Dfs();
    std::set<std::vector<VertexId>> found;
    g.EnumerateCyclesThrough(root, 100000, [&](const Cycle& c) {
      found.insert(c.vertices);
      return true;
    });
    EXPECT_EQ(found, expected) << "trial " << trial;
  }
}

// Reference enumeration: DFS from root over each vertex's out-arcs in
// sorted (target, label) order, entering every vertex not on the path —
// no pruning. Records each closing arc's cycle as (vertices, edges).
std::vector<Cycle> SortedArcDfs(
    const std::map<VertexId, std::set<std::pair<VertexId, EdgeLabel>>>& out,
    VertexId root) {
  std::vector<Cycle> cycles;
  Cycle path;
  path.vertices.push_back(root);
  std::function<void()> Walk = [&]() {
    const VertexId last = path.vertices.back();
    auto it = out.find(last);
    if (it == out.end()) return;
    for (const auto& [to, label] : it->second) {
      if (to == root) {
        Cycle c = path;
        c.edges.push_back(Edge{last, root, label});
        cycles.push_back(std::move(c));
        continue;
      }
      if (path.Contains(to)) continue;
      path.vertices.push_back(to);
      path.edges.push_back(Edge{last, to, label});
      Walk();
      path.vertices.pop_back();
      path.edges.pop_back();
    }
  };
  Walk();
  return cycles;
}

std::vector<Cycle> Enumerate(const Digraph& g, VertexId root,
                             std::size_t limit) {
  std::vector<Cycle> found;
  g.EnumerateCyclesThrough(root, limit, [&](const Cycle& c) {
    found.push_back(c);
    return true;
  });
  return found;
}

void ExpectSameCycles(const std::vector<Cycle>& got,
                      const std::vector<Cycle>& want, const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].vertices, want[i].vertices) << ctx << " cycle " << i;
    EXPECT_EQ(got[i].edges, want[i].edges) << ctx << " cycle " << i;
  }
}

// EnumerationMatchesBruteForce compares cycle sets; this pins the order
// (DFS over sorted arcs) and the cap (`limit` yields exactly a prefix of
// that order), with parallel labels and a large acyclic out-tree below the
// root — the subtrees the reach pruning skips.
TEST(DigraphTest, EnumerationOrderAndCapMatchSortedArcDfs) {
  pardb::Rng rng(9001);
  for (int trial = 0; trial < 80; ++trial) {
    Digraph g;
    std::map<VertexId, std::set<std::pair<VertexId, EdgeLabel>>> out;
    auto Add = [&](VertexId a, VertexId b, EdgeLabel l) {
      g.AddEdge(a, b, l);
      out[a].insert({b, l});
    };
    const std::size_t n = 3 + rng.Uniform(5);  // 3..7 cyclic-core vertices
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (a == b || !rng.Bernoulli(0.35)) continue;
        Add(a, b, rng.Uniform(3));
        if (rng.Bernoulli(0.2)) Add(a, b, 3 + rng.Uniform(3));
      }
    }
    // An out-tree hanging off the core: 100..(100 + tree) never reach back.
    const std::size_t tree = trial % 2 == 0 ? 0 : 60 + rng.Uniform(60);
    for (std::size_t i = 0; i < tree; ++i) {
      const VertexId child = 100 + i;
      const VertexId parent = i < 3 ? rng.Uniform(n) : 100 + rng.Uniform(i);
      Add(parent, child, rng.Uniform(2));
      if (i >= 3 && rng.Bernoulli(0.3)) {  // cross arcs keep it acyclic
        Add(100 + rng.Uniform(i), child, 7);
      }
    }
    const VertexId root = 0;
    const std::vector<Cycle> want = SortedArcDfs(out, root);
    const std::string ctx = "trial " + std::to_string(trial);
    ExpectSameCycles(Enumerate(g, root, 1u << 20), want, ctx);
    for (std::size_t limit = 1; limit <= want.size() + 1; ++limit) {
      const std::size_t keep = std::min(limit, want.size());
      ExpectSameCycles(
          Enumerate(g, root, limit),
          std::vector<Cycle>(want.begin(), want.begin() + keep),
          ctx + " limit " + std::to_string(limit));
    }
    // A callback that stops after k cycles sees exactly the first k.
    if (!want.empty()) {
      const std::size_t k = 1 + rng.Uniform(want.size());
      std::vector<Cycle> got;
      const std::size_t reported =
          g.EnumerateCyclesThrough(root, 1u << 20, [&](const Cycle& c) {
            got.push_back(c);
            return got.size() < k;
          });
      EXPECT_EQ(reported, k) << ctx;
      ExpectSameCycles(got, std::vector<Cycle>(want.begin(), want.begin() + k),
                       ctx + " stop");
    }
  }
}

TEST(DigraphTest, EnumerationFromRootWithoutInOrOutArcsFindsNothing) {
  Digraph g;
  for (VertexId v = 1; v < 50; ++v) g.AddEdge(0, v, v);  // out-star only
  g.AddEdge(60, 61, 0);
  g.AddEdge(61, 62, 0);  // 62 has in-arcs only
  EXPECT_EQ(Enumerate(g, 0, 64).size(), 0u);
  EXPECT_EQ(Enumerate(g, 62, 64).size(), 0u);
  EXPECT_EQ(Enumerate(g, 999, 64).size(), 0u);  // absent vertex
  g.AddEdge(49, 0, 1);
  ASSERT_EQ(Enumerate(g, 0, 64).size(), 1u);
  EXPECT_EQ(Enumerate(g, 0, 64)[0].vertices, (std::vector<VertexId>{0, 49}));
}

TEST(CycleTest, ToStringFormatsLoop) {
  Cycle c;
  c.vertices = {1, 2, 3};
  EXPECT_EQ(c.ToString(), "1 -> 2 -> 3 -> 1");
}

TEST(UndirectedTest, BasicOps) {
  UndirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(2, 2);  // self-loop ignored
  EXPECT_EQ(g.VertexCount(), 3u);
  EXPECT_EQ(g.EdgeCount(), 2u);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(1, 3));
  EXPECT_EQ(g.Neighbors(2), (std::vector<UndirectedGraph::VertexId>{1, 3}));
}

TEST(UndirectedTest, PathArticulationPoints) {
  // 0-1-2-3: interior vertices are articulation points.
  UndirectedGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  auto cuts = g.ArticulationPoints();
  EXPECT_EQ(cuts, (std::vector<UndirectedGraph::VertexId>{1, 2}));
}

TEST(UndirectedTest, ChordRemovesArticulationPoints) {
  // Path 0..4 plus chord {0,4}: a ring, no articulation points.
  UndirectedGraph g;
  for (int i = 0; i < 4; ++i) g.AddEdge(i, i + 1);
  g.AddEdge(0, 4);
  EXPECT_TRUE(g.ArticulationPoints().empty());
}

TEST(UndirectedTest, PartialChord) {
  // Path 0..5 with chord {1,4}: articulation points are 1, 4 and 5's
  // neighbor 4 (interior vertices 2,3 are inside the ring).
  UndirectedGraph g;
  for (int i = 0; i < 5; ++i) g.AddEdge(i, i + 1);
  g.AddEdge(1, 4);
  auto cuts = g.ArticulationPoints();
  EXPECT_EQ(cuts, (std::vector<UndirectedGraph::VertexId>{1, 4}));
}

TEST(UndirectedTest, TwoComponents) {
  UndirectedGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(10, 11);
  EXPECT_FALSE(g.IsConnected());
  auto cuts = g.ArticulationPoints();
  EXPECT_EQ(cuts, (std::vector<UndirectedGraph::VertexId>{1}));
}

TEST(UndirectedTest, RootWithTwoChildren) {
  // Star: center is the only articulation point.
  UndirectedGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  auto cuts = g.ArticulationPoints();
  EXPECT_EQ(cuts, (std::vector<UndirectedGraph::VertexId>{0}));
}

TEST(UndirectedTest, ConnectedAndDot) {
  UndirectedGraph g;
  g.AddEdge(0, 1);
  EXPECT_TRUE(g.IsConnected());
  std::string dot = g.ToDot();
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
}

}  // namespace
}  // namespace pardb::graph
