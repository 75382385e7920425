#include "graph/digraph.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <sstream>

namespace pardb::graph {

namespace {

using AdjList = SmallVec<Arc, 2>;

// Sorted-list helpers. Adjacency lists are kept sorted by (vertex,
// label), so membership and erase are binary searches and iteration is
// deterministic by construction.
Arc* FindPair(AdjList& list, VertexId v, EdgeLabel l) {
  auto* it = std::lower_bound(list.begin(), list.end(), Arc{v, l});
  if (it != list.end() && it->first == v && it->second == l) return it;
  return list.end();
}

void ErasePair(AdjList& list, VertexId v, EdgeLabel l) {
  auto* it = FindPair(list, v, l);
  assert(it != list.end());
  if (it != list.end()) {
    list.erase_at(static_cast<std::size_t>(it - list.begin()));
  }
}

}  // namespace

bool Cycle::Contains(VertexId v) const {
  return std::find(vertices.begin(), vertices.end(), v) != vertices.end();
}

std::string Cycle::ToString() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    if (i) os << " -> ";
    os << vertices[i];
  }
  if (!vertices.empty()) os << " -> " << vertices[0];
  return os.str();
}

void Digraph::AddVertex(VertexId v) { verts_.try_emplace(v); }

void Digraph::RemoveVertex(VertexId v) {
  auto it = verts_.find(v);
  if (it == verts_.end()) return;
  VertexRec& rec = it->second;
  // Drop outgoing edges from the targets' in-lists (this also clears any
  // self-loop's in-entry, so the second pass never sees `v` itself).
  edge_count_ -= rec.out.size();
  for (const auto& [to, l] : rec.out) {
    EraseLabelPair(l, v, to);
    ErasePair(verts_[to].in, v, l);
  }
  // Drop incoming edges from the sources' out-lists.
  edge_count_ -= rec.in.size();
  for (const auto& [from, l] : rec.in) {
    EraseLabelPair(l, from, v);
    ErasePair(verts_[from].out, v, l);
  }
  verts_.erase(it);
}

bool Digraph::HasVertex(VertexId v) const { return verts_.count(v) > 0; }

std::vector<VertexId> Digraph::Vertices() const {
  std::vector<VertexId> out;
  out.reserve(verts_.size());
  for (const auto& [v, _] : verts_) out.push_back(v);
  return out;
}

bool Digraph::Link(VertexId from, VertexId to, EdgeLabel label) {
  VertexRec& fr = verts_[from];
  VertexRec& tr = verts_[to];
  auto* it = std::lower_bound(fr.out.begin(), fr.out.end(),
                              Arc{to, label});
  if (it != fr.out.end() && it->first == to && it->second == label) {
    return false;
  }
  fr.out.insert_at(static_cast<std::size_t>(it - fr.out.begin()),
                   Arc{to, label});
  auto* in_it = std::lower_bound(tr.in.begin(), tr.in.end(),
                                 Arc{from, label});
  tr.in.insert_at(static_cast<std::size_t>(in_it - tr.in.begin()),
                  Arc{from, label});
  ++edge_count_;
  return true;
}

void Digraph::Unlink(VertexId from, VertexId to, EdgeLabel label) {
  ErasePair(verts_[from].out, to, label);
  ErasePair(verts_[to].in, from, label);
  --edge_count_;
}

void Digraph::AddEdge(VertexId from, VertexId to, EdgeLabel label) {
  if (!Link(from, to, label)) return;
  auto& pairs = label_index_[label];
  const std::pair<VertexId, VertexId> p{from, to};
  pairs.insert(std::lower_bound(pairs.begin(), pairs.end(), p), p);
}

void Digraph::EraseLabelPair(EdgeLabel label, VertexId from, VertexId to) {
  auto it = label_index_.find(label);
  if (it == label_index_.end()) return;
  auto& pairs = it->second;
  const std::pair<VertexId, VertexId> p{from, to};
  auto pit = std::lower_bound(pairs.begin(), pairs.end(), p);
  if (pit != pairs.end() && *pit == p) pairs.erase(pit);
}

void Digraph::RemoveEdge(VertexId from, VertexId to, EdgeLabel label) {
  auto fit = verts_.find(from);
  if (fit == verts_.end()) return;
  if (FindPair(fit->second.out, to, label) == fit->second.out.end()) return;
  Unlink(from, to, label);
  EraseLabelPair(label, from, to);
}

void Digraph::RemoveEdgesBetween(VertexId from, VertexId to) {
  auto fit = verts_.find(from);
  if (fit == verts_.end()) return;
  auto& out = fit->second.out;
  auto* lo = std::lower_bound(out.begin(), out.end(),
                              Arc{to, EdgeLabel{0}});
  auto* hi = lo;
  while (hi != out.end() && hi->first == to) ++hi;
  if (lo == hi) return;
  auto& tin = verts_[to].in;
  for (auto* it = lo; it != hi; ++it) {
    EraseLabelPair(it->second, from, to);
    ErasePair(tin, from, it->second);
  }
  edge_count_ -= static_cast<std::size_t>(hi - lo);
  out.erase_range(static_cast<std::size_t>(lo - out.begin()),
                  static_cast<std::size_t>(hi - out.begin()));
}

void Digraph::SetEdgesLabeled(
    EdgeLabel label, std::vector<std::pair<VertexId, VertexId>>* arcs) {
  std::sort(arcs->begin(), arcs->end());
  arcs->erase(std::unique(arcs->begin(), arcs->end()), arcs->end());
  auto lit = label_index_.find(label);
  if (lit == label_index_.end()) {
    if (arcs->empty()) return;
    lit = label_index_.try_emplace(label).first;
  }
  // Both lists are sorted: merge them, unlinking what only the old set
  // has and linking what only the new set has; arcs in both stay put.
  const auto& cur = lit->second;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < cur.size() || j < arcs->size()) {
    if (j == arcs->size() || (i < cur.size() && cur[i] < (*arcs)[j])) {
      Unlink(cur[i].first, cur[i].second, label);
      ++i;
    } else if (i == cur.size() || (*arcs)[j] < cur[i]) {
      Link((*arcs)[j].first, (*arcs)[j].second, label);
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  lit->second.assign(arcs->begin(), arcs->end());
}

bool Digraph::HasEdge(VertexId from, VertexId to) const {
  auto fit = verts_.find(from);
  if (fit == verts_.end()) return false;
  const auto& out = fit->second.out;
  auto it = std::lower_bound(out.begin(), out.end(),
                             Arc{to, EdgeLabel{0}});
  return it != out.end() && it->first == to;
}

bool Digraph::HasEdge(VertexId from, VertexId to, EdgeLabel label) const {
  auto fit = verts_.find(from);
  if (fit == verts_.end()) return false;
  const auto& out = fit->second.out;
  auto it = std::lower_bound(out.begin(), out.end(),
                             Arc{to, label});
  return it != out.end() && it->first == to && it->second == label;
}

std::vector<Edge> Digraph::Edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count_);
  for (const auto& [from, rec] : verts_) {
    for (const auto& [to, l] : rec.out) out.push_back(Edge{from, to, l});
  }
  return out;
}

std::vector<VertexId> Digraph::Successors(VertexId v) const {
  std::vector<VertexId> out;
  auto it = verts_.find(v);
  if (it == verts_.end()) return out;
  out.reserve(it->second.out.size());
  for (const auto& [to, _] : it->second.out) {
    if (out.empty() || out.back() != to) out.push_back(to);
  }
  return out;
}

std::vector<VertexId> Digraph::Predecessors(VertexId v) const {
  std::vector<VertexId> out;
  auto it = verts_.find(v);
  if (it == verts_.end()) return out;
  out.reserve(it->second.in.size());
  for (const auto& [from, _] : it->second.in) {
    if (out.empty() || out.back() != from) out.push_back(from);
  }
  return out;
}

std::size_t Digraph::InDegree(VertexId v) const {
  auto it = verts_.find(v);
  return it == verts_.end() ? 0 : it->second.in.size();
}

std::size_t Digraph::OutDegree(VertexId v) const {
  auto it = verts_.find(v);
  return it == verts_.end() ? 0 : it->second.out.size();
}

bool Digraph::HasPath(VertexId from, VertexId to) const {
  if (!HasVertex(from) || !HasVertex(to)) return false;
  if (from == to) return true;
  // BFS over reusable scratch; `seen` is a linear-scanned vector — the
  // waits-for graphs this guards are at most a few dozen vertices deep.
  scratch_frontier_.clear();
  scratch_seen_.clear();
  scratch_frontier_.push_back(from);
  scratch_seen_.push_back(from);
  for (std::size_t head = 0; head < scratch_frontier_.size(); ++head) {
    auto it = verts_.find(scratch_frontier_[head]);
    if (it == verts_.end()) continue;
    for (const auto& [next, _] : it->second.out) {
      if (next == to) return true;
      if (std::find(scratch_seen_.begin(), scratch_seen_.end(), next) ==
          scratch_seen_.end()) {
        scratch_seen_.push_back(next);
        scratch_frontier_.push_back(next);
      }
    }
  }
  return false;
}

bool Digraph::WouldCreateCycle(VertexId from, VertexId to) const {
  if (!HasVertex(from) || !HasVertex(to)) return false;
  return HasPath(to, from);
}

std::optional<Cycle> Digraph::FindCycleThrough(VertexId v) const {
  std::optional<Cycle> found;
  EnumerateCyclesThrough(v, 1, [&found](const Cycle& c) {
    found = c;
    return false;
  });
  return found;
}

template <typename Fn>
std::size_t Digraph::WalkCyclesThrough(VertexId v, std::size_t limit,
                                       Fn&& on_cycle) const {
  if (limit == 0) return 0;
  auto root = verts_.find(v);
  // A cycle through v leaves along an out-arc and returns along an in-arc.
  if (root == verts_.end() || root->second.out.empty() ||
      root->second.in.empty()) {
    return 0;
  }
  // Only vertices that can reach v lie on a cycle through it. Mark them
  // with a reverse walk over in-arcs, then let the DFS enter marked
  // vertices only: every skipped subtree is cycle-free, so the same cycles
  // come out in the same order. Most probes close no cycle, and without
  // the marks the DFS would walk every simple path below v to learn that.
  if (++reach_epoch_ == 0) {
    for (const auto& [u, rec] : verts_) rec.reach_mark = 0;
    reach_epoch_ = 1;
  }
  std::vector<const VertexRec*>& reach = scratch_reach_;
  reach.clear();
  root->second.reach_mark = reach_epoch_;
  reach.push_back(&root->second);
  for (std::size_t head = 0; head < reach.size(); ++head) {
    for (const auto& [from, _] : reach[head]->in) {
      const VertexRec& rec = verts_.find(from)->second;
      if (rec.reach_mark == reach_epoch_) continue;
      rec.reach_mark = reach_epoch_;
      reach.push_back(&rec);
    }
  }

  // DFS over simple paths starting at v; every edge closing back to v is a
  // simple cycle through v. Paths never revisit a vertex, so this is
  // Johnson-style enumeration restricted to a single root — sufficient
  // because in deadlock resolution all new cycles pass through the
  // requester (paper §3.2).
  std::size_t produced = 0;
  // The DFS state lives in reusable scratch members: this probe runs on
  // every blocked lock request, so it must not touch the heap once warm.
  // Path membership is a linear scan of the path itself — simple cycles
  // in a waits-for graph are a handful of vertices long.
  std::vector<VertexId>& path = scratch_path_;
  std::vector<Edge>& path_edges = scratch_path_edges_;
  std::vector<DfsFrame>& stack = scratch_stack_;
  path.clear();
  path_edges.clear();
  stack.clear();
  path.push_back(v);

  // Explicit stack DFS to avoid recursion-depth limits on long chains.
  // Frames borrow the adjacency lists in place — the graph is not mutated
  // during enumeration, so no per-frame copy is needed.
  stack.push_back(DfsFrame{v, &root->second.out, 0});
  while (!stack.empty()) {
    DfsFrame& f = stack.back();
    if (f.next >= f.out->size()) {
      stack.pop_back();
      if (!stack.empty()) {
        path.pop_back();
        path_edges.pop_back();
      }
      continue;
    }
    auto [to, label] = (*f.out)[f.next++];
    if (to == v) {
      ++produced;
      // The cycle is path_edges plus this closing arc.
      if (!on_cycle(Edge{f.vertex, v, label}) || produced >= limit) break;
      continue;
    }
    const VertexRec& next = verts_.find(to)->second;
    if (next.reach_mark != reach_epoch_) continue;
    if (std::find(path.begin(), path.end(), to) != path.end()) continue;
    path.push_back(to);
    path_edges.push_back(Edge{f.vertex, to, label});
    stack.push_back(DfsFrame{to, &next.out, 0});
  }
  return produced;
}

std::size_t Digraph::EnumerateCyclesThrough(
    VertexId v, std::size_t limit,
    const std::function<bool(const Cycle&)>& cb) const {
  Cycle c;  // reused for every report of this call
  return WalkCyclesThrough(v, limit, [&](const Edge& closing) {
    c.vertices.assign(scratch_path_.begin(), scratch_path_.end());
    c.edges.assign(scratch_path_edges_.begin(), scratch_path_edges_.end());
    c.edges.push_back(closing);
    return cb(c);
  });
}

std::size_t Digraph::AppendCyclesThrough(
    VertexId v, std::size_t limit, std::vector<Edge>* edges,
    std::vector<std::uint32_t>* ends) const {
  return WalkCyclesThrough(v, limit, [&](const Edge& closing) {
    edges->insert(edges->end(), scratch_path_edges_.begin(),
                  scratch_path_edges_.end());
    edges->push_back(closing);
    ends->push_back(static_cast<std::uint32_t>(edges->size()));
    return true;
  });
}

bool Digraph::IsAcyclic() const {
  // Kahn's algorithm over distinct-neighbour in-degrees. Adjacency lists
  // are sorted, so parallel labels to the same neighbour are adjacent and
  // skipped with a previous-value check.
  std::map<VertexId, std::size_t> indeg;
  for (const auto& [v, _] : verts_) indeg[v] = 0;
  for (const auto& [v, rec] : verts_) {
    (void)v;
    const auto& out = rec.out;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (i > 0 && out[i].first == out[i - 1].first) continue;
      ++indeg[out[i].first];
    }
  }
  std::deque<VertexId> ready;
  for (const auto& [v, d] : indeg) {
    if (d == 0) ready.push_back(v);
  }
  std::size_t removed = 0;
  while (!ready.empty()) {
    VertexId v = ready.front();
    ready.pop_front();
    ++removed;
    auto it = verts_.find(v);
    if (it == verts_.end()) continue;
    const auto& out = it->second.out;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (i > 0 && out[i].first == out[i - 1].first) continue;
      if (--indeg[out[i].first] == 0) ready.push_back(out[i].first);
    }
  }
  return removed == verts_.size();
}

std::vector<std::vector<VertexId>> Digraph::StronglyConnectedComponents()
    const {
  // Iterative Tarjan.
  struct NodeState {
    int index = -1;
    int lowlink = 0;
    bool on_stack = false;
  };
  std::map<VertexId, NodeState> state;
  std::vector<VertexId> stack;
  std::vector<std::vector<VertexId>> components;
  int next_index = 0;

  struct Frame {
    VertexId v;
    std::vector<VertexId> succ;
    std::size_t next = 0;
  };

  for (const auto& [root, _] : verts_) {
    if (state[root].index != -1) continue;
    std::vector<Frame> frames;
    frames.push_back(Frame{root, Successors(root), 0});
    state[root].index = state[root].lowlink = next_index++;
    state[root].on_stack = true;
    stack.push_back(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.next < f.succ.size()) {
        VertexId w = f.succ[f.next++];
        NodeState& ws = state[w];
        if (ws.index == -1) {
          ws.index = ws.lowlink = next_index++;
          ws.on_stack = true;
          stack.push_back(w);
          frames.push_back(Frame{w, Successors(w), 0});
        } else if (ws.on_stack) {
          state[f.v].lowlink = std::min(state[f.v].lowlink, ws.index);
        }
        continue;
      }
      // Post-visit.
      VertexId v = f.v;
      frames.pop_back();
      if (!frames.empty()) {
        state[frames.back().v].lowlink =
            std::min(state[frames.back().v].lowlink, state[v].lowlink);
      }
      if (state[v].lowlink == state[v].index) {
        std::vector<VertexId> component;
        for (;;) {
          VertexId w = stack.back();
          stack.pop_back();
          state[w].on_stack = false;
          component.push_back(w);
          if (w == v) break;
        }
        std::sort(component.begin(), component.end());
        components.push_back(std::move(component));
      }
    }
  }
  std::sort(components.begin(), components.end(),
            [](const auto& a, const auto& b) { return a[0] < b[0]; });
  return components;
}

std::vector<std::vector<VertexId>> Digraph::CyclicComponents() const {
  std::vector<std::vector<VertexId>> out;
  for (auto& c : StronglyConnectedComponents()) {
    // A singleton component is cyclic only via a self-loop (impossible in
    // waits-for graphs, but the digraph is generic).
    if (c.size() >= 2 || HasEdge(c[0], c[0])) out.push_back(std::move(c));
  }
  return out;
}

bool Digraph::IsForest() const {
  for (const auto& [v, rec] : verts_) {
    (void)v;
    // Forest of out-trees: at most one distinct predecessor per vertex.
    const auto& in = rec.in;
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (i > 0 && in[i].first == in[i - 1].first) continue;
      if (++distinct > 1) return false;
    }
  }
  return IsAcyclic();
}

std::string Digraph::ToDot(
    const std::function<std::string(VertexId)>& vertex_name,
    const std::function<std::string(EdgeLabel)>& label_name) const {
  auto vname = [&](VertexId v) {
    if (vertex_name) return vertex_name(v);
    return "v" + std::to_string(v);
  };
  auto lname = [&](EdgeLabel l) {
    if (label_name) return label_name(l);
    return std::to_string(l);
  };
  std::ostringstream os;
  os << "digraph G {\n";
  for (const auto& [v, _] : verts_) {
    os << "  \"" << vname(v) << "\";\n";
  }
  for (const Edge& e : Edges()) {
    os << "  \"" << vname(e.from) << "\" -> \"" << vname(e.to)
       << "\" [label=\"" << lname(e.label) << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace pardb::graph
