#include "analysis/conflict_graph.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

namespace pardb::analysis {

namespace {

// An access inside its entity's group: (version * 2 + 1 for a read,
// vertex), so a group sorts as plain pairs by (version, writes first,
// vertex).
using Slot = std::pair<std::uint64_t, std::uint32_t>;

bool IsWrite(const Slot& s) { return (s.first & 1) == 0; }

// The entity group of every access. Store entity ids are dense, so they
// index the groups directly; a sparse id space (a hand-built history) is
// ranked instead.
std::vector<std::uint32_t> EntityGroups(const std::vector<Access>& accesses,
                                        std::size_t* num_groups) {
  std::vector<std::uint32_t> group(accesses.size());
  std::uint64_t max_entity = 0;
  for (const Access& a : accesses) max_entity = std::max(max_entity, a.entity);
  if (max_entity < 2 * accesses.size() + 1024) {
    for (std::size_t i = 0; i < accesses.size(); ++i) {
      group[i] = static_cast<std::uint32_t>(accesses[i].entity);
    }
    *num_groups = max_entity + 1;
    return group;
  }
  std::vector<std::uint64_t> ids;
  ids.reserve(accesses.size());
  for (const Access& a : accesses) ids.push_back(a.entity);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    group[i] = static_cast<std::uint32_t>(
        std::lower_bound(ids.begin(), ids.end(), accesses[i].entity) -
        ids.begin());
  }
  *num_groups = ids.size();
  return group;
}

// Calls arc(from, to) for every conflict arc of one entity's ordered group:
// w(v) -> w(v') for consecutive published versions, w(v) -> r for every
// read of v, and r -> the first writer past the version read. A second
// publish of one version by another vertex sets *divergence; the first
// (smallest) writer stands for the version.
template <typename Arc>
void ForEachArc(const Slot* begin, const Slot* end, bool* divergence,
                Arc arc) {
  const Slot* writer = nullptr;  // the latest version published so far
  const Slot* pending = begin;   // reads since then wait for the next one
  for (const Slot* s = begin; s != end; ++s) {
    if (!IsWrite(*s)) {
      if (writer != nullptr && writer->first == s->first - 1) {
        arc(writer->second, s->second);
      }
      continue;
    }
    if (writer != nullptr && writer->first == s->first) {
      if (s->second != writer->second) *divergence = true;
      continue;
    }
    if (writer != nullptr) arc(writer->second, s->second);
    for (const Slot* r = pending; r != s; ++r) {
      if (!IsWrite(*r)) arc(r->second, s->second);
    }
    writer = s;
    pending = s + 1;
  }
}

}  // namespace

ConflictGraph::ConflictGraph(std::uint32_t num_vertices,
                             const std::vector<Access>& accesses)
    : num_vertices_(num_vertices), offsets_(num_vertices + 1, 0) {
  // Counting sort by entity, then order each (small) group by (version,
  // writes first, vertex).
  std::size_t num_groups = 0;
  const std::vector<std::uint32_t> group = EntityGroups(accesses, &num_groups);
  std::vector<std::size_t> start(num_groups + 1, 0);
  for (std::uint32_t g : group) ++start[g + 1];
  for (std::size_t g = 0; g < num_groups; ++g) start[g + 1] += start[g];
  std::vector<Slot> slots(accesses.size());
  {
    std::vector<std::size_t> next(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < accesses.size(); ++i) {
      const Access& a = accesses[i];
      slots[next[group[i]]++] = Slot{a.version * 2 + !a.is_write, a.vertex};
    }
  }
  for (std::size_t g = 0; g < num_groups; ++g) {
    std::sort(slots.data() + start[g], slots.data() + start[g + 1]);
  }

  // Two walks over the groups: out-degrees, then the CSR fill.
  for (std::size_t g = 0; g < num_groups; ++g) {
    ForEachArc(slots.data() + start[g], slots.data() + start[g + 1],
               &divergence_, [this](std::uint32_t from, std::uint32_t to) {
                 if (from != to) ++offsets_[from + 1];
               });
  }
  for (std::uint32_t v = 0; v < num_vertices_; ++v) {
    offsets_[v + 1] += offsets_[v];
  }
  targets_.resize(offsets_[num_vertices_]);
  std::vector<std::size_t> fill(offsets_.begin(), offsets_.end() - 1);
  bool seen = false;
  for (std::size_t g = 0; g < num_groups; ++g) {
    ForEachArc(slots.data() + start[g], slots.data() + start[g + 1], &seen,
               [this, &fill](std::uint32_t from, std::uint32_t to) {
                 if (from != to) targets_[fill[from]++] = to;
               });
  }
}

bool ConflictGraph::Serializable() const {
  return !divergence_ && SmallestFirstOrder().size() == num_vertices_;
}

std::vector<std::uint32_t> ConflictGraph::SmallestFirstOrder() const {
  // Kahn's algorithm with a min-heap of ready vertices.
  std::vector<std::uint32_t> indegree(num_vertices_, 0);
  for (std::uint32_t t : targets_) ++indegree[t];
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<std::uint32_t>>
      ready;
  for (std::uint32_t v = 0; v < num_vertices_; ++v) {
    if (indegree[v] == 0) ready.push(v);
  }
  std::vector<std::uint32_t> order;
  order.reserve(num_vertices_);
  while (!ready.empty()) {
    const std::uint32_t v = ready.top();
    ready.pop();
    order.push_back(v);
    for (std::size_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      if (--indegree[targets_[i]] == 0) ready.push(targets_[i]);
    }
  }
  return order;
}

std::vector<std::uint32_t> ConflictGraph::WitnessCycle() const {
  // Iterative 3-colour DFS over ascending rows. Repeated arcs cannot change
  // the walk: a neighbour met again is already grey (the cycle was found
  // the first time) or black.
  std::vector<std::uint32_t> adj(targets_);
  for (std::uint32_t v = 0; v < num_vertices_; ++v) {
    std::sort(adj.begin() + offsets_[v], adj.begin() + offsets_[v + 1]);
  }
  enum : unsigned char { kWhite = 0, kGray = 1, kBlack = 2 };
  std::vector<unsigned char> color(num_vertices_, kWhite);
  struct Frame {
    std::uint32_t vertex;
    std::size_t next;
  };
  std::vector<Frame> stack;
  for (std::uint32_t root = 0; root < num_vertices_; ++root) {
    if (color[root] != kWhite) continue;
    stack.push_back(Frame{root, offsets_[root]});
    color[root] = kGray;
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next == offsets_[f.vertex + 1]) {
        color[f.vertex] = kBlack;
        stack.pop_back();
        continue;
      }
      const std::uint32_t u = adj[f.next++];
      if (color[u] == kGray) {
        std::vector<std::uint32_t> cycle;
        bool in_cycle = false;
        for (const Frame& fr : stack) {
          in_cycle = in_cycle || fr.vertex == u;
          if (in_cycle) cycle.push_back(fr.vertex);
        }
        return cycle;
      }
      if (color[u] == kWhite) {
        color[u] = kGray;
        stack.push_back(Frame{u, offsets_[u]});
      }
    }
  }
  return {};
}

}  // namespace pardb::analysis
