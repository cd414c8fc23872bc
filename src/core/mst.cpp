#include "core/mst.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "core/detail/sorted.hpp"
#include "util/hash.hpp"
#include "util/mathx.hpp"

namespace km {

namespace {

constexpr std::uint16_t kFragPushTag = 1;   // (vertex, fragment)
constexpr std::uint16_t kCandidateTag = 2;  // (frag, u, v, w, other_frag)
constexpr std::uint16_t kMutualTag = 3;     // (to_frag, from_frag, u, v, w)
constexpr std::uint16_t kJumpQueryTag = 4;  // (queried_frag, asking_frag)
constexpr std::uint16_t kJumpReplyTag = 5;  // (asking_frag, new_ptr)
constexpr std::uint16_t kRootQueryTag = 6;  // (frag)
constexpr std::uint16_t kRootReplyTag = 7;  // (frag, root)

struct Candidate {
  bool valid = false;
  WeightedEdge edge;
  std::uint32_t other_frag = 0;

  void offer(const WeightedEdge& e, std::uint32_t other) {
    if (!valid || mst_edge_less(e, edge)) {
      valid = true;
      edge = e;
      other_frag = other;
    }
  }
};

/// Per-fragment state a proxy machine tracks within one phase.
struct FragState {
  Candidate moe;
  std::uint32_t ptr = 0;   // pointer-jumping cursor towards the root
  bool record = false;     // whether this proxy emits the MOE edge
};

void put_edge(Writer& w, const WeightedEdge& e) {
  w.put_varint(e.u);
  w.put_varint(e.v);
  w.put_varint(e.weight);
}

WeightedEdge get_edge(Reader& r) {
  WeightedEdge e;
  e.u = static_cast<Vertex>(r.get_varint());
  e.v = static_cast<Vertex>(r.get_varint());
  e.weight = r.get_varint();
  return e;
}

DistributedMstResult run_boruvka(const WeightedGraph& g,
                                 const VertexPartition& part, Engine& engine,
                                 std::uint64_t proxy_seed) {
  const std::size_t n = g.num_vertices();
  const std::size_t k = engine.k();
  if (part.n() != n || part.k() != k) {
    throw std::invalid_argument("mst: partition does not match graph/k");
  }
  const std::size_t max_phases = ceil_log2(std::max<std::size_t>(n, 2)) + 1;
  const std::size_t jump_iters = ceil_log2(std::max<std::size_t>(n, 2)) + 1;

  DistributedMstResult result;
  result.fragment_of.assign(n, 0);
  std::vector<std::vector<WeightedEdge>> emitted(k);
  std::vector<std::size_t> phases_by_machine(k, 0);

  const auto proxy_of = [&](std::uint32_t frag) {
    return static_cast<std::size_t>(hash_vertex(proxy_seed, frag) % k);
  };

  const Program program = [&](MachineContext& ctx) {
    const std::size_t self = ctx.id();
    const auto& owned = part.owned(self);
    // frag[i] = fragment (root vertex id) of owned[i].
    std::vector<std::uint32_t> frag(owned.size());
    for (std::size_t i = 0; i < owned.size(); ++i) frag[i] = owned[i];
    std::size_t phase = 0;
    while (phase < max_phases) {
      ++phase;

      // ---- Step A: push fragment labels to neighbors' machines. ----
      std::unordered_map<Vertex, std::uint32_t> nbr_frag;
      {
        std::vector<bool> target(k);
        Writer w;
        for (std::size_t i = 0; i < owned.size(); ++i) {
          const Vertex v = owned[i];
          std::fill(target.begin(), target.end(), false);
          for (Vertex u : g.neighbors(v)) target[part.home(u)] = true;
          for (std::size_t m = 0; m < k; ++m) {
            if (!target[m]) continue;
            if (m == self) {
              nbr_frag[v] = frag[i];
            } else {
              // Re-encoding two varints into each link's frame is cheaper
              // than one refcounted buffer released on k receivers.
              w.put_varint(v);
              w.put_varint(frag[i]);
              ctx.send(m, kFragPushTag, w);
            }
          }
        }
      }
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        const auto v = static_cast<Vertex>(r.get_varint());
        nbr_frag[v] = static_cast<std::uint32_t>(r.get_varint());
      }

      // ---- Step B: local MOE per fragment -> fragment proxies. ----
      std::unordered_map<std::uint32_t, Candidate> local_best;
      for (std::size_t i = 0; i < owned.size(); ++i) {
        const Vertex v = owned[i];
        const auto ns = g.neighbors(v);
        const auto ws = g.weights(v);
        for (std::size_t j = 0; j < ns.size(); ++j) {
          const auto it = nbr_frag.find(ns[j]);
          if (it == nbr_frag.end()) {
            throw std::logic_error("mst: missing neighbor fragment");
          }
          if (it->second == frag[i]) continue;  // internal edge
          local_best[frag[i]].offer(
              WeightedEdge{std::min(v, ns[j]), std::max(v, ns[j]), ws[j]},
              it->second);
        }
      }
      std::unordered_map<std::uint32_t, FragState> proxy_state;
      for (const std::uint32_t f : detail::sorted_keys(local_best)) {
        const Candidate& cand = local_best.at(f);
        const std::size_t proxy = proxy_of(f);
        if (proxy == self) {
          auto& st = proxy_state[f];
          st.moe.offer(cand.edge, cand.other_frag);
        } else {
          Writer w;
          w.put_varint(f);
          put_edge(w, cand.edge);
          w.put_varint(cand.other_frag);
          ctx.send(proxy, kCandidateTag, w);
        }
      }
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        const auto f = static_cast<std::uint32_t>(r.get_varint());
        const WeightedEdge e = get_edge(r);
        const auto other = static_cast<std::uint32_t>(r.get_varint());
        proxy_state[f].moe.offer(e, other);
      }

      // ---- Step C: break mutual-MOE 2-cycles, pick roots. ----
      // Every tracked fragment tells its parent's proxy about its MOE;
      // the smaller fragment of a mutual pair becomes the root and emits
      // the edge (dedup), the larger one drops its copy.
      // Each tracked fragment f points at its MOE partner; the merge
      // graph is a functional graph whose only cycles are the mutual-MOE
      // 2-cycles (the MOE is unique under mst_edge_less).  The larger
      // half of each mutual pair drops its duplicate edge copy here; the
      // pair minimum becomes the root via the min rule during pointer
      // jumping below.
      std::vector<std::pair<std::uint32_t, std::uint32_t>> drop_if_mutual;
      for (const std::uint32_t f : detail::sorted_keys(proxy_state)) {
        FragState& st = proxy_state.at(f);
        st.ptr = st.moe.other_frag;
        st.record = true;
        const std::size_t target = proxy_of(st.moe.other_frag);
        if (target == self) {
          drop_if_mutual.emplace_back(st.moe.other_frag, f);
          continue;
        }
        Writer w;
        w.put_varint(st.moe.other_frag);
        w.put_varint(f);
        put_edge(w, st.moe.edge);
        ctx.send(target, kMutualTag, w);
      }
      auto apply_mutual = [&](std::uint32_t gf, std::uint32_t from,
                              const WeightedEdge& e) {
        const auto it = proxy_state.find(gf);
        if (it == proxy_state.end()) return;  // finished fragment
        auto& st = it->second;
        if (st.moe.valid && st.moe.other_frag == from && st.moe.edge == e &&
            gf > from) {
          st.record = false;  // duplicate (larger) half of a mutual pair
        }
      };
      for (const auto& [gf, from] : drop_if_mutual) {
        apply_mutual(gf, from, proxy_state.at(from).moe.edge);
      }
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        const auto gf = static_cast<std::uint32_t>(r.get_varint());
        const auto from = static_cast<std::uint32_t>(r.get_varint());
        apply_mutual(gf, from, get_edge(r));
      }

      // Pointer jumping across fragment proxies: ptr[f] <- ptr[ptr[f]]
      // each iteration; a query that closes a 2-cycle resolves to the
      // pair minimum, which thereby becomes the root.
      for (std::size_t jump = 0; jump < jump_iters; ++jump) {
        bool changed = false;
        for (const std::uint32_t f : detail::sorted_keys(proxy_state)) {
          const FragState& st = proxy_state.at(f);
          const std::size_t target = proxy_of(st.ptr);
          if (target == self) continue;  // resolved locally below
          Writer w;
          w.put_varint(st.ptr);
          w.put_varint(f);
          ctx.send(target, kJumpQueryTag, w);
        }
        // Answer queries: ptr[g], with the 2-cycle min rule.
        auto answer = [&](std::uint32_t g,
                          std::uint32_t asking) -> std::uint32_t {
          const auto it = proxy_state.find(g);
          if (it == proxy_state.end()) return g;  // finished: g is a root
          const std::uint32_t next = it->second.ptr;
          if (next == asking) return std::min(g, asking);  // 2-cycle
          return next;
        };
        std::vector<std::pair<std::uint32_t, std::uint32_t>> local_updates;
        for (const std::uint32_t f : detail::sorted_keys(proxy_state)) {
          const FragState& st = proxy_state.at(f);
          if (proxy_of(st.ptr) != self) continue;
          local_updates.emplace_back(f, answer(st.ptr, f));
        }
        for (const Message& msg : ctx.exchange()) {
          Reader r(msg.payload);
          const auto g2 = static_cast<std::uint32_t>(r.get_varint());
          const auto asking = static_cast<std::uint32_t>(r.get_varint());
          Writer w;
          w.put_varint(asking);
          w.put_varint(answer(g2, asking));
          ctx.send(msg.src, kJumpReplyTag, w);
        }
        for (const Message& msg : ctx.exchange()) {
          Reader r(msg.payload);
          const auto f = static_cast<std::uint32_t>(r.get_varint());
          const auto next = static_cast<std::uint32_t>(r.get_varint());
          changed |= (proxy_state[f].ptr != next);
          proxy_state[f].ptr = next;
        }
        for (const auto& [f, next] : local_updates) {
          changed |= (proxy_state[f].ptr != next);
          proxy_state[f].ptr = next;
        }
        // Chains are typically short; stop jumping as soon as every
        // pointer is stable everywhere (one tiny collective per jump).
        if (!ctx.all_reduce_or(changed)) break;
      }

      // ---- Emit this phase's MST edges at the proxies. ----
      std::uint64_t added_here = 0;
      for (const std::uint32_t f : detail::sorted_keys(proxy_state)) {
        const FragState& st = proxy_state.at(f);
        if (st.record && st.moe.valid) {
          emitted[self].push_back(st.moe.edge);
          ++added_here;
        }
      }

      // ---- Step D: home machines learn their vertices' new roots. ----
      std::unordered_set<std::uint32_t> distinct_frags(frag.begin(),
                                                       frag.end());
      std::unordered_map<std::uint32_t, std::uint32_t> root_of;
      for (const std::uint32_t f : detail::sorted_keys(distinct_frags)) {
        const std::size_t proxy = proxy_of(f);
        if (proxy == self) {
          const auto it = proxy_state.find(f);
          root_of[f] = (it == proxy_state.end()) ? f : it->second.ptr;
        } else {
          Writer w;
          w.put_varint(f);
          ctx.send(proxy, kRootQueryTag, w);
        }
      }
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        const auto f = static_cast<std::uint32_t>(r.get_varint());
        const auto it = proxy_state.find(f);
        Writer w;
        w.put_varint(f);
        w.put_varint(it == proxy_state.end() ? f : it->second.ptr);
        ctx.send(msg.src, kRootReplyTag, w);
      }
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        const auto f = static_cast<std::uint32_t>(r.get_varint());
        root_of[f] = static_cast<std::uint32_t>(r.get_varint());
      }
      for (auto& f : frag) f = root_of.at(f);

      // ---- Termination: no fragment found an outgoing edge. ----
      if (ctx.all_reduce_sum(added_here) == 0) break;
    }

    for (std::size_t i = 0; i < owned.size(); ++i) {
      result.fragment_of[owned[i]] = frag[i];
    }
    phases_by_machine[self] = phase;
  };

  result.metrics = engine.run(program);
  for (auto& edges : emitted) {
    result.edges.insert(result.edges.end(), edges.begin(), edges.end());
  }
  std::sort(result.edges.begin(), result.edges.end(), mst_edge_less);
  for (const auto& e : result.edges) result.total_weight += e.weight;
  result.phases = phases_by_machine.empty() ? 0 : phases_by_machine[0];
  return result;
}

}  // namespace

DistributedMstResult distributed_mst(const WeightedGraph& g,
                                     const VertexPartition& partition,
                                     Engine& engine,
                                     std::uint64_t proxy_seed) {
  return run_boruvka(g, partition, engine, proxy_seed);
}

DistributedComponentsResult distributed_components(
    const Graph& g, const VertexPartition& partition, Engine& engine,
    std::uint64_t proxy_seed) {
  // Arbitrary distinct weights make Boruvka's choices unique; the
  // resulting forest spans each component.
  std::vector<WeightedEdge> edges;
  edges.reserve(g.num_edges());
  for (const auto& [u, v] : g.edge_list()) {
    edges.push_back({u, v, 1 + hash_edge(proxy_seed ^ 0x11, u, v) % 1000003});
  }
  const auto wg = WeightedGraph::from_edges(g.num_vertices(), std::move(edges));
  auto mst = run_boruvka(wg, partition, engine, proxy_seed);

  DistributedComponentsResult result;
  result.labels = std::move(mst.fragment_of);
  result.phases = mst.phases;
  result.metrics = mst.metrics;
  std::unordered_set<std::uint32_t> distinct(result.labels.begin(),
                                             result.labels.end());
  result.num_components = g.num_vertices() == 0 ? 0 : distinct.size();
  return result;
}

}  // namespace km
