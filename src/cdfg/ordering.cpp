#include "cdfg/ordering.h"

#include <algorithm>
#include <compare>
#include <numeric>

#include "cdfg/error.h"
#include "obs/obs.h"

namespace locwm::cdfg {

NodeOrdering computeOrdering(const LocalCsr& graph,
                             std::span<const std::uint32_t> levels,
                             std::uint32_t maxDepth) {
  // The base colour implements the paper's first criteria directly:
  // C1 (level) refined by the node's own functionality (the D0 signature).
  // The iterative colour refinement below then subsumes the C2/C3
  // neighbourhood deepening — each round folds the ranks of all fanin
  // nodes one step further away — and additionally folds in fanout
  // structure, which fanin-only criteria cannot see (two taps feeding the
  // same adder are separated by *who consumes them*, not by their inputs).
  LOCWM_OBS_SPAN("cdfg.ordering");
  const std::size_t n = graph.size();
  std::vector<std::uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);

  // ranks[i] = current colour of local node i.  Colours are ordinal, so
  // they — and the ranks derived from them — are identical on any
  // isomorphic copy of the structure, which is what detection-by-
  // re-derivation requires.
  std::vector<std::uint32_t> ranks(n, 0);
  std::uint32_t top = 0;
  {
    const auto base = [&](std::uint32_t i) {
      return std::pair(levels[i], functionalityId(graph.kinds[i]));
    };
    std::sort(idx.begin(), idx.end(), [&](std::uint32_t a, std::uint32_t b) {
      return base(a) < base(b);
    });
    for (std::size_t k = 1; k < n; ++k) {
      top += base(idx[k]) != base(idx[k - 1]) ? 1u : 0u;
      ranks[idx[k]] = top;
    }
  }
  std::size_t classes = n == 0 ? 0 : std::size_t{top} + 1;

  // Refinement key of node i in one round: its rank, then the sorted
  // multiset of its predecessor ranks, then that of its successor ranks,
  // compared lexicographically.  The multisets live in one flat buffer
  // (preds at [key_lo, key_mid), succs at [key_mid, key_lo of i + 1)) so a
  // round allocates nothing.
  std::vector<std::uint32_t> key_lo(n + 1, 0);
  std::vector<std::uint32_t> key_mid(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    key_mid[i] = key_lo[i] +
                 static_cast<std::uint32_t>(graph.predecessors(i).size());
    key_lo[i + 1] =
        key_mid[i] + static_cast<std::uint32_t>(graph.successors(i).size());
  }
  std::vector<std::uint32_t> keys(key_lo[n]);
  std::vector<std::uint32_t> next(n);
  // Compares two nodes of one colour class, whose keys built this round.
  const auto compareKeys = [&](std::uint32_t a, std::uint32_t b) {
    const auto* k = keys.data();
    const auto preds = std::lexicographical_compare_three_way(
        k + key_lo[a], k + key_mid[a], k + key_lo[b], k + key_mid[b]);
    if (preds != 0) {
      return preds;
    }
    return std::lexicographical_compare_three_way(
        k + key_mid[a], k + key_lo[a + 1], k + key_mid[b], k + key_lo[b + 1]);
  };

  // idx stays sorted by colour, so each colour class is a run of idx.
  // The key leads with the colour, so the global key order is the classes
  // in colour order, each sorted on its own: a singleton class keeps its
  // place without a key, and only classes of two or more nodes build keys
  // and sort.
  std::uint32_t depth = 0;
  while (classes < n && depth < maxDepth) {
    ++depth;
    top = 0;
    for (std::size_t lo = 0; lo < n;) {
      std::size_t hi = lo + 1;
      while (hi < n && ranks[idx[hi]] == ranks[idx[lo]]) {
        ++hi;
      }
      top += lo > 0 ? 1u : 0u;
      if (hi - lo > 1) {
        for (std::size_t k = lo; k < hi; ++k) {
          const std::uint32_t i = idx[k];
          std::uint32_t* out = keys.data() + key_lo[i];
          for (const std::uint32_t p : graph.predecessors(i)) {
            *out++ = ranks[p];
          }
          for (const std::uint32_t s : graph.successors(i)) {
            *out++ = ranks[s];
          }
          std::sort(keys.begin() + key_lo[i], keys.begin() + key_mid[i]);
          std::sort(keys.begin() + key_mid[i], keys.begin() + key_lo[i + 1]);
        }
        const auto first = idx.begin() + static_cast<std::ptrdiff_t>(lo);
        const auto last = idx.begin() + static_cast<std::ptrdiff_t>(hi);
        std::sort(first, last, [&](std::uint32_t a, std::uint32_t b) {
          return compareKeys(a, b) < 0;
        });
      }
      next[idx[lo]] = top;
      for (std::size_t k = lo + 1; k < hi; ++k) {
        top += compareKeys(idx[k - 1], idx[k]) != 0 ? 1u : 0u;
        next[idx[k]] = top;
      }
      lo = hi;
    }
    ranks.swap(next);
    const std::size_t now = std::size_t{top} + 1;
    if (now == classes) {
      break;  // refinement converged; remaining ties are automorphic
    }
    classes = now;
  }

  // Order nodes by final rank; ties (automorphic nodes) fall back to the
  // local id, which keeps the output deterministic but NOT canonical —
  // callers must consult `ranks`/`unique` before relying on tied
  // positions.  The ranks are dense in [0, classes), so this is a counting
  // sort: bucket starts by prefix sum, then nodes placed in local-id order.
  std::vector<std::uint32_t> start(classes + 1, 0);
  for (const std::uint32_t r : ranks) {
    ++start[r + 1];
  }
  for (std::size_t r = 0; r < classes; ++r) {
    start[r + 1] += start[r];
  }
  NodeOrdering out;
  out.ordered.resize(n);
  out.ranks.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t pos = start[ranks[i]]++;
    out.ordered[pos] = NodeId(i);
    out.ranks[pos] = ranks[i];
  }
  out.unique = classes == n;
  out.max_depth_used = depth;
  LOCWM_OBS_COUNT("cdfg.ordering.refine_rounds", depth);
  LOCWM_OBS_COUNT("cdfg.ordering.runs", 1);
  return out;
}

std::vector<std::uint32_t> levelsOf(const LocalCsr& g) {
  // Kahn's algorithm; the levels are the same in any topological order.
  const std::size_t n = g.size();
  std::vector<std::uint32_t> level(n, 0);
  std::vector<std::uint32_t> indegree(n);
  std::vector<std::uint32_t> ready;
  for (std::uint32_t v = 0; v < n; ++v) {
    indegree[v] = static_cast<std::uint32_t>(g.predecessors(v).size());
    if (indegree[v] == 0) {
      ready.push_back(v);
    }
  }
  std::size_t done = 0;
  while (!ready.empty()) {
    const std::uint32_t v = ready.back();
    ready.pop_back();
    ++done;
    level[v] += isPseudoOp(g.kinds[v]) ? 0u : 1u;
    for (const std::uint32_t s : g.successors(v)) {
      level[s] = std::max(level[s], level[v]);
      if (--indegree[s] == 0) {
        ready.push_back(s);
      }
    }
  }
  detail::check<GraphError>(done == n, "CDFG contains a dependence cycle");
  return level;
}

}  // namespace locwm::cdfg
