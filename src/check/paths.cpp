#include "check/paths.h"

#include <algorithm>
#include <cstdint>

#include "rt/rt.h"

namespace locwm::check {
namespace {

using cdfg::EdgeId;
using cdfg::NodeId;

constexpr std::size_t kBatch = 64;

/// A skipped edge of one batch: it leaves `node` and carries none of
/// `bits`.
struct Skip {
  std::uint32_t node;
  EdgeId edge;
  std::uint64_t bits;
};

/// What every batch of one skippingPaths call shares.
struct Sweep {
  const cdfg::CsrView& view;
  cdfg::EdgeSel sel;
  std::span<const PathQuery> queries;
  std::span<const NodeId> order;        ///< short when the view is cyclic
  std::vector<std::uint32_t> position;  ///< index in `order` (DAG only)
};

bool inView(const cdfg::CsrView& view, NodeId v) {
  return v.isValid() && v.value() < view.nodeCount();
}

/// Answers queries [lo, hi), at most kBatch of them, into answer[lo, hi).
void answerBatch(const Sweep& s, std::size_t lo, std::size_t hi,
                 std::vector<char>& answer) {
  const std::size_t n = s.view.nodeCount();
  const bool acyclic = s.order.size() == n;
  std::vector<std::uint64_t> word(n, 0);
  std::vector<Skip> skips;
  std::uint64_t asked = 0;  ///< the queries a sweep answers
  const auto isAsked = [&](std::size_t q) {
    return ((asked >> (q - lo)) & 1u) != 0;
  };
  // The DAG sweep covers order positions [first, last): nothing before
  // the earliest source carries a bit, nothing after the latest target
  // is asked about.
  std::size_t first = n;
  std::size_t last = 0;
  for (std::size_t q = lo; q < hi; ++q) {
    const PathQuery& query = s.queries[q];
    if (!inView(s.view, query.from) || !inView(s.view, query.to)) {
      continue;
    }
    if (query.from == query.to) {
      answer[q] = 1;
      continue;
    }
    const std::uint64_t bit = std::uint64_t{1} << (q - lo);
    word[query.from.value()] |= bit;
    asked |= bit;
    if (query.skip.isValid()) {
      skips.push_back({query.from.value(), query.skip, bit});
    }
    if (acyclic) {
      first = std::min<std::size_t>(first, s.position[query.from.value()]);
      last = std::max<std::size_t>(last, s.position[query.to.value()]);
    }
  }
  if (asked == 0) {
    return;
  }
  const auto by_node = [](const Skip& a, const Skip& b) {
    return a.node < b.node;
  };
  std::sort(skips.begin(), skips.end(), by_node);

  // Pushes u's word along its out-edges, minus the bits of queries that
  // skip the edge; `gained(v)` is told when v's word grew.
  const auto relax = [&](NodeId u, auto&& gained) {
    const std::uint64_t bits = word[u.value()];
    if (bits == 0) {
      return;
    }
    const auto [sb, se] = std::equal_range(
        skips.begin(), skips.end(), Skip{u.value(), EdgeId::invalid(), 0},
        by_node);
    const auto succs = s.view.successors(u, s.sel);
    const auto ids = s.view.outEdges(u, s.sel);
    for (std::size_t i = 0; i < succs.size(); ++i) {
      std::uint64_t carried = bits;
      for (auto it = sb; it != se; ++it) {
        if (it->edge == ids[i]) {
          carried &= ~it->bits;
        }
      }
      std::uint64_t& dst = word[succs[i].value()];
      if ((carried & ~dst) != 0) {
        dst |= carried;
        gained(succs[i]);
      }
    }
  };

  if (acyclic) {
    for (std::size_t p = first; p < last; ++p) {
      relax(s.order[p], [](NodeId) {});
    }
  } else {
    std::vector<char> queued(n, 0);
    std::vector<NodeId> work;
    const auto enqueue = [&](NodeId v) {
      if (queued[v.value()] == 0) {
        queued[v.value()] = 1;
        work.push_back(v);
      }
    };
    for (std::size_t q = lo; q < hi; ++q) {
      if (isAsked(q)) {
        enqueue(s.queries[q].from);
      }
    }
    while (!work.empty()) {
      const NodeId u = work.back();
      work.pop_back();
      queued[u.value()] = 0;
      relax(u, enqueue);
    }
  }

  for (std::size_t q = lo; q < hi; ++q) {
    if (isAsked(q)) {
      answer[q] = static_cast<char>(
          (word[s.queries[q].to.value()] >> (q - lo)) & 1u);
    }
  }
}

}  // namespace

std::vector<char> skippingPaths(const cdfg::CsrView& view,
                                std::span<const PathQuery> queries,
                                cdfg::EdgeSel sel,
                                std::span<const NodeId> order) {
  std::vector<char> answer(queries.size(), 0);
  if (queries.empty()) {
    return answer;
  }
  std::vector<NodeId> own_order;
  if (order.empty()) {
    own_order = cdfg::topologicalOrder(view, sel);
    order = own_order;
  }
  Sweep s{view, sel, queries, order, {}};
  if (s.order.size() == view.nodeCount()) {
    s.position.resize(s.order.size());
    for (std::size_t p = 0; p < s.order.size(); ++p) {
      s.position[s.order[p].value()] = static_cast<std::uint32_t>(p);
    }
  }
  const std::size_t batches = (queries.size() + kBatch - 1) / kBatch;
  rt::parallel_for(0, batches, /*grain=*/1, [&](std::size_t b) {
    answerBatch(s, b * kBatch, std::min(queries.size(), (b + 1) * kBatch),
                answer);
  });
  return answer;
}

}  // namespace locwm::check
