// The one path query the lint rules ask of a design: "is there a path
// from u to v over the selected edges that does not use edge e?"  LW104
// (a temporal edge implied by data/control structure), LW601 (implied by
// the rest of the precedence relation), LW505 (a certificate constraint
// implied by its shape) and the delta engine's full rebuild all ask it
// once per temporal edge or constraint, and the suspect design picks how
// many of those there are.
//
// skippingPaths answers the queries in batches of 64, one bit per query:
// each node holds one 64-bit word, seeded at the sources and OR-ed along
// the edges in cdfg::topologicalOrder order, so a batch costs one sweep of
// the view, O(ceil(T/64) * (N + E)) in all whatever the node numbering.
// On a cyclic view the order is short, and a worklist re-queues a node
// only when its word gains a bit, which bounds the work per batch by 64
// visits per node.  Batches run in parallel, each with its own words.
#pragma once

#include <span>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/ids.h"

namespace locwm::check {

/// One question for skippingPaths: a path `from` -> `to` that never uses
/// edge `skip`, an edge leaving `from` (the temporal edge under test, for
/// LW601); EdgeId::invalid() skips nothing.
struct PathQuery {
  cdfg::NodeId from;
  cdfg::NodeId to;
  cdfg::EdgeId skip = cdfg::EdgeId::invalid();
};

/// answer[i] is 1 when queries[i] has a path over the selected edges.
/// `from == to` is the empty path (1); an endpoint that is invalid or not
/// in the view has none (0).  A caller that holds
/// cdfg::topologicalOrder(view, s) for a selection s that spans `sel`
/// (kAll spans them all) passes it as `order`; otherwise the query
/// computes the order over `sel`.
[[nodiscard]] std::vector<char> skippingPaths(
    const cdfg::CsrView& view, std::span<const PathQuery> queries,
    cdfg::EdgeSel sel, std::span<const cdfg::NodeId> order = {});

}  // namespace locwm::check
