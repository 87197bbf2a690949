#include "check/dataflow.h"

namespace locwm::check {

using cdfg::NodeId;

Reachability computeReachability(const cdfg::CsrView& v,
                                 const std::vector<NodeId>& seeds,
                                 Direction dir, cdfg::EdgeSel sel) {
  Reachability result{std::vector<char>(v.nodeCount(), 0)};
  std::vector<NodeId> stack;
  const auto visit = [&](NodeId node) {
    if (result.mark[node.value()] == 0) {
      result.mark[node.value()] = 1;
      stack.push_back(node);
    }
  };
  for (const NodeId s : seeds) {
    if (s.isValid() && s.value() < v.nodeCount()) {
      visit(s);
    }
  }
  while (!stack.empty()) {
    const NodeId node = stack.back();
    stack.pop_back();
    for (const NodeId next : dir == Direction::kForward
                                 ? v.successors(node, sel)
                                 : v.predecessors(node, sel)) {
      visit(next);
    }
  }
  return result;
}

}  // namespace locwm::check
