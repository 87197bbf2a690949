// Shared-replay oracle tests.  Locality derivation is split into a
// key-independent identification context per (root, Δ) and a keyed carve
// (core/locality.h), and detection replays many certificates through one
// root-major batch (replayShapeMatches).  These tests pin both against the
// builder-graph derivation the split replaced, kept here as the oracle:
//
//  * per design, derive(), context()+carve() and wholeDesign() equal the
//    oracle — nodes, shape (printed byte for byte) and bits consumed — at
//    every candidate root under several parameter sets;
//  * per batch, replayShapeMatches() equals one serial oracle replay per
//    query, on batches mixing Δ, min_size and exclude_prob_256, anchored
//    and unanchored queries, unsorted, duplicate, overlapping and
//    transparent roots, at 1, 2 and 8 lanes, and it builds exactly one
//    context per distinct (root, Δ) that reaches the ordering;
//  * per design, the balls read off the deriver's real-op adjacency (To,
//    the context ball, the screen's fanin counts) and candidateRoots()
//    equal the walk-per-frontier-node reference of naive_oracles.h at
//    every real root and every radius 1..Δ.
//
// Designs: seeded random DFGs, the HYPER suite, scaled MediaBench mixes,
// copy-split variants (the contraction path) and the core/attack
// structural mutations.  The suite also runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cdfg/io.h"
#include "cdfg/random_dfg.h"
#include "cdfg/subgraph.h"
#include "core/attack.h"
#include "core/locality.h"
#include "naive_oracles.h"
#include "rt/rt.h"
#include "sched/timeframes.h"
#include "workloads/hyper.h"
#include "workloads/mediabench.h"

namespace locwm::wm {
namespace {

using cdfg::Cdfg;
using cdfg::NodeId;

// --- the builder-graph oracle ---------------------------------------------

bool isTransparent(cdfg::OpKind kind) {
  return cdfg::isPseudoOp(kind) || kind == cdfg::OpKind::kCopy;
}

/// The contracted identification graph as a builder graph, edges added in
/// the design's edge-insertion order.
Cdfg contractedOracle(const Cdfg& g, const std::vector<NodeId>& members,
                      cdfg::NodeMap& map) {
  Cdfg c;
  for (const NodeId v : members) {
    map.emplace(v, c.addNode(g.node(v).kind));
  }
  for (const NodeId v : members) {
    for (const cdfg::EdgeId e : g.outEdges(v)) {
      const cdfg::Edge& ed = g.edge(e);
      if (ed.kind == cdfg::EdgeKind::kTemporal) {
        continue;
      }
      if (const auto direct = map.find(ed.dst); direct != map.end()) {
        c.addEdge(map.at(v), direct->second, ed.kind);
        continue;
      }
      if (g.node(ed.dst).kind != cdfg::OpKind::kCopy) {
        continue;
      }
      std::vector<NodeId> stack{ed.dst};
      std::size_t guard = 0;
      while (!stack.empty() && ++guard < 4096) {
        const NodeId p = stack.back();
        stack.pop_back();
        for (const cdfg::EdgeId pe : g.outEdges(p)) {
          const cdfg::Edge& ped = g.edge(pe);
          if (ped.kind == cdfg::EdgeKind::kTemporal) {
            continue;
          }
          if (g.node(ped.dst).kind == cdfg::OpKind::kCopy) {
            stack.push_back(ped.dst);
          } else if (const auto it = map.find(ped.dst); it != map.end()) {
            c.addEdge(map.at(v), it->second, cdfg::EdgeKind::kData);
          }
        }
      }
    }
  }
  return c;
}

/// The 1-WL refinement with per-node key vectors, as the builder-graph
/// derivation ran it.  Returns rank per node (kTied for automorphic
/// nodes) and the nodes in rank order (ties by id).
struct OracleOrdering {
  std::vector<std::uint32_t> rank_of;
  std::vector<NodeId> ordered;
};

OracleOrdering orderOracle(const Cdfg& g) {
  const sched::StructuralAnalysis analysis(g);
  const std::size_t n = g.nodeCount();
  using Key = std::tuple<std::uint32_t, std::vector<std::uint32_t>,
                         std::vector<std::uint32_t>>;
  std::vector<std::uint32_t> ranks(n, 0);
  const auto assign = [&](std::vector<std::pair<Key, std::size_t>>& keyed) {
    std::sort(keyed.begin(), keyed.end());
    std::uint32_t r = 0;
    for (std::size_t k = 0; k < keyed.size(); ++k) {
      if (k > 0 && keyed[k].first != keyed[k - 1].first) {
        ++r;
      }
      ranks[keyed[k].second] = r;
    }
    return n == 0 ? std::size_t{0} : std::size_t{r} + 1;
  };
  std::vector<std::pair<Key, std::size_t>> keyed;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v(static_cast<std::uint32_t>(i));
    keyed.push_back({Key{analysis.level(v),
                         {cdfg::functionalityId(g.node(v).kind)},
                         {}},
                     i});
  }
  std::size_t classes = assign(keyed);
  for (std::uint32_t depth = 0; classes < n && depth < 64; ++depth) {
    keyed.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId v(static_cast<std::uint32_t>(i));
      Key key{ranks[i], {}, {}};
      for (const NodeId p : g.predecessors(v, /*includeTemporal=*/false)) {
        std::get<1>(key).push_back(ranks[p.value()]);
      }
      for (const NodeId s : g.successors(v, /*includeTemporal=*/false)) {
        std::get<2>(key).push_back(ranks[s.value()]);
      }
      std::sort(std::get<1>(key).begin(), std::get<1>(key).end());
      std::sort(std::get<2>(key).begin(), std::get<2>(key).end());
      keyed.push_back({std::move(key), i});
    }
    const std::size_t now = assign(keyed);
    if (now == classes) {
      break;
    }
    classes = now;
  }
  OracleOrdering out;
  for (std::size_t i = 0; i < n; ++i) {
    out.ordered.emplace_back(static_cast<std::uint32_t>(i));
  }
  std::stable_sort(out.ordered.begin(), out.ordered.end(),
                   [&](NodeId a, NodeId b) {
                     return ranks[a.value()] < ranks[b.value()];
                   });
  std::map<std::uint32_t, std::size_t> multiplicity;
  for (const std::uint32_t r : ranks) {
    ++multiplicity[r];
  }
  out.rank_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.rank_of[i] =
        multiplicity[ranks[i]] == 1 ? ranks[i] : IdentContext::kTied;
  }
  return out;
}

/// Shape of `carved` (contracted ids, rank order): induced subgraph with
/// id == position, unlabeled.
Cdfg shapeOracle(const Cdfg& contracted, const std::vector<NodeId>& carved) {
  Cdfg shape = cdfg::inducedSubgraph(contracted, carved).stripTemporalEdges();
  for (const NodeId v : shape.allNodes()) {
    shape.setNodeName(v, {});
  }
  return shape;
}

std::optional<Locality> deriveOracle(const Cdfg& g, NodeId root,
                                     const LocalityParams& params,
                                     crypto::KeyedBitstream& bits) {
  if (isTransparent(g.node(root).kind)) {
    return std::nullopt;
  }
  const auto ball = [&](bool undirected) {
    return testing::naiveBall(g, root, params.max_distance, undirected);
  };
  const std::vector<NodeId> to_nodes = ball(false);
  if (to_nodes.size() < params.min_size) {
    return std::nullopt;
  }
  cdfg::NodeMap map;
  const Cdfg contracted = contractedOracle(g, ball(true), map);
  const OracleOrdering ord = orderOracle(contracted);
  const auto rank = [&](NodeId v) { return ord.rank_of[v.value()]; };
  const NodeId root_local = map.at(root);
  if (rank(root_local) == IdentContext::kTied) {
    return std::nullopt;
  }
  std::vector<bool> in_to(contracted.nodeCount(), false);
  for (const NodeId v : to_nodes) {
    in_to[map.at(v).value()] = true;
  }
  std::vector<bool> carved(contracted.nodeCount(), false);
  carved[root_local.value()] = true;
  std::vector<NodeId> frontier{root_local};
  const auto byRank = [&](NodeId a, NodeId b) { return rank(a) < rank(b); };
  while (!frontier.empty()) {
    std::sort(frontier.begin(), frontier.end(), byRank);
    std::vector<NodeId> next;
    for (const NodeId v : frontier) {
      std::vector<NodeId> preds =
          contracted.predecessors(v, /*includeTemporal=*/false);
      std::sort(preds.begin(), preds.end());
      preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
      std::erase_if(preds, [&](NodeId p) {
        return !in_to[p.value()] || rank(p) == IdentContext::kTied;
      });
      std::sort(preds.begin(), preds.end(), byRank);
      if (preds.empty()) {
        continue;
      }
      const std::size_t keep = bits.below(preds.size());
      for (std::size_t i = 0; i < preds.size(); ++i) {
        const bool include =
            i == keep || !bits.chance(params.exclude_prob_256, 256);
        if (include && !carved[preds[i].value()]) {
          carved[preds[i].value()] = true;
          next.push_back(preds[i]);
        }
      }
    }
    frontier = std::move(next);
  }
  std::vector<NodeId> carved_local;
  for (const NodeId v : ord.ordered) {
    if (carved[v.value()]) {
      carved_local.push_back(v);
    }
  }
  if (carved_local.size() < params.min_size) {
    return std::nullopt;
  }
  std::unordered_map<NodeId, NodeId> inverse;
  for (const auto& [orig, local] : map) {
    inverse.emplace(local, orig);
  }
  Locality loc;
  loc.root = root;
  for (const NodeId v : carved_local) {
    loc.nodes.push_back(inverse.at(v));
  }
  loc.shape = shapeOracle(contracted, carved_local);
  return loc;
}

std::optional<Locality> wholeDesignOracle(const Cdfg& g,
                                          std::size_t min_size) {
  std::vector<NodeId> real;
  for (const NodeId v : g.allNodes()) {
    if (!isTransparent(g.node(v).kind)) {
      real.push_back(v);
    }
  }
  if (real.size() < min_size) {
    return std::nullopt;
  }
  cdfg::NodeMap map;
  const Cdfg contracted = contractedOracle(g, real, map);
  const OracleOrdering ord = orderOracle(contracted);
  std::vector<NodeId> untied;
  for (const NodeId v : ord.ordered) {
    if (ord.rank_of[v.value()] != IdentContext::kTied) {
      untied.push_back(v);
    }
  }
  if (untied.size() < min_size) {
    return std::nullopt;
  }
  std::unordered_map<NodeId, NodeId> inverse;
  for (const auto& [orig, local] : map) {
    inverse.emplace(local, orig);
  }
  Locality loc;
  loc.root = NodeId::invalid();
  for (const NodeId v : untied) {
    loc.nodes.push_back(inverse.at(v));
  }
  loc.shape = shapeOracle(contracted, untied);
  return loc;
}

/// One serial oracle derivation per (query, root).
std::vector<ShapeHit> replayOracle(const Cdfg& g, const ShapeQuery& q) {
  const cdfg::CsrView view(g);
  std::vector<ShapeHit> hits;
  for (const NodeId root : q.roots) {
    if (q.root_rank.has_value() && view.kind(root) != *q.rootKind()) {
      continue;
    }
    crypto::KeyedBitstream bits(*q.signature, *q.context + "/carve");
    const std::optional<Locality> loc = deriveOracle(g, root, q.params, bits);
    if (loc && shapeEquals(loc->shape, *q.shape)) {
      hits.push_back({root, loc->nodes});
    }
  }
  return hits;
}

std::string render(const std::optional<Locality>& loc) {
  if (!loc) {
    return "none";
  }
  std::string out = "root=" + std::to_string(loc->root.value()) + " nodes=";
  for (const NodeId v : loc->nodes) {
    out += std::to_string(v.value()) + ",";
  }
  return out + "\n" + cdfg::printToString(loc->shape);
}

std::string render(const std::vector<ShapeHit>& hits) {
  std::string out;
  for (const ShapeHit& h : hits) {
    out += std::to_string(h.root.value()) + ":";
    for (const NodeId v : h.nodes) {
      out += std::to_string(v.value()) + ",";
    }
    out += " ";
  }
  return out;
}

// --- designs --------------------------------------------------------------

struct Design {
  std::string name;
  Cdfg g;
};

/// Splits every second data edge with a copy, every fifth with a chain of
/// two, so contraction (and its multiplicity) is exercised.
Cdfg withCopies(const Cdfg& g) {
  Cdfg out;
  for (const NodeId v : g.allNodes()) {
    out.addNode(g.node(v).kind, g.node(v).name);
  }
  for (const cdfg::EdgeId e : g.allEdges()) {
    const cdfg::Edge& ed = g.edge(e);
    if (ed.kind != cdfg::EdgeKind::kData || e.value() % 2 != 0) {
      out.addEdge(ed.src, ed.dst, ed.kind);
      continue;
    }
    NodeId from = ed.src;
    for (std::uint32_t k = 0; k < (e.value() % 5 == 0 ? 2u : 1u); ++k) {
      const NodeId mov = out.addNode(cdfg::OpKind::kCopy);
      out.addEdge(from, mov, cdfg::EdgeKind::kData);
      from = mov;
    }
    out.addEdge(from, ed.dst, cdfg::EdgeKind::kData);
  }
  return out;
}

std::vector<Design> randomDesigns() {
  std::vector<Design> out;
  for (const std::uint64_t seed : {3u, 17u, 41u}) {
    cdfg::RandomDfgOptions o;
    o.operations = 70;
    o.inputs = 5;
    o.width = 7;
    o.w_branch = 0.5;  // control edges
    const Cdfg g = cdfg::randomDfg(o, seed);
    out.push_back({"random" + std::to_string(seed), g});
    out.push_back({"random" + std::to_string(seed) + "+copies",
                   withCopies(g)});
  }
  return out;
}

std::vector<Design> hyperDesigns() {
  std::vector<Design> out;
  for (workloads::HyperDesign& d : workloads::hyperSuite()) {
    out.push_back({d.name, std::move(d.graph)});
  }
  return out;
}

std::vector<Design> mediaBenchDesigns() {
  std::vector<Design> out;
  for (workloads::MediaBenchProfile p : workloads::mediaBenchProfiles()) {
    p.operations = std::min<std::size_t>(p.operations, 90);
    p.width = std::min<std::size_t>(p.width, 9);
    out.push_back({p.name, workloads::buildMediaBench(p)});
  }
  return out;
}

std::vector<Design> attackedDesigns() {
  std::vector<Design> out;
  const Cdfg base = workloads::waveFilter(6);
  for (std::size_t k = 0; k < kMutationKindCount; ++k) {
    const auto kind = static_cast<MutationKind>(k);
    const MutationOutcome m = mutateDesign(base, kind, /*seed=*/5 + k);
    if (m.applied) {
      out.push_back({"wave6/" + std::string(mutationKindName(kind)),
                     m.design.stripTemporalEdges()});
    }
  }
  out.push_back({"wave6/copies", withCopies(base)});
  return out;
}

// --- per-design oracle ----------------------------------------------------

const std::vector<LocalityParams>& paramSets() {
  static const std::vector<LocalityParams> sets = {
      {6, 96, 4}, {1, 96, 1}, {2, 0, 3}, {3, 200, 2}, {4, 255, 6}};
  return sets;
}

void expectDeriveMatchesOracle(const Design& d) {
  const LocalityDeriver deriver(d.g);
  const crypto::AuthorSignature sig{"alice", d.name};
  std::size_t derived = 0;
  for (const LocalityParams& params : paramSets()) {
    for (const NodeId root : deriver.candidateRoots()) {
      crypto::KeyedBitstream want_bits(sig, "sched-wm/0/carve");
      crypto::KeyedBitstream got_bits(sig, "sched-wm/0/carve");
      crypto::KeyedBitstream split_bits(sig, "sched-wm/0/carve");
      const std::optional<Locality> want =
          deriveOracle(d.g, root, params, want_bits);
      const std::optional<Locality> got =
          deriver.derive(root, params, got_bits);
      const std::optional<Locality> split = deriver.carve(
          deriver.context(root, params.max_distance), params, split_bits);
      const std::string where = d.name + " root " +
                                std::to_string(root.value()) + " delta " +
                                std::to_string(params.max_distance);
      ASSERT_EQ(render(got), render(want)) << where;
      ASSERT_EQ(render(split), render(want)) << where;
      EXPECT_EQ(got_bits.bitsConsumed(), want_bits.bitsConsumed()) << where;
      EXPECT_EQ(split_bits.bitsConsumed(), want_bits.bitsConsumed()) << where;
      derived += want.has_value() ? 1U : 0U;
    }
  }
  EXPECT_GT(derived, 0u) << d.name
                        << ": nothing derived; the oracle is vacuous";
  for (const std::size_t min_size : {2u, 5u}) {
    EXPECT_EQ(render(deriver.wholeDesign(min_size)),
              render(wholeDesignOracle(d.g, min_size)))
        << d.name << " whole design";
  }
}

TEST(SharedReplay, DeriveMatchesBuilderOracleOnRandomDesigns) {
  for (const Design& d : randomDesigns()) {
    expectDeriveMatchesOracle(d);
  }
}

TEST(SharedReplay, DeriveMatchesBuilderOracleOnHyperSuite) {
  for (const Design& d : hyperDesigns()) {
    expectDeriveMatchesOracle(d);
  }
}

TEST(SharedReplay, DeriveMatchesBuilderOracleOnMediaBenchMixes) {
  for (const Design& d : mediaBenchDesigns()) {
    expectDeriveMatchesOracle(d);
  }
}

TEST(SharedReplay, DeriveMatchesBuilderOracleUnderAttacks) {
  for (const Design& d : attackedDesigns()) {
    expectDeriveMatchesOracle(d);
  }
}

// --- real-op adjacency oracle --------------------------------------------

/// Splits every data edge with a copy chain of 1..6 copies; every third
/// edge instead branches off the middle of its source's first chain, so
/// copies fan out and chains share prefixes.
Cdfg withCopyChains(const Cdfg& g) {
  Cdfg out;
  for (const NodeId v : g.allNodes()) {
    out.addNode(g.node(v).kind, g.node(v).name);
  }
  std::unordered_map<std::uint32_t, std::vector<NodeId>> chain_of;
  for (const cdfg::EdgeId e : g.allEdges()) {
    const cdfg::Edge& ed = g.edge(e);
    if (ed.kind != cdfg::EdgeKind::kData) {
      out.addEdge(ed.src, ed.dst, ed.kind);
      continue;
    }
    const auto it = chain_of.find(ed.src.value());
    if (it != chain_of.end() && e.value() % 3 == 0) {
      out.addEdge(it->second[it->second.size() / 2], ed.dst,
                  cdfg::EdgeKind::kData);
      continue;
    }
    std::vector<NodeId> chain;
    NodeId from = ed.src;
    for (std::uint32_t k = 0; k <= e.value() % 6; ++k) {
      const NodeId mov = out.addNode(cdfg::OpKind::kCopy);
      out.addEdge(from, mov, cdfg::EdgeKind::kData);
      chain.push_back(mov);
      from = mov;
    }
    out.addEdge(from, ed.dst, cdfg::EdgeKind::kData);
    chain_of.emplace(ed.src.value(), std::move(chain));
  }
  return out;
}

/// Δ of the certificates the CLI embeds (LocalityParams{}).
constexpr std::uint32_t kDelta = LocalityParams{}.max_distance;

void expectAdjacencyMatchesWalkOracle(const Design& d) {
  const LocalityDeriver deriver(d.g);
  std::vector<NodeId> want_roots;
  for (const NodeId v : d.g.allNodes()) {
    if (!isTransparent(d.g.node(v).kind) &&
        !testing::naiveRealWalk(d.g, v, /*forward=*/false).empty()) {
      want_roots.push_back(v);
    }
  }
  ASSERT_EQ(deriver.candidateRoots(), want_roots) << d.name;
  std::size_t checked = 0;
  for (const NodeId root : d.g.allNodes()) {
    if (isTransparent(d.g.node(root).kind)) {
      continue;
    }
    for (std::uint32_t radius = 1; radius <= kDelta; ++radius) {
      const std::string where = d.name + " root " +
                                std::to_string(root.value()) + " radius " +
                                std::to_string(radius);
      const std::vector<NodeId> to =
          testing::naiveBall(d.g, root, radius, /*undirected=*/false);
      const IdentContext ctx = deriver.context(root, radius);
      ASSERT_EQ(ctx.members,
                testing::naiveBall(d.g, root, radius, /*undirected=*/true))
          << where;
      std::vector<NodeId> got_to;
      for (std::size_t i = 0; i < ctx.members.size(); ++i) {
        if (ctx.in_to[i] != 0) {
          got_to.push_back(ctx.members[i]);
        }
      }
      ASSERT_EQ(got_to, to) << where;
      ASSERT_EQ(ctx.to_size, to.size()) << where;
      std::array<std::uint32_t, cdfg::kOpKindCount> counts{};
      for (const NodeId v : to) {
        ++counts[static_cast<std::size_t>(d.g.node(v).kind)];
      }
      ASSERT_EQ(deriver.faninKindCounts(root, radius), counts) << where;
      checked += to.size() > 1 ? 1U : 0U;
    }
  }
  EXPECT_GT(checked, 0u) << d.name << ": every ball is trivial";
}

std::vector<Design> copyChainDesigns() {
  std::vector<Design> out;
  for (Design& d : randomDesigns()) {
    if (d.name.find('+') == std::string::npos) {
      Cdfg chained = withCopyChains(d.g);
      testing::addTemporalEdges(chained, 40, /*seed=*/d.g.nodeCount());
      out.push_back({d.name + "+chains+temporal", std::move(chained)});
      out.push_back({d.name + "+chains", withCopyChains(d.g)});
    }
  }
  return out;
}

TEST(RealAdjacency, MatchesWalkOracleOnRandomDesigns) {
  for (const Design& d : randomDesigns()) {
    expectAdjacencyMatchesWalkOracle(d);
  }
}

TEST(RealAdjacency, MatchesWalkOracleOnLongCopyChains) {
  for (const Design& d : copyChainDesigns()) {
    expectAdjacencyMatchesWalkOracle(d);
  }
}

TEST(RealAdjacency, MatchesWalkOracleOnHyperSuite) {
  for (const Design& d : hyperDesigns()) {
    expectAdjacencyMatchesWalkOracle(d);
  }
}

TEST(RealAdjacency, MatchesWalkOracleOnMediaBenchMixes) {
  for (const Design& d : mediaBenchDesigns()) {
    expectAdjacencyMatchesWalkOracle(d);
  }
}

// --- per-batch oracle -----------------------------------------------------

/// An awkward batch over one design: mixed Δ, min_size and exclusion
/// probability; anchored and unanchored queries; every root, unsorted
/// roots, duplicates, roots shared across queries, transparent nodes, a
/// shape that matches nowhere and an empty query.  Shapes are derived at
/// a few roots so most queries have hits.
struct Batch {
  crypto::AuthorSignature alice;
  crypto::AuthorSignature bob;
  std::vector<std::string> contexts{"sched-wm/0", "sched-wm/1", "tm-wm/0",
                                    "reg-wm/0"};
  std::vector<Cdfg> shapes;
  std::vector<ShapeQuery> queries;
};

void buildBatch(const Design& d, const LocalityDeriver& deriver,
                Batch& b) {
  b.alice = {"alice", d.name};
  b.bob = {"bob", d.name};
  const std::vector<NodeId> roots = deriver.candidateRoots();
  std::vector<NodeId> every;
  for (std::uint32_t i = 0; i < d.g.nodeCount(); ++i) {
    every.emplace_back(i);
  }
  std::vector<NodeId> reversed(roots.rbegin(), roots.rend());
  std::vector<NodeId> odd;
  for (std::size_t i = 1; i < roots.size(); i += 2) {
    odd.push_back(roots[i]);
    if (i % 7 == 1) {
      odd.push_back(roots[i]);  // duplicate occurrence
    }
  }
  struct Spec {
    const crypto::AuthorSignature* sig;
    std::size_t context;
    LocalityParams params;
    bool anchored;
    const std::vector<NodeId>* roots;
  };
  const std::vector<Spec> specs = {
      {&b.alice, 0, {6, 96, 4}, true, &roots},
      {&b.alice, 1, {3, 200, 5}, false, &odd},
      {&b.bob, 2, {6, 0, 2}, false, &reversed},
      {&b.alice, 3, {2, 96, 3}, true, &every},
      {&b.bob, 0, {6, 96, 7}, true, &odd},
  };
  // Shapes first (the queries point into b.shapes).
  std::vector<std::optional<std::uint32_t>> ranks;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const Spec& sp = specs[k];
    Cdfg shape;
    std::optional<std::uint32_t> rank;
    for (std::size_t i = (k * 5) % std::max<std::size_t>(1, roots.size());
         i < roots.size(); ++i) {
      crypto::KeyedBitstream bits(*sp.sig, b.contexts[sp.context] + "/carve");
      if (const auto loc = deriver.derive(roots[i], sp.params, bits)) {
        shape = loc->shape;
        rank = static_cast<std::uint32_t>(
            std::find(loc->nodes.begin(), loc->nodes.end(), roots[i]) -
            loc->nodes.begin());
        break;
      }
    }
    b.shapes.push_back(std::move(shape));
    ranks.push_back(sp.anchored ? rank : std::nullopt);
  }
  b.shapes.emplace_back();  // matches nowhere
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const Spec& sp = specs[k];
    b.queries.push_back({sp.sig, &b.contexts[sp.context], sp.params,
                         &b.shapes[k], ranks[k], false, *sp.roots});
  }
  b.queries.push_back({&b.alice, &b.contexts[0], {6, 96, 4}, &b.shapes.back(),
                       std::nullopt, false, roots});
  b.queries.push_back({&b.bob, &b.contexts[1], {5, 96, 4}, &b.shapes[0],
                       std::nullopt, false, {}});
}

/// Contexts a batch must build: distinct (root, Δ) over the roots the
/// queries derive at, whose root is real and whose To holds at least the
/// smallest min_size asked for there.
std::size_t expectedContexts(const LocalityDeriver& deriver,
                             const std::vector<ShapeQuery>& queries) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> min_size;
  for (const ShapeQuery& q : queries) {
    for (const NodeId root : q.roots) {
      if (q.root_rank && deriver.csr().kind(root) != *q.rootKind()) {
        continue;
      }
      const auto key = std::pair(root.value(), q.params.max_distance);
      const auto it = min_size.find(key);
      min_size[key] = it == min_size.end()
                          ? q.params.min_size
                          : std::min(it->second, q.params.min_size);
    }
  }
  std::size_t n = 0;
  for (const auto& [key, size] : min_size) {
    const NodeId root(key.first);
    if (isTransparent(deriver.csr().kind(root))) {
      continue;
    }
    std::size_t to = 0;
    for (const std::uint32_t c : deriver.faninKindCounts(root, key.second)) {
      to += c;
    }
    n += to >= size ? 1 : 0;
  }
  return n;
}

void expectBatchMatchesOracle(const std::vector<Design>& designs) {
  for (const Design& d : designs) {
    const LocalityDeriver deriver(d.g);
    Batch b;
    buildBatch(d, deriver, b);
    std::vector<std::string> want;
    std::size_t hits = 0;
    for (const ShapeQuery& q : b.queries) {
      const std::vector<ShapeHit> oracle = replayOracle(d.g, q);
      hits += oracle.size();
      want.push_back(render(oracle));
    }
    EXPECT_GT(hits, 0u) << d.name << ": no hits; the oracle is vacuous";
    const std::size_t contexts = expectedContexts(deriver, b.queries);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      rt::setThreadCount(threads);
      const ReplayResult got = replayShapeMatches(deriver, b.queries);
      ASSERT_EQ(got.hits.size(), b.queries.size());
      for (std::size_t q = 0; q < b.queries.size(); ++q) {
        EXPECT_EQ(render(got.hits[q]), want[q])
            << d.name << " query " << q << " threads=" << threads;
      }
      EXPECT_EQ(got.contexts, contexts) << d.name << " threads=" << threads;
      // A one-query batch is the same replay.
      EXPECT_EQ(render(replayShapeMatches(deriver, {b.queries.front()})
                           .hits.front()),
                want.front())
          << d.name << " threads=" << threads;
    }
  }
  rt::setThreadCount(0);  // restore automatic sizing for other tests
}

TEST(SharedReplay, BatchMatchesOracleOnRandomDesigns) {
  expectBatchMatchesOracle(randomDesigns());
}

TEST(SharedReplay, BatchMatchesOracleOnHyperSuite) {
  expectBatchMatchesOracle(hyperDesigns());
}

TEST(SharedReplay, BatchMatchesOracleOnMediaBenchMixes) {
  expectBatchMatchesOracle(mediaBenchDesigns());
}

TEST(SharedReplay, BatchMatchesOracleUnderAttacks) {
  expectBatchMatchesOracle(attackedDesigns());
}

TEST(SharedReplay, CarveRejectsContextOfAnotherRadius) {
  const Cdfg g = workloads::waveFilter(6);
  const LocalityDeriver deriver(g);
  const NodeId root = deriver.candidateRoots().back();
  crypto::KeyedBitstream bits({"alice", "wave"}, "sched-wm/0/carve");
  LocalityParams params;
  params.max_distance = 3;
  EXPECT_THROW((void)deriver.carve(deriver.context(root, 4), params, bits),
               WatermarkError);
}

}  // namespace
}  // namespace locwm::wm
