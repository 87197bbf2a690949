// Ground-truth validation of the canonical ordering: on small random
// graphs, compare the WL refinement's tie classes against brute-force
// automorphism orbits; plus robustness (fuzz) tests of the text parsers.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "cdfg/io.h"
#include "cdfg/ordering.h"
#include "cdfg/prng.h"
#include "cdfg/random_dfg.h"
#include "core/certificate_io.h"
#include "sched/timeframes.h"

namespace locwm::cdfg {
namespace {

using sched::StructuralAnalysis;

/// True when `perm` (old -> new) is a kind/edge-preserving automorphism.
bool isAutomorphism(const Cdfg& g, const std::vector<std::uint32_t>& perm) {
  for (const NodeId v : g.allNodes()) {
    if (g.node(NodeId(perm[v.value()])).kind != g.node(v).kind) {
      return false;
    }
  }
  // Compare edge multisets under the permutation.
  std::vector<std::tuple<std::uint32_t, std::uint32_t, EdgeKind>> orig;
  std::vector<std::tuple<std::uint32_t, std::uint32_t, EdgeKind>> mapped;
  for (const EdgeId e : g.allEdges()) {
    const Edge& ed = g.edge(e);
    orig.emplace_back(ed.src.value(), ed.dst.value(), ed.kind);
    mapped.emplace_back(perm[ed.src.value()], perm[ed.dst.value()], ed.kind);
  }
  std::sort(orig.begin(), orig.end());
  std::sort(mapped.begin(), mapped.end());
  return orig == mapped;
}

/// Brute-force orbit partition: nodes u, v share an orbit iff some
/// automorphism maps u to v.  Exponential; graphs must stay tiny.
std::vector<std::uint32_t> orbitOf(const Cdfg& g) {
  const std::size_t n = g.nodeCount();
  std::vector<std::uint32_t> orbit(n);
  std::iota(orbit.begin(), orbit.end(), 0u);
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  do {
    if (isAutomorphism(g, perm)) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t a = std::min(orbit[i], orbit[perm[i]]);
        orbit[i] = a;
        orbit[perm[i]] = a;
      }
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  // Normalize to representatives (union-find style flattening).
  for (std::size_t pass = 0; pass < n; ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      orbit[i] = orbit[orbit[i]];
    }
  }
  return orbit;
}

Cdfg tinyRandom(std::uint64_t seed) {
  // 6-7 nodes so 7! permutations stay cheap.
  SplitMix64 rng(seed);
  Cdfg g;
  const std::size_t n = 6 + rng.below(2);
  for (std::size_t i = 0; i < n; ++i) {
    static constexpr OpKind kKinds[] = {OpKind::kAdd, OpKind::kMul,
                                        OpKind::kSub};
    g.addNode(kKinds[rng.below(3)]);
  }
  for (std::size_t j = 1; j < n; ++j) {
    const std::size_t fanin = 1 + rng.below(2);
    for (std::size_t k = 0; k < fanin; ++k) {
      const auto src = static_cast<std::uint32_t>(rng.below(j));
      if (!g.hasEdge(NodeId(src), NodeId(static_cast<std::uint32_t>(j)),
                     EdgeKind::kData)) {
        g.addEdge(NodeId(src), NodeId(static_cast<std::uint32_t>(j)));
      }
    }
  }
  return g;
}

class WlVsOrbits : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WlVsOrbits, TiesAreExactlyAutomorphismOrbits) {
  // 1-WL refinement can in principle be coarser than the orbit partition
  // (it never splits an orbit, but may fail to split non-orbit pairs on
  // regular graphs).  Two guarantees are checked:
  //   soundness  — nodes in one orbit always tie (a canonical criterion
  //                cannot separate symmetric nodes);
  //   uniqueness — a node that WL declares *unique* really is alone in
  //                its orbit (it can be re-identified safely).
  const Cdfg g = tinyRandom(GetParam());
  const std::vector<std::uint32_t> orbit = orbitOf(g);
  const StructuralAnalysis analysis(g);
  const NodeOrdering ord = computeOrdering(analysis);

  std::vector<std::uint32_t> rank(g.nodeCount());
  std::vector<bool> tied(g.nodeCount(), false);
  for (std::size_t i = 0; i < ord.ordered.size(); ++i) {
    rank[ord.ordered[i].value()] = ord.ranks[i];
    tied[ord.ordered[i].value()] =
        (i > 0 && ord.ranks[i] == ord.ranks[i - 1]) ||
        (i + 1 < ord.ranks.size() && ord.ranks[i] == ord.ranks[i + 1]);
  }
  for (std::size_t u = 0; u < g.nodeCount(); ++u) {
    for (std::size_t v = u + 1; v < g.nodeCount(); ++v) {
      if (orbit[u] == orbit[v]) {
        EXPECT_EQ(rank[u], rank[v])
            << "orbit-mates " << u << "," << v << " got split";
      }
    }
    if (!tied[u]) {
      // WL-unique nodes must be orbit singletons.
      for (std::size_t v = 0; v < g.nodeCount(); ++v) {
        if (v != u) {
          EXPECT_NE(orbit[u], orbit[v])
              << "node " << u << " unique by WL but automorphic to " << v;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WlVsOrbits,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// The final order: ascending rank, ties by ascending local id — pinned
// against std::stable_sort on graphs built to tie heavily.
// ---------------------------------------------------------------------------

/// `copies` identical random components of `size` nodes over two kinds,
/// plus `isolated` lone adds: every component's nodes tie with their
/// counterparts in the others, and the lone adds all tie.
LocalCsr tiedGraph(std::uint64_t seed, std::size_t copies, std::size_t size,
                   std::size_t isolated) {
  SplitMix64 rng(seed);
  std::vector<OpKind> kinds;
  std::vector<std::vector<std::uint32_t>> succ(size);
  for (std::size_t i = 0; i < size; ++i) {
    kinds.push_back(rng.below(2) == 0 ? OpKind::kAdd : OpKind::kMul);
    for (std::size_t j = i + 1; j < size; ++j) {
      if (rng.below(4) == 0) {
        succ[i].push_back(static_cast<std::uint32_t>(j));
      }
    }
  }
  LocalCsr g;
  for (std::size_t c = 0; c < copies; ++c) {
    g.kinds.insert(g.kinds.end(), kinds.begin(), kinds.end());
  }
  g.kinds.insert(g.kinds.end(), isolated, OpKind::kAdd);
  for (std::size_t c = 0; c < copies; ++c) {
    const auto base = static_cast<std::uint32_t>(c * size);
    for (std::size_t i = 0; i < size; ++i) {
      for (const std::uint32_t j : succ[i]) {
        g.out.push_back(base + j);
        g.out_kind.push_back(EdgeKind::kData);
      }
      g.out_off.push_back(static_cast<std::uint32_t>(g.out.size()));
    }
  }
  for (std::size_t i = 0; i < isolated; ++i) {
    g.out_off.push_back(static_cast<std::uint32_t>(g.out.size()));
  }
  g.buildInLists();
  return g;
}

TEST(Ordering, FinalOrderMatchesStableSortUnderHeavyTies) {
  std::size_t tied_runs = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const LocalCsr g = tiedGraph(seed, 1 + seed % 5, 3 + seed % 9, seed % 7);
    const std::vector<std::uint32_t> levels = levelsOf(g);
    for (const std::uint32_t depth : {0u, 1u, 64u}) {
      const NodeOrdering ord = computeOrdering(g, levels, depth);
      ASSERT_EQ(ord.ordered.size(), g.size());
      ASSERT_EQ(ord.ranks.size(), g.size());
      std::vector<std::uint32_t> rank_of(g.size(), 0);
      for (std::size_t i = 0; i < ord.ordered.size(); ++i) {
        rank_of[ord.ordered[i].value()] = ord.ranks[i];
      }
      std::vector<std::uint32_t> want(g.size());
      std::iota(want.begin(), want.end(), 0u);
      std::stable_sort(want.begin(), want.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return rank_of[a] < rank_of[b];
                       });
      std::vector<std::uint32_t> got;
      for (std::size_t i = 0; i < ord.ordered.size(); ++i) {
        got.push_back(ord.ordered[i].value());
        ASSERT_EQ(ord.ranks[i], rank_of[got.back()]);
      }
      EXPECT_EQ(got, want) << "seed " << seed << " depth " << depth;
      // Ranks are dense: 0 .. classes - 1, each used.
      std::vector<std::uint32_t> distinct = ord.ranks;
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      ASSERT_FALSE(distinct.empty());
      EXPECT_EQ(distinct.back() + 1, distinct.size());
      tied_runs += distinct.size() < g.size() ? 1U : 0U;
    }
  }
  EXPECT_GT(tied_runs, 60u);  // the graphs do tie
}

// ---------------------------------------------------------------------------
// Parser robustness: mutated inputs must either parse or throw the library
// error types — never crash or hang.
// ---------------------------------------------------------------------------
class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, MutatedCdfgNeverCrashes) {
  RandomDfgOptions o;
  o.operations = 20;
  const Cdfg g = randomDfg(o, GetParam());
  std::string text = printToString(g);
  SplitMix64 rng(GetParam() * 977);
  for (int round = 0; round < 200; ++round) {
    std::string mutated = text;
    const std::size_t edits = 1 + rng.below(4);
    for (std::size_t e = 0; e < edits && !mutated.empty(); ++e) {
      const std::size_t pos = rng.below(mutated.size());
      switch (rng.below(3)) {
        case 0:
          mutated[pos] = static_cast<char>('0' + rng.below(75));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(' ' + rng.below(90)));
          break;
      }
    }
    try {
      const Cdfg parsed = parseString(mutated);
      // If it parsed, it must re-serialize consistently.
      EXPECT_EQ(printToString(parseString(printToString(parsed))),
                printToString(parsed));
    } catch (const Error&) {
      // ParseError/GraphError are the contract.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParserFuzz,
                         ::testing::Values(3u, 5u, 8u, 13u));

TEST(ParserFuzz, MutatedCertificatesNeverCrash) {
  const std::string base =
      "locwm-cert v1 sched\n"
      "context sched-wm/0\n"
      "params 6 96 4\n"
      "root-rank 1\n"
      "constraint 0 1\n"
      "shape-begin\n"
      "cdfg v1\n"
      "node 0 add\n"
      "node 1 add\n"
      "edge 0 1 data\n"
      "shape-end\n";
  SplitMix64 rng(4242);
  for (int round = 0; round < 400; ++round) {
    std::string mutated = base;
    const std::size_t edits = 1 + rng.below(5);
    for (std::size_t e = 0; e < edits && !mutated.empty(); ++e) {
      const std::size_t pos = rng.below(mutated.size());
      if (rng.below(2) == 0) {
        mutated[pos] = static_cast<char>('!' + rng.below(90));
      } else {
        mutated.erase(pos, 1);
      }
    }
    try {
      (void)wm::parseSchedCertificate(mutated);
    } catch (const Error&) {
    }
    try {
      (void)wm::parseTmCertificate(mutated);
    } catch (const Error&) {
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace locwm::cdfg
