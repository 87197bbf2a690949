// PERF-STATIC — throughput of the static-analysis subsystem on random
// DFGs from 1k to 50k operations (or one size via --ops N, up to 10^6):
// CSR lowering, the analyses the lint rules read over the cdfg::CsrView
// snapshot (reachability, and ASAP/ALAP slack from sched::TimeFrames),
// the semantic rule pack (checkSemantics, LW6xx) on the generated ids and
// on the same graph with its ids reversed, and the full text-level lint
// (parse + every rule).  Not a paper table; documents that `locwm lint`
// scales to million-node designs whatever their node numbering, and
// records the analyses' deterministic results (reached nodes, critical
// path, exact-gated), the view's memory cost (bytes/node) and the process
// peak RSS in every --json row.  Full-lint rows stop at 5k operations
// because printing + reparsing dominates beyond that.
//
// One more row, "two_chains", times the graph and semantic rule packs on
// a temporal-edge adversary: two 10,000-node chains with 4,999 temporal
// edges from the first to the second, against the same chains with one.
// Every temporal edge is a path query for LW104 and LW601, so a rule
// that answers them one at a time is quadratic here; the in-run ratio of
// the two times is what the gate reads.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench/bench_util.h"
#include "cdfg/csr.h"
#include "cdfg/io.h"
#include "cdfg/prng.h"
#include "cdfg/random_dfg.h"
#include "cdfg/subgraph.h"
#include "check/dataflow.h"
#include "check/linter.h"
#include "check/rules.h"
#include "rt/rt.h"
#include "sched/latency.h"
#include "sched/timeframes.h"

namespace {

using namespace locwm;

double millisSince(std::chrono::steady_clock::time_point start) {
  const auto d = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Process peak resident set size in MiB (-1 when unavailable).
/// ru_maxrss is KiB on Linux and bytes on macOS.
double peakRssMib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) {
    return -1.0;
  }
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
#endif
#else
  return -1.0;
#endif
}

cdfg::Cdfg buildGraph(std::size_t ops, std::uint64_t seed) {
  cdfg::RandomDfgOptions options;
  options.operations = ops;
  options.inputs = ops / 64 + 4;
  options.width = ops / 128 + 8;
  cdfg::Cdfg g = cdfg::randomDfg(options, seed);
  // A watermark-like sprinkling of forward temporal edges so the semantic
  // rules have something to chew on (ids are topological by construction).
  cdfg::SplitMix64 rng(ops);
  const std::size_t n = g.nodeCount();
  for (std::size_t i = 0; i < 32; ++i) {
    const auto a = cdfg::NodeId(static_cast<std::uint32_t>(rng.below(n)));
    const auto b = cdfg::NodeId(static_cast<std::uint32_t>(rng.below(n)));
    if (a.value() < b.value() &&
        !g.hasEdge(a, b, cdfg::EdgeKind::kTemporal)) {
      g.addEdge(a, b, cdfg::EdgeKind::kTemporal);
    }
  }
  return g;
}

/// Two chains a_0 -> ... -> a_{n-1} and b_0 -> ... -> b_{n-1} with
/// temporal edges a_{2k+1} -> b_{2k+2} for k < `temporal`: none implied
/// by another, none stretching the critical path.
cdfg::Cdfg twoChains(std::uint32_t n, std::uint32_t temporal) {
  cdfg::Cdfg g;
  for (std::uint32_t c = 0; c < 2; ++c) {
    for (std::uint32_t i = 0; i < n; ++i) {
      g.addNode(i == 0       ? cdfg::OpKind::kInput
                : i + 1 == n ? cdfg::OpKind::kOutput
                             : cdfg::OpKind::kAdd);
    }
  }
  for (std::uint32_t c = 0; c < 2; ++c) {
    for (std::uint32_t i = 0; i + 1 < n; ++i) {
      g.addEdge(cdfg::NodeId(c * n + i), cdfg::NodeId(c * n + i + 1));
    }
  }
  for (std::uint32_t k = 0; k < temporal; ++k) {
    g.addEdge(cdfg::NodeId(2 * k + 1), cdfg::NodeId(n + 2 * k + 2),
              cdfg::EdgeKind::kTemporal);
  }
  return g;
}

/// Best of five runs of the graph and semantic rule packs (what
/// `locwm lint` runs on a design after parsing); `findings` receives
/// their diagnostic count.
double bestRulesMs(const cdfg::Cdfg& g, std::size_t& findings) {
  double best = -1.0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t = std::chrono::steady_clock::now();
    findings = check::checkGraph(g, {}, "bench").diagnostics().size() +
               check::checkSemantics(g).diagnostics().size();
    const double ms = millisSince(t);
    best = best < 0 ? ms : std::min(best, ms);
  }
  return best;
}

/// Parses `--ops N` (0 = not given: run the default size ladder).
std::size_t opsArg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--ops") == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return 0;
}

std::string cell(double ms) {
  char buf[32];
  if (ms < 0) {
    std::snprintf(buf, sizeof buf, "%9s", "-");
  } else {
    std::snprintf(buf, sizeof buf, "%9.2f", ms);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bench::applyThreadsFlag(argc, argv);
  const std::uint64_t seed = bench::seedArg(argc, argv, /*fallback=*/7);
  bench::JsonReport json("perf_static_analysis", argc, argv);
  bench::banner("PERF-STATIC: lint + dataflow throughput on CSR",
                "static-analysis subsystem (docs/STATIC_ANALYSIS.md, "
                "docs/GRAPH_CORE.md)");
  std::printf("%8s %9s %9s %9s %9s %9s %9s\n", "ops", "lower", "reach",
              "slack", "semantic", "sem-rev", "lint");
  std::printf("%8s %9s %9s %9s %9s %9s %9s\n", "", "(ms)", "(ms)", "(ms)",
              "(ms)", "(ms)", "(ms)");
  bench::rule(72);

  std::vector<std::size_t> sizes{1000, 5000, 20000, 50000};
  if (const std::size_t ops = opsArg(argc, argv); ops != 0) {
    sizes.assign(1, ops);
  }

  for (const std::size_t ops : sizes) {
    const cdfg::Cdfg g = buildGraph(ops, seed);

    // Lowering cost is paid once per analysis batch; every CSR pass below
    // reuses this snapshot.
    const auto tl = std::chrono::steady_clock::now();
    const cdfg::CsrView view(g);
    const double lower_ms = millisSince(tl);

    std::vector<cdfg::NodeId> sources;
    for (const cdfg::NodeId v : g.allNodes()) {
      if (g.inEdges(v).empty()) {
        sources.push_back(v);
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    const auto reach = check::computeReachability(
        view, sources, check::Direction::kForward);
    const double reach_csr_ms = millisSince(t1);
    const auto reach_marked = static_cast<std::uint64_t>(
        std::count(reach.mark.begin(), reach.mark.end(), 1));

    const auto t2 = std::chrono::steady_clock::now();
    const sched::TimeFrames frames(view, sched::LatencyModel::unit());
    const double slack_csr_ms = millisSince(t2);

    // The LW6xx rules on the generated ids, then on the graph with its ids
    // reversed, the numbering of a reverse-engineered copy: a pass whose
    // cost depends on id order shows as a ratio above 1.  Best of three
    // runs each, so the in-run ratio compares like with like.
    std::vector<std::uint32_t> reverse_ids(g.nodeCount());
    for (std::size_t i = 0; i < reverse_ids.size(); ++i) {
      reverse_ids[i] = static_cast<std::uint32_t>(reverse_ids.size() - 1 - i);
    }
    const cdfg::Cdfg reversed = cdfg::relabel(g, reverse_ids);
    std::size_t semantic_findings = 0;
    const auto bestSemanticMs = [&](const cdfg::Cdfg& graph) {
      double best = -1.0;
      for (int rep = 0; rep < 3; ++rep) {
        const auto t = std::chrono::steady_clock::now();
        semantic_findings = check::checkSemantics(graph).diagnostics().size();
        const double ms = millisSince(t);
        best = best < 0 ? ms : std::min(best, ms);
      }
      return best;
    };
    const double semantic_ms = bestSemanticMs(g);
    const std::size_t generated_findings = semantic_findings;
    const double semantic_rev_ms = bestSemanticMs(reversed);
    if (semantic_findings != generated_findings) {
      std::fprintf(stderr, "reversed ids changed the LW6xx finding count\n");
      return 1;
    }

    // Percentiles for the perf gate: re-run the analysis batch (reach and
    // slack) a few times and report its p50/p95/p99.
    std::vector<double> batch_samples;
    for (int rep = 0; rep < 3; ++rep) {
      const auto tb = std::chrono::steady_clock::now();
      const auto reach_rep = check::computeReachability(
          view, sources, check::Direction::kForward);
      const sched::TimeFrames frames_rep(view, sched::LatencyModel::unit());
      static_cast<void>(reach_rep);
      static_cast<void>(frames_rep);
      batch_samples.push_back(millisSince(tb));
    }

    double lint_ms = -1.0;
    std::size_t lint_findings = 0;
    if (ops <= 5000) {
      const std::string text = cdfg::printToString(g);
      const auto t4 = std::chrono::steady_clock::now();
      check::Linter linter;
      linter.lintText(text, "bench");
      lint_ms = millisSince(t4);
      lint_findings = linter.report().diagnostics().size();
    }

    std::printf("%8zu %s %s %s %s %s %s\n", g.nodeCount(),
                cell(lower_ms).c_str(), cell(reach_csr_ms).c_str(),
                cell(slack_csr_ms).c_str(),
                cell(semantic_ms).c_str(), cell(semantic_rev_ms).c_str(),
                cell(lint_ms).c_str());

    json.row({{"shape", "random"},
              {"ops", static_cast<std::uint64_t>(g.nodeCount())},
              {"edges", static_cast<std::uint64_t>(g.edgeCount())},
              {"seed", seed},
              {"threads", static_cast<std::uint64_t>(rt::threadCount())},
              {"lower_ms", lower_ms},
              {"csr_bytes_per_node", view.bytesPerNode()},
              {"reach_csr_ms", reach_csr_ms},
              {"reach_marked", reach_marked},
              {"slack_csr_ms", slack_csr_ms},
              {"critical",
               static_cast<std::uint64_t>(frames.criticalPathSteps())},
              {"semantic_ms", semantic_ms},
              {"semantic_rev_ms", semantic_rev_ms},
              {"semantic_rev_ratio", semantic_rev_ms / semantic_ms},
              {"semantic_findings",
               static_cast<std::uint64_t>(semantic_findings)},
              {"lint_ms", lint_ms},
              {"lint_findings", static_cast<std::uint64_t>(lint_findings)},
              {"p50_ms", bench::percentile(batch_samples, 0.50)},
              {"p95_ms", bench::percentile(batch_samples, 0.95)},
              {"p99_ms", bench::percentile(batch_samples, 0.99)},
              {"peak_rss_mib", peakRssMib()}});
  }
  bench::rule(72);
  std::printf("'-' means skipped\n\n");

  // The temporal-edge adversary and its one-edge twin.
  constexpr std::uint32_t kChain = 10000;
  const cdfg::Cdfg adversary = twoChains(kChain, kChain / 2 - 1);
  const cdfg::Cdfg twin = twoChains(kChain, 1);
  std::size_t adversary_findings = 0;
  std::size_t twin_findings = 0;
  const double adversary_ms = bestRulesMs(adversary, adversary_findings);
  const double twin_ms = bestRulesMs(twin, twin_findings);
  std::printf("two chains of %u, graph + semantic rules: %zu temporal "
              "edges %.2f ms, one edge %.2f ms (ratio %.2f)\n",
              kChain, adversary.temporalEdges().size(), adversary_ms,
              twin_ms, adversary_ms / twin_ms);
  json.row({{"shape", "two_chains"},
            {"ops", static_cast<std::uint64_t>(adversary.nodeCount())},
            {"temporal_edges",
             static_cast<std::uint64_t>(adversary.temporalEdges().size())},
            {"seed", seed},
            {"threads", static_cast<std::uint64_t>(rt::threadCount())},
            {"rules_ms", adversary_ms},
            {"twin_rules_ms", twin_ms},
            {"rules_ratio", adversary_ms / twin_ms},
            {"rules_findings", static_cast<std::uint64_t>(adversary_findings)},
            {"twin_rules_findings", static_cast<std::uint64_t>(twin_findings)},
            {"peak_rss_mib", peakRssMib()}});
  std::printf("peak RSS %.1f MiB\n", peakRssMib());
  return 0;
}
