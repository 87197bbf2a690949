// PERF-STATIC — throughput of the static-analysis subsystem on random
// DFGs from 1k to 50k operations (or one size via --ops N, up to 10^6):
// CSR lowering, the dataflow engine's concrete analyses over the
// cdfg::CsrView snapshot (precedence closure, reachability, ASAP/ALAP
// slack), the semantic rule pack (checkSemantics, LW6xx) and the full
// text-level lint (parse + every rule).  Not a paper table; documents
// that `locwm lint` scales to million-node designs, pins the closure's
// node-count gate, and records the engine's deterministic work (worklist
// visits of the reachability and slack passes, exact-gated), the view's
// memory cost (bytes/node) and the process peak RSS in every --json row.
//
// Closure rows stop at check::kClosureNodeLimit (the bit-matrix gate —
// larger graphs take the per-query DFS fallback); full-lint rows stop at
// 5k operations because printing + reparsing dominates beyond that.
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
#include "check/dataflow.h"
#include "check/linter.h"
#include "check/rules.h"
#include "rt/rt.h"
#include "sched/latency.h"

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
  std::printf("%8s %9s %9s %9s %9s %9s %9s\n", "ops", "lower", "closure",
              "reach", "slack", "semantic", "lint");
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

    double closure_csr_ms = -1.0;
    std::uint64_t closure_kib = 0;
    if (g.nodeCount() <= check::kClosureNodeLimit) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto closure = check::computePrecedenceClosure(view);
      closure_csr_ms = millisSince(t0);
      closure_kib = closure.domain.ancestors.memoryBytes() / 1024;
    }

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

    const auto t2 = std::chrono::steady_clock::now();
    const auto slack = check::computeSlack(view, sched::LatencyModel::unit());
    const double slack_csr_ms = millisSince(t2);

    const auto t3 = std::chrono::steady_clock::now();
    const auto semantic = check::checkSemantics(g);
    const double semantic_ms = millisSince(t3);

    // Percentiles for the perf gate: re-run the CSR analysis batch (the
    // steady-state fast path) a few times and report its p50/p95/p99.
    std::vector<double> batch_samples;
    for (int rep = 0; rep < 3; ++rep) {
      const auto tb = std::chrono::steady_clock::now();
      const auto reach_rep = check::computeReachability(
          view, sources, check::Direction::kForward);
      const auto slack_rep =
          check::computeSlack(view, sched::LatencyModel::unit());
      static_cast<void>(reach_rep);
      static_cast<void>(slack_rep);
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
                cell(lower_ms).c_str(), cell(closure_csr_ms).c_str(),
                cell(reach_csr_ms).c_str(), cell(slack_csr_ms).c_str(),
                cell(semantic_ms).c_str(), cell(lint_ms).c_str());

    json.row({{"ops", static_cast<std::uint64_t>(g.nodeCount())},
              {"edges", static_cast<std::uint64_t>(g.edgeCount())},
              {"seed", seed},
              {"threads", static_cast<std::uint64_t>(rt::threadCount())},
              {"lower_ms", lower_ms},
              {"csr_bytes_per_node", view.bytesPerNode()},
              {"closure_csr_ms", closure_csr_ms},
              {"closure_kib", closure_kib},
              {"closure_gated",
               g.nodeCount() > check::kClosureNodeLimit},
              {"reach_csr_ms", reach_csr_ms},
              {"reach_converged", reach.stats.converged},
              {"reach_visits",
               static_cast<std::uint64_t>(reach.stats.visits)},
              {"slack_csr_ms", slack_csr_ms},
              {"slack_converged", slack.converged()},
              {"slack_fwd_visits",
               static_cast<std::uint64_t>(slack.forward_stats.visits)},
              {"slack_bwd_visits",
               static_cast<std::uint64_t>(slack.backward_stats.visits)},
              {"semantic_ms", semantic_ms},
              {"semantic_findings",
               static_cast<std::uint64_t>(semantic.diagnostics().size())},
              {"lint_ms", lint_ms},
              {"lint_findings", static_cast<std::uint64_t>(lint_findings)},
              {"p50_ms", bench::percentile(batch_samples, 0.50)},
              {"p95_ms", bench::percentile(batch_samples, 0.95)},
              {"p99_ms", bench::percentile(batch_samples, 0.99)},
              {"peak_rss_mib", peakRssMib()}});
  }
  bench::rule(72);
  std::printf("closure is gated at %zu nodes (bit-matrix memory); '-' "
              "means skipped\n", check::kClosureNodeLimit);
  std::printf("peak RSS %.1f MiB\n", peakRssMib());
  return 0;
}
