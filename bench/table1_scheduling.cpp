// TAB1 — reproduces Table I of the paper: local watermarking of operation
// scheduling on MediaBench applications compiled for a 4-issue VLIW
// (4 ALUs, 2 branch, 2 memory units).
//
// Columns, as in the paper: application, N (operations), then for
// α = 0.2 and α = 0.5: the likelihood of solution coincidence Pc (with
// K = 0.2·τ temporal edges) and the percent increase in execution time.
// The paper's headline: "all IPP properties ... with negligible
// performance overhead", Pc astronomically small for large subtrees.
//
// Pc here is the paper's whole-design approximation: approxSchedulingPc of
// every mark's temporal edges over the original design, under the VLIW
// latencies and the embedding deadline.  It is not the detectors'
// wm::schedulingPc, which rates one found mark on its locality shape with
// unit latencies: Table I rates the whole watermark against the schedule
// space of the whole design, far too large to count, and the paper's
// column is that product of per-edge order probabilities.
//
// Substitution (see DESIGN.md): MediaBench binaries + IMPACT are
// reconstructed as per-application synthetic DFG profiles; the watermark
// code path (temporal-edge augmentation -> re-schedule -> cycle delta) is
// the paper's.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/pc.h"
#include "core/sched_wm.h"
#include "sched/timeframes.h"
#include "vliw/cache.h"
#include "vliw/vliw_scheduler.h"
#include "workloads/mediabench.h"

int main(int argc, char** argv) {
  using namespace locwm;
  bench::JsonReport report("table1_scheduling", argc, argv);
  bench::banner(
      "TAB1  scheduling watermarks on MediaBench / 4-issue VLIW",
      "Kirovski & Potkonjak, TCAD 22(9) 2003, Table I");

  const vliw::VliwMachine machine = vliw::VliwMachine::paperMachine();
  // "local": several small watermarks, scaled to the program size so the
  // added dummy operations stay a fraction of a percent of the work.

  std::printf("\n%-12s %6s | %10s %8s | %10s %8s | %5s\n", "app", "N",
              "Pc(a=0.2)", "ovhd%", "Pc(a=0.5)", "ovhd%", "K");
  bench::rule(78);

  for (const auto& profile : workloads::mediaBenchProfiles()) {
    const cdfg::Cdfg original = workloads::buildMediaBench(profile);
    const vliw::CacheModel cache;  // the paper's 8-KB cache
    const std::uint64_t stalls =
        vliw::estimateCacheStalls(original, cache, profile.working_set_bytes);
    const std::uint32_t base = static_cast<std::uint32_t>(
        vliw::vliwSchedule(original, machine).cycles + stalls);
    // Deadline for the embedder's frames: the dependence-critical path plus
    // a modest fraction of slack (the region must still fit its schedule).
    const sched::TimeFrames dep(original, machine.latency);
    const std::uint32_t deadline =
        dep.criticalPathSteps() + std::max(4u, dep.criticalPathSteps() / 8);

    const std::size_t kMarks =
        std::max<std::size_t>(2, profile.operations / 600);
    std::printf("%-12s %6zu |", profile.name.c_str(), profile.operations);
    std::size_t k_report = 0;
    std::vector<std::string> pc_cells;
    std::vector<double> ovhd_cells;
    for (const double alpha : {0.2, 0.5}) {
      cdfg::Cdfg g = workloads::buildMediaBench(profile);
      wm::SchedulingWatermarker marker(
          {"Alice Designer <alice@example.com>", profile.name});
      wm::SchedWmParams params;
      params.alpha = alpha;
      params.k_fraction = 0.2;           // K = 0.2 tau
      params.locality.min_size = 10;     // tau >= 10
      params.locality.max_distance = 8;
      params.min_eligible = 6;
      params.latency = machine.latency;
      params.deadline = deadline;
      const auto marks = marker.embedMany(g, kMarks, params);

      std::vector<sched::ExtraEdge> edges;
      for (const auto& m : marks) {
        for (const cdfg::EdgeId e : m.added_edges) {
          edges.push_back({g.edge(e).src, g.edge(e).dst});
        }
      }
      const auto pc = wm::approxSchedulingPc(original, edges,
                                             machine.latency, deadline);
      // The paper realizes temporal edges as dummy unit operations before
      // compiling; overhead is the cycle delta of the realized program.
      // Dummy watermark ops never touch memory: the cache stall term is
      // identical on both sides of the ratio.
      const cdfg::Cdfg realized = wm::realizeWithDummyOps(g);
      const std::uint32_t cycles = static_cast<std::uint32_t>(
          vliw::vliwSchedule(realized, machine).cycles + stalls);
      const double overhead =
          100.0 * (static_cast<double>(cycles) - base) / base;
      pc_cells.push_back(bench::pcString(pc.log10_pc));
      ovhd_cells.push_back(overhead);
      std::printf(" %10s %7.2f%% |", pc_cells.back().c_str(), overhead);
      k_report = edges.size();
    }
    std::printf(" %5zu\n", k_report);
    report.row({{"app", profile.name},
                {"n", static_cast<std::uint64_t>(profile.operations)},
                {"pc_a02", pc_cells[0]},
                {"ovhd_pct_a02", ovhd_cells[0]},
                {"pc_a05", pc_cells[1]},
                {"ovhd_pct_a05", ovhd_cells[1]},
                {"k", static_cast<std::uint64_t>(k_report)}});
  }

  std::printf(
      "\npaper shape to match: Pc negligible (1e-5 .. 1e-30 and below),\n"
      "execution-time overhead well under a few percent for both alphas.\n");
  return 0;
}
