// PERF — google-benchmark microbenchmarks of the passes themselves:
// locality derivation, watermark embedding, detection scan, matching
// enumeration, covering, scheduling, schedule counting, and artifact
// parsing.  Not a paper
// table; documents the cost of adopting the library.
#include <benchmark/benchmark.h>

#include "core/sched_wm.h"
#include "cdfg/io.h"
#include "core/tm_wm.h"
#include "sched/enumeration.h"
#include "sched/force_directed.h"
#include "sched/list_scheduler.h"
#include "sched/schedule_io.h"
#include "sched/timeframes.h"
#include "tm/cover.h"
#include "workloads/hyper.h"
#include "workloads/iir4.h"
#include "workloads/mediabench.h"

namespace {

using namespace locwm;

cdfg::Cdfg mediabenchGraph(std::size_t ops) {
  workloads::MediaBenchProfile p;
  p.name = "perf";
  p.operations = ops;
  p.seed = 42;
  return workloads::buildMediaBench(p);
}

void BM_ListSchedule(benchmark::State& state) {
  const cdfg::Cdfg g = mediabenchGraph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::listSchedule(g));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.nodeCount()));
}
BENCHMARK(BM_ListSchedule)->Arg(200)->Arg(1000)->Arg(4000);

void BM_ForceDirected(benchmark::State& state) {
  const auto suite = workloads::hyperSuite();
  const cdfg::Cdfg& g = suite[static_cast<std::size_t>(state.range(0))].graph;
  sched::ForceDirectedOptions fd;
  const sched::TimeFrames tf(g, fd.latency);
  fd.deadline = tf.criticalPathSteps() + 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::forceDirectedSchedule(g, fd));
  }
}
BENCHMARK(BM_ForceDirected)->Arg(0)->Arg(1)->Arg(4);

void BM_LocalityDerive(benchmark::State& state) {
  const cdfg::Cdfg g = mediabenchGraph(static_cast<std::size_t>(state.range(0)));
  const wm::LocalityDeriver der(g);
  const auto roots = der.candidateRoots();
  const crypto::AuthorSignature sig{"alice", "perf"};
  std::size_t i = 0;
  for (auto _ : state) {
    crypto::KeyedBitstream bits(sig, "carve");
    benchmark::DoNotOptimize(
        der.derive(roots[i++ % roots.size()], {}, bits));
  }
}
BENCHMARK(BM_LocalityDerive)->Arg(200)->Arg(1000);

void BM_SchedWmEmbed(benchmark::State& state) {
  const cdfg::Cdfg base = mediabenchGraph(static_cast<std::size_t>(state.range(0)));
  const sched::TimeFrames tf(base, sched::LatencyModel::unit());
  wm::SchedulingWatermarker marker({"alice", "perf"});
  wm::SchedWmParams params;
  params.locality.min_size = 8;
  params.min_eligible = 4;
  params.deadline = tf.criticalPathSteps() + 4;
  for (auto _ : state) {
    cdfg::Cdfg g = base;
    benchmark::DoNotOptimize(marker.embed(g, params));
  }
}
BENCHMARK(BM_SchedWmEmbed)->Arg(200)->Arg(1000);

void BM_DetectScan(benchmark::State& state) {
  cdfg::Cdfg g = mediabenchGraph(static_cast<std::size_t>(state.range(0)));
  const sched::TimeFrames tf(g, sched::LatencyModel::unit());
  wm::SchedulingWatermarker marker({"alice", "perf"});
  wm::SchedWmParams params;
  params.locality.min_size = 8;
  params.min_eligible = 4;
  params.deadline = tf.criticalPathSteps() + 4;
  const auto r = marker.embed(g, params);
  if (!r) {
    state.SkipWithError("embed failed");
    return;
  }
  const sched::Schedule s = sched::listSchedule(g);
  const cdfg::Cdfg published = g.stripTemporalEdges();
  for (auto _ : state) {
    benchmark::DoNotOptimize(marker.detect(published, s, r->certificate));
  }
}
BENCHMARK(BM_DetectScan)->Arg(200)->Arg(1000);

void BM_EnumerateMatchings(benchmark::State& state) {
  const auto suite = workloads::hyperSuite();
  const cdfg::Cdfg& g = suite[static_cast<std::size_t>(state.range(0))].graph;
  const tm::TemplateLibrary lib = tm::TemplateLibrary::basicDsp();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tm::enumerateMatchings(g, lib, {}));
  }
}
BENCHMARK(BM_EnumerateMatchings)->Arg(0)->Arg(1)->Arg(4);

void BM_GreedyCover(benchmark::State& state) {
  const auto suite = workloads::hyperSuite();
  const cdfg::Cdfg& g = suite[static_cast<std::size_t>(state.range(0))].graph;
  const tm::TemplateLibrary lib = tm::TemplateLibrary::basicDsp();
  const auto matchings = tm::enumerateMatchings(g, lib, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(tm::cover(g, lib, matchings, {}));
  }
}
BENCHMARK(BM_GreedyCover)->Arg(0)->Arg(1)->Arg(4);

void BM_CountSchedules(benchmark::State& state) {
  const cdfg::Cdfg g = workloads::iir4Parallel();
  sched::EnumerationOptions o;
  const sched::TimeFrames tf(g, o.latency);
  o.deadline = tf.criticalPathSteps() + static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::countSchedules(g, o));
  }
}
// Slacks 3 and 4 are where the plain exhaustive search blew up; the
// memoized counter keeps them cheap.
BENCHMARK(BM_CountSchedules)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

// Artifact parsing through the shared field cursor (cdfg/text.h), in
// bytes of artifact text per second.
void BM_ParseDesign(benchmark::State& state) {
  const std::string text = cdfg::printToString(
      mediabenchGraph(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdfg::parseString(text));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ParseDesign)->Arg(3000);

void BM_ParseSchedule(benchmark::State& state) {
  const cdfg::Cdfg g =
      mediabenchGraph(static_cast<std::size_t>(state.range(0)));
  const std::string text = sched::scheduleToString(g, sched::listSchedule(g));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::parseScheduleString(text, g.nodeCount()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ParseSchedule)->Arg(3000);

}  // namespace

BENCHMARK_MAIN();
