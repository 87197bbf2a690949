// locwm::rt runtime: the determinism pin (thread count never changes
// output — schedules, Pc bits, lint reports), exception propagation out
// of parallel regions, pool reuse across passes, nested-region inlining,
// PRNG substream separation, and the parallel closure against the
// sequential fixpoint.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/graph.h"
#include "cdfg/io.h"
#include "cdfg/prng.h"
#include "cdfg/random_dfg.h"
#include "check/dataflow.h"
#include "check/linter.h"
#include "core/pc.h"
#include "core/sched_wm.h"
#include "rt/rt.h"
#include "sched/list_scheduler.h"
#include "sched/schedule_io.h"
#include "sched/timeframes.h"

namespace {

using namespace locwm;

/// Renders a double's exact bit pattern — "equal" is too weak for the
/// determinism pin; we require the same rounding, not the same value.
std::string bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return std::to_string(u);
}

/// One full embed → publish → schedule → detect → Pc → lint pipeline,
/// digested into a string.  Every parallelized pass contributes: the
/// detection root scan, Pc aggregation/confidence, and the lint rule
/// packs (which exercise the parallel closure underneath).
std::string pipelineDigest(std::uint64_t seed) {
  cdfg::RandomDfgOptions o;
  o.operations = 160;
  o.inputs = 6;
  o.width = 8;
  cdfg::Cdfg g = cdfg::randomDfg(o, seed);

  wm::SchedulingWatermarker marker({"alice", "rt-pin"});
  wm::SchedWmParams params;
  params.min_eligible = 3;
  params.k_fraction = 0.5;
  const sched::TimeFrames tf(g, params.latency);
  params.deadline = tf.criticalPathSteps() + 3;
  const auto marks = marker.embedMany(g, 2, params);
  if (marks.empty()) {
    return "no-mark";
  }

  const cdfg::Cdfg published = g.stripTemporalEdges();
  const sched::Schedule s = sched::listSchedule(published);
  std::string digest = sched::scheduleToString(published, s);

  for (const auto& m : marks) {
    const wm::SchedDetector detector(marker, published, m.certificate);
    const auto det = detector.check(s);
    digest += "|det:" + std::to_string(det.found) + "/" +
              std::to_string(det.satisfied) + "/" +
              std::to_string(det.total) + "/" +
              std::to_string(det.shape_matches) + "/" +
              std::to_string(det.root.isValid() ? det.root.value() : 0);
    const wm::PcEstimate pc =
        wm::schedulingPc(m.certificate, det.shape_matches);
    digest += "|pc:" + bits(pc.log10_pc) + "/" + std::to_string(pc.exact);
  }

  check::Linter linter;
  linter.lintText(cdfg::printToString(g), "pin.cdfg");
  linter.lintText(sched::scheduleToString(published, s), "pin.sched");
  digest += "|lint:" + linter.report().renderText();
  return digest;
}

// ---------------------------------------------------------------------------
// The determinism pin: 1, 2, and 8 lanes produce byte-identical
// schedules, detection results, Pc bit patterns, and lint renders.

TEST(Rt, DeterminismAcrossThreadCounts) {
  for (const std::uint64_t seed : {11u, 23u}) {
    rt::setThreadCount(1);
    const std::string serial = pipelineDigest(seed);
    ASSERT_NE(serial, "no-mark");
    for (const std::size_t threads : {2u, 8u}) {
      rt::setThreadCount(threads);
      EXPECT_EQ(pipelineDigest(seed), serial)
          << "thread count " << threads << " changed output (seed " << seed
          << ")";
    }
  }
  rt::setThreadCount(0);  // restore automatic sizing for other tests
}

// Floating-point reductions use a fixed combine tree: per-chunk partials
// fold left-to-right in chunk-index order regardless of which lane ran
// which chunk.

TEST(Rt, ReduceFixedCombineOrder) {
  constexpr std::size_t kN = 10'000;
  const auto map = [](std::size_t i) {
    // Values at wildly different magnitudes, so any change in the
    // combine order changes the rounding.
    return (i % 7 == 0 ? 1e16 : 1.0) / (static_cast<double>(i) + 0.5);
  };
  const auto combine = [](double a, double b) { return a + b; };

  rt::setThreadCount(1);
  const double serial =
      rt::parallel_reduce(0, kN, 0.0, map, combine, /*grain=*/64);
  for (const std::size_t threads : {2u, 3u, 8u}) {
    rt::setThreadCount(threads);
    const double parallel =
        rt::parallel_reduce(0, kN, 0.0, map, combine, /*grain=*/64);
    EXPECT_EQ(bits(serial), bits(parallel)) << threads << " threads";
  }
  rt::setThreadCount(0);
}

// ---------------------------------------------------------------------------
// Exceptions thrown by tasks abort the region and resurface on the
// caller.

TEST(Rt, ParallelForPropagatesExceptions) {
  rt::setThreadCount(4);
  try {
    rt::parallel_for(0, 1000, /*grain=*/1, [](std::size_t i) {
      if (i == 437) {
        throw std::runtime_error("boom at 437");
      }
    });
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 437");
  }

  // The pool survives the aborted region: the next region runs fully.
  std::atomic<std::size_t> ran{0};
  rt::parallel_for(0, 1000, /*grain=*/1,
                   [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 1000u);
  rt::setThreadCount(0);
}

// ---------------------------------------------------------------------------
// One pool serves many passes: every region runs every index exactly
// once, and the scheduling counters only grow.

TEST(Rt, PoolReuseAcrossPasses) {
  rt::setThreadCount(4);
  std::uint64_t last_tasks = rt::Pool::global().totalStats().tasks;
  for (int pass = 0; pass < 20; ++pass) {
    std::vector<std::atomic<int>> hits(257);
    rt::parallel_for(0, hits.size(), /*grain=*/8,
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) {
      ASSERT_EQ(h.load(), 1);
    }
    const std::uint64_t tasks = rt::Pool::global().totalStats().tasks;
    EXPECT_GT(tasks, last_tasks);
    last_tasks = tasks;
  }
  EXPECT_EQ(rt::Pool::global().laneStats().size(), 4u);
  rt::setThreadCount(0);
}

// A parallel region entered from inside a pool task runs inline (no
// deadlock, same results).

TEST(Rt, NestedRegionsRunInline) {
  rt::setThreadCount(4);
  std::vector<std::atomic<int>> cells(64 * 64);
  rt::parallel_for(0, 64, /*grain=*/1, [&](std::size_t i) {
    EXPECT_TRUE(rt::inParallelRegion());
    rt::parallel_for(0, 64, /*grain=*/1, [&](std::size_t j) {
      cells[i * 64 + j].fetch_add(1);
    });
  });
  for (const auto& c : cells) {
    ASSERT_EQ(c.load(), 1);
  }
  EXPECT_FALSE(rt::inParallelRegion());
  rt::setThreadCount(0);
}

// ---------------------------------------------------------------------------
// Counter-split PRNG substreams must not collide: 16 substreams x 4096
// draws from one base seed are all distinct (SplitMix64 is a bijection,
// so within a stream collisions are impossible; across streams a single
// collision would mean two substreams are phase-shifted copies).

TEST(Rt, SubstreamsDoNotOverlap) {
  constexpr std::size_t kStreams = 16;
  constexpr std::size_t kDraws = 4096;
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(kStreams * kDraws);
  for (std::size_t s = 0; s < kStreams; ++s) {
    cdfg::SplitMix64 rng(cdfg::substreamSeed(/*seed=*/42, s));
    for (std::size_t d = 0; d < kDraws; ++d) {
      EXPECT_TRUE(seen.insert(rng.next()).second)
          << "substream " << s << " draw " << d
          << " collided with an earlier draw";
    }
  }
  // Distinct base seeds give distinct substream families.
  EXPECT_NE(cdfg::substreamSeed(1, 0), cdfg::substreamSeed(2, 0));
  EXPECT_NE(cdfg::substreamSeed(1, 0), cdfg::substreamSeed(1, 1));
}

// ---------------------------------------------------------------------------
// The level-parallel closure equals the sequential worklist fixpoint bit
// for bit, at every thread count.

TEST(Rt, ParallelClosureMatchesSequentialFixpoint) {
  for (const std::uint64_t seed : {3u, 9u, 27u}) {
    cdfg::RandomDfgOptions o;
    o.operations = 120;
    o.inputs = 5;
    o.width = 7;
    const cdfg::Cdfg g = cdfg::randomDfg(o, seed);
    const cdfg::CsrView view(g);
    const std::size_t n = g.nodeCount();

    check::ClosureDomain serial(n);
    ASSERT_TRUE(check::solveFixpoint(view, check::Direction::kForward,
                                     check::EdgeMask::all(), serial)
                    .converged);

    for (const std::size_t threads : {1u, 2u, 8u}) {
      rt::setThreadCount(threads);
      const auto parallel = check::computePrecedenceClosure(view);
      EXPECT_TRUE(parallel.stats.converged);
      for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = 0; b < n; ++b) {
          ASSERT_EQ(parallel.domain.ancestors.test(a, b),
                    serial.ancestors.test(a, b))
              << "closure bit (" << a << ", " << b << ") differs at "
              << threads << " threads (seed " << seed << ")";
        }
      }
    }
  }
  rt::setThreadCount(0);
}

TEST(Rt, ThreadsVariableMustBeAWholeNumber) {
  // threadCount() only resolves the lane count; no pool is built here.
  rt::setThreadCount(0);
  const char* saved = std::getenv("LOCWM_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  const auto lanes = [](const char* value) {
    setenv("LOCWM_THREADS", value, 1);
    return rt::threadCount();
  };
  unsetenv("LOCWM_THREADS");
  const std::size_t hardware = rt::threadCount();
  EXPECT_EQ(lanes("3"), 3u);
  EXPECT_EQ(lanes("300"), 256u);  // clamped to the lane maximum
  for (const char* value :
       {"", "0", "2abc", "-1", "+3", " 3", "0x10", "18446744073709551616"}) {
    EXPECT_EQ(lanes(value), hardware) << "'" << value << "'";
  }
  if (saved != nullptr) {
    setenv("LOCWM_THREADS", restore.c_str(), 1);
  } else {
    unsetenv("LOCWM_THREADS");
  }
}

}  // namespace
