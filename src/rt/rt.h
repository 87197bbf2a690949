// locwm::rt — a small deterministic work-stealing parallel runtime.
//
// The watermarking protocol is embarrassingly parallel in several places:
// detection re-derives a locality at every candidate root, Pc aggregates
// per-constraint probabilities, the Monte-Carlo benches run independent
// trials, and lint answers its path queries in independent batches.
// rt executes those loops on a fixed-size thread pool while keeping one
// hard promise: **thread count never changes output**.
//
// The determinism contract has three legs:
//
//  1. Chunk boundaries are a pure function of the iteration range and the
//     grain — never of the thread count.  Work *placement* varies run to
//     run (that is what stealing is for); work *partitioning* does not.
//  2. parallel_reduce combines per-chunk partials serially in chunk-index
//     order, so floating-point rounding is identical for 1, 2, or 64
//     threads.
//  3. Randomized tasks draw from per-task PRNG substreams derived by
//     counter-splitting (cdfg::substreamSeed) instead of sharing one
//     sequentially-consumed stream.
//
// Pool sizing: setThreadCount() (the CLI's --threads) overrides the
// LOCWM_THREADS environment variable, which overrides
// hardware_concurrency.  A pool of one lane runs everything inline.
//
// Scheduling: chunks are split into one static contiguous block per lane;
// each lane claims chunks from its own block first and, once exhausted,
// drains the remaining blocks of other lanes ("static + stolen"
// chunking).  Tasks that throw abort the loop early; the first exception
// is rethrown on the calling thread.
//
// Nesting: a parallel region entered from inside a pool task runs inline
// serially on the calling lane — same chunk set, same results, no
// deadlock.
//
// Observability: per-lane counters (tasks run, chunks stolen, idle wait
// time) land in the obs registry under "rt.lane<i>.*" plus "rt.pool.*"
// totals.  Unlike every other counter in the codebase these are
// scheduling-dependent and therefore NOT reproducible across runs; see
// docs/PARALLELISM.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace locwm::rt {

/// Hardware thread count (>= 1 even when unknown).
[[nodiscard]] std::size_t hardwareThreads() noexcept;

/// Overrides the lane count of the global pool (0 restores the automatic
/// LOCWM_THREADS / hardware_concurrency resolution).  Destroys and lazily
/// rebuilds the global pool when the effective count changes, so call it
/// between parallel regions (CLI startup, test phases) — never from
/// inside a task.
void setThreadCount(std::size_t n);

/// The lane count the global pool has (or will be built with):
/// setThreadCount > LOCWM_THREADS > hardware_concurrency, clamped to
/// [1, 256].
[[nodiscard]] std::size_t threadCount();

/// Per-lane scheduling statistics (cumulative since pool construction).
struct LaneStats {
  std::uint64_t tasks = 0;        ///< chunks executed by this lane
  std::uint64_t steals = 0;       ///< chunks claimed from another lane's block
  std::uint64_t steal_fails = 0;  ///< victim blocks visited but found empty
  std::uint64_t parks = 0;        ///< times the lane parked waiting for work
  std::uint64_t idle_ns = 0;      ///< time spent waiting for work
  std::uint64_t busy_ns = 0;      ///< time spent inside parallel regions
};

/// Fixed-size work-stealing thread pool.  Lane 0 is the calling thread;
/// lanes 1..N-1 are worker threads parked on a condition variable
/// between parallel regions, so one pool serves many passes.
class Pool {
 public:
  explicit Pool(std::size_t lanes);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// The process-wide pool, built on first use with threadCount() lanes.
  static Pool& global();

  [[nodiscard]] std::size_t lanes() const noexcept;

  /// Executes fn(chunk, lane) for every chunk in [0, chunk_count),
  /// blocking until all chunks ran.  Rethrows the first task exception
  /// after the region quiesces.  Safe to call repeatedly; re-entrant
  /// calls run inline.
  void run(std::size_t chunk_count,
           const std::function<void(std::size_t, std::size_t)>& fn);

  /// Cumulative per-lane statistics (index 0 = the calling thread).
  [[nodiscard]] std::vector<LaneStats> laneStats() const;

  /// Sum of laneStats() tasks/steals — convenience for bench rows.
  [[nodiscard]] LaneStats totalStats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Grain (elements per chunk) used by parallel_reduce when the caller
/// does not pick one.  Part of the determinism contract: changing it
/// changes floating-point combine trees, so it is a named constant, not
/// a heuristic.
inline constexpr std::size_t kDefaultGrain = 256;

/// True while the current thread is executing inside a Pool task; used to
/// run nested parallel regions inline.
[[nodiscard]] bool inParallelRegion() noexcept;

/// Publishes the global pool's scheduling state into the obs registry
/// ("rt.lane<i>.*" gauges, "rt.pool.*" totals, per-lane utilization).
/// Pool::run() publishes after every non-inline region; exporters call
/// this before rendering so small runs whose loops all ran inline still
/// expose the (all-zero) lane gauges.  No-op when obs is disabled.
void publishPoolMetrics();

/// Element-wise parallel loop: fn(i) for every i in [begin, end).
/// `grain` elements per chunk; boundaries depend only on the range and
/// the grain.  fn must be safe to call concurrently for distinct i.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Fn&& fn) {
  if (end <= begin) {
    return;
  }
  const std::size_t n = end - begin;
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t chunks = (n + g - 1) / g;
  if (chunks <= 1 || inParallelRegion()) {
    for (std::size_t i = begin; i < end; ++i) {
      fn(i);
    }
    return;
  }
  Pool::global().run(chunks, [&](std::size_t c, std::size_t) {
    const std::size_t lo = begin + c * g;
    const std::size_t hi = lo + g < end ? lo + g : end;
    for (std::size_t i = lo; i < hi; ++i) {
      fn(i);
    }
  });
}

/// Deterministic parallel reduction: acc = combine(acc, map(i)) over
/// [begin, end).  Each chunk accumulates left-to-right starting from
/// `identity`; chunk partials are combined serially in chunk-index order.
/// With the default grain the result is bit-identical for every thread
/// count (including 1), and identical to a serial left-to-right fold
/// whenever the range fits in one chunk.
template <typename T, typename Map, typename Combine>
[[nodiscard]] T parallel_reduce(std::size_t begin, std::size_t end,
                                T identity, Map&& map, Combine&& combine,
                                std::size_t grain = kDefaultGrain) {
  if (end <= begin) {
    return identity;
  }
  const std::size_t n = end - begin;
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t chunks = (n + g - 1) / g;
  if (chunks <= 1 || inParallelRegion()) {
    T acc = identity;
    for (std::size_t i = begin; i < end; ++i) {
      acc = combine(std::move(acc), map(i));
    }
    return acc;
  }
  std::vector<T> partials(chunks, identity);
  Pool::global().run(chunks, [&](std::size_t c, std::size_t) {
    const std::size_t lo = begin + c * g;
    const std::size_t hi = lo + g < end ? lo + g : end;
    T acc = identity;
    for (std::size_t i = lo; i < hi; ++i) {
      acc = combine(std::move(acc), map(i));
    }
    partials[c] = std::move(acc);
  });
  T acc = identity;
  for (std::size_t c = 0; c < chunks; ++c) {
    acc = combine(std::move(acc), std::move(partials[c]));
  }
  return acc;
}

/// Runs a small fixed set of independent tasks concurrently (rule packs,
/// paired enumerations).  Exceptions propagate like parallel_for's.
inline void parallel_invoke(std::initializer_list<std::function<void()>> fns) {
  std::vector<std::function<void()>> tasks(fns);
  parallel_for(0, tasks.size(), 1,
               [&](std::size_t i) { tasks[i](); });
}

}  // namespace locwm::rt
