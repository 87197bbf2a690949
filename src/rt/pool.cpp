#include "rt/rt.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "cdfg/text.h"
#include "obs/obs.h"

namespace locwm::rt {

namespace {

/// Set while the current thread executes a pool task (or drives run()),
/// so nested parallel regions degrade to inline serial execution.
thread_local bool t_in_parallel_region = false;

std::uint64_t monotonicNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr std::size_t kMaxLanes = 256;

std::size_t clampLanes(std::size_t n) noexcept {
  return std::clamp<std::size_t>(n, 1, kMaxLanes);
}

/// LOCWM_THREADS when it is a positive number (cdfg/text.h); 0 (use the
/// hardware) when it is unset, zero or no number.
std::size_t envThreads() noexcept {
  const char* raw = std::getenv("LOCWM_THREADS");
  std::size_t v = 0;
  return raw != nullptr && text::wholeNumber(std::string_view(raw), v) ? v
                                                                       : 0;
}

/// Percent of wall time a lane spent executing chunks, out of the time it
/// was either executing or waiting.  0 when the lane never did either.
std::int64_t utilizationPct(std::uint64_t busy_ns,
                            std::uint64_t idle_ns) noexcept {
  const std::uint64_t total = busy_ns + idle_ns;
  if (total == 0) {
    return 0;
  }
  return static_cast<std::int64_t>((busy_ns * 100 + total / 2) / total);
}

/// Publishes one pool's scheduling state as obs gauges.  Gauges, not
/// counters: each publish overwrites the previous values with the pool's
/// cumulative state, so repeated publishes never double-count.
void publishStats(const std::vector<LaneStats>& per_lane,
                  std::size_t lanes) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.gauge("rt.pool.lanes").set(static_cast<std::int64_t>(lanes));
  LaneStats total;
  for (std::size_t l = 0; l < per_lane.size(); ++l) {
    const LaneStats& s = per_lane[l];
    total.tasks += s.tasks;
    total.steals += s.steals;
    total.steal_fails += s.steal_fails;
    total.parks += s.parks;
    total.idle_ns += s.idle_ns;
    total.busy_ns += s.busy_ns;
    const std::string prefix = "rt.lane" + std::to_string(l);
    reg.gauge(prefix + ".tasks").set(static_cast<std::int64_t>(s.tasks));
    reg.gauge(prefix + ".steals").set(static_cast<std::int64_t>(s.steals));
    reg.gauge(prefix + ".steal_fails")
        .set(static_cast<std::int64_t>(s.steal_fails));
    reg.gauge(prefix + ".parks").set(static_cast<std::int64_t>(s.parks));
    reg.gauge(prefix + ".idle_ns").set(static_cast<std::int64_t>(s.idle_ns));
    reg.gauge(prefix + ".busy_ns").set(static_cast<std::int64_t>(s.busy_ns));
    reg.gauge(prefix + ".utilization_pct")
        .set(utilizationPct(s.busy_ns, s.idle_ns));
  }
  reg.gauge("rt.pool.parks").set(static_cast<std::int64_t>(total.parks));
  reg.gauge("rt.pool.steal_fails")
      .set(static_cast<std::int64_t>(total.steal_fails));
  reg.gauge("rt.pool.busy_ns").set(static_cast<std::int64_t>(total.busy_ns));
  reg.gauge("rt.pool.idle_ns").set(static_cast<std::int64_t>(total.idle_ns));
  reg.gauge("rt.pool.utilization_pct")
      .set(utilizationPct(total.busy_ns, total.idle_ns));
}

}  // namespace

bool inParallelRegion() noexcept { return t_in_parallel_region; }

std::size_t hardwareThreads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

struct Pool::Impl {
  /// One lane's claimable chunk range for the current region.  Owners
  /// fetch_add on their own `next`; thieves fetch_add on someone else's —
  /// claiming is the same operation either way, which keeps the deque
  /// logic trivial and TSan-clean.  Overshoot past `end` is benign.
  struct alignas(64) Block {
    std::atomic<std::uint64_t> next{0};
    std::uint64_t end = 0;
  };

  struct alignas(64) LaneCounters {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> steal_fails{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> idle_ns{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };

  std::size_t lanes = 1;
  std::vector<std::thread> threads;
  std::vector<Block> blocks;
  std::vector<LaneCounters> counters;

  std::mutex mutex;
  std::condition_variable work_cv;  ///< workers wait here between regions
  std::condition_variable done_cv;  ///< run() waits here for quiescence
  std::uint64_t generation = 0;
  std::size_t busy_workers = 0;  ///< workers still inside the current region
  bool stop = false;
  const std::function<void(std::size_t, std::size_t)>* job = nullptr;
  std::size_t job_chunks = 0;

  std::atomic<bool> abort{false};
  std::exception_ptr first_error;  // guarded by mutex

  void workRegion(const std::function<void(std::size_t, std::size_t)>& fn,
                  std::size_t lane) {
    const std::uint64_t busy_start = monotonicNs();
    workRegionInner(fn, lane);
    counters[lane].busy_ns.fetch_add(monotonicNs() - busy_start,
                                     std::memory_order_relaxed);
  }

  void workRegionInner(
      const std::function<void(std::size_t, std::size_t)>& fn,
      std::size_t lane) {
    LaneCounters& mine = counters[lane];
    // Own static block first, then drain the other lanes' leftovers.
    for (std::size_t offset = 0; offset < lanes; ++offset) {
      const std::size_t victim = (lane + offset) % lanes;
      Block& b = blocks[victim];
      bool claimed_any = false;
      for (;;) {
        if (abort.load(std::memory_order_relaxed)) {
          return;
        }
        const std::uint64_t c = b.next.fetch_add(1, std::memory_order_relaxed);
        if (c >= b.end) {
          break;
        }
        claimed_any = true;
        try {
          fn(static_cast<std::size_t>(c), lane);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(mutex);
          if (!first_error) {
            first_error = std::current_exception();
          }
          abort.store(true, std::memory_order_relaxed);
          return;
        }
        mine.tasks.fetch_add(1, std::memory_order_relaxed);
        if (victim != lane) {
          mine.steals.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (offset > 0 && !claimed_any) {
        mine.steal_fails.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  void workerLoop(std::size_t lane) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex);
        const std::uint64_t idle_start = monotonicNs();
        counters[lane].parks.fetch_add(1, std::memory_order_relaxed);
        work_cv.wait(lock, [&] { return stop || generation != seen; });
        counters[lane].idle_ns.fetch_add(monotonicNs() - idle_start,
                                         std::memory_order_relaxed);
        if (stop) {
          return;
        }
        seen = generation;
        fn = job;
      }
      if (fn != nullptr) {
        t_in_parallel_region = true;
        workRegion(*fn, lane);
        t_in_parallel_region = false;
      }
      {
        const std::lock_guard<std::mutex> lock(mutex);
        if (--busy_workers == 0) {
          done_cv.notify_one();
        }
      }
    }
  }
};

Pool::Pool(std::size_t lanes) : impl_(std::make_unique<Impl>()) {
  impl_->lanes = clampLanes(lanes);
  impl_->blocks = std::vector<Impl::Block>(impl_->lanes);
  impl_->counters = std::vector<Impl::LaneCounters>(impl_->lanes);
  impl_->threads.reserve(impl_->lanes - 1);
  for (std::size_t lane = 1; lane < impl_->lanes; ++lane) {
    impl_->threads.emplace_back([this, lane] { impl_->workerLoop(lane); });
  }
}

Pool::~Pool() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->threads) {
    t.join();
  }
}

std::size_t Pool::lanes() const noexcept { return impl_->lanes; }

void Pool::run(std::size_t chunk_count,
               const std::function<void(std::size_t, std::size_t)>& fn) {
  if (chunk_count == 0) {
    return;
  }
  if (impl_->lanes == 1 || chunk_count == 1 || t_in_parallel_region) {
    // Inline serial execution: same chunks, same order, no pool traffic.
    for (std::size_t c = 0; c < chunk_count; ++c) {
      fn(c, 0);
    }
    return;
  }

  Impl& im = *impl_;
  const std::uint64_t tasks_before = totalStats().tasks;
  const std::uint64_t steals_before = totalStats().steals;
  {
    const std::lock_guard<std::mutex> lock(im.mutex);
    // Static contiguous blocks, one per lane, independent of which lanes
    // end up doing the work.
    const std::size_t per =
        (chunk_count + im.lanes - 1) / im.lanes;
    for (std::size_t l = 0; l < im.lanes; ++l) {
      const std::uint64_t lo =
          static_cast<std::uint64_t>(std::min(l * per, chunk_count));
      const std::uint64_t hi =
          static_cast<std::uint64_t>(std::min(lo + per, chunk_count));
      im.blocks[l].next.store(lo, std::memory_order_relaxed);
      im.blocks[l].end = hi;
    }
    im.job = &fn;
    im.job_chunks = chunk_count;
    im.abort.store(false, std::memory_order_relaxed);
    im.first_error = nullptr;
    im.busy_workers = im.threads.size();
    ++im.generation;
  }
  im.work_cv.notify_all();

  const std::uint64_t region_start = monotonicNs();
  t_in_parallel_region = true;
  im.workRegion(fn, /*lane=*/0);
  t_in_parallel_region = false;

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(im.mutex);
    // Lane 0's wait for quiescence is its idle time.
    const std::uint64_t wait_start = monotonicNs();
    im.done_cv.wait(lock, [&] { return im.busy_workers == 0; });
    im.counters[0].idle_ns.fetch_add(monotonicNs() - wait_start,
                                     std::memory_order_relaxed);
    im.job = nullptr;
    error = im.first_error;
    im.first_error = nullptr;
  }
  const std::uint64_t region_ns = monotonicNs() - region_start;

  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::instance();
    reg.counter("rt.pool.regions").add(1);
    reg.counter("rt.pool.tasks").add(totalStats().tasks - tasks_before);
    reg.counter("rt.pool.steals").add(totalStats().steals - steals_before);
    LOCWM_OBS_HISTOGRAM("rt.pool.region_ns", region_ns);
    publishStats(laneStats(), im.lanes);
  }

  if (error) {
    std::rethrow_exception(error);
  }
}

std::vector<LaneStats> Pool::laneStats() const {
  std::vector<LaneStats> out(impl_->lanes);
  for (std::size_t l = 0; l < impl_->lanes; ++l) {
    const Impl::LaneCounters& c = impl_->counters[l];
    out[l].tasks = c.tasks.load(std::memory_order_relaxed);
    out[l].steals = c.steals.load(std::memory_order_relaxed);
    out[l].steal_fails = c.steal_fails.load(std::memory_order_relaxed);
    out[l].parks = c.parks.load(std::memory_order_relaxed);
    out[l].idle_ns = c.idle_ns.load(std::memory_order_relaxed);
    out[l].busy_ns = c.busy_ns.load(std::memory_order_relaxed);
  }
  return out;
}

LaneStats Pool::totalStats() const {
  LaneStats total;
  for (const LaneStats& l : laneStats()) {
    total.tasks += l.tasks;
    total.steals += l.steals;
    total.steal_fails += l.steal_fails;
    total.parks += l.parks;
    total.idle_ns += l.idle_ns;
    total.busy_ns += l.busy_ns;
  }
  return total;
}

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<Pool> g_pool;       // guarded by g_pool_mutex
std::size_t g_explicit_lanes = 0;   // guarded by g_pool_mutex

std::size_t resolveLanesLocked() noexcept {
  if (g_explicit_lanes != 0) {
    return clampLanes(g_explicit_lanes);
  }
  const std::size_t env = envThreads();
  return clampLanes(env != 0 ? env : hardwareThreads());
}

}  // namespace

std::size_t threadCount() {
  const std::lock_guard<std::mutex> lock(g_pool_mutex);
  return resolveLanesLocked();
}

void setThreadCount(std::size_t n) {
  const std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_explicit_lanes = n;
  const std::size_t want = resolveLanesLocked();
  if (g_pool && g_pool->lanes() != want) {
    g_pool.reset();  // rebuilt lazily by the next global() call
  }
}

Pool& Pool::global() {
  const std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) {
    g_pool = std::make_unique<Pool>(resolveLanesLocked());
  }
  return *g_pool;
}

void publishPoolMetrics() {
  if (!obs::enabled()) {
    return;
  }
  Pool& pool = Pool::global();
  publishStats(pool.laneStats(), pool.lanes());
}

}  // namespace locwm::rt
