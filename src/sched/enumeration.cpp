#include "sched/enumeration.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "cdfg/error.h"
#include "obs/obs.h"
#include "sched/timeframes.h"

namespace locwm::sched {

using cdfg::EdgeId;
using cdfg::NodeId;

namespace {

/// Byte cap of one counting call's memo: frontier index, per-level keys,
/// hash slots and entry arena together.  Past it, subtrees are recomputed.
constexpr std::size_t kMemoBytes = std::size_t{2} << 20;
/// Subtrees smaller than this (in logical steps) are cheaper to recompute
/// than to store.
constexpr std::uint64_t kMinMemoSteps = 16;

/// What the counter and the visitor share: real ops in enumeration order,
/// their static windows, and every precedence constraint as a flat list.
struct SearchSpace {
  std::vector<NodeId> order;             // real ops, every source first
  std::vector<std::uint32_t> alap;       // static upper bound per node value
  std::vector<std::uint32_t> window_lo;  // static lower bound per node value
  // For node v, entries [pred_off[v], pred_off[v+1]) of pred_src/pred_gap
  // hold the source node value and gap of every constraint on v: graph
  // in-edges (temporal/zero-latency filtering already applied) and extra
  // edges (gap 1).  The exponential search touches only these flat arrays.
  std::vector<std::uint32_t> pred_off;
  std::vector<std::uint32_t> pred_src;
  std::vector<std::uint32_t> pred_gap;

  /// Earliest start of `v` given the starts of all its constraint sources.
  /// max() is order-independent, so the flat list reproduces an inEdges
  /// walk exactly.
  [[nodiscard]] std::uint32_t lowerBound(
      std::uint32_t v, const std::vector<std::uint32_t>& start) const {
    std::uint32_t lo = window_lo[v];
    for (std::uint32_t i = pred_off[v]; i < pred_off[v + 1]; ++i) {
      lo = std::max(lo, start[pred_src[i]] + pred_gap[i]);
    }
    return lo;
  }
};

SearchSpace makeSearchSpace(const cdfg::Cdfg& g,
                            const EnumerationOptions& options) {
  SearchSpace sp;
  sp.alap.assign(g.nodeCount(), 0);
  const TimeFrames tf(g, options.latency, options.deadline,
                      options.honor_temporal);
  for (const NodeId v : g.allNodes()) {
    sp.alap[v.value()] = tf.alap(v);
  }

  sp.window_lo.assign(g.nodeCount(), 0);
  for (const EnumerationOptions::Window& w : options.windows) {
    detail::check<ScheduleError>(
        w.node.isValid() && w.node.value() < g.nodeCount() && w.lo <= w.hi,
        "countSchedules: malformed window override");
    sp.window_lo[w.node.value()] =
        std::max(sp.window_lo[w.node.value()], w.lo);
    sp.alap[w.node.value()] = std::min(sp.alap[w.node.value()], w.hi);
  }

  // Enumeration order must place every constraint source before its
  // destination, including the extra edges — build a topological order over
  // graph edges + extra edges (Kahn, lowest id first for determinism).
  std::vector<std::size_t> indegree(g.nodeCount(), 0);
  std::vector<std::vector<NodeId>> succ(g.nodeCount());
  std::vector<std::vector<NodeId>> extra_before(g.nodeCount());
  auto link = [&](NodeId a, NodeId b) {
    succ[a.value()].push_back(b);
    ++indegree[b.value()];
  };
  for (const EdgeId e : g.allEdges()) {
    const cdfg::Edge& ed = g.edge(e);
    if (ed.kind == cdfg::EdgeKind::kTemporal && !options.honor_temporal) {
      continue;
    }
    link(ed.src, ed.dst);
  }
  for (const auto& [src, dst] : options.extra_edges) {
    detail::check<ScheduleError>(
        options.latency.latency(g.node(src).kind) > 0 &&
            options.latency.latency(g.node(dst).kind) > 0,
        "countSchedules: extra edge endpoint is a pseudo-op");
    link(src, dst);
    extra_before[dst.value()].push_back(src);
  }
  std::vector<NodeId> kahn_ready;
  for (const NodeId v : g.allNodes()) {
    if (indegree[v.value()] == 0) {
      kahn_ready.push_back(v);
    }
  }
  std::size_t emitted = 0;
  while (!kahn_ready.empty()) {
    std::sort(kahn_ready.begin(), kahn_ready.end());
    const NodeId v = kahn_ready.front();
    kahn_ready.erase(kahn_ready.begin());
    ++emitted;
    if (options.latency.latency(g.node(v).kind) > 0) {
      sp.order.push_back(v);
    }
    for (const NodeId s : succ[v.value()]) {
      if (--indegree[s.value()] == 0) {
        kahn_ready.push_back(s);
      }
    }
  }
  detail::check<ScheduleError>(
      emitted == g.nodeCount(),
      "countSchedules: extra edges create a dependence cycle");

  sp.pred_off.assign(g.nodeCount() + 1, 0);
  for (std::size_t i = 0; i < g.nodeCount(); ++i) {
    const NodeId v(static_cast<std::uint32_t>(i));
    for (const EdgeId e : g.inEdges(v)) {
      const cdfg::Edge& ed = g.edge(e);
      if (ed.kind == cdfg::EdgeKind::kTemporal && !options.honor_temporal) {
        continue;
      }
      if (options.latency.latency(g.node(ed.src).kind) == 0) {
        continue;
      }
      sp.pred_src.push_back(ed.src.value());
      sp.pred_gap.push_back(
          options.latency.edgeGap(g.node(ed.src).kind, ed.kind));
    }
    for (const NodeId u : extra_before[i]) {
      sp.pred_src.push_back(u.value());
      sp.pred_gap.push_back(1);
    }
    sp.pred_off[i + 1] = static_cast<std::uint32_t>(sp.pred_src.size());
  }
  return sp;
}

/// Open-addressing map from (level, key) to a finished subtree's
/// (count, logical steps).  Entries live in one byte arena as
/// [u32 count][u32 steps][u32 level][u32 hash low half][u16 key...]; a slot
/// holds the high hash half and the entry's arena offset + 1 (0 = empty).
/// Slots and arena grow by doubling inside a fixed byte budget; past it,
/// inserts are dropped.
class Memo {
 public:
  struct Value {
    std::uint32_t count = 0;
    std::uint32_t steps = 0;
  };

  explicit Memo(std::size_t budget = 0) : budget_(budget) {}

  [[nodiscard]] bool full() const { return full_; }

  /// Hashes a level and its key of `len` values.
  static std::uint64_t hashKey(std::uint32_t level, const std::uint16_t* key,
                               std::size_t len) {
    std::uint64_t h = 0x9E3779B97F4A7C15ull * (level + 1ull);
    for (std::size_t i = 0; i < len; ++i) {
      h = (h ^ key[i]) * 0xBF58476D1CE4E5B9ull;
      h ^= h >> 31;
    }
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    return h ^ (h >> 33);
  }

  [[nodiscard]] std::optional<Value> find(std::uint64_t hash,
                                          std::uint32_t level,
                                          const std::uint16_t* key,
                                          std::size_t len) const {
    if (slots_.empty()) {
      return std::nullopt;
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask; slots_[i] != 0; i = (i + 1) & mask) {
      if ((slots_[i] >> 32) != (hash >> 32)) {
        continue;
      }
      const unsigned char* entry = &arena_[(slots_[i] & 0xFFFFFFFFu) - 1];
      std::uint32_t stored_level = 0;
      std::memcpy(&stored_level, entry + 8, 4);
      // (len == 0 guards memcmp against the null data() of empty keys.)
      if (stored_level == level &&
          (len == 0 || std::memcmp(entry + kHeader, key, 2 * len) == 0)) {
        Value v;
        std::memcpy(&v.count, entry, 4);
        std::memcpy(&v.steps, entry + 4, 4);
        return v;
      }
    }
    return std::nullopt;
  }

  void insert(std::uint64_t hash, std::uint32_t level,
              const std::uint16_t* key, std::size_t len, Value value) {
    if (full_) {
      return;
    }
    const std::size_t off = arena_.size();
    const std::size_t need = off + kHeader + 2 * len;
    if (((entries_ + 1) * 2 > slots_.size() && !growSlots()) ||
        !reserveArena(need)) {
      full_ = true;
      return;
    }
    arena_.resize(need);
    unsigned char* entry = &arena_[off];
    const auto low = static_cast<std::uint32_t>(hash);
    std::memcpy(entry, &value.count, 4);
    std::memcpy(entry + 4, &value.steps, 4);
    std::memcpy(entry + 8, &level, 4);
    std::memcpy(entry + 12, &low, 4);
    if (len != 0) {
      std::memcpy(entry + kHeader, key, 2 * len);
    }
    place(hash, off);
    ++entries_;
  }

 private:
  static constexpr std::size_t kHeader = 16;

  [[nodiscard]] std::size_t slotBytes() const {
    return slots_.size() * sizeof(std::uint64_t);
  }

  void place(std::uint64_t hash, std::size_t off) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (slots_[i] != 0) {
      i = (i + 1) & mask;
    }
    slots_[i] = (hash >> 32 << 32) | (off + 1);
  }

  /// Doubles the slot table (load stays <= 1/2) and re-places every entry.
  bool growSlots() {
    const std::size_t size = std::max<std::size_t>(256, slots_.size() * 2);
    if (size * sizeof(std::uint64_t) + arena_.capacity() > budget_) {
      return false;
    }
    std::vector<std::uint64_t> old(size, 0);
    old.swap(slots_);
    for (const std::uint64_t slot : old) {
      if (slot != 0) {
        const std::size_t off = (slot & 0xFFFFFFFFu) - 1;
        std::uint32_t low = 0;
        std::memcpy(&low, &arena_[off] + 12, 4);
        place((slot >> 32 << 32) | low, off);
      }
    }
    return true;
  }

  /// Makes room for `need` arena bytes within the budget.
  bool reserveArena(std::size_t need) {
    if (need <= arena_.capacity()) {
      return true;
    }
    const std::size_t cap =
        std::min(std::max({arena_.capacity() * 2, need, std::size_t{4096}}),
                 budget_ - slotBytes());
    if (cap < need) {
      return false;
    }
    arena_.reserve(cap);
    return true;
  }

  std::size_t budget_;
  std::vector<std::uint64_t> slots_;
  std::vector<unsigned char> arena_;
  std::size_t entries_ = 0;
  bool full_ = false;
};

/// Memoized counting DFS over the same variable order as the visitor.
///
/// The subtree below level k depends on the placed ops only through the
/// partial lower bounds max(start[u] + gap) they impose on the unplaced
/// ops they constrain (the level's *frontier*).  Each bound is clamped
/// from below by what the op's unplaced sources will impose anyway (their
/// static lower bound + gap; window_lo too) and from above to alap + 1,
/// since any value past alap means "infeasible" alike.  That vector is the
/// memo key; an entry stores the subtree's schedule count and its logical
/// step count, i.e. the size of the plain DFS tree below it.  A hit adds
/// both only when the steps fit in the remaining budget; otherwise the
/// subtree is expanded to find where the plain DFS would stop.  So count,
/// steps and the budget verdict equal the plain DFS's exactly.
class Counter {
 public:
  Counter(const SearchSpace& space, std::uint64_t max_steps)
      : sp_(space), max_steps_(max_steps), start_(space.alap.size(), 0) {
    buildFrontiers();
  }

  void run(std::size_t level) {
    if (level == sp_.order.size()) {
      if (++steps > max_steps_) {
        budget_hit = true;
        return;
      }
      ++expanded;
      ++count;
      return;
    }
    const auto lvl = static_cast<std::uint32_t>(level);
    std::uint64_t hash = 0;
    std::uint16_t* key = nullptr;
    std::size_t len = 0;
    if (memoized_) {
      key = keys_.data() + key_off_[level];
      len = key_off_[level + 1] - key_off_[level];
      buildKey(lvl, key);
      hash = Memo::hashKey(lvl, key, len);
      if (const std::optional<Memo::Value> hit =
              memo_.find(hash, lvl, key, len);
          hit && hit->steps <= max_steps_ - steps) {
        steps += hit->steps;
        count += hit->count;
        ++memo_hits;
        return;
      }
    }
    if (++steps > max_steps_) {
      budget_hit = true;
      return;
    }
    ++expanded;
    const std::uint64_t steps_before = steps - 1;
    const std::uint64_t count_before = count;
    const std::uint32_t v = sp_.order[level].value();
    for (std::uint32_t t = sp_.lowerBound(v, start_); t <= sp_.alap[v]; ++t) {
      start_[v] = t;
      run(level + 1);
      if (budget_hit) {
        return;
      }
    }
    const std::uint64_t sub_steps = steps - steps_before;
    if (memoized_ && sub_steps >= kMinMemoSteps &&
        sub_steps <= std::numeric_limits<std::uint32_t>::max()) {
      memo_.insert(hash, lvl, key, len,
                   {static_cast<std::uint32_t>(count - count_before),
                    static_cast<std::uint32_t>(sub_steps)});
    }
  }

  [[nodiscard]] bool memoFull() const { return memo_.full(); }

  std::uint64_t steps = 0;     ///< logical steps: the plain DFS's count
  std::uint64_t count = 0;
  std::uint64_t expanded = 0;  ///< states actually visited
  std::uint64_t memo_hits = 0;
  bool budget_hit = false;

 private:
  /// Lays out each level's frontier (ops at or after the level with a
  /// constraint source before it, by position) and its key scratch, when
  /// they fit in half the memo budget; the memo gets the rest.
  void buildFrontiers() {
    const std::vector<NodeId>& order = sp_.order;
    std::vector<std::uint32_t> pos(sp_.alap.size(), 0);
    for (std::size_t p = 0; p < order.size(); ++p) {
      pos[order[p].value()] = static_cast<std::uint32_t>(p);
    }
    // Op w sits in the frontiers of levels (first source position, pos(w)].
    std::vector<std::uint32_t> first(order.size());
    std::uint64_t total = 0;
    std::uint32_t max_alap = 0;
    for (std::size_t p = 0; p < order.size(); ++p) {
      const std::uint32_t w = order[p].value();
      first[p] = static_cast<std::uint32_t>(p);
      for (std::uint32_t i = sp_.pred_off[w]; i < sp_.pred_off[w + 1]; ++i) {
        first[p] = std::min(first[p], pos[sp_.pred_src[i]]);
      }
      total += p - first[p];
      max_alap = std::max(max_alap, sp_.alap[w]);
    }
    const std::uint64_t index_bytes =
        total * (sizeof(std::uint32_t) + sizeof(std::uint16_t)) +
        (order.size() + 1) * sizeof(std::uint32_t);
    if (order.empty() || index_bytes > kMemoBytes / 2 ||
        max_alap >= std::numeric_limits<std::uint16_t>::max()) {
      return;
    }
    key_off_.assign(order.size() + 1, 0);
    for (std::size_t p = 0; p < order.size(); ++p) {
      for (std::size_t k = first[p] + 1; k <= p; ++k) {
        ++key_off_[k + 1];
      }
    }
    for (std::size_t k = 0; k < order.size(); ++k) {
      key_off_[k + 1] += key_off_[k];
    }
    frontier_.resize(total);
    keys_.resize(total);
    std::vector<std::uint32_t> fill(key_off_.begin(), key_off_.end() - 1);
    for (std::size_t p = 0; p < order.size(); ++p) {
      for (std::size_t k = first[p] + 1; k <= p; ++k) {
        frontier_[fill[k]++] = order[p].value();
      }
    }
    pos_ = std::move(pos);
    static_lo_.assign(sp_.alap.size(), 0);
    for (const NodeId v : order) {
      static_lo_[v.value()] = sp_.lowerBound(v.value(), static_lo_);
    }
    memo_ = Memo(kMemoBytes - static_cast<std::size_t>(index_bytes));
    memoized_ = true;
  }

  /// Writes level `level`'s key: each frontier op's lower bound, taking
  /// placed sources at their start and unplaced ones at their static lower
  /// bound (a start they can never undercut), capped at alap + 1.
  void buildKey(std::uint32_t level, std::uint16_t* key) const {
    for (std::uint32_t j = key_off_[level]; j < key_off_[level + 1]; ++j) {
      const std::uint32_t w = frontier_[j];
      std::uint32_t lo = sp_.window_lo[w];
      for (std::uint32_t i = sp_.pred_off[w]; i < sp_.pred_off[w + 1]; ++i) {
        const std::uint32_t u = sp_.pred_src[i];
        lo = std::max(lo, (pos_[u] < level ? start_[u] : static_lo_[u]) +
                              sp_.pred_gap[i]);
      }
      *key++ = static_cast<std::uint16_t>(std::min(lo, sp_.alap[w] + 1));
    }
  }

  const SearchSpace& sp_;
  std::uint64_t max_steps_;
  std::vector<std::uint32_t> start_;
  bool memoized_ = false;
  std::vector<std::uint32_t> pos_;        // enumeration position, by value
  std::vector<std::uint32_t> static_lo_;  // lower bound of any start
  std::vector<std::uint32_t> key_off_;    // level -> frontier_/keys_ offset
  std::vector<std::uint32_t> frontier_;   // node values, per level
  std::vector<std::uint16_t> keys_;       // per-level key scratch
  Memo memo_;
};

}  // namespace

CountResult countSchedules(const cdfg::Cdfg& g,
                           const EnumerationOptions& options) {
  LOCWM_OBS_SPAN("sched.enum.count");
  const SearchSpace space = makeSearchSpace(g, options);
  Counter counter(space, options.max_steps);
  counter.run(0);
  LOCWM_OBS_COUNT("sched.enum.states", counter.expanded);
  LOCWM_OBS_COUNT("sched.enum.memo_hits", counter.memo_hits);
  LOCWM_OBS_COUNT("sched.enum.memo_full", counter.memoFull() ? 1 : 0);
  LOCWM_OBS_COUNT("sched.enum.schedules", counter.count);
  LOCWM_OBS_COUNT("sched.enum.budget_hits", counter.budget_hit ? 1 : 0);
  return CountResult{counter.count, !counter.budget_hit, counter.steps};
}

void enumerateSchedules(const cdfg::Cdfg& g, const EnumerationOptions& options,
                        const std::function<bool(const Schedule&)>& visit) {
  LOCWM_OBS_SPAN("sched.enum.visit");
  const SearchSpace sp = makeSearchSpace(g, options);
  // Pseudo-ops are pinned after their producers, in topological order;
  // the order is the same for every schedule, so it is computed once.
  std::vector<NodeId> pseudo;
  for (const NodeId v : g.topologicalOrder(options.honor_temporal)) {
    if (options.latency.latency(g.node(v).kind) == 0) {
      pseudo.push_back(v);
    }
  }
  std::vector<std::uint32_t> start(g.nodeCount(), 0);
  std::uint64_t steps = 0;
  std::uint64_t count = 0;
  bool budget_hit = false;
  bool stopped = false;

  auto emit = [&] {
    Schedule s(g.nodeCount());
    for (const NodeId v : sp.order) {
      s.set(v, start[v.value()]);
    }
    for (const NodeId v : pseudo) {
      std::uint32_t t = 0;
      for (const EdgeId e : g.inEdges(v)) {
        const cdfg::Edge& ed = g.edge(e);
        if (ed.kind == cdfg::EdgeKind::kTemporal && !options.honor_temporal) {
          continue;
        }
        if (s.isSet(ed.src)) {
          const std::uint32_t gap =
              options.latency.edgeGap(g.node(ed.src).kind, ed.kind);
          t = std::max(t, s.at(ed.src) + gap);
        }
      }
      s.set(v, t);
    }
    return visit(s);
  };
  // Plain DFS: every schedule is materialised, so there is nothing to share.
  auto run = [&](auto& self, std::size_t index) -> void {
    if (++steps > options.max_steps) {
      budget_hit = true;
      return;
    }
    if (index == sp.order.size()) {
      ++count;
      stopped = !emit();
      return;
    }
    const std::uint32_t v = sp.order[index].value();
    for (std::uint32_t t = sp.lowerBound(v, start); t <= sp.alap[v]; ++t) {
      start[v] = t;
      self(self, index + 1);
      if (budget_hit || stopped) {
        return;
      }
    }
  };
  run(run, 0);
  LOCWM_OBS_COUNT("sched.enum.states", steps);
  LOCWM_OBS_COUNT("sched.enum.schedules", count);
  LOCWM_OBS_COUNT("sched.enum.budget_hits", budget_hit ? 1 : 0);
}

PsiPair countPsi(const cdfg::Cdfg& g, NodeId src, NodeId dst,
                 const EnumerationOptions& options) {
  PsiPair psi;
  psi.without_edge = countSchedules(g, options);
  EnumerationOptions with = options;
  with.extra_edges.push_back({src, dst});
  psi.with_edge = countSchedules(g, with);
  return psi;
}

}  // namespace locwm::sched
