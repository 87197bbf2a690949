#include "core/sched_wm.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/pass_audit.h"
#include "obs/obs.h"
#include "sched/timeframes.h"

namespace locwm::wm {

using cdfg::NodeId;

bool reaches(const cdfg::Cdfg& g, const sched::TimeFrames& frames,
             NodeId from, NodeId to, ReachScratch& scratch) {
  if (from == to) {
    return true;
  }
  const std::uint32_t bound = frames.asap(to);
  if (frames.asap(from) > bound) {
    return false;
  }
  if (scratch.stamp.size() < g.nodeCount() || ++scratch.epoch == 0) {
    scratch.stamp.assign(g.nodeCount(), 0);
    scratch.epoch = 1;
  }
  const std::uint32_t epoch = scratch.epoch;
  std::vector<NodeId>& stack = scratch.stack;
  stack.assign(1, from);
  scratch.stamp[from.value()] = epoch;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (const cdfg::EdgeId e : g.outEdges(v)) {
      const NodeId s = g.edge(e).dst;
      if (s == to) {
        return true;
      }
      if (scratch.stamp[s.value()] != epoch && frames.asap(s) <= bound) {
        scratch.stamp[s.value()] = epoch;
        stack.push_back(s);
      }
    }
  }
  return false;
}

cdfg::Cdfg realizeWithDummyOps(const cdfg::Cdfg& marked) {
  cdfg::Cdfg out;
  for (const NodeId v : marked.allNodes()) {
    out.addNode(marked.node(v).kind, marked.node(v).name);
  }
  std::size_t dummy_index = 0;
  for (const cdfg::EdgeId e : marked.allEdges()) {
    const cdfg::Edge& ed = marked.edge(e);
    if (ed.kind != cdfg::EdgeKind::kTemporal) {
      out.addEdge(ed.src, ed.dst, ed.kind);
      continue;
    }
    const NodeId dummy = out.addNode(
        cdfg::OpKind::kAdd, "wm" + std::to_string(dummy_index++));
    out.addEdge(ed.src, dummy, cdfg::EdgeKind::kData);
    out.addEdge(dummy, ed.dst, cdfg::EdgeKind::kData);
  }
  return out;
}

std::optional<SchedEmbedResult> SchedulingWatermarker::embed(
    cdfg::Cdfg& g, const SchedWmParams& params, std::size_t index) const {
  LOCWM_OBS_SPAN("core.sched_wm.embed");
  const std::string context = "sched-wm/" + std::to_string(index);
  crypto::KeyedBitstream root_bits(signature_, context + "/root");

  const LocalityDeriver deriver(g);
  const std::vector<NodeId> roots = deriver.candidateRoots();
  if (roots.empty()) {
    return std::nullopt;
  }

  // `g` changes only in the attempt that succeeds and returns, so every
  // attempt starts from the same frames and structure.  They are made at
  // the first attempt that derives a locality: an embed that derives none
  // returns nullopt without them, whatever the deadline.  Without a given
  // deadline the frames take the critical path as theirs.
  const sched::LatencyModel& lat = params.latency;
  std::optional<sched::TimeFrames> base_frames;
  std::optional<sched::StructuralAnalysis> analysis;
  ReachScratch reach;

  for (std::size_t attempt = 0; attempt < params.max_root_retries; ++attempt) {
    LOCWM_OBS_COUNT("core.sched_wm.roots_tried", 1);
    const NodeId root = roots[root_bits.below(roots.size())];
    crypto::KeyedBitstream carve_bits(signature_, context + "/carve");
    std::optional<Locality> loc =
        deriver.derive(root, params.locality, carve_bits);
    if (!loc) {
      continue;
    }

    // Eligibility (the paper's T').  The paper requires laxity ≤ C·(1−α):
    // every selected node must sit a margin off the critical path.  We
    // apply that structural criterion first; on tightly serial designs it
    // can empty the pool (the whole locality is near-critical), in which
    // case we fall back to a deadline-relative rule — the node's mobility
    // must retain an α share of the granted slack — which still excludes
    // the inflexible nodes while keeping such designs markable.  Either
    // way each node additionally needs a lifetime-overlap partner among
    // the eligible set.
    if (!base_frames.has_value()) {
      base_frames.emplace(g, lat, params.deadline, /*includeTemporal=*/true);
      analysis.emplace(g);
    }
    sched::TimeFrames frames = *base_frames;
    const std::uint32_t deadline = frames.deadline();
    const double laxity_bound =
        (1.0 - params.alpha) *
        static_cast<double>(analysis->criticalPathLength());
    const double slack_budget =
        static_cast<double>(deadline - frames.criticalPathSteps());
    const double mobility_floor = std::max(1.0, params.alpha * slack_budget);
    std::vector<std::uint32_t> eligible_ranks;
    for (std::uint32_t r = 0; r < loc->nodes.size(); ++r) {
      const NodeId n = loc->nodes[r];
      if (frames.mobility(n) >= 1 &&
          static_cast<double>(analysis->laxity(n)) <= laxity_bound) {
        eligible_ranks.push_back(r);
      }
    }
    if (eligible_ranks.size() < params.min_eligible) {
      eligible_ranks.clear();
      for (std::uint32_t r = 0; r < loc->nodes.size(); ++r) {
        const NodeId n = loc->nodes[r];
        if (static_cast<double>(frames.mobility(n)) >= mobility_floor) {
          eligible_ranks.push_back(r);
        }
      }
    }
    {
      std::vector<std::uint32_t> with_partner;
      for (const std::uint32_t r : eligible_ranks) {
        const bool has_partner = std::any_of(
            eligible_ranks.begin(), eligible_ranks.end(),
            [&](std::uint32_t other) {
              return other != r && frames.lifetimesOverlap(loc->nodes[r],
                                                           loc->nodes[other]);
            });
        if (has_partner) {
          with_partner.push_back(r);
        }
      }
      eligible_ranks = std::move(with_partner);
    }
    if (eligible_ranks.size() < params.min_eligible) {
      continue;
    }

    const std::size_t k =
        params.k_explicit.value_or(std::max<std::size_t>(
            1, static_cast<std::size_t>(std::llround(
                   params.k_fraction *
                   static_cast<double>(eligible_ranks.size())))));

    // Constraint encoding: T'' is a pseudorandomly ordered selection of
    // source nodes; each source is paired with a pseudorandom overlapping
    // partner from T' and a temporal edge is drawn.  Sources that have no
    // usable partner are discarded and replaced from the remaining pool,
    // so the watermark reaches K edges whenever the locality allows it.
    crypto::KeyedBitstream encode_bits(signature_, context + "/encode");
    SchedEmbedResult result;
    result.roots_tried = attempt + 1;
    std::vector<std::uint32_t> pool = eligible_ranks;
    while (result.certificate.constraints.size() < k && !pool.empty()) {
      const std::size_t idx = encode_bits.below(pool.size());
      const std::uint32_t r = pool[idx];
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));

      const NodeId ni = loc->nodes[r];
      std::vector<std::uint32_t> partners;
      for (const std::uint32_t other : eligible_ranks) {
        if (other == r) {
          continue;
        }
        const NodeId nk = loc->nodes[other];
        if (!frames.lifetimesOverlap(ni, nk)) {
          continue;
        }
        // The edge must be new information: no order already implied in
        // either direction, and the deadline must stay attainable.
        if (g.hasEdge(ni, nk, cdfg::EdgeKind::kTemporal) ||
            reaches(g, frames, nk, ni, reach) ||
            reaches(g, frames, ni, nk, reach)) {
          continue;
        }
        if (frames.asap(ni) + 1 > frames.alap(nk)) {
          continue;
        }
        partners.push_back(other);
      }
      if (partners.empty()) {
        continue;
      }
      const std::uint32_t pick =
          partners[encode_bits.below(partners.size())];
      const NodeId nk = loc->nodes[pick];
      result.added_edges.push_back(
          g.addEdge(ni, nk, cdfg::EdgeKind::kTemporal));
      result.certificate.constraints.push_back(RankConstraint{r, pick});
      // Frames tighten with every committed constraint.
      frames = sched::TimeFrames(g, lat, deadline, /*includeTemporal=*/true);
    }

    if (result.certificate.constraints.empty()) {
      continue;  // locality carried no encodable constraint; re-select
    }

    result.certificate.context = context;
    result.certificate.locality_params = params.locality;
    result.certificate.shape = loc->shape;
    for (std::uint32_t rank = 0; rank < loc->nodes.size(); ++rank) {
      if (loc->nodes[rank] == loc->root) {
        result.certificate.root_rank = rank;
      }
    }
    result.locality = std::move(*loc);
    LOCWM_OBS_COUNT("core.sched_wm.embeds", 1);
    LOCWM_OBS_COUNT("core.sched_wm.constraints_added",
                    result.certificate.constraints.size());
    auditGraph("sched-wm/embed", g);
    auditCertificate("sched-wm/embed", result.certificate);
    return result;
  }
  LOCWM_OBS_COUNT("core.sched_wm.embed_failures", 1);
  return std::nullopt;
}

std::vector<SchedEmbedResult> SchedulingWatermarker::embedMany(
    cdfg::Cdfg& g, std::size_t count, const SchedWmParams& params) const {
  std::vector<SchedEmbedResult> results;
  for (std::size_t i = 0; i < count; ++i) {
    if (auto r = embed(g, params, i)) {
      results.push_back(std::move(*r));
    }
  }
  return results;
}

SchedDetectResult SchedulingWatermarker::detect(
    const cdfg::Cdfg& suspect, const sched::Schedule& schedule,
    const WatermarkCertificate& certificate) const {
  return SchedDetector(*this, suspect, certificate).check(schedule);
}

SchedDetector::SchedDetector(const SchedulingWatermarker& marker,
                             const cdfg::Cdfg& suspect,
                             const WatermarkCertificate& certificate)
    : SchedDetector(
          certificate,
          std::move(identify(LocalityDeriver(suspect),
                             {replayQuery(marker.signature(), certificate)})
                        .hits.front())) {}

SchedDetector::SchedDetector(const crypto::AuthorSignature& signature,
                             const LocalityDeriver& deriver,
                             const WatermarkCertificate& certificate,
                             const std::vector<NodeId>& roots)
    : SchedDetector(certificate,
                    std::move(replayShapeMatches(
                                  deriver, {replayQuery(signature, certificate,
                                                        roots)})
                                  .hits.front())) {}

SchedDetector::SchedDetector(const WatermarkCertificate& certificate,
                             std::vector<ShapeHit> matches)
    : matches_(std::move(matches)), certificate_(&certificate) {
  auditCertificate("sched-wm/detect", certificate);
  LOCWM_OBS_COUNT("core.sched_wm.detect_shape_matches", matches_.size());
}

ShapeQuery replayQuery(const crypto::AuthorSignature& signature,
                       const WatermarkCertificate& certificate,
                       std::vector<NodeId> roots) {
  return {&signature,
          &certificate.context,
          certificate.locality_params,
          &certificate.shape,
          certificate.root_rank,
          /*whole_design=*/false,
          std::move(roots)};
}

SchedDetectResult SchedDetector::check(const sched::Schedule& schedule) const {
  SchedDetectResult best;
  best.total = certificate_->constraints.size();
  best.root = NodeId::invalid();
  best.shape_matches = matches_.size();
  for (std::size_t i = 0; i < matches_.size(); ++i) {
    const ShapeHit& m = matches_[i];
    std::size_t satisfied = 0;
    for (const RankConstraint& c : certificate_->constraints) {
      const NodeId before = m.nodes[c.before_rank];
      const NodeId after = m.nodes[c.after_rank];
      if (schedule.isSet(before) && schedule.isSet(after) &&
          schedule.at(before) < schedule.at(after)) {
        ++satisfied;
      }
    }
    if (i == 0 || satisfied > best.satisfied) {
      best.satisfied = satisfied;
      best.root = m.root;
    }
  }
  best.found = !matches_.empty() && best.satisfied == best.total &&
               best.total > 0;
  return best;
}

}  // namespace locwm::wm
