#include "core/global_wm.h"

#include <algorithm>
#include <cmath>

#include "core/locality.h"
#include "sched/timeframes.h"

namespace locwm::wm {

using cdfg::NodeId;

namespace {

/// The baseline identifies at least this many operations (embed) and
/// demands as many of a suspect (detect).
constexpr std::size_t kMinIdentified = 4;

}  // namespace

std::optional<SchedEmbedResult> GlobalWatermarker::embed(
    cdfg::Cdfg& g, const GlobalWmParams& params) const {
  const std::string context = "global-wm";
  const LocalityDeriver deriver(g);
  std::optional<Locality> loc = deriver.wholeDesign(kMinIdentified);
  if (!loc) {
    return std::nullopt;
  }

  const sched::LatencyModel& lat = params.latency;
  const std::uint32_t deadline = params.deadline.value_or(
      sched::TimeFrames(g, lat, std::nullopt, true).criticalPathSteps());
  sched::TimeFrames frames(g, lat, deadline, /*includeTemporal=*/true);

  std::vector<std::uint32_t> eligible;
  for (std::uint32_t r = 0; r < loc->nodes.size(); ++r) {
    if (frames.mobility(loc->nodes[r]) >= 1) {
      eligible.push_back(r);
    }
  }
  if (eligible.size() < 2) {
    return std::nullopt;
  }
  const std::size_t k = params.k_explicit.value_or(std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             params.k_fraction * static_cast<double>(eligible.size())))));

  crypto::KeyedBitstream bits(signature_, context + "/encode");
  SchedEmbedResult result;
  std::vector<std::uint32_t> pool = eligible;
  ReachScratch reach;
  while (result.certificate.constraints.size() < k && !pool.empty()) {
    const std::size_t idx = bits.below(pool.size());
    const std::uint32_t r = pool[idx];
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
    const NodeId ni = loc->nodes[r];
    std::vector<std::uint32_t> partners;
    for (const std::uint32_t other : eligible) {
      if (other == r) {
        continue;
      }
      const NodeId nk = loc->nodes[other];
      if (!frames.lifetimesOverlap(ni, nk) ||
          g.hasEdge(ni, nk, cdfg::EdgeKind::kTemporal) ||
          reaches(g, frames, nk, ni, reach) ||
          reaches(g, frames, ni, nk, reach) ||
          frames.asap(ni) + 1 > frames.alap(nk)) {
        continue;
      }
      partners.push_back(other);
    }
    if (partners.empty()) {
      continue;
    }
    const std::uint32_t pick = partners[bits.below(partners.size())];
    const NodeId nk = loc->nodes[pick];
    result.added_edges.push_back(g.addEdge(ni, nk, cdfg::EdgeKind::kTemporal));
    result.certificate.constraints.push_back(RankConstraint{r, pick});
    frames = sched::TimeFrames(g, lat, deadline, /*includeTemporal=*/true);
  }
  if (result.certificate.constraints.empty()) {
    return std::nullopt;
  }
  result.certificate.context = context;
  result.certificate.locality_params = LocalityParams{};
  result.certificate.shape = loc->shape;
  result.locality = std::move(*loc);
  return result;
}

SchedDetectResult GlobalWatermarker::detect(
    const cdfg::Cdfg& suspect, const sched::Schedule& schedule,
    const WatermarkCertificate& certificate) const {
  // One whole-design query, unscreened: the suspect must BE the design.
  ShapeQuery query = replayQuery(signature_, certificate);
  query.root_rank.reset();
  query.whole_design = true;
  query.params.min_size = kMinIdentified;
  Identification id =
      Identifier({query}).run(LocalityDeriver(suspect), /*index=*/nullptr);
  return SchedDetector(certificate, std::move(id.hits.front()))
      .check(schedule);
}

}  // namespace locwm::wm
