#include "core/screen.h"

#include <algorithm>

#include "cdfg/error.h"
#include "obs/obs.h"
#include "rt/rt.h"

namespace locwm::wm {

namespace {

constexpr std::array<std::uint32_t, 6> kThresholds{1, 2, 3, 4, 6, 8};

}  // namespace

KindFingerprint fingerprintOfCounts(
    const std::array<std::uint32_t, cdfg::kOpKindCount>& counts) noexcept {
  KindFingerprint fp;
  for (std::size_t kind = 0; kind < cdfg::kOpKindCount; ++kind) {
    for (std::size_t t = 0; t < kThresholds.size(); ++t) {
      if (counts[kind] >= kThresholds[t]) {
        const std::size_t bit = kind * kThresholds.size() + t;
        fp.bits[bit >> 6] |= std::uint64_t{1} << (bit & 63);
      }
    }
  }
  return fp;
}

KindFingerprint shapeFingerprint(const cdfg::Cdfg& shape) {
  std::array<std::uint32_t, cdfg::kOpKindCount> counts{};
  for (const cdfg::Node& n : shape.nodes()) {
    counts[static_cast<std::size_t>(n.kind)] += 1;
  }
  return fingerprintOfCounts(counts);
}

DesignIndex buildDesignIndex(const LocalityDeriver& deriver,
                             std::uint32_t radius) {
  LOCWM_OBS_LATENCY("scan.fingerprint.build_ns");
  DesignIndex index;
  index.radius = radius;
  index.roots = deriver.candidateRoots();
  index.root_kinds.resize(index.roots.size());
  index.root_fps.resize(index.roots.size());
  index.root_fps1.resize(index.roots.size());
  rt::parallel_for(0, index.roots.size(), /*grain=*/8, [&](std::size_t i) {
    const cdfg::NodeId root = index.roots[i];
    index.root_kinds[i] =
        static_cast<std::uint8_t>(deriver.csr().kind(root));
    index.root_fps[i] =
        fingerprintOfCounts(deriver.faninKindCounts(root, radius));
    index.root_fps1[i] =
        fingerprintOfCounts(deriver.faninKindCounts(root, 1));
  });
  for (std::size_t i = 0; i < index.roots.size(); ++i) {
    index.kind_union[index.root_kinds[i]].merge(index.root_fps[i]);
  }
  index.design_fp = fingerprintOfCounts(deriver.realKindCounts());
  LOCWM_OBS_COUNT("scan.fingerprint.roots", index.roots.size());
  return index;
}

CertScreen certScreen(const ShapeQuery& query) {
  CertScreen sc;
  sc.fp = shapeFingerprint(*query.shape);
  sc.whole_design = query.whole_design;
  sc.radius = query.params.max_distance;
  if (query.root_rank.has_value()) {
    // The shape is itself a Cdfg (all real nodes), so the deriver's ball
    // semantics apply verbatim: shape-predecessors of the anchor are
    // direct real predecessors of any matching design root.
    const LocalityDeriver deriver(*query.shape);
    sc.fp1 = fingerprintOfCounts(
        deriver.faninKindCounts(cdfg::NodeId(*query.root_rank), 1));
    sc.root_kind = query.rootKind();
  }
  return sc;
}

std::vector<cdfg::NodeId> screenRoots(const DesignIndex& index,
                                      const CertScreen& screen) {
  detail::check<WatermarkError>(index.radius >= screen.radius,
                                "screenRoots: design index radius is below "
                                "the certificate's max_distance");
  // Design-level screen first: the per-kind union for anchored
  // certificates; the whole-design fingerprint (a superset of every fanin
  // ball) for unanchored ones.
  const bool design_level =
      screen.root_kind.has_value()
          ? index.kind_union[static_cast<std::size_t>(*screen.root_kind)]
                .covers(screen.fp)
          : index.design_fp.covers(screen.fp);
  std::size_t considered = 0;
  std::vector<cdfg::NodeId> kept;
  for (std::size_t k = 0; k < index.roots.size(); ++k) {
    if (screen.root_kind.has_value() &&
        index.root_kinds[k] != static_cast<std::uint8_t>(*screen.root_kind)) {
      continue;
    }
    ++considered;
    if (design_level && index.root_fps[k].covers(screen.fp) &&
        (!screen.fp1.has_value() || index.root_fps1[k].covers(*screen.fp1))) {
      kept.push_back(index.roots[k]);
    }
  }
  LOCWM_OBS_COUNT("core.screen.roots", considered);
  LOCWM_OBS_COUNT("core.screen.survivors", kept.size());
  return kept;
}

bool screenWholeDesign(const DesignIndex& index, const CertScreen& screen) {
  return index.design_fp.covers(screen.fp);
}

Identifier::Identifier(std::vector<ShapeQuery> queries)
    : queries_(std::move(queries)), carve_bits_(queries_.size()) {
  for (std::size_t q = 0; q < queries_.size(); ++q) {
    const ShapeQuery& query = queries_[q];
    screens_.push_back(certScreen(query));
    radius_ = std::max(radius_, query.params.max_distance);
    // An empty identity keys no stream; the replay then keys it, and
    // fails, at the query's first carve, as a per-carve keying would.
    if (!query.whole_design && !query.signature->identity.empty()) {
      carve_bits_[q].emplace(*query.signature, *query.context + "/carve");
    }
  }
}

std::optional<Identification> Identifier::run(
    const DesignIndex* index,
    const std::function<const LocalityDeriver*()>& lower) const {
  const LocalityDeriver* deriver = nullptr;
  if (index == nullptr && (deriver = lower()) == nullptr) {
    return std::nullopt;
  }
  Identification id;
  id.hits.resize(queries_.size());
  std::optional<std::vector<cdfg::NodeId>> all_roots;
  std::vector<ShapeQuery> survivors;
  std::vector<std::size_t> query_of;
  for (std::size_t q = 0; q < queries_.size(); ++q) {
    ShapeQuery query = queries_[q];
    if (index != nullptr) {
      bool kept = false;
      if (query.whole_design) {
        kept = screenWholeDesign(*index, screens_[q]);
      } else {
        query.roots = screenRoots(*index, screens_[q]);
        kept = !query.roots.empty();
      }
      if (!kept) {
        ++id.pruned;
        continue;
      }
    } else if (!query.whole_design) {
      if (!all_roots.has_value()) {
        all_roots = deriver->candidateRoots();
      }
      query.roots = *all_roots;
    }
    ++id.survivors;
    id.candidates += query.whole_design ? 1 : query.roots.size();
    if (carve_bits_[q].has_value()) {
      query.carve_bits = &*carve_bits_[q];
    }
    survivors.push_back(std::move(query));
    query_of.push_back(q);
  }
  if (survivors.empty()) {
    return id;
  }
  if (deriver == nullptr && (deriver = lower()) == nullptr) {
    return std::nullopt;
  }
  ReplayResult replay = replayShapeMatches(*deriver, survivors);
  id.contexts = replay.contexts;
  for (std::size_t k = 0; k < survivors.size(); ++k) {
    const ShapeQuery& query = survivors[k];
    std::vector<ShapeHit>& hits = id.hits[query_of[k]];
    if (!query.whole_design) {
      hits = std::move(replay.hits[k]);
      continue;
    }
    std::optional<Locality> loc = deriver->wholeDesign(query.params.min_size);
    if (loc && shapeEquals(loc->shape, *query.shape)) {
      hits.push_back(ShapeHit{cdfg::NodeId::invalid(), std::move(loc->nodes)});
    }
  }
  return id;
}

Identification Identifier::run(const LocalityDeriver& deriver,
                               const DesignIndex* index) const {
  return run(index, [&deriver] { return &deriver; }).value();
}

Identification identify(const LocalityDeriver& deriver,
                        std::vector<ShapeQuery> queries) {
  const Identifier identifier(std::move(queries));
  const DesignIndex index = buildDesignIndex(deriver, identifier.radius());
  return identifier.run(deriver, &index);
}

}  // namespace locwm::wm
