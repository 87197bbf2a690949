#include "core/tm_wm.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "cdfg/analysis.h"
#include "cdfg/error.h"
#include "core/pass_audit.h"
#include "obs/obs.h"

namespace locwm::wm {

using cdfg::NodeId;

std::optional<TmEmbedResult> TemplateWatermarker::embed(
    const cdfg::Cdfg& g, const TmWmParams& params, std::size_t index) const {
  LOCWM_OBS_SPAN("core.tm_wm.embed");
  const std::string context = "tm-wm/" + std::to_string(index);
  crypto::KeyedBitstream root_bits(signature_, context + "/root");

  const LocalityDeriver deriver(g);
  const std::vector<NodeId> roots = deriver.candidateRoots();
  if (roots.empty()) {
    return std::nullopt;
  }

  const cdfg::StructuralAnalysis analysis(g);
  const double c_ops = analysis.criticalPathLength();
  const double laxity_bound = c_ops * (1.0 - params.beta);

  const std::size_t attempts =
      params.whole_design ? 1 : params.max_root_retries;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    std::optional<Locality> loc;
    if (params.whole_design) {
      loc = deriver.wholeDesign(params.locality.min_size);
    } else {
      const NodeId root = roots[root_bits.below(roots.size())];
      crypto::KeyedBitstream carve_bits(signature_, context + "/carve");
      loc = deriver.derive(root, params.locality, carve_bits);
    }
    if (!loc) {
      continue;
    }

    // T': nodes of the locality off the (near-)critical paths.
    std::vector<NodeId> eligible;
    std::unordered_map<NodeId, std::uint32_t> rank_of;
    for (std::uint32_t r = 0; r < loc->nodes.size(); ++r) {
      rank_of.emplace(loc->nodes[r], r);
      if (static_cast<double>(analysis.laxity(loc->nodes[r])) <=
          laxity_bound) {
        eligible.push_back(loc->nodes[r]);
      }
    }
    if (eligible.size() < 2) {
      continue;
    }

    const std::size_t z = params.z_explicit.value_or(std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               params.z_fraction * static_cast<double>(loc->size())))));

    crypto::KeyedBitstream encode_bits(signature_, context + "/encode");

    TmEmbedResult result;
    result.roots_tried = attempt + 1;
    std::unordered_set<NodeId> processed;
    std::unordered_set<NodeId> internal;  // hidden inside enforced modules

    for (std::size_t round = 0; round < z; ++round) {
      // Enumerate matchings over the unprocessed eligible nodes.
      tm::MatchOptions mo;
      for (const NodeId n : eligible) {
        if (!processed.contains(n)) {
          mo.restrict_to.push_back(n);
        }
      }
      if (mo.restrict_to.size() < 2) {
        break;
      }
      mo.include_singletons = false;  // enforcing a singleton encodes nothing
      std::vector<tm::Matching> candidates =
          tm::enumerateMatchings(g, *library_, mo);

      // Keep only admissible candidates whose module inputs don't demand
      // visibility of a variable already hidden inside an earlier enforced
      // module, and which stay admissible under the accumulated PPOs.
      std::vector<tm::Matching> usable;
      for (tm::Matching& m : candidates) {
        if (!tm::isAdmissible(m, library_->get(m.template_id), result.ppo)) {
          continue;
        }
        bool clashes = false;
        std::unordered_set<NodeId> instance;
        for (const tm::MatchPair& p : m.pairs) {
          instance.insert(p.node);
        }
        for (const tm::MatchPair& p : m.pairs) {
          for (const NodeId pred :
               deriver.csr().predecessors(p.node, cdfg::EdgeSel::kData)) {
            if (!instance.contains(pred) && internal.contains(pred)) {
              clashes = true;
            }
          }
        }
        if (!clashes) {
          usable.push_back(std::move(m));
        }
      }
      if (usable.empty()) {
        break;
      }
      // Deterministic, structure-independent order: sort by a rank-based
      // key so the pick is reproducible on a re-indexed design.
      std::sort(usable.begin(), usable.end(),
                [&](const tm::Matching& a, const tm::Matching& b) {
                  auto rankKey = [&](const tm::Matching& m) {
                    std::vector<std::pair<std::size_t, std::uint32_t>> k;
                    k.emplace_back(m.template_id.value(), 0u);
                    for (const tm::MatchPair& p : m.pairs) {
                      k.emplace_back(p.op_index, rank_of.at(p.node));
                    }
                    return k;
                  };
                  return rankKey(a) < rankKey(b);
                });

      const std::size_t pick = encode_bits.below(usable.size());
      const tm::Matching& chosen = usable[pick];

      // PPO promotion: the variables entering the module (produced by
      // outside operations) and the module's primary output (the local
      // root of the matched subset).  Matched children that also feed the
      // outside world stay visible as module *taps* and are deliberately
      // NOT PPO-promoted — promoting them would contradict their being
      // hidden inside this very module.
      std::unordered_set<NodeId> instance;
      for (const tm::MatchPair& p : chosen.pairs) {
        instance.insert(p.node);
      }
      for (const tm::MatchPair& p : chosen.pairs) {
        for (const NodeId pred :
             deriver.csr().predecessors(p.node, cdfg::EdgeSel::kData)) {
          if (!instance.contains(pred) &&
              !cdfg::isPseudoOp(deriver.csr().kind(pred))) {
            result.ppo.insert(pred);  // module input
          }
        }
      }

      // Internal nodes (matched ops whose parent op is matched too) and,
      // by elimination, the local root.
      const tm::Template& tmpl = library_->get(chosen.template_id);
      std::unordered_map<std::size_t, NodeId> by_op;
      for (const tm::MatchPair& p : chosen.pairs) {
        by_op.emplace(p.op_index, p.node);
      }
      std::unordered_set<NodeId> instance_internal;
      for (const tm::MatchPair& p : chosen.pairs) {
        for (const std::size_t c : tmpl.ops[p.op_index].children) {
          const auto it = by_op.find(c);
          if (it != by_op.end()) {
            instance_internal.insert(it->second);
            internal.insert(it->second);
          }
        }
      }
      for (const tm::MatchPair& p : chosen.pairs) {
        if (!instance_internal.contains(p.node)) {
          result.ppo.insert(p.node);  // module output (local root)
        }
      }

      for (const tm::MatchPair& p : chosen.pairs) {
        processed.insert(p.node);
      }

      // Certificate entry (ranks) + source-coordinate forced matching.
      EnforcedMatching em;
      em.template_id = chosen.template_id;
      for (const tm::MatchPair& p : chosen.pairs) {
        em.pairs.emplace_back(rank_of.at(p.node), p.op_index);
      }
      std::sort(em.pairs.begin(), em.pairs.end(),
                [](const auto& a, const auto& b) {
                  return a.second < b.second;
                });
      result.certificate.matchings.push_back(std::move(em));
      result.forced.push_back(chosen);
    }

    if (result.certificate.matchings.empty()) {
      continue;
    }

    // Solutions(m_i) over the full, unconstrained design: how many ways
    // the enforced nodes could have been covered without the watermark.
    {
      const std::vector<tm::Matching> all =
          tm::enumerateMatchings(g, *library_, tm::MatchOptions{});
      for (const tm::Matching& m : result.forced) {
        const tm::SolutionsCount sc = tm::countCoverings(g, all, m.nodes());
        result.solutions.push_back(std::max<std::uint64_t>(1, sc.count));
      }
    }

    result.certificate.context = context;
    result.certificate.locality_params = params.locality;
    result.certificate.whole_design = params.whole_design;
    result.certificate.shape = loc->shape;
    result.locality = std::move(*loc);
    LOCWM_OBS_COUNT("core.tm_wm.embeds", 1);
    LOCWM_OBS_COUNT("core.tm_wm.matchings_enforced",
                    result.certificate.matchings.size());
    auditCertificate("tm-wm/embed", result.certificate);
    return result;
  }
  LOCWM_OBS_COUNT("core.tm_wm.embed_failures", 1);
  return std::nullopt;
}

tm::CoverResult TemplateWatermarker::applyCover(const cdfg::Cdfg& g,
                                                const TmEmbedResult& wm,
                                                bool exact) const {
  const std::vector<tm::Matching> all =
      tm::enumerateMatchings(g, *library_, tm::MatchOptions{});
  tm::CoverOptions co;
  co.ppo = wm.ppo;
  co.forced = wm.forced;
  co.exact = exact;
  return tm::cover(g, *library_, all, co);
}

TmDetectResult TemplateWatermarker::detect(
    const cdfg::Cdfg& suspect, const std::vector<tm::Matching>& cover,
    const TmCertificate& certificate) const {
  const Identification id = identify(LocalityDeriver(suspect),
                                     {replayQuery(signature_, certificate)});
  return detectFromHits(certificate, id.hits.front(), cover);
}

TmDetectResult TemplateWatermarker::detectFromHits(
    const TmCertificate& certificate, const std::vector<ShapeHit>& hits,
    const std::vector<tm::Matching>& cover) {
  LOCWM_OBS_SPAN("core.tm_wm.detect");
  auditCertificate("tm-wm/detect", certificate);
  TmDetectResult best;
  best.total = certificate.matchings.size();
  best.root = NodeId::invalid();
  // Index the suspect cover by node↔op correspondence for O(1) lookups.
  std::unordered_set<std::string> cover_keys;
  for (const tm::Matching& m : cover) {
    cover_keys.insert(m.key());
  }
  // Hits come in root order; `>=` lets the later of two equally good
  // roots win, as in a serial scan.
  for (const ShapeHit& hit : hits) {
    std::size_t present = 0;
    for (const EnforcedMatching& em : certificate.matchings) {
      tm::Matching expect;
      expect.template_id = em.template_id;
      for (const auto& [rank, op] : em.pairs) {
        expect.pairs.push_back(tm::MatchPair{hit.nodes[rank], op});
      }
      std::sort(expect.pairs.begin(), expect.pairs.end(),
                [](const tm::MatchPair& a, const tm::MatchPair& b) {
                  return a.op_index < b.op_index;
                });
      if (cover_keys.contains(expect.key())) {
        ++present;
      }
    }
    ++best.shape_matches;
    if (present >= best.present) {
      best.present = present;
      best.root = hit.root;
    }
  }
  best.found = best.shape_matches > 0 && best.present == best.total &&
               best.total > 0;
  return best;
}

ShapeQuery replayQuery(const crypto::AuthorSignature& signature,
                       const TmCertificate& certificate,
                       std::vector<NodeId> roots) {
  return {&signature,
          &certificate.context,
          certificate.locality_params,
          &certificate.shape,
          std::nullopt,
          certificate.whole_design,
          std::move(roots)};
}

}  // namespace locwm::wm
