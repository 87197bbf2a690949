// Local watermarking of template-matching solutions (§IV-B).
//
// Embedding selects a locality, exhaustively enumerates the feasible
// node↔module matchings inside it, and — driven by the keyed bitstream —
// *enforces* Z of them by promoting the boundary variables of each chosen
// module instance to pseudo-primary outputs (PPOs).  A PPO variable must
// remain visible, so no competing module may hide it: the covering
// optimizer is steered into reproducing the chosen matchings.  The author
// memorizes the locality fingerprint plus the enforced matchings as
// canonical-rank pairs; detection re-derives the locality at the suspect
// roots the fingerprint screen (core/screen.h) keeps and checks the
// suspect's template cover contains every enforced matching.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cdfg/graph.h"
#include "core/locality.h"
#include "core/screen.h"
#include "crypto/bitstream.h"
#include "tm/cover.h"
#include "tm/matching.h"
#include "tm/solutions.h"
#include "tm/template.h"

namespace locwm::wm {

/// Embedding parameters of the template-matching watermark.
struct TmWmParams {
  LocalityParams locality;
  /// Laxity bound β: nodes with laxity > C·(1−β) (near-critical paths) are
  /// excluded so enforced matchings do not degrade the critical path.
  double beta = 0.2;
  /// Number of enforced matchings Z as a fraction of |T| (Table II uses
  /// Z = 0.07·τ).  Overridden by z_explicit when set.
  double z_fraction = 0.07;
  std::optional<std::size_t> z_explicit;
  /// How many roots to try before giving up.
  std::size_t max_root_retries = 128;
  /// Table II mode: T = CDFG — the locality is the whole design (every
  /// uniquely identifiable operation); detection compares against the
  /// entire suspect rather than scanning roots.
  bool whole_design = false;
};

/// One enforced matching in certificate form: locality ranks ↔ template ops.
struct EnforcedMatching {
  TemplateId template_id;
  /// (canonical rank in locality, template op index), sorted by op index.
  std::vector<std::pair<std::uint32_t, std::size_t>> pairs;
};

/// What the author memorizes per template watermark.
struct TmCertificate {
  std::string context;
  LocalityParams locality_params;
  bool whole_design = false;
  cdfg::Cdfg shape;
  std::vector<EnforcedMatching> matchings;
};

/// Result of embedding.
struct TmEmbedResult {
  TmCertificate certificate;
  Locality locality;
  /// PPO variables (producing nodes, source coordinates) the synthesis
  /// flow must keep visible.
  tm::PpoSet ppo;
  /// The enforced matchings in source coordinates (pass as
  /// CoverOptions::forced).
  std::vector<tm::Matching> forced;
  /// Solutions(m_i) counts backing the Pc estimate.
  std::vector<std::uint64_t> solutions;
  std::size_t roots_tried = 0;
};

/// Detection outcome.
struct TmDetectResult {
  bool found = false;
  cdfg::NodeId root;
  /// Enforced matchings present in the suspect cover / total.
  std::size_t present = 0;
  std::size_t total = 0;
  std::size_t shape_matches = 0;
};

/// Embeds + detects template-matching watermarks for one author signature.
class TemplateWatermarker {
 public:
  /// `library` must outlive the watermarker.
  TemplateWatermarker(crypto::AuthorSignature signature,
                      const tm::TemplateLibrary& library)
      : signature_(std::move(signature)), library_(&library) {}

  /// Embeds one watermark (computes PPOs + forced matchings; the graph is
  /// not mutated — template watermarks live in constraints, not edges).
  [[nodiscard]] std::optional<TmEmbedResult> embed(
      const cdfg::Cdfg& g, const TmWmParams& params = {},
      std::size_t index = 0) const;

  /// Convenience: runs the covering pass with this watermark's constraints
  /// (enumerates matchings over the full design).
  [[nodiscard]] tm::CoverResult applyCover(const cdfg::Cdfg& g,
                                           const TmEmbedResult& wm,
                                           bool exact = false) const;

  /// Scans a suspect design + its template cover for the certificate's
  /// watermark.  `found` requires every enforced matching present at a
  /// shape-matching root.
  [[nodiscard]] TmDetectResult detect(
      const cdfg::Cdfg& suspect, const std::vector<tm::Matching>& cover,
      const TmCertificate& certificate) const;

  /// Folds the cover evidence at shape matches identification already
  /// found (the hits of the certificate's replayQuery(), in root order:
  /// the later of two equally good roots wins).
  [[nodiscard]] static TmDetectResult detectFromHits(
      const TmCertificate& certificate, const std::vector<ShapeHit>& hits,
      const std::vector<tm::Matching>& cover);

  [[nodiscard]] const tm::TemplateLibrary& library() const noexcept {
    return *library_;
  }

 private:
  crypto::AuthorSignature signature_;
  const tm::TemplateLibrary* library_;
};

/// The replay of `certificate` under `signature` at `roots` (none: the
/// detection driver chooses them).  Tm certificates record no root rank,
/// so every root replays; a whole-design certificate replays none.
[[nodiscard]] ShapeQuery replayQuery(const crypto::AuthorSignature& signature,
                                     const TmCertificate& certificate,
                                     std::vector<cdfg::NodeId> roots = {});

}  // namespace locwm::wm
