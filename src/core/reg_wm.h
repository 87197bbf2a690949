// Local watermarking of register-binding (coloring) solutions.
//
// The paper presents local watermarking as a *generic* IPP methodology and
// sketches the coloring instantiation in §III: "while uniquely marking a
// solution to graph coloring, a local watermark is embedded in a random
// subgraph".  Register binding is behavioral synthesis's coloring task, so
// this module instantiates the generic protocol for it:
//
//   * domain selection/identification: identical to the scheduling
//     protocol (core/locality.h);
//   * constraint encoding: the keyed bitstream picks K pairs of
//     *compatible* (lifetime-disjoint) values inside the locality and
//     constrains each pair to SHARE one register — the binding-domain
//     analogue of a temporal edge: invisible locally, statistically
//     improbable globally (a random binder co-locates a compatible pair
//     with probability ≈ 1/R);
//   * detection: re-derive the locality at the suspect roots the
//     fingerprint screen (core/screen.h) keeps and check the pairs share
//     registers in the suspect's binding.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cdfg/graph.h"
#include "core/locality.h"
#include "core/sched_wm.h"  // RankConstraint
#include "core/screen.h"
#include "crypto/bitstream.h"
#include "regbind/binding.h"
#include "sched/schedule.h"

namespace locwm::wm {

/// Embedding parameters of the register-binding watermark.
struct RegWmParams {
  LocalityParams locality;
  /// Number of alias constraints K as a fraction of the locality's values.
  double k_fraction = 0.25;
  std::optional<std::size_t> k_explicit;
  /// Minimum usable value count in a locality.
  std::size_t min_values = 4;
  std::size_t max_root_retries = 128;
  sched::LatencyModel latency = sched::LatencyModel::unit();
};

/// Certificate of a register-binding watermark: locality fingerprint plus
/// the constrained pairs as canonical ranks.
struct RegCertificate {
  std::string context;
  LocalityParams locality_params;
  cdfg::Cdfg shape;
  std::uint32_t root_rank = 0;
  std::vector<RankConstraint> pairs;  ///< ranks that share a register
};

/// Result of embedding.
struct RegEmbedResult {
  RegCertificate certificate;
  Locality locality;
  /// Alias constraints in source coordinates — pass to
  /// regbind::BindOptions::aliases.
  std::vector<regbind::AliasPair> aliases;
  std::size_t roots_tried = 0;
};

/// Detection outcome.
struct RegDetectResult {
  bool found = false;
  cdfg::NodeId root;
  std::size_t shared = 0;  ///< pairs sharing a register in the suspect
  std::size_t total = 0;
  std::size_t shape_matches = 0;
};

/// Embeds + detects register-binding watermarks for one author signature.
class RegisterWatermarker {
 public:
  explicit RegisterWatermarker(crypto::AuthorSignature signature)
      : signature_(std::move(signature)) {}

  /// Selects alias constraints for design `g` scheduled by `s`.  The graph
  /// is not mutated; apply the returned aliases when binding.
  [[nodiscard]] std::optional<RegEmbedResult> embed(
      const cdfg::Cdfg& g, const sched::Schedule& s,
      const RegWmParams& params = {}, std::size_t index = 0) const;

  /// Scans a suspect design + its lifetime table + register binding.
  [[nodiscard]] RegDetectResult detect(
      const cdfg::Cdfg& suspect, const regbind::LifetimeTable& table,
      const regbind::Binding& binding,
      const RegCertificate& certificate) const;

  /// Folds the binding evidence at shape matches identification already
  /// found (the hits of the certificate's replayQuery(), in root order:
  /// the first root with the most shared pairs wins).
  [[nodiscard]] static RegDetectResult detectFromHits(
      const RegCertificate& certificate, const std::vector<ShapeHit>& hits,
      const regbind::LifetimeTable& table, const regbind::Binding& binding);

 private:
  crypto::AuthorSignature signature_;
};

/// The replay of `certificate` under `signature` at `roots` (none: the
/// detection driver chooses them), anchored at its root rank.
[[nodiscard]] ShapeQuery replayQuery(const crypto::AuthorSignature& signature,
                                     const RegCertificate& certificate,
                                     std::vector<cdfg::NodeId> roots = {});

/// Coincidence likelihood of a binding watermark: each compatible pair is
/// co-located by an oblivious binder with probability ≈ 1/R, so
/// Pc ≈ (1/R)^K (log10 domain).
[[nodiscard]] double approxBindingLog10Pc(std::size_t pairs,
                                          std::uint32_t register_count);

}  // namespace locwm::wm
