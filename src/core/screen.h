// The detection driver — the identification half every detector shares.
// `detect`, `detect-reg`, `detect-tm`, the corpus scan and the global
// baseline each turn their certificates into ShapeQuery values
// (core/locality.h) and hand them to one Identifier, which
//
//  1. screens each query against the design's fingerprint index (or, with
//     no index, gives it every candidate root — the unscreened oracle);
//  2. answers whole-design (T = CDFG) queries itself;
//  3. replays the rest root-major through replayShapeMatches();
//
// and returns per-query shape hits plus pruned/survivor/candidate/context
// counts.  The per-kind code that differs — schedule, binding or cover
// evidence at those hits — stays with each watermarker (§III, §IV-A/B).
//
// The screen rests on one invariant of locality derivation (locality.cpp,
// derive() Step 1a/3): every carved node is a member of the directed
// copy-transparent fanin ball of radius max_distance around the root, and
// the contracted shape preserves node kinds.  So for any certificate that
// matches at a root, the shape's operation-kind histogram is
// component-wise <= the histogram of that root's fanin ball — regardless
// of the key, the carve probabilities, or the canonical ordering.  The
// ball grows monotonically with radius, so one design-side radius
// R = max(max_distance over the certificates) is sound for all of them.
//
// Histograms are encoded as saturating threshold bits (6 per kind:
// count >= 1, 2, 3, 4, 6, 8), making "can nest inside" one O(1) bitwise
// subset test per pair.  The encoding is monotone — bigger counts only set more
// bits — which yields two sound aggregates for free:
//
//  * per root kind, OR-ing root fingerprints equals the encoding of the
//    component-wise max histogram, giving a design-level screen per
//    (certificate, root kind) before any per-root work;
//  * whole-design certificates screen against the design's real-op
//    histogram, the superset wholeDesign() selects from.
//
// The screen can therefore never drop a true match (proven by the
// DetectScreen and CorpusScan oracle tests); its payoff is precision.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cdfg/graph.h"
#include "cdfg/operation.h"
#include "core/locality.h"

namespace locwm::wm {

/// Saturating threshold encoding of an operation-kind histogram:
/// bit (kind*6 + t) is set iff count(kind) >= {1, 2, 3, 4, 6, 8}[t].  With
/// kOpKindCount kinds this needs kOpKindCount*6 bits, packed little-end
/// first into two 64-bit words.
struct KindFingerprint {
  std::array<std::uint64_t, 2> bits{};

  /// True when every set bit of `needle` is set here — i.e. the histogram
  /// `needle` encodes *can* nest component-wise inside this one.  The
  /// encoding is lossy above the top threshold, so this is necessary, not
  /// sufficient: exactly the one-sided error a sound screen needs.
  [[nodiscard]] bool covers(const KindFingerprint& needle) const noexcept {
    return (needle.bits[0] & ~bits[0]) == 0 &&
           (needle.bits[1] & ~bits[1]) == 0;
  }

  /// Bitwise OR — the encoding of the component-wise max histogram.
  void merge(const KindFingerprint& other) noexcept {
    bits[0] |= other.bits[0];
    bits[1] |= other.bits[1];
  }

  [[nodiscard]] bool operator==(const KindFingerprint& other) const noexcept {
    return bits == other.bits;
  }
};

static_assert(cdfg::kOpKindCount * 6 <= 128,
              "KindFingerprint packs 6 threshold bits per op kind into two "
              "64-bit words");

/// Threshold-bit encoding of a kind histogram.
[[nodiscard]] KindFingerprint fingerprintOfCounts(
    const std::array<std::uint32_t, cdfg::kOpKindCount>& counts) noexcept;

/// Fingerprint of a certificate shape (node-kind histogram; every shape
/// node is a real operation by construction).
[[nodiscard]] KindFingerprint shapeFingerprint(const cdfg::Cdfg& shape);

/// Per-design fingerprint index: one fanin-ball fingerprint per candidate
/// root plus the two aggregates described in the file comment.  Built once
/// per design at the widest radius among the certificates it screens and
/// reused for every one of them.
struct DesignIndex {
  /// Radius the root fingerprints were computed at.  Sound for every
  /// certificate with locality max_distance <= radius.
  std::uint32_t radius = 0;
  /// candidateRoots() of the design, ascending.
  std::vector<cdfg::NodeId> roots;
  /// Operation kind per root (dense enum value), aligned with `roots`.
  std::vector<std::uint8_t> root_kinds;
  /// Directed fanin-ball fingerprint per root, aligned with `roots`.
  std::vector<KindFingerprint> root_fps;
  /// Radius-1 ball fingerprint per root (the root and its copy-transparent
  /// direct real predecessors).  A certificate that records its anchor's
  /// rank knows the shape root's direct predecessors, and every one of
  /// them is a direct real predecessor of a matching design root — so
  /// this screens far more sharply than the full-radius ball.
  std::vector<KindFingerprint> root_fps1;
  /// OR of root_fps grouped by root kind — the design-level screen.
  std::array<KindFingerprint, cdfg::kOpKindCount> kind_union{};
  /// Fingerprint of every real operation — the whole-design screen.
  KindFingerprint design_fp;

  [[nodiscard]] bool operator==(const DesignIndex& other) const = default;
};

/// Builds the index from a lowered design.  Per-root fingerprints are
/// computed in parallel on the rt pool (each slot is an independent pure
/// function of the graph), so the result is thread-count invariant.
[[nodiscard]] DesignIndex buildDesignIndex(const LocalityDeriver& deriver,
                                           std::uint32_t radius);

/// Certificate-side screen data, computed once per query and shared by
/// every design it is screened against.  `root_kind` and `fp1` are set
/// only for queries that record their anchor's canonical rank (sched/reg)
/// — rooted tm certificates carry no root rank, so they screen against
/// every root regardless of kind.
struct CertScreen {
  KindFingerprint fp;
  /// Radius-1 fingerprint around the shape's anchor — the sharp per-root
  /// screen.
  std::optional<KindFingerprint> fp1;
  std::optional<cdfg::OpKind> root_kind;
  bool whole_design = false;
  /// The certificate's locality max_distance: the smallest index radius
  /// the screen is sound at.
  std::uint32_t radius = 0;
};

[[nodiscard]] CertScreen certScreen(const ShapeQuery& query);

/// The roots of `index` at which a rooted certificate can match,
/// ascending: a superset of its shape-matching roots, so replaying only
/// these gives the same hits as replaying every candidate root.  Empty
/// when the design-level screen already rules the certificate out.
/// Counts `core.screen.roots` (roots a full replay would derive at: those
/// of the anchor's kind, or all for an unanchored certificate) and
/// `core.screen.survivors` (roots kept).  Throws WatermarkError when the index
/// radius is below the certificate's max_distance (the screen would not
/// be sound).
[[nodiscard]] std::vector<cdfg::NodeId> screenRoots(const DesignIndex& index,
                                                    const CertScreen& screen);

/// The whole-design screen: false when the certificate's shape cannot be
/// selected from the design's real operations, so wholeDesign() need not
/// run.
[[nodiscard]] bool screenWholeDesign(const DesignIndex& index,
                                     const CertScreen& screen);

/// What identification found in one design for a batch of queries.
struct Identification {
  /// hits[q]: query q's shape matches in root order.  A whole-design match
  /// is one hit with an invalid root.
  std::vector<std::vector<ShapeHit>> hits;
  std::size_t pruned = 0;      ///< queries the screen ruled out
  std::size_t survivors = 0;   ///< queries identified
  std::size_t candidates = 0;  ///< roots replayed (1 per whole-design query)
  std::size_t contexts = 0;    ///< identification contexts the replay built
};

/// The detection driver for a fixed batch of queries — one detect call's
/// certificates, or a scan's key ring.  Screens and the carve streams of
/// rooted queries are computed once, at construction (the SHA-256 +
/// RC4-drop keying is then paid once per query, not once per carve); run()
/// identifies the batch in any number of designs.
class Identifier {
 public:
  /// `queries` carry no roots; the driver chooses them per design.
  explicit Identifier(std::vector<ShapeQuery> queries);

  /// The design-index radius sound for every query: the widest locality
  /// max_distance, at least 1.
  [[nodiscard]] std::uint32_t radius() const noexcept { return radius_; }

  /// Identifies every query in one design.  With an `index` (built at a
  /// radius >= radius()), a rooted query replays only the roots
  /// screenRoots() keeps and a whole-design query runs only when
  /// screenWholeDesign() passes; a query left with nothing to replay is
  /// pruned.  With no index, every query survives and a rooted one replays
  /// every candidate root.  `lower` supplies the design's deriver; it is
  /// called at most once, and only when the design has no index or some
  /// query survives, so a design the index prunes entirely is never
  /// lowered.  Returns nullopt when `lower` returns nullptr.
  [[nodiscard]] std::optional<Identification> run(
      const DesignIndex* index,
      const std::function<const LocalityDeriver*()>& lower) const;

  /// run() on an already lowered design.
  [[nodiscard]] Identification run(const LocalityDeriver& deriver,
                                   const DesignIndex* index) const;

 private:
  std::vector<ShapeQuery> queries_;
  std::vector<CertScreen> screens_;
  /// Per query: its keyed carve stream (none for whole-design queries).
  std::vector<std::optional<crypto::KeyedBitstream>> carve_bits_;
  std::uint32_t radius_ = 1;
};

/// One detect call: screens `queries` against an index of `deriver`'s
/// design built at the batch's radius(), then identifies them.
[[nodiscard]] Identification identify(const LocalityDeriver& deriver,
                                      std::vector<ShapeQuery> queries);

}  // namespace locwm::wm
