// The locality-fingerprint screen — the one root filter every detector
// shares: `detect`, `detect-reg`, `detect-tm` and the corpus scan replay
// only the roots it keeps.
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
//  * whole-design (tm) certificates screen against the design's real-op
//    histogram, the superset wholeDesign() selects from.
//
// The screen can therefore never drop a true match (proven by the
// DetectScreen and CorpusScan oracle tests); its payoff is precision.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "cdfg/graph.h"
#include "cdfg/operation.h"
#include "core/locality.h"

namespace locwm::wm {

struct WatermarkCertificate;
struct RegCertificate;
struct TmCertificate;

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

/// Certificate-side screen data, computed once per certificate and
/// shared by every design it is screened against.  `root_kind` and `fp1`
/// are set only for certificates that record their anchor's canonical
/// rank (sched/reg) — rooted tm certificates carry no root rank, so they
/// screen against every root regardless of kind.
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

[[nodiscard]] CertScreen certScreen(const WatermarkCertificate& certificate);
[[nodiscard]] CertScreen certScreen(const RegCertificate& certificate);
[[nodiscard]] CertScreen certScreen(const TmCertificate& certificate);

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

}  // namespace locwm::wm
