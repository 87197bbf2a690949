// Text serialization of watermark certificates.
//
// A certificate is what the author must keep (alongside the signature) to
// later prove authorship; it therefore needs a durable on-disk form.  The
// format is line-oriented and embeds the locality shape in the cdfg/io.h
// text format:
//
//   locwm-cert v1 sched|tm|reg
//   context <string>
//   params <max_distance> <exclude_prob_256> <min_size>
//   root-rank <rank>              (sched/reg)
//   whole-design 0|1              (tm only)
//   constraint <before_rank> <after_rank>        (sched, repeated)
//   matching <template_id> <rank>:<op> ...       (tm, repeated)
//   share <rank> <rank>                          (reg, repeated)
//   shape-begin
//   <cdfg v1 text>
//   shape-end
//
// Parsing is strict; malformed input throws ParseError.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "core/reg_wm.h"
#include "core/sched_wm.h"
#include "core/tm_wm.h"

namespace locwm::wm {

/// Writes a scheduling-watermark certificate.
void printCertificate(std::ostream& os, const WatermarkCertificate& cert);
/// Writes a template-watermark certificate.
void printCertificate(std::ostream& os, const TmCertificate& cert);
/// Writes a register-binding-watermark certificate.
void printCertificate(std::ostream& os, const RegCertificate& cert);

[[nodiscard]] std::string certificateToString(const WatermarkCertificate& c);
[[nodiscard]] std::string certificateToString(const TmCertificate& c);
[[nodiscard]] std::string certificateToString(const RegCertificate& c);

/// Semantic strictness of certificate parsing.  kStrict (the default
/// everywhere in the pipeline) rejects rank/root-rank values outside the
/// shape.  kLenient keeps them and returns the certificate as written, so
/// the static checker (src/check) can report each violation with a stable
/// diagnostic code instead of a parse failure.  Syntax errors throw in
/// both modes.
enum class CertValidation : std::uint8_t { kStrict, kLenient };

/// Parses a scheduling-watermark certificate; throws ParseError on
/// malformed input or on a tm certificate.  `source`, when non-empty,
/// names the artifact and is prefixed to ParseError messages so failures
/// stay attributable in a multi-file corpus.
[[nodiscard]] WatermarkCertificate parseSchedCertificate(
    std::string_view text, CertValidation validation = CertValidation::kStrict,
    const std::string& source = {});

/// Parses a template-watermark certificate.
[[nodiscard]] TmCertificate parseTmCertificate(
    std::string_view text, CertValidation validation = CertValidation::kStrict,
    const std::string& source = {});

/// Parses a register-binding-watermark certificate.
[[nodiscard]] RegCertificate parseRegCertificate(
    std::string_view text, CertValidation validation = CertValidation::kStrict,
    const std::string& source = {});

}  // namespace locwm::wm
