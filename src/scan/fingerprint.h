// Locality fingerprints for the corpus scan: the scan-side names of the
// shared detection screen (core/screen.h, where the soundness argument
// lives) plus the fingerprint-cache serialization of a DesignIndex.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "core/screen.h"

namespace locwm::scan {

using wm::buildDesignIndex;
using wm::DesignIndex;
using wm::fingerprintOfCounts;
using wm::KindFingerprint;
using wm::shapeFingerprint;

/// Serializes an index for the scan fingerprint cache.  Line-oriented,
/// versioned; kind_union/design_fp are recomputed on load from the root
/// entries plus the stored design fingerprint.
[[nodiscard]] std::string indexToString(const DesignIndex& index);

/// Strict inverse of indexToString: anything unexpected — wrong header,
/// malformed line, trailing garbage — returns nullopt (a cache miss,
/// never a wrong answer).
[[nodiscard]] std::optional<DesignIndex> parseIndex(std::string_view text);

}  // namespace locwm::scan
