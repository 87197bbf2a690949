// Workspace model of the static-analysis subsystem — the "link-time"
// layer under `locwm lint --project` (src/check/project.h), and the one
// loader of `locwm scan` corpora (src/scan/corpus.h).
//
// A Workspace is an ordered collection of artifacts (designs, schedules,
// covers, bindings, libraries, certificates) loaded from a directory
// (walked by store::listFiles, src/store/store.h) or an explicit
// manifest, with just enough per-artifact *metadata* to
// resolve the inter-artifact reference graph (schedule→design,
// binding→schedule, cover→design+library, certificate→design) without
// re-parsing unchanged artifacts — the metadata round-trips through the
// persistent analysis cache (docs/STATIC_ANALYSIS.md, "Workspace
// analysis").
//
// Manifest format ("locwm-workspace v1", '#' comments, paths relative to
// the manifest's directory):
//
//   locwm-workspace v1
//   artifact <path> [design=<path>] [schedule=<path>] [library=<path>]
//
// Explicit references pin the resolution; unspecified references are
// inferred from compatibility (see project.cpp).  Malformed manifest
// lines and references to files outside the workspace are LW801.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check/diagnostics.h"

namespace locwm::check {

/// What kind of artifact a file is, per header-line sniffing.
enum class ArtifactKind : std::uint8_t {
  kDesign,
  kSchedule,
  kCover,
  kBinding,
  kLibrary,
  kCertSched,
  kCertTm,
  kCertReg,
  kManifest,    ///< a workspace manifest (not itself lintable)
  kUnknown,     ///< header defeated sniffing
  kUnreadable,  ///< the file could not be read at all
};

/// Stable mnemonic ("design", "schedule", ..., "unknown").
[[nodiscard]] std::string_view artifactKindName(ArtifactKind kind) noexcept;

/// Outcome of sniffing an artifact's kind from its header line.  When the
/// kind is kUnknown, `first_byte`/`first_offset` pinpoint the first
/// non-whitespace byte of the first meaningful (non-blank, non-comment)
/// line — the byte that defeated sniffing — so directory loads over mixed
/// content produce actionable diagnostics.
struct SniffResult {
  ArtifactKind kind = ArtifactKind::kUnknown;
  std::string header_word;  ///< first whitespace-delimited header token
  std::string cert_kind;    ///< third token of a "locwm-cert v1 X" header
  char first_byte = '\0';
  std::size_t first_offset = 0;  ///< byte offset of first_byte in the text
  bool empty = true;             ///< no meaningful content at all
};

/// Classifies artifact text by its header line.  Never throws.
[[nodiscard]] SniffResult sniffArtifact(const std::string& text);

/// The LW001 diagnostic for an artifact that does not parse.  A parser
/// prefixes its error with the source path; the diagnostic already names
/// the artifact, so a leading "<artifact>: " is dropped from `message`.
[[nodiscard]] Diagnostic syntaxErrorDiag(const std::string& artifact,
                                         std::string_view message,
                                         std::string location = {});

/// Cheap per-artifact metadata: everything reference resolution and the
/// ring-level LW8xx rules need, extractable without a full parse context
/// and durable enough to live in the analysis cache.  Fields not
/// meaningful for a kind are zero/empty.
struct ArtifactMeta {
  ArtifactKind kind = ArtifactKind::kUnknown;
  /// False when the artifact failed even lenient parsing (syntax error);
  /// unusable artifacts resolve no references and join no ring rules.
  bool usable = false;
  // design
  std::uint32_t node_count = 0;
  // schedule / cover / binding: entry count and highest node referenced
  std::uint32_t entries = 0;
  std::uint32_t max_node = 0;  ///< meaningful only when entries > 0
  // certificate
  std::string cert_context;  ///< key-stream context ("sched-wm/0")
  std::uint32_t shape_nodes = 0;
};

/// One artifact of a workspace.
struct WorkspaceArtifact {
  std::string path;  ///< display path (manifest-relative / root-relative)
  std::string file;  ///< filesystem path ("" for in-memory test artifacts)
  std::string text;  ///< raw content ("" when unreadable)
  /// SHA-256 hex of `text`; filled by project analysis (empty until then).
  std::string digest;
  ArtifactMeta meta;
  /// Explicit references from the manifest (paths as written).
  std::optional<std::string> ref_design;
  std::optional<std::string> ref_schedule;
  std::optional<std::string> ref_library;
  /// Resolved reference targets (indices into Workspace::artifacts();
  /// -1 = unresolved / not applicable).  Filled by project analysis.
  std::ptrdiff_t design = -1;
  std::ptrdiff_t schedule = -1;
  std::ptrdiff_t library = -1;
};

/// A loaded workspace: artifacts sorted by display path plus the load
/// report (manifest problems, unreadable files).
class Workspace {
 public:
  /// Loads every file store::listFiles(dir) lists (recursive; hidden
  /// names are skipped and hidden directories such as `.locwm-cache` never
  /// entered), except workspace manifests.  Throws Error when `dir` is not
  /// a readable directory.
  [[nodiscard]] static Workspace fromDirectory(const std::string& dir);

  /// Loads the artifacts a manifest file lists.  Throws Error when the
  /// manifest itself cannot be read; in-manifest problems become LW801
  /// diagnostics in loadReport().
  [[nodiscard]] static Workspace fromManifestFile(const std::string& path);

  /// Parses manifest text against `base_dir` (tests, stdin).  `name`
  /// labels manifest diagnostics.
  [[nodiscard]] static Workspace fromManifestText(const std::string& text,
                                                  const std::string& name,
                                                  const std::string& base_dir);

  /// Adds an in-memory artifact (tests).  Keeps artifacts sorted by path.
  void addArtifactText(std::string path, std::string text);

  [[nodiscard]] std::vector<WorkspaceArtifact>& artifacts() noexcept {
    return artifacts_;
  }
  [[nodiscard]] const std::vector<WorkspaceArtifact>& artifacts()
      const noexcept {
    return artifacts_;
  }

  /// Workspace root directory ("" for in-memory workspaces).
  [[nodiscard]] const std::string& root() const noexcept { return root_; }

  /// Problems found while loading: malformed manifest lines, references
  /// to missing files (LW801), unreadable artifacts (LW001).
  [[nodiscard]] const Report& loadReport() const noexcept {
    return load_report_;
  }

  /// Index of the artifact whose display path is `path` (-1 when absent).
  [[nodiscard]] std::ptrdiff_t indexOf(const std::string& path) const;

 private:
  void addFromFile(std::string display, const std::string& file);
  void sortArtifacts();
  /// indexOf before sortArtifacts() has run (manifest loading).
  [[nodiscard]] std::ptrdiff_t indexOfUnsorted(const std::string& path) const;

  std::string root_;
  std::vector<WorkspaceArtifact> artifacts_;
  Report load_report_;
};

}  // namespace locwm::check
