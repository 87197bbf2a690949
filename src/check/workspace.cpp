#include "check/workspace.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "cdfg/error.h"
#include "cdfg/text.h"
#include "check/internal.h"
#include "sched/schedule_io.h"
#include "store/store.h"

namespace locwm::check {
namespace {

namespace fs = std::filesystem;
using detail::diag;

}  // namespace

std::string_view artifactKindName(ArtifactKind kind) noexcept {
  switch (kind) {
    case ArtifactKind::kDesign:
      return "design";
    case ArtifactKind::kSchedule:
      return "schedule";
    case ArtifactKind::kCover:
      return "cover";
    case ArtifactKind::kBinding:
      return "binding";
    case ArtifactKind::kLibrary:
      return "library";
    case ArtifactKind::kCertSched:
      return "sched-certificate";
    case ArtifactKind::kCertTm:
      return "tm-certificate";
    case ArtifactKind::kCertReg:
      return "reg-certificate";
    case ArtifactKind::kManifest:
      return "manifest";
    case ArtifactKind::kUnknown:
      return "unknown";
    case ArtifactKind::kUnreadable:
      return "unreadable";
  }
  return "unknown";
}

SniffResult sniffArtifact(const std::string& text) {
  SniffResult r;
  text::LineReader lines(text);
  std::string_view line;
  while (lines.next(line)) {
    text::Fields ls(text::stripComment(line));
    std::string_view word;
    if (!(ls >> word)) {
      continue;
    }
    r.empty = false;
    r.first_byte = word.front();
    r.first_offset = static_cast<std::size_t>(word.data() - text.data());
    r.header_word = word;
    if (word == "cdfg") {
      r.kind = ArtifactKind::kDesign;
    } else if (word == "tmcover") {
      r.kind = ArtifactKind::kCover;
    } else if (word == "tmlib") {
      r.kind = ArtifactKind::kLibrary;
    } else if (word == "registers") {
      r.kind = ArtifactKind::kBinding;
    } else if (word == "locwm-workspace") {
      r.kind = ArtifactKind::kManifest;
    } else if (word == "locwm-cert") {
      std::string_view version;
      std::string_view kind;
      ls >> version >> kind;
      r.cert_kind = kind;
      if (kind == "sched") {
        r.kind = ArtifactKind::kCertSched;
      } else if (kind == "tm") {
        r.kind = ArtifactKind::kCertTm;
      } else if (kind == "reg") {
        r.kind = ArtifactKind::kCertReg;
      }  // else: kUnknown, cert_kind records what defeated us
    } else {
      sched::ScheduleEntry entry;
      if (sched::readScheduleLine(line, entry) ==
          sched::ScheduleLine::kEntry) {
        r.kind = ArtifactKind::kSchedule;
      }
    }
    return r;
  }
  return r;
}

Diagnostic syntaxErrorDiag(const std::string& artifact,
                           std::string_view message, std::string location) {
  if (!artifact.empty() && message.starts_with(artifact) &&
      message.substr(artifact.size()).starts_with(": ")) {
    message.remove_prefix(artifact.size() + 2);
  }
  return diag("LW001", Severity::kError, artifact, std::move(location),
              std::string(message),
              "fix the artifact's syntax; semantic problems are reported as "
              "individual diagnostics");
}

Workspace Workspace::fromDirectory(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec) || ec) {
    throw Error("workspace directory is not readable: " + dir);
  }
  Workspace ws;
  ws.root_ = dir;
  for (const std::string& rel : store::listFiles(dir)) {
    ws.addFromFile(rel, (fs::path(dir) / rel).string());
  }
  // Directory mode skips workspace manifests: the caller chose directory
  // inference, and a manifest is not itself a lintable artifact.
  std::erase_if(ws.artifacts_, [](const WorkspaceArtifact& a) {
    return !a.text.empty() && sniffArtifact(a.text).kind == ArtifactKind::kManifest;
  });
  return ws;
}

Workspace Workspace::fromManifestFile(const std::string& path) {
  const std::optional<std::string> text = store::readFile(path);
  if (!text) {
    throw Error("workspace manifest is not readable: " + path);
  }
  const std::string base = fs::path(path).parent_path().string();
  return fromManifestText(*text, path, base.empty() ? "." : base);
}

Workspace Workspace::fromManifestText(const std::string& text,
                                      const std::string& name,
                                      const std::string& base_dir) {
  Workspace ws;
  ws.root_ = base_dir;
  text::LineReader lines(text);
  bool saw_header = false;
  // References parsed before their target's "artifact" line are legal, so
  // unknown-reference checking waits until the whole manifest is read.
  struct PendingRef {
    std::size_t artifact;  // index into ws.artifacts_ load order
    std::string path;
    std::size_t line;
  };
  std::vector<PendingRef> refs;
  std::vector<std::string> load_order;  // display paths, manifest order
  for (std::string_view line; lines.next(line);) {
    const std::size_t lineno = lines.lineno();
    text::Fields ls(text::stripComment(line));
    std::string_view word;
    if (!(ls >> word)) {
      continue;
    }
    const std::string at = "line " + std::to_string(lineno);
    if (!saw_header) {
      std::string_view version;
      std::string_view trailing;
      if (word != "locwm-workspace" || !(ls >> version) ||
          version != "v1" || (ls >> trailing)) {
        ws.load_report_.add(diag(
            "LW801", Severity::kError, name, at,
            "manifest must start with a 'locwm-workspace v1' header",
            "see docs/STATIC_ANALYSIS.md for the workspace manifest format"));
        return ws;
      }
      saw_header = true;
      continue;
    }
    if (word != "artifact") {
      ws.load_report_.add(diag(
          "LW801", Severity::kError, name, at,
          "unknown manifest directive '" + std::string(word) + "'",
          "every manifest entry is 'artifact <path> [design=..] "
          "[schedule=..] [library=..]'"));
      continue;
    }
    std::string path;
    if (!(ls >> path)) {
      ws.load_report_.add(diag("LW801", Severity::kError, name, at,
                               "artifact entry is missing its path", {}));
      continue;
    }
    if (ws.indexOfUnsorted(path) >= 0) {
      ws.load_report_.add(diag(
          "LW801", Severity::kError, name, at,
          "duplicate artifact '" + path + "'",
          "each workspace path may be listed once"));
      continue;
    }
    WorkspaceArtifact entry;
    bool ok = true;
    for (std::string_view opt; ls >> opt;) {
      const std::size_t eq = opt.find('=');
      const std::string_view key = opt.substr(0, eq);
      if (eq == std::string_view::npos || eq + 1 >= opt.size() ||
          (key != "design" && key != "schedule" && key != "library")) {
        ws.load_report_.add(diag(
            "LW801", Severity::kError, name, at,
            "malformed reference '" + std::string(opt) + "' on artifact '" +
                path + "'",
            "references are design=<path>, schedule=<path>, or "
            "library=<path>"));
        ok = false;
        break;
      }
      const std::string target(opt.substr(eq + 1));
      std::optional<std::string>& slot = key == "design" ? entry.ref_design
                                         : key == "schedule"
                                             ? entry.ref_schedule
                                             : entry.ref_library;
      if (slot) {
        ws.load_report_.add(diag(
            "LW801", Severity::kError, name, at,
            "artifact '" + path + "' names two " + std::string(key) +
                " references",
            {}));
        ok = false;
        break;
      }
      slot = target;
      refs.push_back({load_order.size(), target, lineno});
    }
    if (!ok) {
      continue;
    }
    const std::string file = (fs::path(base_dir) / path).string();
    const std::size_t index = ws.artifacts_.size();
    ws.addFromFile(path, file);
    entry.path = std::move(ws.artifacts_[index].path);
    entry.file = std::move(ws.artifacts_[index].file);
    entry.text = std::move(ws.artifacts_[index].text);
    entry.meta = ws.artifacts_[index].meta;
    ws.artifacts_[index] = std::move(entry);
    load_order.push_back(ws.artifacts_[index].path);
  }
  if (!saw_header && ws.load_report_.empty()) {
    ws.load_report_.add(diag(
        "LW801", Severity::kError, name, {},
        "manifest must start with a 'locwm-workspace v1' header",
        "see docs/STATIC_ANALYSIS.md for the workspace manifest format"));
  }
  // Unknown-reference check, against the full path set.
  for (const PendingRef& ref : refs) {
    if (ws.indexOfUnsorted(ref.path) < 0) {
      ws.load_report_.add(diag(
          "LW801", Severity::kError, name,
          "line " + std::to_string(ref.line),
          "reference '" + ref.path + "' names no artifact of the workspace",
          "references use the target's manifest path, verbatim"));
    }
  }
  ws.sortArtifacts();
  return ws;
}

void Workspace::addArtifactText(std::string path, std::string text) {
  WorkspaceArtifact a;
  a.path = std::move(path);
  a.text = std::move(text);
  artifacts_.push_back(std::move(a));
  sortArtifacts();
}

void Workspace::addFromFile(std::string display, const std::string& file) {
  WorkspaceArtifact a;
  a.path = std::move(display);
  a.file = file;
  if (std::optional<std::string> text = store::readFile(file)) {
    a.text = std::move(*text);
  } else {
    a.meta.kind = ArtifactKind::kUnreadable;
    load_report_.add(diag("LW001", Severity::kError, a.path, {},
                          "cannot open file",
                          "check the path and permissions"));
  }
  artifacts_.push_back(std::move(a));
}

void Workspace::sortArtifacts() {
  std::sort(artifacts_.begin(), artifacts_.end(),
            [](const WorkspaceArtifact& a, const WorkspaceArtifact& b) {
              return a.path < b.path;
            });
}

std::ptrdiff_t Workspace::indexOf(const std::string& path) const {
  const auto it = std::lower_bound(
      artifacts_.begin(), artifacts_.end(), path,
      [](const WorkspaceArtifact& a, const std::string& p) {
        return a.path < p;
      });
  if (it == artifacts_.end() || it->path != path) {
    return -1;
  }
  return it - artifacts_.begin();
}

std::ptrdiff_t Workspace::indexOfUnsorted(const std::string& path) const {
  for (std::size_t i = 0; i < artifacts_.size(); ++i) {
    if (artifacts_[i].path == path) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

}  // namespace locwm::check
