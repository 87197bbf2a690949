#include "scan/corpus.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>

#include "cdfg/error.h"
#include "cdfg/io.h"
#include "cdfg/prng.h"
#include "cdfg/random_dfg.h"
#include "check/workspace.h"
#include "core/certificate_io.h"
#include "core/sched_wm.h"
#include "sched/list_scheduler.h"
#include "sched/schedule_io.h"
#include "sched/timeframes.h"

namespace locwm::scan {

namespace fs = std::filesystem;

namespace {

std::string itemName(const char* prefix, std::size_t i, const char* ext) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s%04zu%s", prefix, i, ext);
  return buf;
}

void writeFileOrThrow(const fs::path& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << text;
  detail::check<Error>(static_cast<bool>(os),
                       path.string() + ": cannot write file");
}

/// Builds the corpus from a loaded workspace: every design, in path order,
/// paired with the schedule whose `design=` reference names it, else with
/// the first same-stem schedule of its directory that names no design.
/// Any load problem (LW801, unreadable artifact) throws Error.
std::vector<CorpusItem> corpusFromWorkspace(check::Workspace ws) {
  for (const check::Diagnostic& d : ws.loadReport().diagnostics()) {
    if (d.severity == check::Severity::kError) {
      throw Error(d.artifact + (d.location.empty() ? "" : ": " + d.location) +
                  ": " + d.message);
    }
  }
  const auto stemOf = [](const std::string& path) {
    const fs::path p(path);
    return (p.parent_path() / p.stem()).string();
  };
  std::vector<check::WorkspaceArtifact>& arts = ws.artifacts();
  std::vector<std::size_t> designs;
  std::map<std::string, std::size_t> by_ref;   // design path -> schedule
  std::map<std::string, std::size_t> by_stem;  // stem -> schedule
  for (std::size_t i = 0; i < arts.size(); ++i) {
    const check::ArtifactKind kind = check::sniffArtifact(arts[i].text).kind;
    if (kind == check::ArtifactKind::kDesign) {
      designs.push_back(i);
    } else if (kind == check::ArtifactKind::kSchedule) {
      if (const std::optional<std::string>& ref = arts[i].ref_design) {
        by_ref.emplace(*ref, i);
      } else {
        by_stem.emplace(stemOf(arts[i].path), i);
      }
    }
  }
  const auto scheduleOf =
      [&](const std::string& design) -> const check::WorkspaceArtifact* {
    if (const auto it = by_ref.find(design); it != by_ref.end()) {
      return &arts[it->second];
    }
    if (const auto it = by_stem.find(stemOf(design)); it != by_stem.end()) {
      return &arts[it->second];
    }
    return nullptr;
  };
  std::vector<CorpusItem> items;
  items.reserve(designs.size());
  for (const std::size_t d : designs) {
    CorpusItem item;
    if (const check::WorkspaceArtifact* sched = scheduleOf(arts[d].path)) {
      item.schedule_path = sched->path;
      item.schedule_text = sched->text;
    }
    item.path = std::move(arts[d].path);
    item.design_text = std::move(arts[d].text);
    items.push_back(std::move(item));
  }
  return items;
}

}  // namespace

BuiltCorpus buildRandomCorpus(const CorpusSpec& spec, std::uint64_t seed) {
  detail::check<Error>(spec.ops_min >= 1 && spec.ops_min <= spec.ops_max,
                       "corpus spec: need 1 <= ops_min <= ops_max");
  BuiltCorpus out;
  const std::size_t span = spec.ops_max - spec.ops_min + 1;
  std::vector<cdfg::Cdfg> graphs;
  graphs.reserve(spec.designs);
  for (std::size_t i = 0; i < spec.designs; ++i) {
    const std::uint64_t si = cdfg::substreamSeed(seed, i);
    cdfg::RandomDfgOptions options;
    options.operations = spec.ops_min + si % span;
    options.inputs = spec.inputs;
    options.width = spec.width;
    graphs.push_back(cdfg::randomDfg(options, si));
  }

  // Embed the ring: entry j lands in design floor(j*designs/ring), or the
  // next design that accepts it.  Context index j keeps every entry's
  // bitstream independent even when two entries share a design.
  for (std::size_t j = 0; j < spec.ring; ++j) {
    detail::check<Error>(spec.designs > 0,
                         "corpus spec: ring entries need designs");
    crypto::AuthorSignature signature;
    signature.identity = spec.identity;
    signature.nonce = "ring-" + std::to_string(j);
    const wm::SchedulingWatermarker marker(signature);
    const std::size_t target = j * spec.designs / spec.ring;
    bool planted = false;
    for (std::size_t attempt = 0; attempt < spec.designs && !planted;
         ++attempt) {
      const std::size_t d = (target + attempt) % spec.designs;
      cdfg::Cdfg& g = graphs[d];
      wm::SchedWmParams params;
      params.locality.min_size = 4;
      params.min_eligible = 2;
      const sched::TimeFrames tf(g, params.latency);
      params.deadline = tf.criticalPathSteps() + 3;
      const std::optional<wm::SchedEmbedResult> r =
          marker.embed(g, params, /*index=*/j);
      if (!r.has_value()) {
        continue;
      }
      out.ring.add(signature, "certs/" + itemName("c", j, ".cert"),
                   r->certificate);
      out.cert_texts.push_back(wm::certificateToString(r->certificate));
      out.planted.emplace_back(d, j);
      planted = true;
    }
    detail::check<Error>(planted, "corpus fixture: ring entry " +
                                      std::to_string(j) +
                                      " embeds in no design");
  }

  out.items.reserve(spec.designs);
  for (std::size_t i = 0; i < spec.designs; ++i) {
    CorpusItem item;
    item.path = itemName("d", i, ".cdfg");
    // Publish the design with its temporal edges stripped (Fig. 1): the
    // watermark travels only in the schedule order.
    const cdfg::Cdfg published = graphs[i].stripTemporalEdges();
    item.design_text = cdfg::printToString(published);
    if (spec.schedules) {
      // Schedule the *marked* graph so every embedded constraint holds.
      const sched::Schedule s = sched::listSchedule(graphs[i]);
      item.schedule_path = itemName("d", i, ".sched");
      item.schedule_text = sched::scheduleToString(published, s);
    }
    out.items.push_back(std::move(item));
  }
  return out;
}

void writeCorpus(const BuiltCorpus& corpus, const std::string& dir) {
  const fs::path root(dir);
  fs::create_directories(root);
  for (const CorpusItem& item : corpus.items) {
    writeFileOrThrow(root / item.path, item.design_text);
    if (!item.schedule_path.empty()) {
      writeFileOrThrow(root / item.schedule_path, item.schedule_text);
    }
  }
  if (!corpus.ring.entries().empty()) {
    fs::create_directories(root / "certs");
    for (std::size_t j = 0; j < corpus.ring.entries().size(); ++j) {
      writeFileOrThrow(root / corpus.ring.entries()[j].cert_path,
                       corpus.cert_texts[j]);
    }
    writeFileOrThrow(root / "ring.keyring", corpus.ring.toText());
  }
}

std::vector<CorpusItem> loadCorpusFromDirectory(const std::string& dir) {
  return corpusFromWorkspace(check::Workspace::fromDirectory(dir));
}

std::vector<CorpusItem> loadCorpusFromManifest(
    const std::string& manifest_path) {
  return corpusFromWorkspace(check::Workspace::fromManifestFile(manifest_path));
}

}  // namespace locwm::scan
