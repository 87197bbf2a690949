// Corpus plumbing for the fleet scanner, in two halves:
//
//  * the *shared random-corpus fixture* — one seeded generator producing
//    identical design/schedule/key-ring corpora for tests, benches, and CI
//    smoke runs (previously ad-hoc per bench), with ground-truth planted
//    (design, certificate) pairs for recall measurement;
//
//  * *loaders* turning an on-disk directory or a `locwm-workspace v1`
//    manifest into the in-memory item list scanCorpus() consumes.  Both
//    load a check::Workspace (check/workspace.h) — the same walker, file
//    reads and manifest parser `locwm lint --project` uses — and pair each
//    design with its schedule.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "scan/keyring.h"

namespace locwm::scan {

/// One scannable corpus entry: a design and (optionally) its schedule.
/// Texts are held in memory; `path`/`schedule_path` are display names
/// (relative to the corpus root when loaded from disk).
struct CorpusItem {
  std::string path;
  std::string design_text;
  std::string schedule_path;  ///< "" when the item has no schedule
  std::string schedule_text;
};

/// Parameters of the random fixture.
struct CorpusSpec {
  std::size_t designs = 50;
  /// Per-design operation count, drawn uniformly from [ops_min, ops_max].
  std::size_t ops_min = 48;
  std::size_t ops_max = 112;
  std::size_t inputs = 8;
  std::size_t width = 12;
  /// Emit a list schedule per design (required for schedule-level replay).
  bool schedules = true;
  /// Scheduling-watermark certificates to embed and ring up.  Entry j is
  /// planted into design floor(j * designs / ring) (next design on embed
  /// failure), so marks spread across the corpus.
  std::size_t ring = 0;
  std::string identity = "corpus-author";
};

/// A generated corpus plus everything needed to scan and score it.
struct BuiltCorpus {
  std::vector<CorpusItem> items;
  KeyRing ring;
  /// Serialized certificate per ring entry (aligned with ring.entries()),
  /// for writeCorpus and for tests exercising the text round trip.
  std::vector<std::string> cert_texts;
  /// Ground truth: (item index, ring entry index) pairs that were embedded
  /// — the matches a sound scan must find.
  std::vector<std::pair<std::size_t, std::size_t>> planted;
};

/// Deterministic function of (spec, seed): every design gets its own
/// substreamSeed(seed, i) PRNG substream, so the corpus is independent of
/// generation order and thread count.  Throws Error when a ring entry
/// cannot be embedded anywhere (pathological specs only).
[[nodiscard]] BuiltCorpus buildRandomCorpus(const CorpusSpec& spec,
                                            std::uint64_t seed);

/// Writes a built corpus under `dir`: one `<item.path>` design file and
/// `<schedule_path>` per item, certificates under `certs/`, and the ring
/// as `ring.keyring`.  Throws Error on IO failure.
void writeCorpus(const BuiltCorpus& corpus, const std::string& dir);

/// Loads the design artifacts of Workspace::fromDirectory(dir) (kind-sniffed;
/// hidden names such as `.locwm-cache/` skipped).  Each design is paired
/// with the first schedule artifact of the same stem in its directory, in
/// path order.  Items are sorted by path — the canonical corpus order
/// sharding is defined over.  Throws Error when `dir` is unreadable or a
/// file in it cannot be read.
[[nodiscard]] std::vector<CorpusItem> loadCorpusFromDirectory(
    const std::string& dir);

/// Loads the design artifacts a `locwm-workspace v1` manifest lists (paths
/// relative to the manifest's directory).  A design is paired with the
/// schedule whose `design=` reference names it, else as in directory mode
/// with a same-stem schedule that carries no `design=` reference.  Items
/// are sorted by path, as in directory mode.  Throws Error when the
/// manifest is unreadable, has a load error (LW801) or lists an unreadable
/// artifact.
[[nodiscard]] std::vector<CorpusItem> loadCorpusFromManifest(
    const std::string& manifest_path);

}  // namespace locwm::scan
