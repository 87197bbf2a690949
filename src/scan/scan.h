// The sharded corpus-scan driver (ROADMAP item 2): given a corpus of
// designs and a key ring of certificates, find every (design, certificate)
// match.  Each design is lowered to a CsrView at most once and handed to
// the detection driver every detector shares (wm::Identifier,
// core/screen.h): candidate pairs pass through the O(1)
// locality-fingerprint screen and only the survivors go to exact replay.
// The screen is *sound*: a pruned pair can never be a true match, so
// recall is always 1.0.
//
// Output is one ndjson row block per design — a `design` summary row
// followed by one `match` row per detected certificate, in ring order.
// Rows carry no timing and each block is a pure function of (item, ring,
// options), so merged output is byte-identical at any thread count and
// across `--shard i/N` splits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scan/corpus.h"
#include "scan/keyring.h"

namespace locwm::scan {

struct ScanOptions {
  /// Run the locality-fingerprint screen before exact replay.  Off =
  /// replay every pair at every candidate root (the oracle baseline).
  bool prefilter = true;
  /// Multi-process sharding: this invocation scans items whose index i
  /// satisfies i % shard_count == shard_index.  Row blocks keep their item
  /// index, so concatenating all shards' rows in index order reproduces
  /// the unsharded output byte for byte.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Directory for the fingerprint cache ("" = cache off), a
  /// store::CacheDir.  Entries are keyed by (format version, radius, item
  /// path, design-text digest), so unchanged designs skip re-fingerprinting
  /// — and skip parsing entirely when every pair is pruned.  A damaged
  /// entry is a miss.
  std::string cache_dir;
};

/// Counters for --stats (shard-local).
struct ScanStats {
  std::size_t designs = 0;          ///< items scanned by this shard
  std::size_t pairs = 0;            ///< (design, certificate) pairs seen
  std::size_t pruned_pairs = 0;     ///< pairs dropped by the fingerprint screen
  std::size_t survivor_pairs = 0;   ///< pairs sent to exact replay
  std::size_t candidate_roots = 0;  ///< roots exact replay had to visit
  std::size_t match_pairs = 0;      ///< pairs with at least one shape match
  std::size_t contexts = 0;         ///< identification contexts replay built
  std::size_t parse_failures = 0;   ///< designs that failed to parse
  std::size_t cache_cold = 0;       ///< fingerprint cache misses (stored)
  std::size_t cache_warm = 0;       ///< fingerprint cache hits
};

struct ScanResult {
  /// ndjson rows (no trailing newlines), blocks in item-index order.
  std::vector<std::string> rows;
  ScanStats stats;
};

/// Scans this shard of `items` against `ring`.  Items are processed in
/// parallel on the rt pool with row blocks folded back serially, so the
/// result is thread-count invariant.  Throws nothing per item: a design
/// that fails to parse produces an `error` design row.
[[nodiscard]] ScanResult scanCorpus(const std::vector<CorpusItem>& items,
                                    const KeyRing& ring,
                                    const ScanOptions& options = {});

}  // namespace locwm::scan
