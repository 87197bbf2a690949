// Corpus-scan tests: fingerprint encoding, key-ring IO, the shared random
// corpus fixture, and — the load-bearing ones — the soundness oracle
// (pruned pairs replayed exactly, zero missed matches) plus determinism
// pins across thread counts and shard splits.  The CorpusScan suite also
// runs under ThreadSanitizer at oversubscribed thread counts in CI.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cdfg/error.h"
#include "cdfg/io.h"
#include "cdfg/random_dfg.h"
#include "core/certificate_io.h"
#include "core/locality.h"
#include "core/pc.h"
#include "core/reg_wm.h"
#include "core/sched_wm.h"
#include "core/screen.h"
#include "core/tm_wm.h"
#include "obs/obs.h"
#include "rt/rt.h"
#include "scan/corpus.h"
#include "scan/fingerprint.h"
#include "scan/keyring.h"
#include "scan/scan.h"
#include "sched/schedule_io.h"
#include "store/store.h"
#include "tm/template.h"

namespace locwm::scan {
namespace {

namespace fs = std::filesystem;

// --- fingerprint unit tests -----------------------------------------------

std::array<std::uint32_t, cdfg::kOpKindCount> counts(
    std::initializer_list<std::pair<std::size_t, std::uint32_t>> kv) {
  std::array<std::uint32_t, cdfg::kOpKindCount> c{};
  for (const auto& [kind, n] : kv) {
    c[kind] = n;
  }
  return c;
}

TEST(Fingerprint, ThresholdEncodingIsMonotone) {
  const KindFingerprint small = fingerprintOfCounts(counts({{0, 1}, {3, 2}}));
  const KindFingerprint big = fingerprintOfCounts(counts({{0, 9}, {3, 2}}));
  EXPECT_TRUE(big.covers(small));
  EXPECT_FALSE(small.covers(big));
  EXPECT_TRUE(small.covers(small));
  // A kind absent from the container blocks coverage.
  const KindFingerprint other = fingerprintOfCounts(counts({{5, 1}}));
  EXPECT_FALSE(big.covers(other));
}

TEST(Fingerprint, MergeEqualsComponentwiseMax) {
  const auto a = counts({{0, 2}, {1, 8}});
  const auto b = counts({{0, 4}, {2, 1}});
  auto mx = a;
  for (std::size_t k = 0; k < mx.size(); ++k) {
    mx[k] = std::max(mx[k], b[k]);
  }
  KindFingerprint merged = fingerprintOfCounts(a);
  merged.merge(fingerprintOfCounts(b));
  EXPECT_EQ(merged, fingerprintOfCounts(mx));
}

TEST(Fingerprint, IndexRoundTrip) {
  cdfg::RandomDfgOptions options;
  options.operations = 60;
  const cdfg::Cdfg g = cdfg::randomDfg(options, 11);
  const wm::LocalityDeriver deriver(g);
  const DesignIndex index = buildDesignIndex(deriver, 4);
  const std::optional<DesignIndex> back = parseIndex(indexToString(index));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(index, *back);
}

TEST(Fingerprint, ParseRejectsMalformed) {
  cdfg::RandomDfgOptions options;
  options.operations = 24;
  const cdfg::Cdfg g = cdfg::randomDfg(options, 3);
  const wm::LocalityDeriver deriver(g);
  const std::string good = indexToString(buildDesignIndex(deriver, 3));
  EXPECT_TRUE(parseIndex(good).has_value());
  EXPECT_FALSE(parseIndex("").has_value());
  EXPECT_FALSE(parseIndex("locwm-scanfp v1\nradius 3\n").has_value());
  EXPECT_FALSE(parseIndex(good + "garbage\n").has_value());
  EXPECT_FALSE(parseIndex(good + "root 0 0 00 00\n").has_value());
  // Missing the design line.
  EXPECT_FALSE(parseIndex("locwm-scanfp v2\nradius 3\n").has_value());
}

// --- the shared fixture + key-ring IO -------------------------------------

BuiltCorpus smallCorpus(std::uint64_t seed, std::size_t designs = 16,
                        std::size_t ring = 5) {
  CorpusSpec spec;
  spec.designs = designs;
  spec.ring = ring;
  spec.ops_min = 40;
  spec.ops_max = 72;
  return buildRandomCorpus(spec, seed);
}

/// smallCorpus with register, rooted-template and whole-design-template
/// marks embedded on a few of its designs, so the ring mixes all four
/// kinds.  Those marks live in the binding and the cover, not in the
/// design, so every design text stays as published and each planted pair
/// is a shape-level match.
BuiltCorpus mixedCorpus(std::uint64_t seed, std::size_t designs = 16,
                        std::size_t ring = 5) {
  BuiltCorpus corpus = smallCorpus(seed, designs, ring);
  static const tm::TemplateLibrary library = tm::TemplateLibrary::basicDsp();
  std::size_t reg = 0;
  std::size_t rooted = 0;
  std::size_t whole = 0;
  for (std::size_t i = 1; i < corpus.items.size(); i += 4) {
    const CorpusItem& item = corpus.items[i];
    const cdfg::Cdfg g = cdfg::parseString(item.design_text);
    const crypto::AuthorSignature sig{"mixed-author", item.path};
    const auto plant = [&](const std::string& tag, const auto& cert) {
      corpus.planted.emplace_back(i, corpus.ring.size());
      corpus.ring.add(sig, "certs/" + tag + "-" + item.path + ".cert", cert);
      corpus.cert_texts.push_back(wm::certificateToString(cert));
    };
    wm::RegWmParams rp;
    rp.locality.min_size = 5;
    const sched::Schedule s =
        sched::parseScheduleString(item.schedule_text, g.nodeCount());
    if (const auto r = wm::RegisterWatermarker(sig).embed(g, s, rp)) {
      plant("reg", r->certificate);
      ++reg;
    }
    for (const bool whole_design : {false, true}) {
      wm::TmWmParams tp;
      tp.locality.min_size = 4;
      tp.beta = 0.0;
      tp.z_explicit = 2;
      tp.whole_design = whole_design;
      if (const auto r = wm::TemplateWatermarker(sig, library).embed(g, tp)) {
        plant(whole_design ? "tm-whole" : "tm", r->certificate);
        ++(whole_design ? whole : rooted);
      }
    }
  }
  EXPECT_GT(reg, 0u) << "seed " << seed << ": no register mark embedded";
  EXPECT_GT(rooted, 0u) << "seed " << seed << ": no rooted tm mark embedded";
  EXPECT_GT(whole, 0u) << "seed " << seed << ": no whole-design tm mark";
  return corpus;
}

fs::path tempDir(const char* tag) {
  const fs::path dir =
      fs::temp_directory_path() / (std::string("locwm_scan_") + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(KeyRing, RoundTripsThroughDiskWithQuoting) {
  CorpusSpec spec;
  spec.designs = 8;
  spec.ring = 2;
  spec.identity = "ACME Corp. \"HLS\"";  // forces quoting in toText()
  const BuiltCorpus corpus = buildRandomCorpus(spec, 21);
  const fs::path dir = tempDir("keyring");
  writeCorpus(corpus, dir.string());

  const KeyRing ring = KeyRing::fromFile((dir / "ring.keyring").string());
  ASSERT_EQ(ring.size(), 2u);
  for (std::size_t j = 0; j < ring.size(); ++j) {
    EXPECT_EQ(ring.entries()[j].signature.identity, spec.identity);
    EXPECT_EQ(ring.entries()[j].signature.nonce,
              "ring-" + std::to_string(j));
    EXPECT_EQ(ring.entries()[j].kind, CertKind::kSched);
    ASSERT_TRUE(ring.entries()[j].sched.has_value());
  }
  EXPECT_EQ(ring.toText(), corpus.ring.toText());
  fs::remove_all(dir);
}

TEST(KeyRing, RejectsMalformedRings) {
  EXPECT_THROW(static_cast<void>(KeyRing::fromText("", "t", "")), Error);
  EXPECT_THROW(
      static_cast<void>(KeyRing::fromText("locwm-keyring v2\n", "t", "")),
      Error);
  EXPECT_THROW(static_cast<void>(KeyRing::fromText(
                   "locwm-keyring v1\nkeyy a b c\n", "t", "")),
               Error);
  EXPECT_THROW(static_cast<void>(KeyRing::fromText(
                   "locwm-keyring v1\nkey \"unterminated\n", "t", "")),
               Error);
  EXPECT_THROW(static_cast<void>(KeyRing::fromText(
                   "locwm-keyring v1\nkey a b /no/such/cert\n", "t", "")),
               Error);
}

TEST(KeyRing, CrlfRingScansLikeItsLfOriginal) {
  const BuiltCorpus corpus = smallCorpus(41, /*designs=*/6, /*ring=*/3);
  const fs::path dir = tempDir("crlfring");
  writeCorpus(corpus, dir.string());
  const std::optional<std::string> lf =
      store::readFile((dir / "ring.keyring").string());
  ASSERT_TRUE(lf.has_value());
  std::string crlf;
  for (const char c : *lf) {
    crlf += c == '\n' ? "\r\n" : std::string(1, c);
  }
  const KeyRing a = KeyRing::fromText(*lf, "lf", dir.string());
  const KeyRing b = KeyRing::fromText(crlf, "crlf", dir.string());
  EXPECT_EQ(b.toText(), a.toText());
  EXPECT_EQ(scanCorpus(corpus.items, b, {}).rows,
            scanCorpus(corpus.items, a, {}).rows);
  fs::remove_all(dir);
}

TEST(KeyRing, QuotedTokensRoundTripSpacesQuotesBackslashesAndHashes) {
  const BuiltCorpus corpus = smallCorpus(42, /*designs=*/2, /*ring=*/1);
  const wm::WatermarkCertificate& cert = *corpus.ring.entries()[0].sched;
  const fs::path dir = tempDir("quotering");
  const std::vector<std::string> paths = {"Acme #1.cert", "a \"b\" \\c.cert",
                                          "plain.cert"};
  for (const std::string& path : paths) {
    std::ofstream(dir / path) << wm::certificateToString(cert);
  }
  KeyRing ring;
  ring.add({"Acme #1", "n#1"}, paths[0], cert);
  ring.add({"a \"quoted\" \\ name", "tab\there"}, paths[1], cert);
  ring.add({"plain", "n1"}, paths[2], cert);
  const KeyRing back = KeyRing::fromText(ring.toText(), "q", dir.string());
  ASSERT_EQ(back.size(), ring.size());
  for (std::size_t j = 0; j < ring.size(); ++j) {
    EXPECT_EQ(back.entries()[j].signature.identity,
              ring.entries()[j].signature.identity);
    EXPECT_EQ(back.entries()[j].signature.nonce,
              ring.entries()[j].signature.nonce);
    EXPECT_EQ(back.entries()[j].cert_path, paths[j]);
  }
  EXPECT_EQ(back.toText(), ring.toText());
  // As written by hand: a '#' inside quotes is content, one outside starts
  // a comment.
  const KeyRing hand = KeyRing::fromText(
      "locwm-keyring v1\nkey \"Acme #1\" n1 plain.cert # ours\n", "h",
      dir.string());
  ASSERT_EQ(hand.size(), 1u);
  EXPECT_EQ(hand.entries()[0].signature.identity, "Acme #1");
  EXPECT_EQ(hand.entries()[0].signature.nonce, "n1");
  EXPECT_EQ(hand.entries()[0].cert_path, "plain.cert");
  fs::remove_all(dir);
}

// --- satellite 1: lenient parse issues carry the source path --------------

TEST(ParseIssuePaths, DesignAndScheduleIssuesAreStamped) {
  // A self-edge is a lenient issue, not a throw.
  const std::string design =
      "cdfg v1\nnode 0 input a\nnode 1 add b\n"
      "edge 0 1 data\nedge 1 1 data\n";
  std::vector<cdfg::ParseIssue> issues;
  const cdfg::Cdfg g = cdfg::parseString(design, issues, "corpus/x.cdfg");
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues.front().path, "corpus/x.cdfg");

  std::vector<sched::ScheduleParseIssue> sched_issues;
  static_cast<void>(sched::parseScheduleString("0 1\n99 2\n", g.nodeCount(),
                                               sched_issues, "x.sched"));
  ASSERT_FALSE(sched_issues.empty());
  EXPECT_EQ(sched_issues.front().path, "x.sched");

  // Hard syntax errors prefix the message with the source.
  try {
    std::vector<cdfg::ParseIssue> sink;
    static_cast<void>(cdfg::parseString("not a design", sink, "y.cdfg"));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("y.cdfg"), std::string::npos);
  }
}

// --- the soundness oracle -------------------------------------------------

std::vector<std::string> matchRowsOf(const std::vector<std::string>& rows) {
  std::vector<std::string> out;
  for (const std::string& row : rows) {
    if (row.find("\"type\":\"match\"") != std::string::npos) {
      out.push_back(row);
    }
  }
  return out;
}

TEST(CorpusScan, OracleZeroMissedMatches) {
  std::vector<std::pair<std::string, BuiltCorpus>> inputs;
  for (const std::uint64_t seed : {5u, 99u, 1234u}) {
    inputs.emplace_back("seed " + std::to_string(seed), smallCorpus(seed));
  }
  inputs.emplace_back("mixed-kind ring", mixedCorpus(5));
  for (const auto& [label, corpus] : inputs) {
    const ScanResult filtered = scanCorpus(corpus.items, corpus.ring, {});
    ScanOptions exact;
    exact.prefilter = false;
    const ScanResult oracle = scanCorpus(corpus.items, corpus.ring, exact);

    // The match rows must be byte-identical: the screen may only prune
    // pairs the exact replay would reject anyway.
    EXPECT_EQ(matchRowsOf(filtered.rows), matchRowsOf(oracle.rows))
        << label;
    EXPECT_EQ(filtered.stats.pairs,
              filtered.stats.pruned_pairs + filtered.stats.survivor_pairs);

    // Every planted (design, certificate) pair surfaces as a found match.
    for (const auto& [item, entry] : corpus.planted) {
      const std::string want =
          "\"cert\":\"" + corpus.ring.entries()[entry].cert_path +
          "\",\"design\":\"" + corpus.items[item].path + "\",\"found\":true";
      bool found = false;
      for (const std::string& row : filtered.rows) {
        if (row.find(want) != std::string::npos) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << label << ": planted pair (item "
                         << item << ", entry " << entry << ") missed";
    }
  }
}

TEST(CorpusScan, PrunedPairsReplayEmpty) {
  // Replay every pair WITHOUT a match row, of every certificate kind,
  // through the detection driver's unscreened path (all candidate roots;
  // whole-design certificates against the whole design): none may produce
  // a shape match.  This is the direct form of the soundness claim,
  // independent of the screen.
  const BuiltCorpus corpus = mixedCorpus(7, /*designs=*/10, /*ring=*/4);
  const ScanResult filtered = scanCorpus(corpus.items, corpus.ring, {});
  for (std::size_t i = 0; i < corpus.items.size(); ++i) {
    std::vector<cdfg::ParseIssue> issues;
    const cdfg::Cdfg g = cdfg::parseString(corpus.items[i].design_text,
                                           issues, corpus.items[i].path);
    const wm::LocalityDeriver deriver(g);
    for (const KeyRingEntry& entry : corpus.ring.entries()) {
      const std::string key = "\"cert\":\"" + entry.cert_path +
                              "\",\"design\":\"" + corpus.items[i].path +
                              "\"";
      bool reported = false;
      for (const std::string& row : filtered.rows) {
        if (row.find(key) != std::string::npos) {
          reported = true;
          break;
        }
      }
      if (reported) {
        continue;
      }
      const wm::Identification id =
          wm::Identifier({entry.query()}).run(deriver, /*index=*/nullptr);
      EXPECT_TRUE(id.hits.front().empty())
          << corpus.items[i].path << " x " << entry.cert_path
          << ": pruned pair has a shape match — the screen is unsound";
    }
  }
}

// --- detect and scan report one Pc ----------------------------------------

TEST(Pc, DetectAndScanReportTheSamePc) {
  // Each planted (design, certificate) pair scanned alone: the design
  // row's pc_log10 is the Pc detect prints for it, the shape-match
  // multiplier included.
  const BuiltCorpus corpus = smallCorpus(7);
  ASSERT_FALSE(corpus.planted.empty());
  for (const auto& [item_index, entry_index] : corpus.planted) {
    const CorpusItem& item = corpus.items[item_index];
    const KeyRingEntry& entry = corpus.ring.entries()[entry_index];
    ASSERT_TRUE(entry.sched.has_value());

    // detect: identify the certificate on the design, check the schedule.
    const cdfg::Cdfg design = cdfg::parseString(item.design_text);
    const sched::Schedule schedule =
        sched::parseScheduleString(item.schedule_text, design.nodeCount());
    wm::Identification id = wm::identify(
        wm::LocalityDeriver(design),
        {wm::replayQuery(entry.signature, *entry.sched)});
    const wm::SchedDetectResult det =
        wm::SchedDetector(*entry.sched, std::move(id.hits[0])).check(schedule);
    ASSERT_TRUE(det.found);
    const wm::PcEstimate pc = wm::schedulingPc(*entry.sched, det.shape_matches);

    KeyRing ring;
    ring.add(entry.signature, entry.cert_path, *entry.sched);
    const ScanResult scanned = scanCorpus({item}, ring, {});
    ASSERT_FALSE(scanned.rows.empty());
    const std::string& row = scanned.rows.front();
    const std::size_t at = row.find("\"pc_log10\":");
    ASSERT_NE(at, std::string::npos) << row;
    EXPECT_EQ(std::strtod(row.c_str() + at + 11, nullptr), pc.log10_pc)
        << row;
    EXPECT_NE(row.find(pc.exact ? "\"pc_exact\":true" : "\"pc_exact\":false"),
              std::string::npos)
        << row;
  }
}

// --- determinism pins -----------------------------------------------------

TEST(CorpusScan, RowsIdenticalAcrossThreadCounts) {
  for (const BuiltCorpus& corpus : {smallCorpus(42), mixedCorpus(42)}) {
    std::vector<std::string> reference;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      rt::setThreadCount(threads);
      const ScanResult r = scanCorpus(corpus.items, corpus.ring, {});
      if (reference.empty()) {
        reference = r.rows;
      } else {
        EXPECT_EQ(r.rows, reference)
            << corpus.ring.size() << "-entry ring, threads=" << threads;
      }
    }
  }
  rt::setThreadCount(0);  // restore automatic sizing for other tests
}

#if LOCWM_OBS_ENABLED
/// Rooted queries of `ring`: the ones that carve, and so key a stream.
std::size_t carvingQueries(const KeyRing& ring) {
  std::size_t n = 0;
  for (const KeyRingEntry& entry : ring.entries()) {
    n += entry.query().whole_design ? 0U : 1U;
  }
  return n;
}

TEST(CorpusScan, KeysEachCarvingQueryOnce) {
  // The carve stream is keyed once per query of a detect call or a scan,
  // not once per carve: crypto.bitstream.streams_keyed counts carving
  // queries at any thread count, while the carves number far more.
  obs::setEnabled(true);
  auto& registry = obs::MetricsRegistry::instance();
  obs::Counter& keyed = registry.counter("crypto.bitstream.streams_keyed");
  obs::Counter& carves = registry.counter("core.locality.derive_calls");
  const BuiltCorpus corpus = mixedCorpus(42);
  const std::size_t carving = carvingQueries(corpus.ring);
  ASSERT_LT(carving, corpus.ring.size());  // whole-design entries key none
  for (const std::size_t threads : {1u, 2u, 8u}) {
    rt::setThreadCount(threads);
    const std::uint64_t keyed0 = keyed.value();
    const std::uint64_t carves0 = carves.value();
    (void)scanCorpus(corpus.items, corpus.ring, {});
    EXPECT_EQ(keyed.value() - keyed0, carving) << "scan, threads=" << threads;
    EXPECT_GT(carves.value() - carves0, 2 * carving)
        << "scan, threads=" << threads;

    // One detect call: every ring entry against one design.
    std::vector<wm::ShapeQuery> queries;
    for (const KeyRingEntry& entry : corpus.ring.entries()) {
      queries.push_back(entry.query());
    }
    const cdfg::Cdfg g = cdfg::parseString(corpus.items[1].design_text);
    const std::uint64_t detect0 = keyed.value();
    const wm::Identification id =
        wm::identify(wm::LocalityDeriver(g), std::move(queries));
    EXPECT_EQ(keyed.value() - detect0, carving)
        << "detect, threads=" << threads;
    EXPECT_GT(id.candidates, carving);
  }
  rt::setThreadCount(0);
  obs::setEnabled(false);
}
#endif  // LOCWM_OBS_ENABLED

TEST(CorpusScan, ShardSplitsMergeToUnshardedRows) {
  const BuiltCorpus corpus = smallCorpus(64);
  const ScanResult full = scanCorpus(corpus.items, corpus.ring, {});
  for (const std::uint32_t shards : {2u, 3u}) {
    // Each shard's blocks stay in item order; stitching the shards back
    // together by walking item indices must reproduce the full output.
    std::vector<std::vector<std::string>> parts(shards);
    ScanStats sum;
    for (std::uint32_t s = 0; s < shards; ++s) {
      ScanOptions options;
      options.shard_index = s;
      options.shard_count = shards;
      ScanResult r = scanCorpus(corpus.items, corpus.ring, options);
      parts[s] = std::move(r.rows);
      sum.designs += r.stats.designs;
      sum.match_pairs += r.stats.match_pairs;
    }
    EXPECT_EQ(sum.designs, full.stats.designs);
    EXPECT_EQ(sum.match_pairs, full.stats.match_pairs);
    std::vector<std::string> merged;
    std::vector<std::size_t> cursor(shards, 0);
    for (std::size_t i = 0; i < corpus.items.size(); ++i) {
      std::vector<std::string>& rows = parts[i % shards];
      std::size_t& at = cursor[i % shards];
      const std::string tag = "\"index\":" + std::to_string(i) + ",";
      ASSERT_LT(at, rows.size());
      ASSERT_NE(rows[at].find(tag), std::string::npos);
      merged.push_back(rows[at++]);  // the design row
      while (at < rows.size() &&
             rows[at].find("\"type\":\"match\"") != std::string::npos) {
        merged.push_back(rows[at++]);
      }
    }
    EXPECT_EQ(merged, full.rows) << shards << " shards";
  }
}

// --- satellite 2: the fingerprint cache -----------------------------------

TEST(CorpusScan, CacheColdThenWarm) {
  const BuiltCorpus corpus = smallCorpus(31, /*designs=*/8, /*ring=*/3);
  const fs::path dir = tempDir("fpcache");
  ScanOptions options;
  options.cache_dir = dir.string();

  const ScanResult cold = scanCorpus(corpus.items, corpus.ring, options);
  EXPECT_EQ(cold.stats.cache_cold, corpus.items.size());
  EXPECT_EQ(cold.stats.cache_warm, 0u);

  const ScanResult warm = scanCorpus(corpus.items, corpus.ring, options);
  EXPECT_EQ(warm.stats.cache_warm, corpus.items.size());
  EXPECT_EQ(warm.stats.cache_cold, 0u);

  // Identical results modulo the cache provenance tag on design rows.
  ASSERT_EQ(cold.rows.size(), warm.rows.size());
  for (std::size_t i = 0; i < cold.rows.size(); ++i) {
    std::string c = cold.rows[i];
    const std::size_t at = c.find("\"cache\":\"cold\"");
    if (at != std::string::npos) {
      c.replace(at, 14, "\"cache\":\"warm\"");
    }
    EXPECT_EQ(c, warm.rows[i]);
  }
  EXPECT_EQ(matchRowsOf(cold.rows), matchRowsOf(warm.rows));

  // A damaged cache entry is a miss, never a wrong answer: each damage
  // below, applied to every entry, makes the next scan all cold with the
  // cold scan's rows.  (Each such scan rewrites the entries it missed.)
  const auto damageEveryEntry = [&](const auto& damage) {
    for (const std::string& name : store::listFiles(dir.string())) {
      std::string text;
      {
        std::ifstream is(dir / name, std::ios::binary);
        std::ostringstream buffer;
        buffer << is.rdbuf();
        text = buffer.str();
      }
      damage(text);
      std::ofstream os(dir / name, std::ios::binary | std::ios::trunc);
      os << text;
    }
    const ScanResult again = scanCorpus(corpus.items, corpus.ring, options);
    EXPECT_EQ(again.stats.cache_cold, corpus.items.size());
    EXPECT_EQ(again.stats.cache_warm, 0u);
    EXPECT_EQ(again.rows, cold.rows);
  };
  damageEveryEntry([](std::string& text) {
    text = "locwm-scanfp-entry v1\nissues 0\ngarbage\n";
  });
  damageEveryEntry([](std::string& text) {  // cut after the `design` line
    const std::size_t design = text.find("\ndesign ");
    ASSERT_NE(design, std::string::npos);
    text.resize(text.find('\n', design + 1) + 1);
  });
  damageEveryEntry([](std::string& text) {  // one hex digit of a root
    const std::size_t root = text.find("\nroot ");
    ASSERT_NE(root, std::string::npos);
    char& digit = text[text.find('\n', root + 1) - 1];
    digit = digit == '0' ? '1' : '0';
  });
  fs::remove_all(dir);
}

/// `rows` with each design row's cache provenance tag blanked.
std::vector<std::string> withoutCacheTags(std::vector<std::string> rows) {
  for (std::string& row : rows) {
    for (const char* tag : {"\"cache\":\"cold\"", "\"cache\":\"warm\"",
                            "\"cache\":\"off\""}) {
      const std::size_t at = row.find(tag);
      if (at != std::string::npos) {
        row.replace(at, std::string_view(tag).size(), "\"cache\":\"\"");
      }
    }
  }
  return rows;
}

TEST(CorpusScan, SignedNumberDesignScansAlikeWarmAndUncached) {
  // A design whose edge names its source as "-4294967295" (once read as
  // node 1) fails to parse; a warm fingerprint cache must not bring back
  // a reading of it.
  BuiltCorpus corpus = smallCorpus(33, /*designs=*/6, /*ring=*/3);
  corpus.items[2].design_text += "edge -4294967295 2 data\n";
  const ScanResult uncached = scanCorpus(corpus.items, corpus.ring, {});
  EXPECT_EQ(uncached.stats.parse_failures, 1u);
  ScanOptions options;
  options.cache_dir = tempDir("bentcache").string();
  const ScanResult cold = scanCorpus(corpus.items, corpus.ring, options);
  const ScanResult warm = scanCorpus(corpus.items, corpus.ring, options);
  EXPECT_GT(warm.stats.cache_warm, 0u);
  EXPECT_EQ(warm.stats.parse_failures, 1u);
  EXPECT_EQ(withoutCacheTags(cold.rows), withoutCacheTags(uncached.rows));
  EXPECT_EQ(withoutCacheTags(warm.rows), withoutCacheTags(uncached.rows));
}

// --- loaders + end-to-end over the filesystem -----------------------------

TEST(CorpusScan, DirectoryAndManifestLoadersAgree) {
  const BuiltCorpus corpus = smallCorpus(77, /*designs=*/6, /*ring=*/2);
  const fs::path dir = tempDir("loaders");
  writeCorpus(corpus, dir.string());
  const auto writeManifest = [&](const char* name, const std::string& text) {
    std::ofstream os(dir / name, std::ios::binary);
    os << "locwm-workspace v1\n" << text;
  };

  // Without references, listed in reverse: pairing by stem, path order.
  std::string plain;
  for (auto it = corpus.items.rbegin(); it != corpus.items.rend(); ++it) {
    plain += "artifact " + it->path + "\nartifact " + it->schedule_path + "\n";
  }
  writeManifest("plain.manifest", plain);
  // With design= references to schedules under other names: the reference
  // pairs them, a stem never could.
  std::string refs;
  fs::create_directories(dir / "s");
  for (std::size_t i = 0; i < corpus.items.size(); ++i) {
    const CorpusItem& item = corpus.items[i];
    const std::string renamed = "s/x" + std::to_string(i) + ".txt";
    fs::copy_file(dir / item.schedule_path, dir / renamed);
    refs += "artifact " + item.path + "\nartifact " + renamed +
            " design=" + item.path + "\n";
  }
  writeManifest("refs.manifest", refs);

  const std::vector<CorpusItem> from_dir =
      loadCorpusFromDirectory(dir.string());
  const std::vector<CorpusItem> from_plain =
      loadCorpusFromManifest((dir / "plain.manifest").string());
  const std::vector<CorpusItem> from_refs =
      loadCorpusFromManifest((dir / "refs.manifest").string());
  ASSERT_EQ(from_dir.size(), corpus.items.size());
  ASSERT_EQ(from_plain.size(), corpus.items.size());
  ASSERT_EQ(from_refs.size(), corpus.items.size());
  for (std::size_t i = 0; i < corpus.items.size(); ++i) {
    EXPECT_EQ(from_dir[i].path, corpus.items[i].path);
    EXPECT_EQ(from_dir[i].schedule_path, corpus.items[i].schedule_path);
    EXPECT_EQ(from_plain[i].schedule_path, corpus.items[i].schedule_path);
    EXPECT_EQ(from_refs[i].schedule_path, "s/x" + std::to_string(i) + ".txt");
    EXPECT_EQ(from_refs[i].schedule_text, corpus.items[i].schedule_text);
  }

  const KeyRing ring = KeyRing::fromFile((dir / "ring.keyring").string());
  ScanOptions options;  // no cache: identical rows either way
  const ScanResult a = scanCorpus(from_dir, ring, options);
  EXPECT_EQ(scanCorpus(from_plain, ring, options).rows, a.rows);
  EXPECT_EQ(scanCorpus(from_refs, ring, options).rows, a.rows);
  EXPECT_GT(a.stats.match_pairs, 0u);

  // A manifest load error (LW801) or an unreadable artifact throws Error,
  // as an unreadable directory does.
  writeManifest("bad-ref.manifest", "artifact d0000.cdfg bogus=1\n");
  writeManifest("missing.manifest", "artifact d0000.cdfg\nartifact gone.cdfg\n");
  EXPECT_THROW(static_cast<void>(loadCorpusFromManifest(
                   (dir / "bad-ref.manifest").string())),
               Error);
  EXPECT_THROW(static_cast<void>(loadCorpusFromManifest(
                   (dir / "missing.manifest").string())),
               Error);
  EXPECT_THROW(static_cast<void>(loadCorpusFromManifest(
                   (dir / "absent.manifest").string())),
               Error);
  EXPECT_THROW(
      static_cast<void>(loadCorpusFromDirectory((dir / "absent").string())),
      Error);
  fs::remove_all(dir);
}

TEST(CorpusScan, UnparsableDesignYieldsErrorRow) {
  BuiltCorpus corpus = smallCorpus(13, /*designs=*/4, /*ring=*/2);
  corpus.items[1].design_text = "cdfg v1\nnode broken\n";
  const ScanResult r = scanCorpus(corpus.items, corpus.ring, {});
  EXPECT_EQ(r.stats.parse_failures, 1u);
  bool saw_error = false;
  for (const std::string& row : r.rows) {
    if (row.find("\"error\":") != std::string::npos) {
      saw_error = true;
      EXPECT_NE(row.find(corpus.items[1].path), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_error);
}

}  // namespace
}  // namespace locwm::scan
