// locbench_probe — the benchmark's in-process half.
//
// Two jobs, one binary:
//
//  * input generation (`gen-*`): writes the seeded designs, corpora and
//    workspaces the locwm CLI is then run on.  The CLI only ever sees the
//    files written here.
//
//  * the traced run (`trace-*`): calls each module's public functions on
//    the same generated inputs, with a span recorded around every call
//    (name, start, end, parent, item id).  Spans stay in memory and are
//    written once, at the end, to the trace file.  Every trace command runs
//    its pass twice without spans and twice with them, alternating, so the
//    tracing overhead is measured on work that writes no files, and prints
//    one JSON object with the per-layer metrics plus the verdicts, rows or
//    report the traced passes produced, for run.py to compare against the
//    CLI's.
//
// Usage:
//   locbench_probe gen-verify SEED DIR
//   locbench_probe gen-scan SEED DIR TRUTH DESIGNS CERTS
//   locbench_probe gen-lint SEED WS_DIR EDITED_WS_DIR PAIRS EDIT_PCT
//   locbench_probe trace-verify PLAN THREADS TRACE_OUT
//   locbench_probe trace-scan CORPUS_DIR RING TRUTH CACHE_ROOT THREADS TRACE_OUT
//   locbench_probe trace-lint MANIFEST EDITED_MANIFEST CACHE_ROOT THREADS TRACE_OUT
//
// The compared passes write no files, as `--no-cache` does.  The cache
// fill and the warm pass that reads it run once, after them, still
// traced, in CACHE_ROOT/scan or CACHE_ROOT/lint; nothing is deleted,
// because file deletion slows later file creation on some file systems and
// would leak into the timings.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cdfg/error.h"
#include "cdfg/io.h"
#include "cdfg/prng.h"
#include "check/project.h"
#include "check/workspace.h"
#include "core/certificate_io.h"
#include "core/locality.h"
#include "core/pc.h"
#include "core/reg_wm.h"
#include "core/sched_wm.h"
#include "core/tm_wm.h"
#include "crypto/sha256.h"
#include "regbind/binding_io.h"
#include "regbind/lifetime.h"
#include "rt/rt.h"
#include "scan/corpus.h"
#include "scan/fingerprint.h"
#include "scan/keyring.h"
#include "scan/scan.h"
#include "sched/schedule_io.h"
#include "tm/library_io.h"
#include "workloads/hyper.h"
#include "workloads/mediabench.h"

namespace {

using namespace locwm;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- helpers

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "locbench_probe: %s\n", message.c_str());
  std::exit(2);
}

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail("cannot read " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void writeFile(const fs::path& path, const std::string& text) {
  if (path.has_parent_path()) {
    fs::create_directories(path.parent_path());
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || !(out << text)) {
    fail("cannot write " + path.string());
  }
}

std::vector<std::string> splitWords(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> words;
  for (std::string w; in >> w;) {
    words.push_back(w);
  }
  return words;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::size_t parseSize(const std::string& text, const char* what) {
  try {
    return std::stoul(text);
  } catch (const std::exception&) {
    fail(std::string("bad ") + what + " '" + text + "'");
  }
}

// ------------------------------------------------------------------ spans

/// In-memory span recorder.  With recording off, span() is a plain call.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string item;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
  };

  void reset(bool recording) {
    recording_ = recording;
    spans_.clear();
    open_.clear();
    epoch_ = Clock::now();
  }

  template <typename F>
  decltype(auto) span(const char* name, const std::string& item, F&& body) {
    if (!recording_) {
      return body();
    }
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({name, item, nowNs(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(index);
    struct Close {
      Tracer* t;
      int i;
      ~Close() {
        t->spans_[static_cast<std::size_t>(i)].end_ns = t->nowNs();
        t->open_.pop_back();
      }
    } close{this, index};
    return body();
  }

  /// Summed duration of every span called `name`, in milliseconds.
  [[nodiscard]] double totalMs(const std::string& name) const {
    std::int64_t ns = 0;
    for (const Span& s : spans_) {
      ns += s.name == name ? s.end_ns - s.start_ns : 0;
    }
    return static_cast<double>(ns) / 1e6;
  }

  /// Mean duration of the spans called `name` for `item`, in microseconds.
  [[nodiscard]] double meanUs(const std::string& name,
                              const std::string& item) const {
    std::int64_t ns = 0;
    std::size_t n = 0;
    for (const Span& s : spans_) {
      if (s.name == name && s.item == item) {
        ns += s.end_ns - s.start_ns;
        ++n;
      }
    }
    return n == 0 ? 0.0 : static_cast<double>(ns) / 1e3 / static_cast<double>(n);
  }

  /// Writes the spans as a Chrome trace (complete events) with self times.
  void write(const std::string& path) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::string out = "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::int64_t dur = s.end_ns - s.start_ns;
      out += (i == 0 ? "" : ",\n");
      out += "{\"name\":" + jsonString(s.name) +
             ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
             jsonNumber(static_cast<double>(s.start_ns) / 1e3) +
             ",\"dur\":" + jsonNumber(static_cast<double>(dur) / 1e3) +
             ",\"args\":{\"id\":" + std::to_string(i) +
             ",\"parent\":" + std::to_string(s.parent) +
             ",\"item\":" + jsonString(s.item) + ",\"self_us\":" +
             jsonNumber(static_cast<double>(dur - child_ns[i]) / 1e3) + "}}";
    }
    out += "\n]}\n";
    writeFile(path, out);
  }

 private:
  [[nodiscard]] std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  bool recording_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
  Clock::time_point epoch_ = Clock::now();
};

Tracer g_trace;

template <typename F>
decltype(auto) traced(const char* name, const std::string& item, F&& body) {
  return g_trace.span(name, item, std::forward<F>(body));
}

/// Collected per-layer metrics, printed in insertion order.
struct Metrics {
  std::vector<std::pair<std::string, double>> values;
  void set(const std::string& name, double v) { values.emplace_back(name, v); }
};

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `pass()` untraced, traced, untraced, traced.  The last traced pass
/// leaves its spans in g_trace, which keeps recording; returns the tracing overhead in
/// percent (best traced wall against best untraced wall).
template <typename F>
double runPasses(F&& pass) {
  double best[2] = {1e300, 1e300};
  for (int round = 0; round < 4; ++round) {
    const bool recording = round % 2 == 1;
    g_trace.reset(recording);
    const Clock::time_point start = Clock::now();
    pass();
    const double wall = secondsSince(start);
    best[recording ? 1 : 0] = std::min(best[recording ? 1 : 0], wall);
  }
  return 100.0 * (best[1] - best[0]) / best[0];
}

void printResult(const Metrics& metrics, const std::string& payload_key,
                 const std::string& payload_json) {
  std::string out = "{\"metrics\":{";
  for (std::size_t i = 0; i < metrics.values.size(); ++i) {
    out += (i == 0 ? "" : ",") + jsonString(metrics.values[i].first) + ":" +
           jsonNumber(metrics.values[i].second);
  }
  out += "}," + jsonString(payload_key) + ":" + payload_json + "}\n";
  std::fputs(out.c_str(), stdout);
}

// -------------------------------------------------------------- generators

const std::vector<std::string> kMediaBenchApps = {"adpcm", "g721", "gsm",
                                                  "pegwit", "mpeg2"};

/// The five MediaBench profiles and the HYPER suite, as design files.
int genVerify(std::uint64_t seed, const fs::path& dir) {
  for (workloads::MediaBenchProfile p : workloads::mediaBenchProfiles()) {
    if (std::find(kMediaBenchApps.begin(), kMediaBenchApps.end(), p.name) ==
        kMediaBenchApps.end()) {
      continue;
    }
    p.seed = cdfg::substreamSeed(seed, p.seed);
    writeFile(dir / "mb" / (p.name + ".cdfg"),
              cdfg::printToString(workloads::buildMediaBench(p)));
  }
  for (const workloads::HyperDesign& d : workloads::hyperSuite()) {
    writeFile(dir / "hyper" / (d.name + ".cdfg"), cdfg::printToString(d.graph));
  }
  return 0;
}

/// The shared random corpus plus its planted ground truth, one
/// "<design path> <cert path>" line per embedded pair.
int genScan(std::uint64_t seed, const fs::path& dir, const fs::path& truth,
            std::size_t designs, std::size_t certs) {
  scan::CorpusSpec spec;
  spec.designs = designs;
  spec.ring = certs;
  const scan::BuiltCorpus corpus = scan::buildRandomCorpus(spec, seed);
  scan::writeCorpus(corpus, dir.string());
  std::string lines;
  for (const auto& [item, entry] : corpus.planted) {
    lines += corpus.items[item].path + " " +
             corpus.ring.entries()[entry].cert_path + "\n";
  }
  writeFile(truth, lines);
  return 0;
}

/// A design+schedule workspace with a `locwm-workspace v1` manifest under
/// `ws`, and under `edited` the same workspace with a seeded `edit_pct`
/// percent of the pairs replaced by pairs of a corpus built on another
/// substream.  Both share artifact paths, so a cache filled on `ws` serves
/// the unchanged artifacts of `edited`.
int genLint(std::uint64_t seed, const fs::path& ws, const fs::path& edited,
            std::size_t pairs, std::size_t edit_pct) {
  scan::CorpusSpec spec;
  spec.designs = pairs;
  spec.ops_min = 96;
  spec.ops_max = 192;
  scan::BuiltCorpus corpus = scan::buildRandomCorpus(spec, seed);
  std::string manifest = "locwm-workspace v1\n";
  for (const scan::CorpusItem& item : corpus.items) {
    manifest += "artifact " + item.path + "\n";
    manifest += "artifact " + item.schedule_path + " design=" + item.path + "\n";
  }
  scan::writeCorpus(corpus, ws.string());
  writeFile(ws / "ws.manifest", manifest);

  const scan::BuiltCorpus alternate =
      scan::buildRandomCorpus(spec, cdfg::substreamSeed(seed, 0xED17));
  cdfg::SplitMix64 rng(cdfg::substreamSeed(seed, 0x5E1EC7));
  std::vector<std::size_t> order(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    order[i] = i;
  }
  for (std::size_t i = pairs; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next() % i]);
  }
  const std::size_t edits = std::max<std::size_t>(1, pairs * edit_pct / 100);
  for (std::size_t k = 0; k < edits && k < pairs; ++k) {
    scan::CorpusItem& item = corpus.items[order[k]];
    item.design_text = alternate.items[order[k]].design_text;
    item.schedule_text = alternate.items[order[k]].schedule_text;
  }
  scan::writeCorpus(corpus, edited.string());
  writeFile(edited / "ws.manifest", manifest);
  return 0;
}

// ------------------------------------------------------------ trace-verify

struct Verdict {
  std::string item;
  std::string cert;
  bool found = false;
};

std::string verdictsJson(const std::vector<Verdict>& verdicts) {
  std::string out = "[";
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    out += (i == 0 ? "" : ",") + std::string("[") +
           jsonString(verdicts[i].item) + "," + jsonString(verdicts[i].cert) +
           "," + (verdicts[i].found ? "true" : "false") + "]";
  }
  return out + "]";
}

/// Derivations sampled per design for core.derive_us.<app>.
constexpr std::size_t kDeriveSample = 100;

/// Plan line `detect ITEM DESIGN SCHED ID NONCE CERT...`.
void verifyDetect(const std::vector<std::string>& w, std::size_t& candidate_roots,
                  std::vector<Verdict>& verdicts) {
  const std::string& item = w[1];
  const crypto::AuthorSignature sig{w[4], w[5]};
  const std::string design_text = readFile(w[2]);
  const std::string sched_text = readFile(w[3]);
  traced("verify.detect", item, [&] {
    const cdfg::Cdfg g =
        traced("cdfg.parse", item, [&] { return cdfg::parseString(design_text); });
    const sched::Schedule schedule = traced("sched.schedule_parse", item, [&] {
      return sched::parseScheduleString(sched_text, g.nodeCount());
    });
    // As the CLI's detect does, every certificate builds its own deriver
    // (CSR lowering) and candidate roots; the last one serves the
    // per-derive sample below.
    std::optional<wm::LocalityDeriver> deriver;
    std::vector<cdfg::NodeId> roots;
    std::optional<wm::LocalityParams> params;
    std::string context;
    for (std::size_t i = 6; i < w.size(); ++i) {
      const std::string cert_text = readFile(w[i]);
      const wm::WatermarkCertificate cert = traced("core.cert_parse", item, [&] {
        return wm::parseSchedCertificate(cert_text);
      });
      traced("cdfg.csr_lower", item, [&] {
        deriver.emplace(g);
        roots = deriver->candidateRoots();
      });
      candidate_roots += roots.size();
      const wm::SchedDetector detector = traced("core.shape_scan", item, [&] {
        return wm::SchedDetector(sig, *deriver, cert, roots);
      });
      const wm::SchedDetectResult det = detector.check(schedule);
      if (det.found) {
        traced("sched.pc", item, [&] {
          try {
            (void)wm::exactSchedulingPc(cert, 2);
          } catch (const Error&) {
            // Locality too large to enumerate: the CLI reports "Pc n/a".
          }
        });
      }
      if (!params) {
        params = cert.locality_params;
        context = cert.context;
      }
      verdicts.push_back({item, w[i], det.found});
    }
    if (!params) {
      return;
    }
    // Per-derive cost: a serial sample of derivations spread evenly over
    // the candidate roots, keyed exactly as detection keys them.
    const std::size_t step = std::max<std::size_t>(1, roots.size() / kDeriveSample);
    for (std::size_t i = 0; i < roots.size(); i += step) {
      traced("core.derive", item, [&] {
        crypto::KeyedBitstream bits(sig, context + "/carve");
        (void)deriver->derive(roots[i], *params, bits);
      });
    }
  });
}

/// Plan line `detect-reg ITEM DESIGN SCHED BINDING ID NONCE CERT...`.
void verifyDetectReg(const std::vector<std::string>& w,
                     std::vector<Verdict>& verdicts) {
  const std::string& item = w[1];
  const std::string design_text = readFile(w[2]);
  const std::string sched_text = readFile(w[3]);
  const std::string binding_text = readFile(w[4]);
  const wm::RegisterWatermarker marker({w[5], w[6]});
  traced("verify.detect_reg", item, [&] {
    const cdfg::Cdfg g =
        traced("cdfg.parse", item, [&] { return cdfg::parseString(design_text); });
    const sched::Schedule schedule = traced("sched.schedule_parse", item, [&] {
      return sched::parseScheduleString(sched_text, g.nodeCount());
    });
    const regbind::LifetimeTable table = traced("regbind.lifetimes", item, [&] {
      return regbind::computeLifetimes(g, schedule);
    });
    const regbind::Binding binding = traced("regbind.binding_parse", item, [&] {
      std::istringstream in(binding_text);
      return regbind::parseBinding(in, table);
    });
    for (std::size_t i = 7; i < w.size(); ++i) {
      const std::string cert_text = readFile(w[i]);
      const wm::RegCertificate cert = traced("core.cert_parse", item, [&] {
        return wm::parseRegCertificate(cert_text);
      });
      const wm::RegDetectResult det = traced("regbind.detect", item, [&] {
        return marker.detect(g, table, binding, cert);
      });
      verdicts.push_back({item, w[i], det.found});
    }
  });
}

/// Plan line `detect-tm ITEM DESIGN COVER ID NONCE CERT...`.
void verifyDetectTm(const std::vector<std::string>& w,
                    const tm::TemplateLibrary& library,
                    std::vector<Verdict>& verdicts) {
  const std::string& item = w[1];
  const std::string design_text = readFile(w[2]);
  const std::string cover_text = readFile(w[3]);
  const wm::TemplateWatermarker marker({w[4], w[5]}, library);
  traced("verify.detect_tm", item, [&] {
    const cdfg::Cdfg g =
        traced("cdfg.parse", item, [&] { return cdfg::parseString(design_text); });
    const std::vector<tm::Matching> cover = traced("tm.cover_parse", item, [&] {
      return tm::parseCoverString(cover_text, library, g.nodeCount());
    });
    for (std::size_t i = 6; i < w.size(); ++i) {
      const std::string cert_text = readFile(w[i]);
      const wm::TmCertificate cert = traced("core.cert_parse", item, [&] {
        return wm::parseTmCertificate(cert_text);
      });
      const wm::TmDetectResult det =
          traced("tm.detect", item, [&] { return marker.detect(g, cover, cert); });
      verdicts.push_back({item, w[i], det.found});
    }
  });
}

/// Paths in the plan are relative to the plan's directory.
int traceVerify(const fs::path& plan_path, const std::string& trace_out) {
  std::vector<std::vector<std::string>> plan;
  std::istringstream plan_in(readFile(plan_path));
  if (plan_path.has_parent_path()) {
    fs::current_path(plan_path.parent_path());
  }
  for (std::string line; std::getline(plan_in, line);) {
    std::vector<std::string> w = splitWords(line);
    if (w.empty()) {
      continue;
    }
    if (w.size() < (w[0] == "detect-reg" ? 8U : 7U)) {
      fail("malformed plan line: " + line);
    }
    plan.push_back(std::move(w));
  }
  const tm::TemplateLibrary library = tm::TemplateLibrary::basicDsp();
  std::vector<Verdict> verdicts;
  std::size_t candidate_roots = 0;
  const double overhead = runPasses([&] {
    verdicts.clear();
    candidate_roots = 0;
    for (const std::vector<std::string>& w : plan) {
      if (w[0] == "detect") {
        verifyDetect(w, candidate_roots, verdicts);
      } else if (w[0] == "detect-reg") {
        verifyDetectReg(w, verdicts);
      } else if (w[0] == "detect-tm") {
        verifyDetectTm(w, library, verdicts);
      } else {
        fail("unknown plan command '" + w[0] + "'");
      }
    }
  });

  Metrics m;
  m.set("cdfg.parse_ms", g_trace.totalMs("cdfg.parse"));
  m.set("cdfg.csr_lower_ms", g_trace.totalMs("cdfg.csr_lower"));
  m.set("core.cert_parse_ms", g_trace.totalMs("core.cert_parse"));
  m.set("core.candidate_roots", static_cast<double>(candidate_roots));
  m.set("core.shape_scan_ms", g_trace.totalMs("core.shape_scan"));
  for (const std::string& app : kMediaBenchApps) {
    m.set("core.derive_us." + app, g_trace.meanUs("core.derive", app));
  }
  m.set("sched.schedule_parse_ms", g_trace.totalMs("sched.schedule_parse"));
  m.set("sched.pc_ms", g_trace.totalMs("sched.pc"));
  m.set("regbind.detect_ms", g_trace.totalMs("regbind.detect"));
  m.set("tm.detect_ms", g_trace.totalMs("tm.detect"));
  m.set("obs.trace_overhead_pct", overhead);
  g_trace.write(trace_out);
  printResult(m, "verdicts", verdictsJson(verdicts));
  return 0;
}

// -------------------------------------------------------------- trace-scan

std::string rowsJson(const std::vector<std::string>& rows) {
  std::string out = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += (i == 0 ? "" : ",") + jsonString(rows[i]);
  }
  return out + "]";
}

double pct(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

int traceScan(const fs::path& corpus_dir, const fs::path& ring_path,
              const fs::path& truth_path, const fs::path& cache_root,
              const std::string& trace_out) {
  // Planted (design path -> cert paths), for the per-design shape scan.
  std::map<std::string, std::vector<std::string>> planted;
  std::istringstream truth_in(readFile(truth_path));
  for (std::string line; std::getline(truth_in, line);) {
    const std::vector<std::string> w = splitWords(line);
    if (w.size() == 2) {
      planted[w[0]].push_back(w[1]);
    }
  }

  std::vector<std::string> rows_nocache;
  std::vector<std::string> rows_fill;
  std::vector<std::string> rows_warm;
  scan::ScanStats cold{};
  std::size_t candidate_roots = 0;
  const double overhead = runPasses([&] {
    candidate_roots = 0;
    const scan::KeyRing ring = traced("scan.load", "ring", [&] {
      return scan::KeyRing::fromFile(ring_path.string());
    });
    const std::vector<scan::CorpusItem> items = traced("scan.load", "corpus", [&] {
      return scan::loadCorpusFromDirectory(corpus_dir.string());
    });
    for (const scan::CorpusItem& item : items) {
      traced("scan.design", item.path, [&] {
        traced("crypto.digest", item.path,
               [&] { (void)crypto::Sha256::hash(item.design_text); });
        const cdfg::Cdfg g = traced("cdfg.parse", item.path, [&] {
          return cdfg::parseString(item.design_text);
        });
        std::optional<wm::LocalityDeriver> deriver;
        traced("cdfg.csr_lower", item.path, [&] { deriver.emplace(g); });
        (void)traced("scan.index", item.path, [&] {
          return scan::buildDesignIndex(*deriver, ring.maxRadius());
        });
        const auto hits = planted.find(item.path);
        if (hits == planted.end()) {
          return;
        }
        // Exact replay of the planted pairs at every candidate root: the
        // survivor work the screen can never prune.
        const std::vector<cdfg::NodeId> roots = deriver->candidateRoots();
        for (const scan::KeyRingEntry& entry : ring.entries()) {
          if (entry.kind != scan::CertKind::kSched ||
              std::find(hits->second.begin(), hits->second.end(),
                        entry.cert_path) == hits->second.end()) {
            continue;
          }
          candidate_roots += roots.size();
          (void)traced("core.shape_scan", item.path, [&] {
            return wm::SchedDetector(entry.signature, *deriver, *entry.sched,
                                     roots);
          });
        }
      });
    }
    // As `scan --no-cache`: an empty cache_dir writes no files.
    const scan::ScanResult r_cold = traced("scan.scan", "nocache", [&] {
      return scan::scanCorpus(items, ring, scan::ScanOptions{});
    });
    rows_nocache = r_cold.rows;
    cold = r_cold.stats;
  });
  // Once, after the compared passes and still recording: the cache fill
  // (file creation) and the warm scan that reads it.
  const scan::KeyRing ring = scan::KeyRing::fromFile(ring_path.string());
  const std::vector<scan::CorpusItem> items =
      scan::loadCorpusFromDirectory(corpus_dir.string());
  scan::ScanOptions options;
  options.cache_dir = (cache_root / "scan").string();
  rows_fill = traced("scan.scan_fill", "fill", [&] {
                return scan::scanCorpus(items, ring, options);
              }).rows;
  const scan::ScanResult r_warm = traced(
      "scan.scan_warm", "warm", [&] { return scan::scanCorpus(items, ring, options); });
  rows_warm = r_warm.rows;
  const scan::ScanStats warm = r_warm.stats;
  Metrics m;
  m.set("cdfg.parse_ms", g_trace.totalMs("cdfg.parse"));
  m.set("cdfg.csr_lower_ms", g_trace.totalMs("cdfg.csr_lower"));
  m.set("core.candidate_roots", static_cast<double>(candidate_roots));
  m.set("core.shape_scan_ms", g_trace.totalMs("core.shape_scan"));
  m.set("scan.load_ms", g_trace.totalMs("scan.load"));
  m.set("scan.index_ms", g_trace.totalMs("scan.index"));
  m.set("scan.scan_ms", g_trace.totalMs("scan.scan"));
  m.set("scan.scan_warm_ms", g_trace.totalMs("scan.scan_warm"));
  m.set("scan.pruned_pct", pct(cold.pruned_pairs, cold.pairs));
  m.set("scan.precision",
        cold.survivor_pairs == 0
            ? 0.0
            : static_cast<double>(cold.match_pairs) /
                  static_cast<double>(cold.survivor_pairs));
  m.set("scan.replay_roots", static_cast<double>(cold.candidate_roots));
  m.set("scan.cache_warm_pct", pct(warm.cache_warm, warm.designs));
  m.set("crypto.digest_ms", g_trace.totalMs("crypto.digest"));
  m.set("obs.trace_overhead_pct", overhead);
  g_trace.write(trace_out);
  printResult(m, "rows",
              "{\"nocache\":" + rowsJson(rows_nocache) +
                  ",\"fill\":" + rowsJson(rows_fill) +
                  ",\"warm\":" + rowsJson(rows_warm) + "}");
  return 0;
}

// -------------------------------------------------------------- trace-lint

int traceLint(const fs::path& manifest, const fs::path& edited_manifest,
              const fs::path& cache_root, const std::string& trace_out) {
  check::ProjectStats warm{};
  std::size_t findings = 0;
  std::size_t loads = 0;
  std::string warm_report;
  const auto load = [&](const fs::path& path) {
    ++loads;
    return traced("check.workspace_load", path.string(), [&] {
      return check::Workspace::fromManifestFile(path.string());
    });
  };
  const auto project = [&](const char* span, check::Workspace& ws,
                           const std::string& cache) {
    return traced(span, ws.root(), [&] {
      check::ProjectOptions options;
      options.cache_dir = cache;
      return check::checkProject(ws, options);
    });
  };
  const double overhead = runPasses([&] {
    loads = 0;
    check::Workspace ws = load(manifest);
    std::map<std::string, std::size_t> node_counts;
    for (const check::WorkspaceArtifact& a : ws.artifacts()) {
      traced("crypto.digest", a.path, [&] { (void)crypto::Sha256::hash(a.text); });
      if (a.path.ends_with(".cdfg")) {
        const cdfg::Cdfg g =
            traced("cdfg.parse", a.path, [&] { return cdfg::parseString(a.text); });
        node_counts[a.path.substr(0, a.path.size() - 5)] = g.nodeCount();
      }
    }
    for (const check::WorkspaceArtifact& a : ws.artifacts()) {
      const auto design = node_counts.find(a.path.substr(0, a.path.size() - 6));
      if (a.path.ends_with(".sched") && design != node_counts.end()) {
        (void)traced("sched.schedule_parse", a.path, [&] {
          return sched::parseScheduleString(a.text, design->second);
        });
      }
    }
    // As `lint --no-cache`: an empty cache_dir writes no files.
    const check::ProjectResult cold = project("check.project_nocache", ws, "");
    findings = cold.report.diagnostics().size();
    (void)traced("check.render", "cold", [&] { return cold.report.renderJson(); });
  });
  // Once, after the compared passes and still recording: the cold lint
  // that fills the cache (file creation), then the warm lint of the edit.
  const std::string cache = (cache_root / "lint").string();
  check::Workspace ws_fill = load(manifest);
  (void)project("check.project", ws_fill, cache);
  check::Workspace ws_edited = load(edited_manifest);
  const check::ProjectResult edited = project("check.project_warm", ws_edited, cache);
  warm = edited.stats;
  warm_report =
      traced("check.render", "warm", [&] { return edited.report.renderJson(); });

  Metrics m;
  m.set("cdfg.parse_ms", g_trace.totalMs("cdfg.parse"));
  m.set("sched.schedule_parse_ms", g_trace.totalMs("sched.schedule_parse"));
  m.set("check.workspace_load_ms",
        g_trace.totalMs("check.workspace_load") / static_cast<double>(loads));
  const double project_ms = g_trace.totalMs("check.project");
  const double nocache_ms = g_trace.totalMs("check.project_nocache");
  m.set("check.project_ms", project_ms);
  m.set("check.project_nocache_ms", nocache_ms);
  m.set("check.cache_store_ms", project_ms - nocache_ms);
  m.set("check.project_warm_ms", g_trace.totalMs("check.project_warm"));
  m.set("check.cache_hit_pct", warm.hitRatePct());
  m.set("check.cache_stores", static_cast<double>(warm.cache_stores));
  m.set("check.render_ms", g_trace.totalMs("check.render"));
  m.set("check.findings", static_cast<double>(findings));
  m.set("crypto.digest_ms", g_trace.totalMs("crypto.digest"));
  m.set("obs.trace_overhead_pct", overhead);
  g_trace.write(trace_out);
  printResult(m, "warm_report", jsonString(warm_report));
  return 0;
}

int run(const std::vector<std::string>& a) {
  const auto need = [&](std::size_t n) {
    if (a.size() != n + 1) {
      fail(a[0] + ": expected " + std::to_string(n) + " arguments");
    }
  };
  const auto seed = [&] { return static_cast<std::uint64_t>(parseSize(a[1], "seed")); };
  const auto threads = [&](std::size_t i) {
    rt::setThreadCount(parseSize(a[i], "thread count"));
  };
  if (a[0] == "gen-verify") {
    need(2);
    return genVerify(seed(), a[2]);
  }
  if (a[0] == "gen-scan") {
    need(5);
    return genScan(seed(), a[2], a[3], parseSize(a[4], "design count"),
                   parseSize(a[5], "cert count"));
  }
  if (a[0] == "gen-lint") {
    need(5);
    return genLint(seed(), a[2], a[3], parseSize(a[4], "pair count"),
                   parseSize(a[5], "edit percentage"));
  }
  if (a[0] == "trace-verify") {
    need(3);
    threads(2);
    return traceVerify(a[1], a[3]);
  }
  if (a[0] == "trace-scan") {
    need(6);
    threads(5);
    return traceScan(a[1], a[2], a[3], a[4], a[6]);
  }
  if (a[0] == "trace-lint") {
    need(5);
    threads(4);
    return traceLint(a[1], a[2], a[3], a[5]);
  }
  fail("unknown command '" + a[0] + "'");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    fail("usage: locbench_probe gen-verify|gen-scan|gen-lint|trace-verify|"
         "trace-scan|trace-lint ARGS...");
  }
  try {
    return run(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::exception& e) {
    fail(e.what());
  }
}
