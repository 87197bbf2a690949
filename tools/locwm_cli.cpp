// locwm — command-line driver for the local-watermarking library.
//
// Typical protect/detect round trip:
//
//   locwm gen wave 10 -o core.cdfg
//   locwm embed core.cdfg -i "Acme Inc." -n core-v1
//         -o marked.cdfg -c core.wmc --marks 3   (one line)
//   locwm schedule marked.cdfg -o core.sched
//   locwm strip marked.cdfg -o published.cdfg
//   ... the published design + schedule circulate ...
//   locwm detect published.cdfg core.sched core.wmc -i "Acme Inc." -n core-v1
//
// Files: designs use the cdfg/io.h text format; certificates the
// core/certificate_io.h format; schedules are lines of "<node> <step>".
//
// Each command is one entry of the command table (kCommands, at the end):
// its arity, its options, its usage text and its handler.  parseArgs
// checks every invocation against that entry; anything it does not
// describe is a usage error (exit 2).
//
// Observability: `--trace FILE` writes a Chrome trace-event JSON of every
// pass span (open in chrome://tracing or https://ui.perfetto.dev),
// `--stats FILE` writes the counter/gauge/pass-timer snapshot as JSON,
// `--metrics FILE` writes an OpenMetrics text exposition, `--events FILE`
// streams ndjson telemetry events, `--report` prints the per-pass
// wall-time table to stderr at exit.  See docs/OBSERVABILITY.md.
#include <algorithm>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#if __has_include(<locwm/build_info.h>)
#include <locwm/build_info.h>
#endif
#ifndef LOCWM_VERSION
#define LOCWM_VERSION "unknown"
#endif
#ifndef LOCWM_GIT_DESCRIBE
#define LOCWM_GIT_DESCRIBE "unknown"
#endif
#ifndef LOCWM_BUILD_TYPE
#define LOCWM_BUILD_TYPE "unknown"
#endif

#include "cdfg/analysis.h"
#include "cdfg/delta.h"
#include "cdfg/dot.h"
#include "cdfg/io.h"
#include "cdfg/text.h"
#include "check/baseline.h"
#include "check/differ.h"
#include "check/incremental.h"
#include "check/linter.h"
#include "check/pass_audit.h"
#include "check/project.h"
#include "check/workspace.h"
#include "check/rules.h"
#include "core/certificate_io.h"
#include "core/tm_wm.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/openmetrics.h"
#include "tm/cover.h"
#include "tm/library_io.h"
#include "core/pc.h"
#include "core/reg_wm.h"
#include "core/sched_wm.h"
#include "regbind/binding.h"
#include "regbind/binding_io.h"
#include "regbind/lifetime.h"
#include "rt/rt.h"
#include "scan/corpus.h"
#include "scan/keyring.h"
#include "scan/scan.h"
#include "store/store.h"
#include "sched/list_scheduler.h"
#include "sched/schedule_io.h"
#include "sched/timeframes.h"
#include "workloads/hyper.h"
#include "workloads/iir4.h"
#include "workloads/mediabench.h"

namespace {

using namespace locwm;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "locwm: %s\n", message.c_str());
  std::exit(2);
}

// -q/--quiet suppresses informational output (results still drive the
// exit code, so scripts lose nothing).
bool g_quiet = false;

void note(const char* format, ...) {
  if (g_quiet) {
    return;
  }
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
}

/// Reads an input file, or exits 2 with "cannot open <what> '<path>'".
std::string readInput(const std::string& path, const char* what) {
  std::optional<std::string> text = store::readFile(path);
  if (!text) {
    die("cannot open " + std::string(what) + " '" + path + "'");
  }
  return std::move(*text);
}

cdfg::Cdfg loadDesign(const std::string& path) {
  return cdfg::parseString(readInput(path, "design file"));
}

void saveText(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    die("cannot write '" + path + "'");
  }
  out << text;
}

// --- The command table's types, the argument checks and usage errors ---

/// What an option takes after its name.
enum class Takes { kFlag, kString, kUnsigned, kFraction };

/// One option a command accepts.
struct Option {
  const char* name;
  Takes takes = Takes::kString;
  std::uint64_t max = 0;  ///< kUnsigned: the largest value accepted
};

constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kMaxSize = std::numeric_limits<std::size_t>::max();
/// max_positional of a command taking any number of positionals.
constexpr std::size_t kAny = std::numeric_limits<std::size_t>::max();

struct Args;

/// One entry of the command table (kCommands): it drives argument
/// validation, the usage text and dispatch.
struct Command {
  const char* name;
  const char* synopsis;  ///< the arguments after the name; '\n' wraps
  const char* help;      ///< '\n' wraps
  std::size_t min_positional;
  std::size_t max_positional;
  std::vector<Option> options;
  int (*run)(const Args&);
};

/// An option every command accepts, with its usage line.
struct GlobalOption {
  Option option;
  const char* usage;  ///< nullptr: an alias shown with the entry above
  const char* help;
};

const GlobalOption kGlobalOptions[] = {
    {{"-q", Takes::kFlag}, "-q, --quiet", "suppress informational output"},
    {{"--quiet", Takes::kFlag}, nullptr, nullptr},
    {{"--threads", Takes::kUnsigned, kMaxSize}, "--threads N",
     "worker threads for the parallel passes; overrides\n"
     "LOCWM_THREADS, which overrides the hardware concurrency"},
    {{"--trace"}, "--trace FILE",
     "write Chrome trace-event JSON (chrome://tracing, Perfetto)"},
    {{"--stats"}, "--stats FILE", "write counters, gauges and pass times"},
    {{"--metrics"}, "--metrics FILE", "write an OpenMetrics text exposition"},
    {{"--events"}, "--events FILE", "stream telemetry events as ndjson"},
    {{"--report", Takes::kFlag}, "--report",
     "print the per-pass wall-time table to stderr at exit"},
};

/// Writes `text` and a newline, indenting every line after the first by
/// `indent` spaces.
void printLines(std::FILE* out, std::string_view text, int indent) {
  for (std::size_t nl = text.find('\n'); nl != std::string_view::npos;
       nl = text.find('\n')) {
    std::fprintf(out, "%.*s\n%*s", static_cast<int>(nl), text.data(), indent,
                 "");
    text.remove_prefix(nl + 1);
  }
  std::fprintf(out, "%.*s\n", static_cast<int>(text.size()), text.data());
}

/// Writes `prefix`, the command name and its synopsis.
void printSynopsis(std::FILE* out, const char* prefix, const Command& c) {
  const int width =
      std::fprintf(out, "%s%s%s", prefix, c.name, *c.synopsis ? " " : "");
  printLines(out, c.synopsis, width);
}

/// Exits 2 with `message` and the command's synopsis on stderr.
[[noreturn]] void usageError(const Command& command,
                             const std::string& message) {
  std::fprintf(stderr, "locwm: %s: %s\n", command.name, message.c_str());
  printSynopsis(stderr, "usage: locwm ", command);
  std::exit(2);
}

/// The CLI's one number parser: the whole of `text` must be decimal
/// digits naming a value of at most `max`.  Throws Error naming `what`.
std::uint64_t parseUnsigned(const std::string& text, std::uint64_t max,
                            const std::string& what) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    throw Error(what + " needs an unsigned number, got '" + text + "'");
  }
  std::uint64_t value = 0;
  if (!text::wholeNumber(text, value) || value > max) {
    throw Error(what + " out of range: '" + text + "' exceeds " +
                std::to_string(max));
  }
  return value;
}

/// A decimal fraction in [0, 1]: digits with at most one '.'.
double parseFraction(const std::string& text, const std::string& what) {
  const bool well_formed =
      text.find_first_not_of("0123456789.") == std::string::npos &&
      std::count(text.begin(), text.end(), '.') <= 1 &&
      text.find_first_of("0123456789") != std::string::npos;
  const double value = well_formed ? std::strtod(text.c_str(), nullptr) : -1;
  if (!(value >= 0 && value <= 1)) {
    throw Error(what + " needs a fraction in [0, 1], got '" + text + "'");
  }
  return value;
}

/// A checked invocation: positionals, and (option, value) pairs in
/// command-line order (flags have empty values).
struct Args {
  const Command* command;
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> options;

  [[nodiscard]] std::optional<std::string> get(
      const std::string& name) const {
    for (const auto& [k, v] : options) {
      if (k == name) {
        return v;
      }
    }
    return std::nullopt;
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return get(name).has_value();
  }
  [[nodiscard]] std::string require(const std::string& name,
                                    const std::string& what) const {
    const auto v = get(name);
    if (!v) {
      usageError(*command, "missing " + name + " (" + what + ")");
    }
    return *v;
  }
  /// A kUnsigned option's value (range-checked by parseArgs).
  [[nodiscard]] std::uint64_t number(const std::string& name,
                                     std::uint64_t fallback) const {
    const auto v = get(name);
    return v ? parseUnsigned(*v, kMaxU64, name) : fallback;
  }
};

const Option* findGlobal(std::string_view name) {
  for (const GlobalOption& global : kGlobalOptions) {
    if (name == global.option.name) {
      return &global.option;
    }
  }
  return nullptr;
}

const Option* findOption(const Command& command, const std::string& name) {
  for (const Option& option : command.options) {
    if (name == option.name) {
      return &option;
    }
  }
  return findGlobal(name);
}

/// Checks argv[2..] against `command`: every option known and given its
/// value, every number well formed and in range, and the positional count
/// within bounds.  Anything else is a usage error.
Args parseArgs(const Command& command, int argc, char** argv) {
  Args args{&command, {}, {}};
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.size() < 2 || arg.front() != '-') {
      args.positional.push_back(std::move(arg));
      continue;
    }
    const Option* option = findOption(command, arg);
    if (option == nullptr) {
      usageError(command, "unknown option '" + arg + "'");
    }
    std::string value;
    if (option->takes != Takes::kFlag) {
      if (i + 1 >= argc) {
        usageError(command, "option " + arg + " needs a value");
      }
      value = argv[++i];
    }
    try {
      if (option->takes == Takes::kUnsigned) {
        parseUnsigned(value, option->max, arg);
      } else if (option->takes == Takes::kFraction) {
        parseFraction(value, arg);
      }
    } catch (const Error& e) {
      usageError(command, e.what());
    }
    args.options.emplace_back(std::move(arg), std::move(value));
  }
  if (args.positional.size() > command.max_positional) {
    usageError(command, "unexpected argument '" +
                            args.positional[command.max_positional] + "'");
  }
  if (args.positional.size() < command.min_positional) {
    usageError(command, "missing arguments");
  }
  return args;
}

int cmdGen(const Args& args) {
  const std::string kind = args.positional[0];
  const std::size_t size =
      args.positional.size() > 1
          ? parseUnsigned(args.positional[1], kMaxSize, "gen: size")
          : 8;
  cdfg::Cdfg g;
  if (kind == "iir4") {
    g = workloads::iir4Parallel();
  } else if (kind == "fir") {
    g = workloads::fir(size);
  } else if (kind == "lattice") {
    g = workloads::lattice(size);
  } else if (kind == "wave") {
    g = workloads::waveFilter(size);
  } else if (kind == "cascade") {
    g = workloads::iirCascade(size);
  } else if (kind == "dct8") {
    g = workloads::dct8();
  } else if (kind == "wavelet") {
    g = workloads::wavelet(size);
  } else if (kind == "volterra") {
    g = workloads::volterra(size);
  } else if (kind == "ctrl2") {
    g = workloads::controller2();
  } else if (kind.rfind("mediabench:", 0) == 0) {
    const std::string app = kind.substr(std::strlen("mediabench:"));
    bool found = false;
    for (const auto& p : workloads::mediaBenchProfiles()) {
      if (p.name == app) {
        g = workloads::buildMediaBench(p);
        found = true;
      }
    }
    if (!found) {
      die("unknown mediabench app '" + app + "'");
    }
  } else {
    die("unknown design kind '" + kind + "'");
  }
  saveText(args.require("-o", "output design file"),
           cdfg::printToString(g));
  note("wrote %zu nodes, %zu edges\n", g.nodeCount(), g.edgeCount());
  return 0;
}

int cmdInfo(const Args& args) {
  const cdfg::Cdfg g = loadDesign(args.positional[0]);
  const cdfg::StructuralAnalysis an(g);
  std::size_t real = 0;
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  for (const cdfg::NodeId v : g.allNodes()) {
    const auto k = g.node(v).kind;
    real += !cdfg::isPseudoOp(k);
    inputs += k == cdfg::OpKind::kInput;
    outputs += k == cdfg::OpKind::kOutput;
  }
  std::printf("nodes            %zu (%zu ops, %zu inputs, %zu outputs)\n",
              g.nodeCount(), real, inputs, outputs);
  std::printf("edges            %zu (%zu temporal)\n", g.edgeCount(),
              g.temporalEdges().size());
  std::printf("critical path    %u operations\n", an.criticalPathLength());
  const sched::TimeFrames tf(g, sched::LatencyModel::unit());
  std::printf("min steps        %u\n", tf.criticalPathSteps());
  return 0;
}

int cmdDot(const Args& args) {
  const cdfg::Cdfg g = loadDesign(args.positional[0]);
  const std::string dot = cdfg::toDot(g);
  if (const auto out = args.get("-o")) {
    saveText(*out, dot);
  } else {
    std::fputs(dot.c_str(), stdout);
  }
  return 0;
}

crypto::AuthorSignature signatureOf(const Args& args) {
  return {args.require("-i", "author identity"),
          args.require("-n", "design nonce")};
}

int cmdEmbed(const Args& args) {
  cdfg::Cdfg g = loadDesign(args.positional[0]);
  const auto sig = signatureOf(args);
  wm::SchedulingWatermarker marker(sig);

  wm::SchedWmParams params;
  const sched::TimeFrames tf(g, params.latency);
  params.deadline = static_cast<std::uint32_t>(
      args.number("--deadline", tf.criticalPathSteps() + 3));
  if (const auto kf = args.get("--kfrac")) {
    params.k_fraction = parseFraction(*kf, "--kfrac");
  }
  params.locality.min_size = 4;
  params.min_eligible = 2;
  const std::size_t count = args.number("--marks", 1);

  const auto marks = marker.embedMany(g, count, params);
  if (marks.empty()) {
    die("no locality satisfied the embedding parameters");
  }
  saveText(args.require("-o", "marked design output"),
           cdfg::printToString(g));
  const std::string base = args.require("-c", "certificate output base");
  for (std::size_t i = 0; i < marks.size(); ++i) {
    const std::string path =
        marks.size() == 1 ? base : base + "." + std::to_string(i);
    saveText(path, wm::certificateToString(marks[i].certificate));
    note("mark %zu: %zu constraints -> %s\n", i,
         marks[i].certificate.constraints.size(), path.c_str());
  }
  return 0;
}

int cmdSchedule(const Args& args) {
  const cdfg::Cdfg g = loadDesign(args.positional[0]);
  const sched::Schedule s = sched::listSchedule(g);
  saveText(args.require("-o", "schedule output"),
           sched::scheduleToString(g, s));
  note("scheduled into %u steps\n",
       s.makespan(g, sched::LatencyModel::unit()));
  return 0;
}

int cmdStrip(const Args& args) {
  const cdfg::Cdfg g = loadDesign(args.positional[0]);
  saveText(args.require("-o", "published design output"),
           cdfg::printToString(g.stripTemporalEdges()));
  return 0;
}

/// Parses every certificate argument from positional `first` on, before
/// any verdict is printed: a bad certificate exits 2 with empty stdout.
template <typename Cert>
std::vector<Cert> loadCertificates(
    const Args& args, std::size_t first,
    Cert (*parse)(std::string_view, wm::CertValidation, const std::string&)) {
  std::vector<Cert> certs;
  for (std::size_t i = first; i < args.positional.size(); ++i) {
    certs.push_back(parse(readInput(args.positional[i], "certificate"),
                          wm::CertValidation::kStrict, {}));
  }
  return certs;
}

/// Identifies every certificate of a detect call in one pass of the
/// detection driver over the suspect: one lowering, one screen index.
template <typename Cert>
wm::Identification identifyAll(const cdfg::Cdfg& suspect,
                               const crypto::AuthorSignature& signature,
                               const std::vector<Cert>& certs) {
  std::vector<wm::ShapeQuery> queries;
  for (const Cert& cert : certs) {
    queries.push_back(wm::replayQuery(signature, cert));
  }
  return wm::identify(wm::LocalityDeriver(suspect), std::move(queries));
}

int cmdDetect(const Args& args) {
  const cdfg::Cdfg suspect = loadDesign(args.positional[0]);
  const sched::Schedule s = sched::parseScheduleString(
      readInput(args.positional[1], "schedule file"), suspect.nodeCount());
  const auto sig = signatureOf(args);
  const auto certs = loadCertificates(args, 2, wm::parseSchedCertificate);
  wm::Identification id = identifyAll(suspect, sig, certs);

  int found = 0;
  for (std::size_t i = 0; i < certs.size(); ++i) {
    const wm::WatermarkCertificate& cert = certs[i];
    const wm::SchedDetectResult det =
        wm::SchedDetector(cert, std::move(id.hits[i])).check(s);
    // Proof strength of a found mark: the locality's schedule-count ratio
    // times the number of places the locality shape occurs ("the number of
    // nodes from which one can find the subtree T", §IV-B's multiplier).
    char strength[48] = "";
    if (det.found) {
      const wm::PcEstimate pc = wm::schedulingPc(cert, det.shape_matches);
      std::snprintf(strength, sizeof strength,
                    pc.exact ? ", Pc<=%.2e" : ", Pc~%.2e (approx)", pc.pc());
    }
    note("%-24s %s (%zu/%zu constraints, %zu shape matches%s)\n",
         args.positional[i + 2].c_str(), det.found ? "DETECTED" : "not found",
         det.satisfied, det.total, det.shape_matches, strength);
    found += det.found;
  }
  return found > 0 ? 0 : 1;
}

regbind::Binding loadBinding(const std::string& path,
                             const regbind::LifetimeTable& table) {
  return regbind::parseBindingString(readInput(path, "binding file"), table);
}

int cmdEmbedReg(const Args& args) {
  const cdfg::Cdfg g = loadDesign(args.positional[0]);
  const sched::Schedule s = sched::parseScheduleString(
      readInput(args.positional[1], "schedule file"), g.nodeCount());
  wm::RegisterWatermarker marker(signatureOf(args));
  wm::RegWmParams params;
  params.locality.min_size = 5;
  const auto r = marker.embed(g, s, params);
  if (!r) {
    die("no locality satisfied the embedding parameters");
  }
  const auto table = regbind::computeLifetimes(g, s);
  regbind::BindOptions bo;
  bo.aliases = r->aliases;
  const auto binding = regbind::bindRegisters(table, bo);
  saveText(args.require("-o", "binding output"),
           regbind::bindingToString(table, binding));
  saveText(args.require("-c", "certificate output"),
           wm::certificateToString(r->certificate));
  note("bound %zu values into %u registers with %zu shared pairs\n",
       table.values.size(), binding.register_count, r->aliases.size());
  return 0;
}

int cmdDetectReg(const Args& args) {
  const cdfg::Cdfg suspect = loadDesign(args.positional[0]);
  const sched::Schedule s = sched::parseScheduleString(
      readInput(args.positional[1], "schedule file"), suspect.nodeCount());
  const auto table = regbind::computeLifetimes(suspect, s);
  const auto binding = loadBinding(args.positional[2], table);
  const auto sig = signatureOf(args);
  const auto certs = loadCertificates(args, 3, wm::parseRegCertificate);
  const wm::Identification id = identifyAll(suspect, sig, certs);
  int found = 0;
  for (std::size_t i = 0; i < certs.size(); ++i) {
    const wm::RegDetectResult det = wm::RegisterWatermarker::detectFromHits(
        certs[i], id.hits[i], table, binding);
    note("%-24s %s (%zu/%zu pairs, %zu shape matches)\n",
         args.positional[i + 3].c_str(), det.found ? "DETECTED" : "not found",
         det.shared, det.total, det.shape_matches);
    found += det.found;
  }
  return found > 0 ? 0 : 1;
}

tm::TemplateLibrary loadLibrary(const Args& args) {
  if (const auto path = args.get("--lib")) {
    return tm::parseLibraryString(readInput(*path, "template library"));
  }
  return tm::TemplateLibrary::basicDsp();
}

int cmdGenLib(const Args& args) {
  saveText(args.require("-o", "library output"),
           tm::libraryToString(tm::TemplateLibrary::basicDsp()));
  return 0;
}

int cmdEmbedTm(const Args& args) {
  const cdfg::Cdfg g = loadDesign(args.positional[0]);
  const tm::TemplateLibrary lib = loadLibrary(args);
  wm::TemplateWatermarker marker(signatureOf(args), lib);
  wm::TmWmParams params;
  params.whole_design = true;
  params.beta = 0.0;
  const auto r = marker.embed(g, params);
  if (!r) {
    die("no locality satisfied the embedding parameters");
  }
  const tm::CoverResult cover = marker.applyCover(g, *r);
  saveText(args.require("-o", "cover output"),
           tm::coverToString(cover.chosen));
  saveText(args.require("-c", "certificate output"),
           wm::certificateToString(r->certificate));
  note("covered with %zu modules; %zu matchings enforced\n",
       cover.module_count, r->forced.size());
  return 0;
}

int cmdDetectTm(const Args& args) {
  const cdfg::Cdfg suspect = loadDesign(args.positional[0]);
  const tm::TemplateLibrary lib = loadLibrary(args);
  const auto cover = tm::parseCoverString(
      readInput(args.positional[1], "cover"), lib, suspect.nodeCount());
  const auto sig = signatureOf(args);
  const auto certs = loadCertificates(args, 2, wm::parseTmCertificate);
  const wm::Identification id = identifyAll(suspect, sig, certs);
  int found = 0;
  for (std::size_t i = 0; i < certs.size(); ++i) {
    const wm::TmDetectResult det =
        wm::TemplateWatermarker::detectFromHits(certs[i], id.hits[i], cover);
    note("%-24s %s (%zu/%zu matchings)\n", args.positional[i + 2].c_str(),
         det.found ? "DETECTED" : "not found", det.present, det.total);
    found += det.found;
  }
  return found > 0 ? 0 : 1;
}

int cmdVerifyCert(const Args& args) {
  int bad = 0;
  for (const std::string& path : args.positional) {
    const auto file = store::readFile(path);
    if (!file) {
      die("cannot open certificate '" + path + "'");
    }
    const std::string& text = *file;
    // The header names the kind, so only that kind's parser reads the
    // file and its error is the one reported.  A file that is no
    // certificate at all fails the header check of whichever parser runs.
    try {
      switch (check::sniffArtifact(text).kind) {
        case check::ArtifactKind::kCertTm: {
          const auto cert = wm::parseTmCertificate(text);
          std::printf("%-24s tm: %zu-op locality, %zu matchings%s\n",
                      path.c_str(), cert.shape.nodeCount(),
                      cert.matchings.size(),
                      cert.whole_design ? " (whole-design)" : "");
          break;
        }
        case check::ArtifactKind::kCertReg: {
          const auto cert = wm::parseRegCertificate(text);
          std::printf("%-24s reg: %zu-op locality, %zu shared pairs\n",
                      path.c_str(), cert.shape.nodeCount(),
                      cert.pairs.size());
          break;
        }
        default: {
          const auto cert = wm::parseSchedCertificate(text);
          std::printf("%-24s sched: %zu-op locality, %zu constraints",
                      path.c_str(), cert.shape.nodeCount(),
                      cert.constraints.size());
          const wm::PcEstimate pc = wm::schedulingPc(cert, 1);
          std::printf(pc.exact ? ", Pc = %.2e\n" : ", Pc~%.2e (approx)\n",
                      pc.pc());
          break;
        }
      }
    } catch (const ParseError& e) {
      std::printf("%-24s INVALID: %s\n", path.c_str(), e.what());
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}

/// The analysis-cache directory of `lint --project/--manifest` and `scan`:
/// none with --no-cache, else --cache DIR, else ROOT/.locwm-cache where
/// ROOT is the workspace directory or the manifest's directory.
std::string cacheDirOf(const Args& args, const std::filesystem::path& root) {
  if (args.has("--no-cache")) {
    return {};
  }
  return args.get("--cache").value_or((root / ".locwm-cache").string());
}

/// The tail of lint, diff and delta: prints `report` as --sarif, --json or
/// text (text only when not quiet or not clean) and returns the exit code,
/// 1 on errors or on warnings under --werror.  With `json_rows` the
/// command's --json output is its own rows, not the report.
int printReport(const Args& args, const check::Report& report,
                bool json_rows = false) {
  std::optional<check::ReportFormat> format;
  if (args.has("--sarif")) {
    format = check::ReportFormat::kSarif;
  } else if (args.has("--json")) {
    if (!json_rows) {
      format = check::ReportFormat::kJson;
    }
  } else if (!report.empty() || !g_quiet) {
    format = check::ReportFormat::kText;
  }
  if (format) {
    LOCWM_OBS_SPAN("check.render");
    for (const std::string& piece : report.renderPieces(*format)) {
      std::fwrite(piece.data(), 1, piece.size(), stdout);
    }
  }
  const bool fail =
      report.hasErrors() || (args.has("--werror") && report.hasWarnings());
  return fail ? 1 : 0;
}

int cmdLint(const Args& args) {
  const auto project_dir = args.get("--project");
  const auto manifest_path = args.get("--manifest");
  const bool project_mode =
      project_dir.has_value() || manifest_path.has_value();
  if (!project_mode && args.positional.empty()) {
    usageError(*args.command, "which artifacts?");
  }
  tm::TemplateLibrary library = loadLibrary(args);
  check::Report report;
  check::ProjectStats project_stats;
  if (project_mode) {
    if (!args.positional.empty()) {
      die("lint: --project/--manifest and positional artifacts are "
          "mutually exclusive");
    }
    check::Workspace ws =
        manifest_path
            ? check::Workspace::fromManifestFile(*manifest_path)
            : check::Workspace::fromDirectory(project_dir.value_or("."));
    check::ProjectOptions options;
    options.library = std::move(library);
    options.cache_dir = cacheDirOf(args, ws.root());
    check::ProjectResult result = check::checkProject(ws, options);
    report = std::move(result.report);
    project_stats = result.stats;
  } else {
    check::LintOptions options;
    options.library = std::move(library);
    check::Linter linter(std::move(options));
    for (const std::string& path : args.positional) {
      linter.lintFile(path);
    }
    report = linter.report();
  }

  // Baseline ratchet: report only findings the baseline doesn't know.
  const auto baseline_path = args.get("--baseline");
  if (args.has("--update-baseline")) {
    if (!baseline_path) {
      die("--update-baseline needs --baseline FILE");
    }
    saveText(*baseline_path, check::Baseline::fromReport(report).toJson());
    note("baseline updated: %zu finding(s) recorded in %s\n",
         report.diagnostics().size(), baseline_path->c_str());
    return 0;
  }
  if (baseline_path) {
    const auto text = store::readFile(*baseline_path);
    if (!text) {
      die("cannot open baseline '" + *baseline_path + "'");
    }
    const check::Baseline baseline = check::Baseline::parse(*text);
    const std::size_t before = report.diagnostics().size();
    report = baseline.filterNew(report);
    note("baseline: %zu of %zu finding(s) suppressed\n",
         before - report.diagnostics().size(), before);
  }

  const int rc = printReport(args, report);
  if (project_mode) {
    note("project: %zu artifact(s), %zu finding(s), cache %zu/%zu hit(s) "
         "(%.1f%%)\n",
         project_stats.artifacts, report.diagnostics().size(),
         project_stats.cache_hits, project_stats.cache_probes,
         project_stats.hitRatePct());
  }
  return rc;
}

int cmdDiff(const Args& args) {
  const cdfg::Cdfg original = loadDesign(args.positional[0]);
  const cdfg::Cdfg marked = loadDesign(args.positional[1]);
  std::vector<wm::WatermarkCertificate> certs;
  for (std::size_t i = 2; i < args.positional.size(); ++i) {
    certs.push_back(wm::parseSchedCertificate(
        readInput(args.positional[i], "certificate")));
  }
  const check::DiffResult diff = check::diffDesigns(
      original, marked, certs, args.positional[0], args.positional[1]);
  const int rc = printReport(args, diff.report);
  note("core %s; %zu extra temporal edge(s), %zu explained by %zu "
       "certificate(s)\n",
       diff.identical_core ? "identical" : "DIFFERS",
       diff.extra_temporal.size(), diff.explained, certs.size());
  return rc;
}

// --- `locwm delta`: ndjson edit stream against the incremental engine ---

/// One line of a `delta` edit stream: a flat JSON object whose values are
/// strings or unsigned numbers (kept as decimal text).  A blank line has
/// no fields.  Throws std::runtime_error on anything else.
std::map<std::string, std::string> readEditLine(const std::string& line) {
  obs::JsonReader in(line);
  std::map<std::string, std::string> fields;
  if (in.peek() == '\0') {
    return fields;
  }
  in.expect('{');
  for (bool first = true; !in.consume('}'); first = false) {
    if (!first) {
      in.expect(',');
    }
    std::string key = in.string();
    in.expect(':');
    fields.emplace(std::move(key), in.peek() == '"'
                                       ? in.string()
                                       : std::to_string(in.number()));
  }
  if (in.peek() != '\0') {
    throw Error("unexpected text after '}'");
  }
  return fields;
}

/// The edit a line of the stream asks for; nullopt for a commit.  Throws
/// Error on an unknown op or kind and on a node id that is not an
/// unsigned 32-bit number.
std::optional<cdfg::EditOp> editOf(
    const std::map<std::string, std::string>& fields) {
  const auto get = [&fields](const std::string& key, const char* fallback) {
    const auto it = fields.find(key);
    return it == fields.end() ? std::string(fallback) : it->second;
  };
  const auto node = [&get](const std::string& key) {
    return cdfg::NodeId(static_cast<std::uint32_t>(
        parseUnsigned(get(key, ""), kMaxU32, '"' + key + '"')));
  };
  const std::string op = get("op", "");
  if (op == "commit") {
    return std::nullopt;
  }
  if (op == "add-node") {
    const std::string kind_name = get("kind", "");
    const auto kind = cdfg::opFromName(kind_name);
    if (!kind) {
      throw Error("unknown operation kind '" + kind_name + "'");
    }
    return cdfg::EditOp::addNode(*kind, get("name", ""));
  }
  if (op == "remove-node") {
    return cdfg::EditOp::removeNode(node("node"));
  }
  if (op != "add-edge" && op != "remove-edge") {
    throw Error("unknown op '" + op + "'");
  }
  const std::string kind_name = get("kind", "data");
  cdfg::EdgeKind kind = cdfg::EdgeKind::kData;
  if (kind_name == "control") {
    kind = cdfg::EdgeKind::kControl;
  } else if (kind_name == "temporal") {
    kind = cdfg::EdgeKind::kTemporal;
  } else if (kind_name != "data") {
    throw Error("unknown edge kind '" + kind_name + "'");
  }
  const cdfg::NodeId src = node("src");
  const cdfg::NodeId dst = node("dst");
  return op == "add-edge" ? cdfg::EditOp::addEdge(src, dst, kind)
                          : cdfg::EditOp::removeEdge(src, dst, kind);
}

int cmdDelta(const Args& args) {
  cdfg::Cdfg g = loadDesign(args.positional[0]);
  const bool verify = args.has("--verify");
  const bool json = args.has("--json");

  std::ifstream file;
  std::istream* in = &std::cin;
  if (args.positional.size() > 1) {
    file.open(args.positional[1]);
    if (!file) {
      die("cannot open edit stream '" + args.positional[1] + "'");
    }
    in = &file;
  }

  check::delta::IncrementalAnalysis engine(std::move(g), args.positional[0]);

  cdfg::EditDelta batch;
  std::vector<std::size_t> batch_lines;  // ops[i] came from line ...
  std::size_t lineno = 0;
  std::size_t commits = 0;
  std::size_t rejected_total = 0;

  const auto commit = [&] {
    if (batch.empty()) {
      return;
    }
    ++commits;
    cdfg::AppliedDelta applied;
    const check::delta::DeltaStats stats = engine.applyDelta(batch, &applied);
    for (const cdfg::RejectedOp& rej : applied.rejected) {
      std::fprintf(stderr, "locwm: delta: line %zu: rejected: %s\n",
                   batch_lines[rej.index], rej.reason.c_str());
    }
    rejected_total += applied.rejected.size();
    if (verify) {
      const check::Report oracle =
          check::checkSemantics(engine.graph(), engine.artifact());
      if (oracle.renderText() != engine.semanticReportText()) {
        die("delta: incremental report diverged from full recompute after "
            "commit " +
            std::to_string(commits));
      }
    }
    if (json) {
      std::printf(
          "{\"commit\": %zu, \"accepted\": %zu, \"rejected\": %zu, "
          "\"asap\": %zu, \"alap\": %zu, \"reach\": %zu, "
          "\"closure_rows\": %zu, \"lw601\": %zu, \"lw602\": %zu, "
          "\"nodes\": %zu, \"ranks_rebuilt\": %s, \"relowered\": %s, "
          "\"full_rebuild\": %s, \"report_rebuilt\": %s%s}\n",
          commits, stats.accepted_ops, stats.rejected_ops,
          stats.asap_recomputed, stats.alap_recomputed,
          stats.reach_recomputed, stats.closure_rows, stats.lw601_evals,
          stats.lw602_evals, stats.node_evals,
          stats.ranks_rebuilt ? "true" : "false",
          stats.relowered ? "true" : "false",
          stats.full_rebuild ? "true" : "false",
          stats.report_rebuilt ? "true" : "false",
          verify ? ", \"verified\": true" : "");
    } else {
      note("commit %zu: %zu op(s), %zu rejected; repaired asap %zu, "
           "alap %zu, reach %zu, closure rows %zu, lw601 %zu, lw602 %zu, "
           "node verdicts %zu%s%s%s\n",
           commits, stats.accepted_ops, stats.rejected_ops,
           stats.asap_recomputed, stats.alap_recomputed,
           stats.reach_recomputed, stats.closure_rows, stats.lw601_evals,
           stats.lw602_evals, stats.node_evals,
           stats.full_rebuild ? " (full rebuild)" : "",
           stats.relowered ? " (relowered)" : "",
           verify ? " [verified]" : "");
    }
    batch = cdfg::EditDelta{};
    batch_lines.clear();
  };

  std::string line;
  while (std::getline(*in, line)) {
    ++lineno;
    std::optional<cdfg::EditOp> edit;
    try {
      const auto fields = readEditLine(line);
      if (fields.empty()) {
        continue;
      }
      edit = editOf(fields);
    } catch (const std::runtime_error& e) {
      die("delta: line " + std::to_string(lineno) + ": " + e.what());
    }
    if (!edit) {
      commit();
      continue;
    }
    batch.ops.push_back(*edit);
    batch_lines.push_back(lineno);
  }
  commit();  // implicit trailing commit

  const int rc = printReport(args, engine.semanticReport(), json);
  note("%zu commit(s), %zu rejected op(s); design now %zu live node(s), "
       "%zu edge(s)\n",
       commits, rejected_total, engine.graph().liveNodeCount(),
       engine.graph().edgeCount());
  if (const auto out = args.get("-o")) {
    saveText(*out, cdfg::printToString(engine.graph()));
  }
  return rc;
}

int cmdScan(const Args& args) {
  const std::string target = args.positional[0];
  const std::string ring_path = args.require("--keys", "key-ring file");

  scan::ScanOptions options;
  options.prefilter = !args.has("--no-prefilter");
  if (const auto shard = args.get("--shard")) {
    const std::size_t slash = shard->find('/');
    try {
      options.shard_index = static_cast<std::uint32_t>(
          parseUnsigned(shard->substr(0, slash), kMaxU32, "--shard"));
      options.shard_count = static_cast<std::uint32_t>(parseUnsigned(
          slash == std::string::npos ? "" : shard->substr(slash + 1),
          kMaxU32, "--shard"));
    } catch (const Error&) {
      options.shard_count = 0;
    }
    if (options.shard_count == 0 ||
        options.shard_index >= options.shard_count) {
      die("scan: --shard wants I/N with 0 <= I < N, got '" + *shard + "'");
    }
  }
  const bool is_dir = std::filesystem::is_directory(target);
  const std::filesystem::path root(target);
  options.cache_dir = cacheDirOf(args, is_dir ? root : root.parent_path());

  const scan::KeyRing ring = scan::KeyRing::fromFile(ring_path);
  const std::vector<scan::CorpusItem> items =
      is_dir ? scan::loadCorpusFromDirectory(target)
             : scan::loadCorpusFromManifest(target);
  const scan::ScanResult result = scan::scanCorpus(items, ring, options);

  std::ofstream file;
  std::ostream* out = &std::cout;
  if (const auto path = args.get("-o")) {
    file.open(*path, std::ios::binary | std::ios::trunc);
    if (!file) {
      die("cannot write '" + *path + "'");
    }
    out = &file;
  }
  if (args.has("--json")) {
    for (const std::string& row : result.rows) {
      *out << row << '\n';
    }
  }
  const scan::ScanStats& st = result.stats;
  note("scan: %zu designs, %zu pairs (%zu pruned, %zu survivors), "
       "%zu matches, %zu candidate roots, cache %zu cold / %zu warm, "
       "%zu parse failures\n",
       st.designs, st.pairs, st.pruned_pairs, st.survivor_pairs,
       st.match_pairs, st.candidate_roots, st.cache_cold, st.cache_warm,
       st.parse_failures);
  return st.match_pairs > 0 ? 0 : 1;
}

int cmdVersion(const Args& /*args*/) {
  std::printf("locwm %s (%s, %s)\n", LOCWM_VERSION, LOCWM_GIT_DESCRIBE,
              LOCWM_BUILD_TYPE);
  return 0;
}

// --- The command table: validation, usage and dispatch ---

const Command kCommands[] = {
    {"gen", "KIND [SIZE] -o FILE",
     "generate a benchmark design; KIND is iir4, fir, lattice, wave,\n"
     "cascade, dct8, wavelet, volterra, ctrl2 or mediabench:APP",
     1, 2, {{"-o"}}, cmdGen},
    {"info", "FILE", "print design statistics", 1, 1, {}, cmdInfo},
    {"dot", "FILE [-o FILE]", "export Graphviz DOT", 1, 1, {{"-o"}}, cmdDot},
    {"embed",
     "FILE -i ID -n NONCE -o MARKED -c CERTBASE [--marks N]\n"
     "[--deadline D] [--kfrac F]",
     "embed N scheduling watermarks (certificates CERTBASE.0, .1, ...\n"
     "when N > 1) under deadline D; F in [0, 1] is the share of\n"
     "eligible nodes each mark constrains",
     1, 1,
     {{"-i"}, {"-n"}, {"-o"}, {"-c"},
      {"--marks", Takes::kUnsigned, kMaxSize},
      {"--deadline", Takes::kUnsigned, kMaxU32},
      {"--kfrac", Takes::kFraction}},
     cmdEmbed},
    {"schedule", "FILE -o SCHED", "list-schedule a design", 1, 1, {{"-o"}},
     cmdSchedule},
    {"strip", "FILE -o FILE", "remove temporal edges (publish)", 1, 1,
     {{"-o"}}, cmdStrip},
    {"detect", "FILE SCHED CERT... -i ID -n NONCE",
     "scan a suspect for each certificate", 3, kAny, {{"-i"}, {"-n"}},
     cmdDetect},
    {"embed-reg", "FILE SCHED -i ID -n NONCE -c CERT -o BINDING",
     "bind registers with a watermark", 2, 2,
     {{"-i"}, {"-n"}, {"-c"}, {"-o"}}, cmdEmbedReg},
    {"detect-reg", "FILE SCHED BINDING CERT... -i ID -n NONCE",
     "scan a register binding", 4, kAny, {{"-i"}, {"-n"}}, cmdDetectReg},
    {"verify-cert", "CERT...", "sanity-check certificate files", 1, kAny, {},
     cmdVerifyCert},
    {"gen-lib", "-o FILE", "write the built-in template library", 0, 0,
     {{"-o"}}, cmdGenLib},
    {"embed-tm", "FILE -i ID -n NONCE -c CERT -o COVER [--lib FILE]",
     "cover the design with a watermark", 1, 1,
     {{"-i"}, {"-n"}, {"-c"}, {"-o"}, {"--lib"}}, cmdEmbedTm},
    {"detect-tm", "FILE COVER CERT... -i ID -n NONCE [--lib FILE]",
     "scan a template cover", 3, kAny, {{"-i"}, {"-n"}, {"--lib"}},
     cmdDetectTm},
    {"lint",
     "FILE... | --project DIR | --manifest FILE\n"
     "[--json] [--sarif] [--werror] [--lib FILE] [--cache DIR]\n"
     "[--no-cache] [--baseline FILE] [--update-baseline]",
     "statically check artifacts (kinds are sniffed; a design gives\n"
     "context to the artifacts after it), or a whole workspace with the\n"
     "cross-artifact LW8xx rules, cached by content digest under\n"
     "DIR/.locwm-cache; --baseline suppresses known findings and\n"
     "--update-baseline rewrites it.  See docs/STATIC_ANALYSIS.md",
     0, kAny,
     {{"--json", Takes::kFlag}, {"--sarif", Takes::kFlag},
      {"--werror", Takes::kFlag}, {"--lib"}, {"--project"}, {"--manifest"},
      {"--cache"}, {"--no-cache", Takes::kFlag}, {"--baseline"},
      {"--update-baseline", Takes::kFlag}},
     cmdLint},
    {"diff",
     "ORIGINAL MARKED [CERT...] [--json] [--sarif] [--werror]",
     "prove MARKED is ORIGINAL plus watermark temporal edges only;\n"
     "certificates attribute the extra edges (LW7xx)",
     2, kAny,
     {{"--json", Takes::kFlag}, {"--sarif", Takes::kFlag},
      {"--werror", Takes::kFlag}},
     cmdDiff},
    {"delta", "DESIGN [EDITS] [-o FILE] [--verify] [--json] [--werror]",
     "apply an ndjson edit stream (EDITS or stdin) with the incremental\n"
     "engine: add-node, remove-node, add-edge, remove-edge and commit\n"
     "ops (docs/STATIC_ANALYSIS.md); node ids are unsigned 32-bit.\n"
     "--verify cross-checks every commit against a full recompute",
     1, 2,
     {{"-o"}, {"--verify", Takes::kFlag}, {"--json", Takes::kFlag},
      {"--werror", Takes::kFlag}},
     cmdDelta},
    {"scan",
     "DIR|MANIFEST --keys RING [--json] [-o FILE] [--shard I/N]\n"
     "[--cache DIR] [--no-cache] [--no-prefilter]",
     "find every (design, certificate) match between a corpus and a key\n"
     "ring; a sound fingerprint pre-filter leaves exact replay to the\n"
     "survivors.  --json rows of the --shard I/N runs concatenate\n"
     "byte-identically.  See docs/CORPUS_SCAN.md",
     1, 1,
     {{"--keys"}, {"--json", Takes::kFlag}, {"-o"}, {"--shard"}, {"--cache"},
      {"--no-cache", Takes::kFlag}, {"--no-prefilter", Takes::kFlag}},
     cmdScan},
    {"version", "", "print version and build info", 0, 0, {}, cmdVersion},
};

/// The full usage, generated from the tables; exits 2.
[[noreturn]] void usage() {
  std::fputs("usage: locwm <command> [args]\n\ncommands:\n", stderr);
  for (const Command& command : kCommands) {
    printSynopsis(stderr, "  ", command);
    std::fputs("      ", stderr);
    printLines(stderr, command.help, 6);
  }
  std::fputs("\nglobal options (any command, before or after its name):\n",
             stderr);
  for (const GlobalOption& global : kGlobalOptions) {
    if (global.usage != nullptr) {
      std::fprintf(stderr, "  %-16s", global.usage);
      printLines(stderr, global.help, 18);
    }
  }
  std::fputs(
      "\nUnknown options and malformed numbers are usage errors.\n"
      "\nexit codes:\n"
      "  0  success; for detect commands: at least one mark detected\n"
      "  1  detect commands: no mark detected (verify-cert: invalid\n"
      "     cert; lint/diff/delta: errors found, or warnings with --werror)\n"
      "  2  usage or I/O error\n"
      "\nenvironment:\n"
      "  LOCWM_CHECK_PASSES=1  audit every embed/detect pass product with\n"
      "                        the lint rules (findings go to stderr)\n",
      stderr);
  std::exit(2);
}

/// Global options may also precede the command name: `locwm --threads 4
/// scan …` means `locwm scan --threads 4 …`.  Returns argv with those
/// options moved behind the command name; a leading argument that is not
/// a global option is taken as the command name.
std::vector<char*> commandFirst(int argc, char** argv) {
  std::vector<char*> leading;
  int i = 1;
  while (i < argc) {
    const Option* global = findGlobal(argv[i]);
    const int width =
        global == nullptr ? 0 : (global->takes == Takes::kFlag ? 1 : 2);
    if (width == 0 || i + width >= argc) {
      break;  // the command name (or a usage error parseArgs reports)
    }
    leading.insert(leading.end(), argv + i, argv + i + width);
    i += width;
  }
  std::vector<char*> out{argv[0]};
  out.insert(out.end(), argv + i, argv + std::min(i + 1, argc));
  out.insert(out.end(), leading.begin(), leading.end());
  out.insert(out.end(), argv + std::min(i + 1, argc), argv + argc);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> reordered = commandFirst(argc, argv);
  argc = static_cast<int>(reordered.size());
  argv = reordered.data();
  if (argc < 2) {
    usage();
  }
  const std::string name =
      std::strcmp(argv[1], "--version") == 0 ? "version" : argv[1];
  const Command* command = nullptr;
  for (const Command& c : kCommands) {
    if (name == c.name) {
      command = &c;
    }
  }
  if (command == nullptr) {
    std::fprintf(stderr, "locwm: unknown command '%s'\n\n", name.c_str());
    usage();
  }
  const Args args = parseArgs(*command, argc, argv);

  g_quiet = args.has("-q") || args.has("--quiet");
  rt::setThreadCount(args.number("--threads", 0));
  const std::optional<std::string> trace_path = args.get("--trace");
  const std::optional<std::string> stats_path = args.get("--stats");
  const std::optional<std::string> metrics_path = args.get("--metrics");
  const std::optional<std::string> events_path = args.get("--events");
  const bool report = args.has("--report");
  if (trace_path || stats_path || metrics_path || events_path || report) {
    obs::setEnabled(true);
  }
  if (events_path && !obs::EventLog::instance().open(*events_path)) {
    die("cannot write events file '" + *events_path + "'");
  }
  check::installPassAuditFromEnv();

  int rc = 2;
  try {
    LOCWM_OBS_LATENCY("cli.command_ns");
    rc = command->run(args);
  } catch (const std::exception& e) {
    die(e.what());
  }

  if (metrics_path || events_path) {
    // Publish late-bound state before export: pool gauges even when every
    // region ran inline, and a final memory sample.
    rt::publishPoolMetrics();
    obs::sampleMemoryGauges();
  }
  if (trace_path &&
      !obs::TraceBuffer::instance().writeChromeTrace(*trace_path)) {
    die("cannot write trace file '" + *trace_path + "'");
  }
  if (stats_path && !obs::writeStatsJson(*stats_path)) {
    die("cannot write stats file '" + *stats_path + "'");
  }
  if (metrics_path && !obs::writeOpenMetrics(*metrics_path)) {
    die("cannot write metrics file '" + *metrics_path + "'");
  }
  if (events_path) {
    obs::EventLog::instance().emitMetricsSnapshot();
    obs::EventLog::instance().close();
  }
  if (report) {
    std::fprintf(stderr, "threads: %zu effective (of %zu hardware)\n",
                 rt::threadCount(), rt::hardwareThreads());
    obs::PassTimer::instance().printReport(stderr);
  }
  return rc;
}
