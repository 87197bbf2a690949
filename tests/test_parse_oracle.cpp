// The shared string_view cursor (cdfg/text.h) and the artifact parsers
// built on it, checked against std::istringstream: unit tests of the
// token rules, then a seeded differential mutation test of every format
// against the old istream readers kept in parse_oracles.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cdfg/io.h"
#include "cdfg/prng.h"
#include "cdfg/random_dfg.h"
#include "cdfg/text.h"
#include "check/linter.h"
#include "check/project.h"
#include "check/workspace.h"
#include "core/certificate_io.h"
#include "core/locality.h"
#include "core/reg_wm.h"
#include "core/sched_wm.h"
#include "core/tm_wm.h"
#include "parse_oracles.h"
#include "regbind/binding.h"
#include "regbind/binding_io.h"
#include "regbind/lifetime.h"
#include "scan/keyring.h"
#include "scan/fingerprint.h"
#include "sched/list_scheduler.h"
#include "sched/schedule_io.h"
#include "sched/timeframes.h"
#include "tm/library_io.h"
#include "workloads/hyper.h"

namespace locwm {
namespace {

// ---------------------------------------------------------------------------
// Token rules.

TEST(TextCursor, WhitespaceIsTheCLocaleSet) {
  text::Fields f(std::string_view(" \t\v\f\r\nab\0c d", 12));
  std::string_view a;
  std::string_view b;
  ASSERT_TRUE(f >> a >> b);
  EXPECT_EQ(a, std::string_view("ab\0c", 4));  // NUL is a word byte
  EXPECT_EQ(b, "d");
  EXPECT_FALSE(f >> a);
  EXPECT_EQ(a, std::string_view("ab\0c", 4));  // a failed field is untouched
}

TEST(TextCursor, NumberIsAWholeWord) {
  text::Fields f("12 007 12abc 5");
  std::uint32_t n = 0;
  std::uint32_t m = 0;
  ASSERT_TRUE(f >> n >> m);
  EXPECT_EQ(n, 12u);
  EXPECT_EQ(m, 7u);
  EXPECT_FALSE(f >> n);  // "12abc" is no number and fails the cursor
  EXPECT_EQ(n, 12u);
  for (const std::string_view word : {"0x1f", "1:2", "1.0", "", " "}) {
    EXPECT_FALSE(text::Fields(word) >> n) << "'" << word << "'";
  }
}

TEST(TextCursor, SignedWordsAreNoNumbers) {
  for (const std::string_view word :
       {"-1", "-4294967295", "+7", "-0", "+0", "-", "+"}) {
    std::uint32_t u32 = 3;
    std::size_t u64 = 3;
    EXPECT_FALSE(text::Fields(word) >> u32) << word;
    EXPECT_FALSE(text::Fields(word) >> u64) << word;
    EXPECT_EQ(u32, 3u);
    EXPECT_EQ(u64, 3u);
    EXPECT_FALSE(text::wholeNumber(word, u32)) << word;
  }
}

TEST(TextCursor, OverflowFailsAndFailureIsSticky) {
  text::Fields f("4294967296 5 x");
  std::uint32_t n = 3;
  std::uint32_t m = 9;
  std::string_view w;
  EXPECT_FALSE(f >> n);
  EXPECT_EQ(n, 3u);  // a failed field is untouched
  EXPECT_FALSE(f >> m >> w);
  EXPECT_EQ(m, 9u);
  // The range is the field's own.
  std::size_t u64 = 0;
  EXPECT_TRUE(text::Fields("4294967296") >> u64);
  EXPECT_EQ(u64, 4294967296u);
  EXPECT_TRUE(text::Fields("18446744073709551615") >> u64);
  EXPECT_EQ(u64, std::numeric_limits<std::size_t>::max());
  EXPECT_FALSE(text::Fields("18446744073709551616") >> u64);
  std::uint16_t u16 = 0;
  EXPECT_TRUE(text::wholeNumber("65535", u16));
  EXPECT_EQ(u16, 65535u);
  EXPECT_FALSE(text::wholeNumber("65536", u16));
  EXPECT_FALSE(text::wholeNumber("000000000000000000000065536", u16));
  EXPECT_TRUE(text::wholeNumber("000000000000000000000065535", u16));
}

TEST(TextCursor, RestKeepsTheUnreadText) {
  text::Fields f("context  a b\r");
  std::string_view w;
  ASSERT_TRUE(f >> w);
  EXPECT_EQ(f.rest(), "  a b\r");
}

TEST(TextCursor, LinesNumberLikeGetline) {
  const auto lines = [](std::string_view text) {
    std::vector<std::string_view> out;
    text::LineReader r(text);
    std::string_view line;
    while (r.next(line)) {
      out.push_back(line);
      EXPECT_EQ(r.lineno(), out.size());
    }
    return out;
  };
  EXPECT_TRUE(lines("").empty());
  EXPECT_EQ(lines("a"), (std::vector<std::string_view>{"a"}));
  EXPECT_EQ(lines("a\n"), (std::vector<std::string_view>{"a"}));
  EXPECT_EQ(lines("\n"), (std::vector<std::string_view>{""}));
  EXPECT_EQ(lines("a\n\nb\r"),
            (std::vector<std::string_view>{"a", "", "b\r"}));
}

/// One extraction from an istringstream and from a cursor, rendered: the
/// value when it succeeds, "fail" once failed.  The stream reads a word
/// and then applies the whole-word rule to it.
template <typename T>
void extractBoth(std::istringstream& is, text::Fields& f, std::string& a,
                 std::string& b) {
  T x{};
  T y{};
  a += oracle::readNumber(is, x, oracle::NumberRule::kWholeWord)
           ? std::to_string(x) + ";"
           : "fail;";
  b += (f >> y) ? std::to_string(y) + ";" : "fail;";
}

TEST(TextCursor, MatchesIstringstreamOnRandomLines) {
  static constexpr std::array<std::string_view, 15> kPieces = {
      "0",  "7",  "-",    "+",          "12abc", "4294967295", "4294967296",
      " ",  "\t", "\v\r", "x",          ":",     "-1",
      "18446744073709551616", "65536"};
  cdfg::SplitMix64 rng(2024);
  for (int round = 0; round < 4000; ++round) {
    std::string line;
    const std::size_t pieces = 1 + rng.below(8);
    for (std::size_t k = 0; k < pieces; ++k) {
      line += kPieces[rng.below(kPieces.size())];
    }
    std::istringstream is(line);
    text::Fields f(line);
    std::string a;
    std::string b;
    for (int op = 0; op < 4; ++op) {
      switch (rng.below(4)) {
        case 0:
          extractBoth<std::uint32_t>(is, f, a, b);
          break;
        case 1:
          extractBoth<std::size_t>(is, f, a, b);
          break;
        case 2:
          extractBoth<std::uint16_t>(is, f, a, b);
          break;
        default: {
          std::string x;
          std::string_view y;
          a += (is >> x) ? x + ";" : "fail;";
          b += (f >> y) ? std::string(y) + ";" : "fail;";
          break;
        }
      }
    }
    ASSERT_EQ(a, b) << "line '" << line << "'";
  }
}

// ---------------------------------------------------------------------------
// The seeded mutator.

const std::string kExampleDir =
    std::string(LOCWM_SOURCE_DIR) + "/examples/artifacts";

std::string readExample(const std::string& name) {
  std::ifstream in(kExampleDir + "/" + name);
  EXPECT_TRUE(in) << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

using oracle::Mutator;

/// "ok\n<rendering>" or "error\n<message>" — what a parse produced.
/// Anything thrown that is not a locwm::Error renders as "foreign", which
/// never matches, so it fails the comparison.
std::string outcome(const std::function<std::string()>& parse) {
  try {
    return "ok\n" + parse();
  } catch (const Error& e) {
    return std::string("error\n") + e.what();
  } catch (const std::exception& e) {
    return std::string("foreign\n") + e.what();
  }
}

std::string printable(const std::string& text) {
  std::string out;
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '\n') {
      out += "\\n\n";
    } else if (u < 0x20 || u >= 0x7f) {
      out += "\\x" + std::string(1, "0123456789abcdef"[u >> 4]) +
             std::string(1, "0123456789abcdef"[u & 15]);
    } else {
      out += c;
    }
  }
  return out;
}

constexpr int kMutants = 2000;

using Render = std::function<std::string(const std::string&)>;

/// Runs kMutants mutants of `seeds` through `library` and `oracle` (each
/// renders the parse, or throws) and expects identical outcomes.
void differential(const std::vector<std::string>& seeds, std::uint64_t seed,
                  const Render& library, const Render& oracle) {
  Mutator mutator(seed);
  int accepted = 0;
  for (int k = 0; k < kMutants; ++k) {
    const std::string text = mutator.mutate(seeds);
    const std::string got = outcome([&] { return library(text); });
    const std::string want = outcome([&] { return oracle(text); });
    ASSERT_EQ(got, want) << "mutant " << k << ":\n" << printable(text);
    accepted += got.rfind("ok", 0) == 0 ? 1 : 0;
  }
  // The mutants must exercise both outcomes to mean anything.
  EXPECT_GT(accepted, kMutants / 50);
  EXPECT_LT(accepted, kMutants);
}

/// True when `text` carries a word that the old number rule read as a
/// number, or part of one, and the one rule rejects: a sign before a digit
/// ("-1", "+7"), a digit followed by another byte ("12abc", "0x1f", and
/// also every "<a>:<b>" pair), or a digit run beyond 32 bits.
bool bendsANumber(const std::string& text) {
  std::istringstream is(text);
  for (std::string w; is >> w;) {
    const std::size_t first = w[0] == '+' || w[0] == '-' ? 1 : 0;
    if (first >= w.size() || w[first] < '0' || w[first] > '9') {
      continue;
    }
    std::uint32_t v = 0;
    if (first == 1 || !text::wholeNumber(w, v)) {
      return true;
    }
  }
  return false;
}

/// Runs kMutants mutants of `seeds` through an oracle under a changed rule
/// (`now`) and under the old one (`was`): they must differ on some mutant,
/// and wherever they differ the new rule must reject with a message that
/// holds one of `why`.  With `explains`, every mutant the old rule accepted
/// and the new one rejects must satisfy it; where both reject, only the
/// wording may differ.
void ruleChangeOnlyRejects(
    const std::vector<std::string>& seeds, std::uint64_t seed,
    const Render& now, const Render& was, const std::vector<std::string>& why,
    const std::function<bool(const std::string&)>& explains = {}) {
  Mutator mutator(seed);
  int diverged = 0;
  for (int k = 0; k < kMutants; ++k) {
    const std::string t = mutator.mutate(seeds);
    const std::string a = outcome([&] { return now(t); });
    const std::string b = outcome([&] { return was(t); });
    if (a != b) {
      ++diverged;
      EXPECT_EQ(a.rfind("error\n", 0), 0u) << a << "\nmutant:\n" << printable(t);
      EXPECT_TRUE(std::any_of(why.begin(), why.end(),
                              [&](const std::string& w) {
                                return a.find(w) != std::string::npos;
                              }))
          << a << "\nvs.\n" << b << "\nmutant:\n" << printable(t);
      EXPECT_TRUE(!explains || b.rfind("ok\n", 0) != 0 || explains(t))
          << a << "\nvs.\n" << b << "\nmutant:\n" << printable(t);
    }
  }
  EXPECT_GT(diverged, 0);
}

/// ruleChangeOnlyRejects for the number rule: `parse(text, rule)` under the
/// one rule and the old one, every newly rejected mutant carrying a word
/// that bends a number (or satisfying `explains`, when given).
void numberRuleOnlyRejects(
    const std::vector<std::string>& seeds, std::uint64_t seed,
    const std::function<std::string(const std::string&, oracle::NumberRule)>&
        parse,
    const std::vector<std::string>& why,
    const std::function<bool(const std::string&)>& explains = bendsANumber) {
  ruleChangeOnlyRejects(
      seeds, seed,
      [&](const std::string& t) {
        return parse(t, oracle::NumberRule::kWholeWord);
      },
      [&](const std::string& t) { return parse(t, oracle::NumberRule::kOld); },
      why, explains);
}

/// True when an `op` line of library `text` has a word after its operation
/// that is no number: the old reader ended the child list there, the one
/// rule rejects the line.
bool hasNonNumberChild(const std::string& text) {
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream ls(line.substr(0, line.find('#')));
    std::string word;
    std::vector<std::string> words;
    while (ls >> word) {
      words.push_back(word);
    }
    std::size_t child = 0;
    for (std::size_t k = 3; k < words.size() && words[0] == "op"; ++k) {
      if (!text::wholeNumber(words[k], child)) {
        return true;
      }
    }
  }
  return false;
}

// Renderings of parsed objects and issue lists.

std::string render(const std::vector<cdfg::ParseIssue>& issues) {
  std::string out;
  for (const auto& i : issues) {
    out += std::to_string(static_cast<int>(i.kind)) + " " +
           std::to_string(i.line) + " " + std::to_string(i.src) + " " +
           std::to_string(i.dst) + " " +
           std::string(cdfg::edgeKindName(i.edge_kind)) + " " + i.path + "\n";
  }
  return out;
}

std::string render(const sched::Schedule& s,
                   const std::vector<sched::ScheduleParseIssue>& issues) {
  std::string out;
  for (std::uint32_t v = 0; v < s.nodeCount(); ++v) {
    const cdfg::NodeId n{v};
    out += s.isSet(n) ? std::to_string(s.at(n)) + " " : "- ";
  }
  out += "\n";
  for (const auto& i : issues) {
    out += std::to_string(i.line) + " " + std::to_string(i.node) + " " +
           std::to_string(i.step) + " " + i.path + "\n";
  }
  return out;
}

std::string render(const regbind::Binding& b,
                   const std::vector<regbind::BindingParseIssue>& issues) {
  std::string out = std::to_string(b.register_count) + ":";
  for (const std::uint32_t r : b.reg_of) {
    out += " " + std::to_string(r);
  }
  out += "\n";
  for (const auto& i : issues) {
    out += std::to_string(i.line) + " " + i.what + " " + i.path + "\n";
  }
  return out;
}

std::string render(const std::vector<tm::Matching>& cover,
                   const std::vector<tm::CoverParseIssue>& issues) {
  std::string out = tm::coverToString(cover);
  for (const auto& i : issues) {
    out += std::to_string(i.line) + " " + i.what + " " + i.path + "\n";
  }
  return out;
}

std::string render(const std::optional<scan::DesignIndex>& index) {
  if (!index) {
    return "nullopt";
  }
  std::string out = scan::indexToString(*index);
  for (const auto& fp : index->kind_union) {
    out += std::to_string(fp.bits[0]) + ":" + std::to_string(fp.bits[1]) + " ";
  }
  return out;
}

// Seeds: the checked-in example corpus plus freshly printed artifacts.

cdfg::Cdfg randomDesign(std::uint64_t seed) {
  cdfg::RandomDfgOptions options;
  options.operations = 30;
  options.inputs = 4;
  options.width = 5;
  return cdfg::randomDfg(options, seed);
}

cdfg::Cdfg exampleDesign() {
  return cdfg::parseString(readExample("marked.cdfg"));
}

std::vector<std::string> designSeeds() {
  return {readExample("design.cdfg"), readExample("marked.cdfg"),
          cdfg::printToString(randomDesign(1)),
          cdfg::printToString(randomDesign(2))};
}

const crypto::AuthorSignature kAuthor{"oracle", "parse"};

wm::WatermarkCertificate schedCertificate() {
  cdfg::Cdfg g = workloads::waveFilter(8);
  wm::SchedulingWatermarker marker(kAuthor);
  wm::SchedWmParams params;
  params.locality.min_size = 5;
  params.min_eligible = 3;
  params.deadline =
      sched::TimeFrames(g, params.latency).criticalPathSteps() + 3;
  const auto r = marker.embed(g, params);
  EXPECT_TRUE(r.has_value());
  return r->certificate;
}

wm::TmCertificate tmCertificate() {
  const cdfg::Cdfg g = workloads::lattice(6);
  const tm::TemplateLibrary lib = tm::TemplateLibrary::basicDsp();
  wm::TemplateWatermarker marker(kAuthor, lib);  // keeps a reference
  wm::TmWmParams params;
  params.whole_design = true;
  params.z_explicit = 2;
  params.beta = 0.0;
  const auto r = marker.embed(g, params);
  EXPECT_TRUE(r.has_value());
  return r->certificate;
}

wm::RegCertificate regCertificate() {
  const cdfg::Cdfg g = workloads::waveFilter(8);
  wm::RegisterWatermarker marker(kAuthor);
  wm::RegWmParams params;
  params.locality.min_size = 5;
  const auto r = marker.embed(g, sched::listSchedule(g), params);
  EXPECT_TRUE(r.has_value());
  return r->certificate;
}

// ---------------------------------------------------------------------------
// Differential tests: library parser vs. istream oracle on every mutant.

// Each format is read the same by its library parser and by its oracle
// under the one number rule; the oracle under the old rule differs from
// it only by rejecting, with a malformed-field message, mutants that carry
// a word the old rule bent into another number.

using oracle::NumberRule;

TEST(ParseOracle, Design) {
  const auto seeds = designSeeds();
  const auto oracleRun = [](const std::string& t, bool lenient,
                            NumberRule rule) {
    std::istringstream is(t);
    std::vector<cdfg::ParseIssue> issues;
    const cdfg::Cdfg g = oracle::parseDesign(
        is, lenient ? &issues : nullptr, lenient ? "m.cdfg" : "", rule);
    return cdfg::printToString(g) + render(issues);
  };
  for (const bool lenient : {false, true}) {
    differential(
        seeds, lenient ? 2 : 1,
        [&](const std::string& t) {
          std::vector<cdfg::ParseIssue> issues;
          const cdfg::Cdfg g = lenient
                                   ? cdfg::parseString(t, issues, "m.cdfg")
                                   : cdfg::parseString(t);
          return cdfg::printToString(g) + render(issues);
        },
        [&](const std::string& t) {
          return oracleRun(t, lenient, NumberRule::kWholeWord);
        });
    numberRuleOnlyRejects(
        seeds, lenient ? 62 : 61,
        [&](const std::string& t, NumberRule rule) {
          return oracleRun(t, lenient, rule);
        },
        {"malformed node line", "malformed edge line"});
  }
}

TEST(ParseOracle, Schedule) {
  const cdfg::Cdfg example = exampleDesign();
  const cdfg::Cdfg random = randomDesign(3);
  const std::vector<std::string> seeds = {
      readExample("schedule.txt"),
      sched::scheduleToString(random, sched::listSchedule(random)),
      "# leading comment\n0 1\n1 2 # trailing comment\n\n2 3\n"};
  const std::size_t n = example.nodeCount();
  const auto oracleRun = [&](const std::string& t, bool lenient,
                             oracle::ScheduleLine line, NumberRule rule) {
    std::istringstream is(t);
    std::vector<sched::ScheduleParseIssue> issues;
    const auto s = oracle::parseSchedule(is, n, lenient ? &issues : nullptr,
                                         lenient ? "m.sched" : "", line,
                                         rule);
    return render(s, issues);
  };
  using oracle::ScheduleLine;
  for (const bool lenient : {false, true}) {
    differential(
        seeds, lenient ? 4 : 3,
        [&](const std::string& t) {
          std::vector<sched::ScheduleParseIssue> issues;
          const auto s =
              lenient ? sched::parseScheduleString(t, n, issues, "m.sched")
                      : sched::parseScheduleString(t, n);
          return render(s, issues);
        },
        [&](const std::string& t) {
          return oracleRun(t, lenient, ScheduleLine::kReject,
                           NumberRule::kWholeWord);
        });
    numberRuleOnlyRejects(
        seeds, lenient ? 14 : 13,
        [&](const std::string& t, NumberRule rule) {
          return oracleRun(t, lenient, ScheduleLine::kReject, rule);
        },
        {": malformed entry '"});
    // A line that opens with a non-number, which the first rule read as
    // blank, is rejected too; nothing else differs.
    ruleChangeOnlyRejects(
        seeds, lenient ? 12 : 11,
        [&](const std::string& t) {
          return oracleRun(t, lenient, ScheduleLine::kReject,
                           NumberRule::kOld);
        },
        [&](const std::string& t) {
          return oracleRun(t, lenient, ScheduleLine::kSkip, NumberRule::kOld);
        },
        {": malformed entry '"});
  }
}

TEST(ParseOracle, Binding) {
  const cdfg::Cdfg example = exampleDesign();
  const regbind::LifetimeTable table = regbind::computeLifetimes(
      example, sched::parseScheduleString(readExample("schedule.txt"),
                                          example.nodeCount()));
  const std::vector<std::string> seeds = {
      readExample("binding.txt"),
      regbind::bindingToString(table, regbind::bindRegisters(table))};
  const auto oracleRun = [&](const std::string& t, bool lenient,
                             NumberRule rule) {
    std::istringstream is(t);
    std::vector<regbind::BindingParseIssue> issues;
    const auto b = oracle::parseBinding(is, table, lenient ? &issues : nullptr,
                                        lenient ? "m.bind" : "", rule);
    return render(b, issues);
  };
  for (const bool lenient : {false, true}) {
    differential(
        seeds, lenient ? 6 : 5,
        [&](const std::string& t) {
          std::vector<regbind::BindingParseIssue> issues;
          const auto b =
              lenient ? regbind::parseBindingString(t, table, issues, "m.bind")
                      : regbind::parseBindingString(t, table);
          return render(b, issues);
        },
        [&](const std::string& t) {
          return oracleRun(t, lenient, NumberRule::kWholeWord);
        });
    numberRuleOnlyRejects(
        seeds, lenient ? 8 : 7,
        [&](const std::string& t, NumberRule rule) {
          return oracleRun(t, lenient, rule);
        },
        {": malformed entry '", ": malformed register '",
         "missing 'registers N' header"});
  }
}

template <typename Cert>
using CertOracle = std::function<Cert(std::istream&, wm::CertValidation,
                                      const std::string&, NumberRule)>;

/// The library's certificate parser against its oracle, and the oracle's
/// one number rule against its old one, strict and lenient.
template <typename Cert>
void certificateDifferential(
    const std::vector<std::string>& seeds, std::uint64_t seed,
    Cert (*library)(std::string_view, wm::CertValidation, const std::string&),
    const CertOracle<Cert>& reference) {
  for (const wm::CertValidation v :
       {wm::CertValidation::kStrict, wm::CertValidation::kLenient}) {
    const std::string source =
        v == wm::CertValidation::kLenient ? "m.cert" : "";
    const auto oracleRun = [&](const std::string& t, NumberRule rule) {
      std::istringstream is(t);
      return wm::certificateToString(reference(is, v, source, rule));
    };
    differential(
        seeds, seed + static_cast<std::uint64_t>(v),
        [&](const std::string& t) {
          return wm::certificateToString(library(t, v, source));
        },
        [&](const std::string& t) {
          return oracleRun(t, NumberRule::kWholeWord);
        });
    numberRuleOnlyRejects(seeds, seed + 5 + static_cast<std::uint64_t>(v),
                          oracleRun, {"malformed "});
  }
}

TEST(ParseOracle, SchedCertificate) {
  certificateDifferential<wm::WatermarkCertificate>(
      {readExample("sched.cert"), wm::certificateToString(schedCertificate())},
      10, wm::parseSchedCertificate, oracle::parseSchedCertificate);
}

TEST(ParseOracle, TmCertificate) {
  certificateDifferential<wm::TmCertificate>(
      {readExample("tm.cert"), wm::certificateToString(tmCertificate())}, 20,
      wm::parseTmCertificate, oracle::parseTmCertificate);
}

TEST(ParseOracle, RegCertificate) {
  certificateDifferential<wm::RegCertificate>(
      {readExample("reg.cert"), wm::certificateToString(regCertificate())},
      30, wm::parseRegCertificate, oracle::parseRegCertificate);
}

TEST(ParseOracle, LibraryAndCover) {
  const std::vector<std::string> lib_seeds = {
      readExample("library.tmlib"),
      tm::libraryToString(tm::TemplateLibrary::basicDsp())};
  const auto libraryOracle = [](const std::string& t, NumberRule rule) {
    std::istringstream is(t);
    return tm::libraryToString(oracle::parseLibrary(is, rule));
  };
  differential(
      lib_seeds, 40,
      [](const std::string& t) {
        return tm::libraryToString(tm::parseLibraryString(t));
      },
      [&](const std::string& t) {
        return libraryOracle(t, NumberRule::kWholeWord);
      });
  numberRuleOnlyRejects(
      lib_seeds, 47, libraryOracle, {"malformed op line", "malformed child '"},
      [](const std::string& t) {
        return bendsANumber(t) || hasNonNumberChild(t);
      });

  const tm::TemplateLibrary lib =
      tm::parseLibraryString(readExample("library.tmlib"));
  const std::size_t n = exampleDesign().nodeCount();
  const std::vector<std::string> cover_seeds = {
      readExample("cover.txt"),
      "tmcover v1\nsingle 0\nuse 0 1:0 2:1 # comment\nsingle 3\n"};
  const auto oracleRun = [&](const std::string& t, bool lenient,
                             NumberRule rule, oracle::CoverOrder order) {
    std::istringstream is(t);
    std::vector<tm::CoverParseIssue> issues;
    const auto c = oracle::parseCover(is, lib, n, lenient ? &issues : nullptr,
                                      "m.cover", rule, order);
    return render(c, issues);
  };
  using oracle::CoverOrder;
  for (const bool lenient : {false, true}) {
    // The library checks a line's syntax before its context...
    differential(
        cover_seeds, lenient ? 42 : 41,
        [&](const std::string& t) {
          std::vector<tm::CoverParseIssue> issues;
          const auto c =
              lenient ? tm::parseCoverString(t, lib, n, issues, "m.cover")
                      : tm::parseCoverString(t, lib, n);
          return render(c, issues);
        },
        [&](const std::string& t) {
          return oracleRun(t, lenient, NumberRule::kWholeWord,
                           CoverOrder::kSyntaxFirst);
        });
    // ...which differs from checking the context first only by rejecting,
    // as a syntax error, a line the old order dropped or range-failed.
    ruleChangeOnlyRejects(
        cover_seeds, lenient ? 46 : 45,
        [&](const std::string& t) {
          return oracleRun(t, lenient, NumberRule::kWholeWord,
                           CoverOrder::kSyntaxFirst);
        },
        [&](const std::string& t) {
          return oracleRun(t, lenient, NumberRule::kWholeWord,
                           CoverOrder::kContextFirst);
        },
        {"template-io parse error at line "});
    numberRuleOnlyRejects(
        cover_seeds, lenient ? 44 : 43,
        [&](const std::string& t, NumberRule rule) {
          return oracleRun(t, lenient, rule, CoverOrder::kContextFirst);
        },
        {"malformed 'single'", "malformed 'use'", ": malformed pair '"});
  }
}

TEST(ParseOracle, FingerprintIndex) {
  std::vector<std::string> seeds;
  for (const std::uint64_t s : {5u, 6u}) {
    const cdfg::Cdfg g = randomDesign(s);
    seeds.push_back(
        scan::indexToString(scan::buildDesignIndex(wm::LocalityDeriver(g), 3)));
  }
  // An index parse returns nullopt rather than throwing; the differential
  // still needs both outcomes, so "nullopt" counts as the rejecting one.
  Mutator mutator(50);
  int accepted = 0;
  int diverged = 0;
  for (int k = 0; k < kMutants; ++k) {
    const std::string t = mutator.mutate(seeds);
    const std::string got = render(scan::parseIndex(t));
    ASSERT_EQ(got, render(oracle::parseIndex(t)))
        << "mutant " << k << ":\n" << printable(t);
    accepted += got != "nullopt" ? 1 : 0;
    if (got != render(oracle::parseIndex(t, NumberRule::kOld))) {
      ++diverged;
      EXPECT_EQ(got, "nullopt") << printable(t);
      EXPECT_TRUE(bendsANumber(t)) << printable(t);
    }
  }
  EXPECT_GT(accepted, kMutants / 50);
  EXPECT_LT(accepted, kMutants);
  EXPECT_GT(diverged, 0);
}

// ---------------------------------------------------------------------------
// Binding node words: a numeric prefix or a value beyond 32 bits no
// longer aliases another node.

TEST(BindingIo, NodeWordMustBeAWhole32BitNumber) {
  const cdfg::Cdfg example = exampleDesign();
  const std::string schedule = readExample("schedule.txt");
  const regbind::LifetimeTable table = regbind::computeLifetimes(
      example, sched::parseScheduleString(schedule, example.nodeCount()));
  const std::string binding = readExample("binding.txt");
  EXPECT_NO_THROW((void)regbind::parseBindingString(binding, table));
  for (const std::string word : {"4294967296", "0abc", "-4294967295", "+1"}) {
    const std::string text = binding + word + " 0\n";
    const auto last_line = std::count(text.begin(), text.end(), '\n');
    const std::string want = "binding parse error at line " +
                             std::to_string(last_line) + ": malformed entry '" +
                             word + "'";
    try {
      (void)regbind::parseBindingString(text, table);
      ADD_FAILURE() << "strict parse accepted '" << word << "'";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.what(), want);
    }
    std::vector<regbind::BindingParseIssue> issues;
    try {
      (void)regbind::parseBindingString(text, table, issues, "b.txt");
      ADD_FAILURE() << "lenient parse accepted '" << word << "'";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.what(), "b.txt: " + want);
    }
    // The linter reports it instead of a clean run.
    check::Linter linter;
    linter.lintText(readExample("marked.cdfg"), "marked.cdfg");
    linter.lintText(schedule, "schedule.txt");
    linter.lintText(text, "binding.txt");
    const check::Report& report = linter.report();
    EXPECT_EQ(report.count(check::Severity::kError), 1u) << report.renderText();
    EXPECT_NE(report.renderText().find("malformed entry '" + word + "'"),
              std::string::npos)
        << report.renderText();
  }
}

// ---------------------------------------------------------------------------
// Pair sides: each side of a cover or tm-certificate pair is a whole
// 32-bit number, so a node or rank beyond 32 bits no longer aliases
// another (4294967315 once read as 19).

/// `text` with its first occurrence of `from` replaced by `to`.
std::string replaceFirst(std::string text, const std::string& from,
                         const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

/// Expects `parse` to throw a ParseError that mentions `needle`.
void expectRejected(const std::function<void()>& parse,
                    const std::string& needle, const std::string& what) {
  try {
    parse();
    ADD_FAILURE() << what << " accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << what << ": " << e.what();
  }
}

/// Lints `artifacts` (name, text) in order; expects one error naming
/// `needle`.
void expectLintError(
    const std::vector<std::pair<std::string, std::string>>& artifacts,
    const std::string& needle) {
  check::Linter linter;
  for (const auto& [name, text] : artifacts) {
    linter.lintText(text, name);
  }
  const check::Report& report = linter.report();
  EXPECT_EQ(report.count(check::Severity::kError), 1u) << report.renderText();
  EXPECT_NE(report.renderText().find(needle), std::string::npos)
      << report.renderText();
}

const std::vector<std::string> kAliasingSides = {
    "4294967315:0", "19:4294967296", "19abc:0", "+19:0", "-1:0", "19:0:1"};

TEST(PairIo, CoverPairSidesMustBeWhole32BitNumbers) {
  const tm::TemplateLibrary lib =
      tm::parseLibraryString(readExample("library.tmlib"));
  const std::string design = readExample("design.cdfg");
  const std::size_t n = cdfg::parseString(design).nodeCount();
  const std::string cover = readExample("cover.txt");
  EXPECT_NO_THROW((void)tm::parseCoverString(cover, lib, n));
  for (const std::string& pair : kAliasingSides) {
    const std::string text = replaceFirst(cover, "24:0", pair);
    const std::string needle = "malformed pair '" + pair + "'";
    expectRejected([&] { (void)tm::parseCoverString(text, lib, n); }, needle,
                   "strict cover parse of '" + pair + "'");
    std::vector<tm::CoverParseIssue> issues;
    expectRejected(
        [&] { (void)tm::parseCoverString(text, lib, n, issues, "c.txt"); },
        needle, "lenient cover parse of '" + pair + "'");
    expectLintError({{"design.cdfg", design},
                     {"library.tmlib", readExample("library.tmlib")},
                     {"cover.txt", text}},
                    needle);
  }
}

TEST(PairIo, TmMatchingPairSidesMustBeWhole32BitNumbers) {
  const std::string cert = readExample("tm.cert");
  EXPECT_NO_THROW((void)wm::parseTmCertificate(cert));
  for (const std::string& pair : kAliasingSides) {
    const std::string text = replaceFirst(cert, "22:0", pair);
    const std::string needle = "malformed matching pair '" + pair + "'";
    for (const wm::CertValidation v :
         {wm::CertValidation::kStrict, wm::CertValidation::kLenient}) {
      expectRejected([&] { (void)wm::parseTmCertificate(text, v, "t.cert"); },
                     needle, "tm certificate parse of '" + pair + "'");
    }
    expectLintError({{"tm.cert", text}}, needle);
  }
}

// ---------------------------------------------------------------------------
// The key ring and the workspace manifest: seeded mutants must fail only
// in the ways each promises.

TEST(ParseFuzz, KeyRingThrowsOnlyLocwmErrors) {
  scan::KeyRing ring;
  ring.add({"alice", "demo"}, "sched.cert",
           wm::parseSchedCertificate(readExample("sched.cert")));
  ring.add({"Acme #1", "n \"1\" \\"}, "tm.cert",
           wm::parseTmCertificate(readExample("tm.cert")));
  ring.add({"a\tb", "n#2"}, "reg.cert",
           wm::parseRegCertificate(readExample("reg.cert")));
  const std::vector<std::string> seeds = {
      ring.toText(),
      "# ring\nlocwm-keyring v1\r\nkey alice demo sched.cert # c\r\n"
      "key \"Acme #1\" n1 \"tm.cert\"\n"};
  Mutator mutator(70);
  int loaded = 0;
  for (int k = 0; k < kMutants; ++k) {
    const std::string t = mutator.mutate(seeds);
    const std::string got = outcome([&] {
      return scan::KeyRing::fromText(t, "m.keyring", kExampleDir).toText();
    });
    ASSERT_NE(got.rfind("foreign\n", 0), 0u)
        << got << "\nmutant " << k << ":\n" << printable(t);
    loaded += got.rfind("ok\n", 0) == 0 ? 1 : 0;
  }
  EXPECT_GT(loaded, kMutants / 50);
  EXPECT_LT(loaded, kMutants);
}

TEST(ParseFuzz, ManifestGivesOnlyLoadDiagnostics) {
  const std::vector<std::string> seeds = {
      readExample("workspace.manifest"),
      "locwm-workspace v1 # header\nartifact design.cdfg\n"
      "artifact cover.txt design=design.cdfg\n"
      "artifact schedule.txt design=design.cdfg # pinned\n"};
  Mutator mutator(71);
  int clean = 0;
  for (int k = 0; k < kMutants; ++k) {
    const std::string t = mutator.mutate(seeds);
    const check::Workspace ws =
        check::Workspace::fromManifestText(t, "m.manifest", kExampleDir);
    for (const check::Diagnostic& d : ws.loadReport().diagnostics()) {
      // A manifest finding, or an artifact it names that cannot be read.
      EXPECT_TRUE(d.code == "LW801" ||
                  (d.code == "LW001" && d.message == "cannot open file"))
          << d.code << " " << d.message << "\nmutant " << k << ":\n"
          << printable(t);
    }
    clean += ws.loadReport().empty() ? 1 : 0;
  }
  EXPECT_GT(clean, kMutants / 50);
  EXPECT_LT(clean, kMutants);
}

// ---------------------------------------------------------------------------
// Number words: in every numeric field of every format, a signed, prefixed
// or out-of-range word is a parse error (LW001 in both lint modes), never
// another number.

struct NumberField {
  std::string file;     ///< example artifact holding the field
  std::string line;     ///< text of it around the field
  std::string bent;     ///< that text with '@' for the field's word
  std::string message;  ///< the parse error, '@' for the word
  bool wide = false;    ///< a 64-bit field (4294967296 fits)
};

const std::vector<NumberField> kNumberFields = {
    {"design.cdfg", "\nnode 3 cmul c1\n", "\nnode @ cmul c1\n",
     "malformed node line"},
    {"design.cdfg", "\nedge 0 2 data\n", "\nedge @ 2 data\n",
     "malformed edge line"},
    {"design.cdfg", "\nedge 0 2 data\n", "\nedge 0 @ data\n",
     "malformed edge line"},
    {"sched.cert", "\nparams 6 96 4\n", "\nparams @ 96 4\n",
     "malformed params"},
    {"sched.cert", "\nparams 6 96 4\n", "\nparams 6 96 @\n",
     "malformed params", true},
    {"sched.cert", "\nroot-rank 9\n", "\nroot-rank @\n",
     "malformed root-rank"},
    {"sched.cert", "\nconstraint 3 6\n", "\nconstraint @ 6\n",
     "malformed constraint"},
    {"sched.cert", "\nconstraint 3 6\n", "\nconstraint 3 @\n",
     "malformed constraint"},
    {"sched.cert", "\nshape-begin\ncdfg v1\nnode 0 sub\n",
     "\nshape-begin\ncdfg v1\nnode @ sub\n", "malformed node line"},
    {"tm.cert", "\nwhole-design 1\n", "\nwhole-design @\n",
     "malformed whole-design flag"},
    {"tm.cert", "\nmatching 6 22:0", "\nmatching @ 22:0",
     "malformed matching"},
    {"reg.cert", "\nroot-rank 6\n", "\nroot-rank @\n", "malformed root-rank"},
    {"reg.cert", "\nshare 1 5\n", "\nshare @ 5\n", "malformed share pair"},
    {"library.tmlib", "\n  op 0 add 1\n", "\n  op @ add 1\n",
     "malformed op line", true},
    {"library.tmlib", "\n  op 0 add 1\n", "\n  op 0 add @\n",
     "malformed child '@'", true},
    {"cover.txt", "\nsingle 2\n", "\nsingle @\n", "malformed 'single'"},
    {"cover.txt", "\nuse 6 24:0", "\nuse @ 24:0", "malformed 'use'"},
    {"binding.txt", "registers 10\n", "registers @\n",
     "missing 'registers N' header"},
    {"binding.txt", "\n1 1\n", "\n1 @\n", "malformed register '@'"},
};

/// The artifacts linted before `file`, as its context.
std::vector<std::string> lintContextOf(const std::string& file) {
  if (file == "cover.txt") {
    return {"design.cdfg", "library.tmlib"};
  }
  if (file == "binding.txt") {
    return {"marked.cdfg", "schedule.txt"};
  }
  return {};
}

/// Every parse of `file`'s format, strict and lenient, over `text`.
std::vector<std::function<void()>> parsesOf(const std::string& file,
                                            const std::string& text) {
  using V = wm::CertValidation;
  if (file == "design.cdfg") {
    return {[=] { (void)cdfg::parseString(text); },
            [=] {
              std::vector<cdfg::ParseIssue> issues;
              (void)cdfg::parseString(text, issues, file);
            }};
  }
  if (file == "sched.cert" || file == "tm.cert" || file == "reg.cert") {
    std::vector<std::function<void()>> out;
    for (const V v : {V::kStrict, V::kLenient}) {
      out.push_back([=] {
        if (file == "sched.cert") {
          (void)wm::parseSchedCertificate(text, v);
        } else if (file == "tm.cert") {
          (void)wm::parseTmCertificate(text, v);
        } else {
          (void)wm::parseRegCertificate(text, v);
        }
      });
    }
    return out;
  }
  if (file == "library.tmlib") {
    return {[=] { (void)tm::parseLibraryString(text); }};
  }
  if (file == "cover.txt") {
    const tm::TemplateLibrary lib =
        tm::parseLibraryString(readExample("library.tmlib"));
    const std::size_t n =
        cdfg::parseString(readExample("design.cdfg")).nodeCount();
    return {[=] { (void)tm::parseCoverString(text, lib, n); },
            [=] {
              std::vector<tm::CoverParseIssue> issues;
              (void)tm::parseCoverString(text, lib, n, issues, file);
            }};
  }
  const cdfg::Cdfg marked = exampleDesign();
  const regbind::LifetimeTable table = regbind::computeLifetimes(
      marked, sched::parseScheduleString(readExample("schedule.txt"),
                                         marked.nodeCount()));
  return {[=] { (void)regbind::parseBindingString(text, table); },
          [=] {
            std::vector<regbind::BindingParseIssue> issues;
            (void)regbind::parseBindingString(text, table, issues, file);
          }};
}

/// `text` with every '@' replaced by `word`.
std::string fill(std::string text, const std::string& word) {
  for (std::size_t at; (at = text.find('@')) != std::string::npos;) {
    text.replace(at, 1, word);
  }
  return text;
}

/// True when `report` holds an LW001 error on `path` naming `message`.
bool hasSyntaxError(const check::Report& report, const std::string& path,
                    const std::string& message) {
  std::istringstream lines(report.renderText());
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(path + ": error LW001: ", 0) == 0 &&
        line.find(message) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(NumberWords, EveryNumericFieldRejectsBentWords) {
  for (const NumberField& field : kNumberFields) {
    const std::string original = readExample(field.file);
    for (const auto& parse : parsesOf(field.file, original)) {
      EXPECT_NO_THROW(parse()) << field.file;
    }
    const std::string out_of_range =
        field.wide ? "18446744073709551616" : "4294967296";
    for (const std::string& word :
         {std::string("-4294967295"), std::string("+1"), std::string("1abc"),
          out_of_range}) {
      const std::string text =
          replaceFirst(original, field.line, fill(field.bent, word));
      const std::string message = fill(field.message, word);
      const std::string what = field.file + " '" + fill(field.bent, word) + "'";
      for (const auto& parse : parsesOf(field.file, text)) {
        expectRejected(parse, message, what);
      }
      check::Linter linter;
      check::Workspace ws;
      for (const std::string& name : lintContextOf(field.file)) {
        linter.lintText(readExample(name), name);
        ws.addArtifactText(name, readExample(name));
      }
      linter.lintText(text, field.file);
      ws.addArtifactText(field.file, text);
      EXPECT_TRUE(hasSyntaxError(linter.report(), field.file, message))
          << what << ":\n" << linter.report().renderText();
      const check::ProjectResult project = check::checkProject(ws);
      EXPECT_TRUE(hasSyntaxError(project.report, field.file, message))
          << what << ":\n" << project.report.renderText();
    }
  }
}

// ---------------------------------------------------------------------------
// CRLF certificates read as their LF originals.

/// `text` with every '\n' turned into "\r\n".
std::string crlf(const std::string& text) {
  std::string out;
  for (const char c : text) {
    out += c == '\n' ? std::string("\r\n") : std::string(1, c);
  }
  return out;
}

template <typename Cert>
void expectCrlfReadsAsLf(
    const std::string& text,
    Cert (*parse)(std::string_view, wm::CertValidation, const std::string&)) {
  for (const wm::CertValidation v :
       {wm::CertValidation::kStrict, wm::CertValidation::kLenient}) {
    const Cert lf = parse(text, v, {});
    Cert got;
    ASSERT_NO_THROW(got = parse(crlf(text), v, {}));
    EXPECT_EQ(wm::certificateToString(got), wm::certificateToString(lf));
    EXPECT_EQ(got.context, lf.context);
    EXPECT_EQ(got.context.find('\r'), std::string::npos);
  }
}

TEST(CertIoCrlf, EveryKindParsesToTheSameCertificate) {
  expectCrlfReadsAsLf(readExample("sched.cert"), wm::parseSchedCertificate);
  expectCrlfReadsAsLf(wm::certificateToString(schedCertificate()),
                      wm::parseSchedCertificate);
  expectCrlfReadsAsLf(readExample("tm.cert"), wm::parseTmCertificate);
  expectCrlfReadsAsLf(wm::certificateToString(tmCertificate()),
                      wm::parseTmCertificate);
  expectCrlfReadsAsLf(readExample("reg.cert"), wm::parseRegCertificate);
  expectCrlfReadsAsLf(wm::certificateToString(regCertificate()),
                      wm::parseRegCertificate);
  // Only one '\r' per line is a line end: "shape-end\r\r" still does not
  // close the shape block.
  const std::string doubled =
      replaceFirst(readExample("sched.cert"), "shape-end\n", "shape-end\r\r\n");
  expectRejected([&] { (void)wm::parseSchedCertificate(doubled); },
                 "unterminated shape block", "a shape-end with two '\\r'");
}

}  // namespace
}  // namespace locwm
