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
#include "core/certificate_io.h"
#include "core/locality.h"
#include "core/reg_wm.h"
#include "core/sched_wm.h"
#include "core/tm_wm.h"
#include "parse_oracles.h"
#include "regbind/binding.h"
#include "regbind/binding_io.h"
#include "regbind/lifetime.h"
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

TEST(TextCursor, NumberTakesTheLongestDigitPrefix) {
  text::Fields f("12abc 0x1f");
  std::uint32_t n = 0;
  std::string_view w;
  ASSERT_TRUE(f >> n >> w);
  EXPECT_EQ(n, 12u);
  EXPECT_EQ(w, "abc");
  ASSERT_TRUE(f >> n >> w);
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(w, "x1f");
}

TEST(TextCursor, UnsignedFieldsWrapNegativeValues) {
  std::uint32_t u32 = 0;
  std::size_t u64 = 0;
  EXPECT_TRUE(text::Fields("-1") >> u32);
  EXPECT_EQ(u32, std::numeric_limits<std::uint32_t>::max());
  EXPECT_TRUE(text::Fields("-4294967295") >> u32);
  EXPECT_EQ(u32, 1u);
  EXPECT_TRUE(text::Fields("-1") >> u64);
  EXPECT_EQ(u64, std::numeric_limits<std::size_t>::max());
  EXPECT_TRUE(text::Fields("+7") >> u32);
  EXPECT_EQ(u32, 7u);
}

TEST(TextCursor, OverflowFailsAndFailureIsSticky) {
  text::Fields f("4294967296 5 x");
  std::uint32_t n = 0;
  std::uint32_t m = 9;
  std::string_view w;
  EXPECT_FALSE(f >> n);
  EXPECT_EQ(n, std::numeric_limits<std::uint32_t>::max());
  EXPECT_FALSE(f >> m >> w);
  EXPECT_EQ(m, 9u);
  EXPECT_FALSE(text::Fields("-4294967296") >> n);
  int i = 0;
  EXPECT_TRUE(text::Fields("-2147483648") >> i);
  EXPECT_EQ(i, std::numeric_limits<int>::min());
  EXPECT_FALSE(text::Fields("2147483648") >> i);
  EXPECT_FALSE(text::Fields("-") >> i);
  EXPECT_EQ(i, 0);
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
/// value when it succeeds, "fail" once failed.
template <typename T>
void extractBoth(std::istringstream& is, text::Fields& f, std::string& a,
                 std::string& b) {
  T x{};
  T y{};
  a += (is >> x) ? std::to_string(x) + ";" : "fail;";
  b += (f >> y) ? std::to_string(y) + ";" : "fail;";
}

TEST(TextCursor, MatchesIstringstreamOnRandomLines) {
  static constexpr std::array<std::string_view, 14> kPieces = {
      "0",  "7",  "-",    "+",          "12abc", "4294967295", "4294967296",
      " ",  "\t", "\v\r", "x",          ":",     "-1",
      "18446744073709551616"};
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
          extractBoth<int>(is, f, a, b);
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

std::string readExample(const std::string& name) {
  std::ifstream in(std::string(LOCWM_SOURCE_DIR) + "/examples/artifacts/" +
                   name);
  EXPECT_TRUE(in) << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Byte flips, truncations, splices of two seeds, token swaps, line drops
/// and duplications, and injected tokens chosen to probe the istream
/// quirks: signs, wrap-around, overflow, numeric prefixes, \r, \v, NUL.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(const std::vector<std::string>& seeds) {
    std::string text = seeds[rng_.below(seeds.size())];
    const std::size_t ops = 1 + rng_.below(3);
    for (std::size_t k = 0; k < ops; ++k) {
      text = apply(text, seeds[rng_.below(seeds.size())]);
    }
    return text;
  }

 private:
  static constexpr std::array<std::string_view, 14> kInjected = {
      "-1", "+7", "4294967296", "12abc", "\r", "\v",
      std::string_view("\0", 1), "-4294967295", "-4294967297",
      "18446744073709551616", "0x1f", "#", "\n", " "};

  std::size_t pos(const std::string& t) { return rng_.below(t.size() + 1); }

  /// [begin, end) of every whitespace-delimited token.
  static std::vector<std::pair<std::size_t, std::size_t>> tokens(
      const std::string& t) {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    std::size_t i = 0;
    while (i < t.size()) {
      while (i < t.size() && text::isSpace(t[i])) {
        ++i;
      }
      const std::size_t b = i;
      while (i < t.size() && !text::isSpace(t[i])) {
        ++i;
      }
      if (i > b) {
        out.emplace_back(b, i);
      }
    }
    return out;
  }

  std::string apply(std::string t, const std::string& other) {
    const auto toks = tokens(t);
    switch (rng_.below(8)) {
      case 0: {  // byte flip
        if (!t.empty()) {
          t[rng_.below(t.size())] = static_cast<char>(rng_.below(256));
        }
        return t;
      }
      case 1:  // truncation
        return t.substr(0, pos(t));
      case 2:  // splice: a prefix of this seed, a suffix of another
        return t.substr(0, pos(t)) + other.substr(rng_.below(other.size() + 1));
      case 3: {  // token swap
        if (toks.size() < 2) {
          return t;
        }
        auto a = toks[rng_.below(toks.size())];
        auto b = toks[rng_.below(toks.size())];
        if (a.first > b.first) {
          std::swap(a, b);
        }
        if (a.first == b.first) {
          return t;
        }
        return t.substr(0, a.first) + t.substr(b.first, b.second - b.first) +
               t.substr(a.second, b.first - a.second) +
               t.substr(a.first, a.second - a.first) + t.substr(b.second);
      }
      case 4: {  // replace a token with an injected one
        const std::string_view inj = kInjected[rng_.below(kInjected.size())];
        if (toks.empty()) {
          return t + std::string(inj);
        }
        const auto [b, e] = toks[rng_.below(toks.size())];
        return t.substr(0, b) + std::string(inj) + t.substr(e);
      }
      case 5: {  // insert an injected token anywhere
        const std::size_t p = pos(t);
        return t.substr(0, p) +
               std::string(kInjected[rng_.below(kInjected.size())]) +
               t.substr(p);
      }
      case 6: {  // append an injected token to a token ("5" -> "5abc")
        if (toks.empty()) {
          return t;
        }
        const std::size_t e = toks[rng_.below(toks.size())].second;
        const std::string_view inj = rng_.below(2) == 0 ? "abc" : ":3";
        return t.substr(0, e) + std::string(inj) + t.substr(e);
      }
      default: {  // drop or duplicate a line
        const std::size_t p = t.find('\n', pos(t));
        if (p == std::string::npos) {
          return t;
        }
        const std::size_t b = t.rfind('\n', p == 0 ? 0 : p - 1);
        const std::size_t start = b == std::string::npos || b >= p ? 0 : b + 1;
        const std::string line = t.substr(start, p + 1 - start);
        return rng_.below(2) == 0 ? t.erase(start, line.size())
                                  : t.insert(start, line);
      }
    }
  }

  cdfg::SplitMix64 rng_;
};

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

/// Runs kMutants mutants of `seeds` through an oracle under a changed rule
/// (`now`) and under the old one (`was`): they must differ on some mutant,
/// and wherever they differ the new rule must reject with `why`.
void ruleChangeOnlyRejects(const std::vector<std::string>& seeds,
                           std::uint64_t seed, const Render& now,
                           const Render& was, const std::string& why) {
  Mutator mutator(seed);
  int diverged = 0;
  for (int k = 0; k < kMutants; ++k) {
    const std::string t = mutator.mutate(seeds);
    const std::string a = outcome([&] { return now(t); });
    const std::string b = outcome([&] { return was(t); });
    if (a != b) {
      ++diverged;
      EXPECT_EQ(a.rfind("error\n", 0), 0u) << a << "\nmutant:\n" << printable(t);
      EXPECT_NE(a.find(why), std::string::npos)
          << a << "\nvs.\n" << b << "\nmutant:\n" << printable(t);
    }
  }
  EXPECT_GT(diverged, 0);
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

TEST(ParseOracle, Design) {
  const auto seeds = designSeeds();
  differential(
      seeds, 1,
      [](const std::string& t) {
        return cdfg::printToString(cdfg::parseString(t));
      },
      [](const std::string& t) {
        std::istringstream is(t);
        return cdfg::printToString(oracle::parseDesign(is, nullptr));
      });
  differential(
      seeds, 2,
      [](const std::string& t) {
        std::vector<cdfg::ParseIssue> issues;
        const cdfg::Cdfg g = cdfg::parseString(t, issues, "m.cdfg");
        return cdfg::printToString(g) + render(issues);
      },
      [](const std::string& t) {
        std::istringstream is(t);
        std::vector<cdfg::ParseIssue> issues;
        const cdfg::Cdfg g = oracle::parseDesign(is, &issues, "m.cdfg");
        return cdfg::printToString(g) + render(issues);
      });
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
                             oracle::ScheduleLine line,
                             oracle::ScheduleWord words) {
    std::istringstream is(t);
    std::vector<sched::ScheduleParseIssue> issues;
    const auto s = oracle::parseSchedule(is, n, lenient ? &issues : nullptr,
                                         lenient ? "m.sched" : "", line,
                                         words);
    return render(s, issues);
  };
  using oracle::ScheduleLine;
  using oracle::ScheduleWord;
  for (const bool lenient : {false, true}) {
    // The library reads both words of an entry as whole numbers...
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
                           ScheduleWord::kWholeWord);
        });
    // ...which differs from the old `>>` rule only by rejecting, as a
    // malformed entry, the words the old rule wrapped or cut short...
    ruleChangeOnlyRejects(
        seeds, lenient ? 14 : 13,
        [&](const std::string& t) {
          return oracleRun(t, lenient, ScheduleLine::kReject,
                           ScheduleWord::kWholeWord);
        },
        [&](const std::string& t) {
          return oracleRun(t, lenient, ScheduleLine::kReject,
                           ScheduleWord::kPrefix);
        },
        ": malformed entry '");
    // ...and rejects a line that opens with a non-number, which the
    // first rule read as blank; nothing else differs.
    ruleChangeOnlyRejects(
        seeds, lenient ? 12 : 11,
        [&](const std::string& t) {
          return oracleRun(t, lenient, ScheduleLine::kReject,
                           ScheduleWord::kPrefix);
        },
        [&](const std::string& t) {
          return oracleRun(t, lenient, ScheduleLine::kSkip,
                           ScheduleWord::kPrefix);
        },
        ": malformed entry '");
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
                             oracle::BindingNodeWord rule) {
    std::istringstream is(t);
    std::vector<regbind::BindingParseIssue> issues;
    const auto b = oracle::parseBinding(is, table, lenient ? &issues : nullptr,
                                        lenient ? "m.bind" : "", rule);
    return render(b, issues);
  };
  for (const bool lenient : {false, true}) {
    // The library follows the whole-word node rule...
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
          return oracleRun(t, lenient, oracle::BindingNodeWord::kWholeWord);
        });
    // ...which differs from the old stoul rule only by rejecting, as a
    // malformed entry, node words the old rule aliased.
    ruleChangeOnlyRejects(
        seeds, lenient ? 8 : 7,
        [&](const std::string& t) {
          return oracleRun(t, lenient, oracle::BindingNodeWord::kWholeWord);
        },
        [&](const std::string& t) {
          return oracleRun(t, lenient, oracle::BindingNodeWord::kStoul);
        },
        ": malformed entry '");
  }
}

template <typename Cert>
using CertOracle = std::function<Cert(std::istream&, wm::CertValidation,
                                      const std::string&)>;

template <typename Cert>
void certificateDifferential(
    const std::vector<std::string>& seeds, std::uint64_t seed,
    Cert (*library)(std::string_view, wm::CertValidation, const std::string&),
    const CertOracle<Cert>& reference) {
  for (const wm::CertValidation v :
       {wm::CertValidation::kStrict, wm::CertValidation::kLenient}) {
    const std::string source =
        v == wm::CertValidation::kLenient ? "m.cert" : "";
    differential(
        seeds, seed + static_cast<std::uint64_t>(v),
        [&](const std::string& t) {
          return wm::certificateToString(library(t, v, source));
        },
        [&](const std::string& t) {
          std::istringstream is(t);
          return wm::certificateToString(reference(is, v, source));
        });
  }
}

TEST(ParseOracle, SchedCertificate) {
  certificateDifferential<wm::WatermarkCertificate>(
      {readExample("sched.cert"), wm::certificateToString(schedCertificate())},
      10, wm::parseSchedCertificate, oracle::parseSchedCertificate);
}

TEST(ParseOracle, TmCertificate) {
  const std::vector<std::string> seeds = {
      readExample("tm.cert"), wm::certificateToString(tmCertificate())};
  const auto oracleRun = [](oracle::PairSide rule) {
    return [rule](std::istream& is, wm::CertValidation v,
                  const std::string& source) {
      return oracle::parseTmCertificate(is, v, source, rule);
    };
  };
  // The library reads each side of a matching pair as a whole word...
  certificateDifferential<wm::TmCertificate>(
      seeds, 20, wm::parseTmCertificate,
      oracleRun(oracle::PairSide::kWholeWord));
  // ...which differs from the old stoul rule only by rejecting, as a
  // malformed pair, the sides the old rule aliased or cut short.
  const auto render = [](const CertOracle<wm::TmCertificate>& parse) {
    return [parse](const std::string& t) {
      std::istringstream is(t);
      return wm::certificateToString(
          parse(is, wm::CertValidation::kLenient, "m.cert"));
    };
  };
  ruleChangeOnlyRejects(seeds, 23,
                        render(oracleRun(oracle::PairSide::kWholeWord)),
                        render(oracleRun(oracle::PairSide::kStoul)),
                        ": malformed matching pair '");
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
  differential(
      lib_seeds, 40,
      [](const std::string& t) {
        return tm::libraryToString(tm::parseLibraryString(t));
      },
      [](const std::string& t) {
        std::istringstream is(t);
        return tm::libraryToString(oracle::parseLibrary(is));
      });

  const tm::TemplateLibrary lib =
      tm::parseLibraryString(readExample("library.tmlib"));
  const std::size_t n = exampleDesign().nodeCount();
  const std::vector<std::string> cover_seeds = {
      readExample("cover.txt"),
      "tmcover v1\nsingle 0\nuse 0 1:0 2:1 # comment\nsingle 3\n"};
  const auto oracleRun = [&](const std::string& t, bool lenient,
                             oracle::PairSide side, oracle::CoverOrder order) {
    std::istringstream is(t);
    std::vector<tm::CoverParseIssue> issues;
    const auto c = oracle::parseCover(is, lib, n, lenient ? &issues : nullptr,
                                      "m.cover", side, order);
    return render(c, issues);
  };
  using oracle::CoverOrder;
  using oracle::PairSide;
  for (const bool lenient : {false, true}) {
    // The library reads each side of a pair as a whole word and checks a
    // line's syntax before its context...
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
          return oracleRun(t, lenient, PairSide::kWholeWord,
                           CoverOrder::kSyntaxFirst);
        });
    // ...which differs from checking the context first only by rejecting,
    // as a syntax error, a line the old order dropped or range-failed...
    ruleChangeOnlyRejects(
        cover_seeds, lenient ? 46 : 45,
        [&](const std::string& t) {
          return oracleRun(t, lenient, PairSide::kWholeWord,
                           CoverOrder::kSyntaxFirst);
        },
        [&](const std::string& t) {
          return oracleRun(t, lenient, PairSide::kWholeWord,
                           CoverOrder::kContextFirst);
        },
        "template-io parse error at line ");
    // ...and from the old stoul rule only by rejecting, as a malformed
    // pair, the sides the old rule aliased or cut short.
    ruleChangeOnlyRejects(
        cover_seeds, lenient ? 44 : 43,
        [&](const std::string& t) {
          return oracleRun(t, lenient, PairSide::kWholeWord,
                           CoverOrder::kContextFirst);
        },
        [&](const std::string& t) {
          return oracleRun(t, lenient, PairSide::kStoul,
                           CoverOrder::kContextFirst);
        },
        ": malformed pair '");
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
  for (int k = 0; k < kMutants; ++k) {
    const std::string t = mutator.mutate(seeds);
    const std::string got = render(scan::parseIndex(t));
    ASSERT_EQ(got, render(oracle::parseIndex(t)))
        << "mutant " << k << ":\n" << printable(t);
    accepted += got != "nullopt" ? 1 : 0;
  }
  EXPECT_GT(accepted, kMutants / 50);
  EXPECT_LT(accepted, kMutants);
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
