// Small shared helpers for the reproduction benches: fixed-width table
// printing, common formatting, and a machine-readable mirror of the
// printed tables (JsonReport), so every binary emits the same style of
// rows the paper's tables use.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if __has_include(<locwm/build_info.h>)
#include <locwm/build_info.h>
#endif
#ifndef LOCWM_GIT_DESCRIBE
#define LOCWM_GIT_DESCRIBE "unknown"
#endif
#ifndef LOCWM_BUILD_TYPE
#define LOCWM_BUILD_TYPE "unknown"
#endif

#include "obs/json.h"
#include "obs/metrics.h"
#include "rt/rt.h"

namespace locwm::bench {

/// Parses `--seed N` (default `fallback`).  Every bench trial loop derives
/// its per-trial randomness from this one base seed (via
/// cdfg::substreamSeed or a base offset) and echoes it into the --json
/// rows, so any row can be reproduced by rerunning with the same seed.
inline std::uint64_t seedArg(int argc, char** argv,
                             std::uint64_t fallback = 0) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return fallback;
}

/// Applies `--threads N` to the global rt pool.  Same precedence as the
/// CLI: an explicit flag overrides LOCWM_THREADS, which overrides
/// hardware_concurrency.
inline void applyThreadsFlag(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      rt::setThreadCount(std::strtoull(argv[i + 1], nullptr, 10));
    }
  }
}

/// Prints a horizontal rule of the given width.
inline void rule(int width) {
  for (int i = 0; i < width; ++i) {
    std::fputc('-', stdout);
  }
  std::fputc('\n', stdout);
}

/// Prints a bench header banner.
inline void banner(const std::string& title, const std::string& source) {
  rule(78);
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", source.c_str());
  rule(78);
}

/// Formats a log10 probability in scientific notation the way the paper
/// quotes Pc: mantissa in [1, 10) with one decimal and an integer
/// exponent, e.g. log10 Pc = -5.3 -> "5.0e-6" (never "1e-5.3").
inline std::string pcString(double log10_pc) {
  if (std::isnan(log10_pc)) {
    return "nan";
  }
  if (std::isinf(log10_pc)) {
    return log10_pc < 0 ? "0" : "inf";
  }
  double exponent = std::floor(log10_pc);
  double mantissa = std::pow(10.0, log10_pc - exponent);
  // One-decimal rounding can carry the mantissa up to 10.0.
  if (mantissa >= 9.95) {
    mantissa /= 10.0;
    exponent += 1.0;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.1fe%d", mantissa,
                static_cast<int>(exponent));
  return buf;
}

/// Nearest-rank percentile of a sample set: the smallest sample s such
/// that at least ceil(q * n) samples are <= s.  `q` in [0, 1]; returns 0
/// for an empty set.  Used for the wall-clock percentile columns the perf
/// gate compares (scripts/bench_gate.py).
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank == 0) {
    rank = 1;
  }
  if (rank > samples.size()) {
    rank = samples.size();
  }
  return samples[rank - 1];
}

/// The host's CPU model (the first "model name" of /proc/cpuinfo;
/// "unknown" where there is none), stamped on every JSON row so a
/// baseline says what it was recorded on.
inline std::string cpuModel() {
  std::FILE* in = std::fopen("/proc/cpuinfo", "r");
  if (in == nullptr) {
    return "unknown";
  }
  std::string model = "unknown";
  char line[512];
  while (std::fgets(line, sizeof line, in) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) {
      continue;
    }
    const char* value = std::strchr(line, ':');
    if (value != nullptr) {
      model = value + 1;
      model.erase(0, model.find_first_not_of(" \t"));
      model.erase(model.find_last_not_of(" \t\n") + 1);
    }
    break;
  }
  std::fclose(in);
  return model;
}

/// One named cell of a table row, pre-rendered as JSON.
struct Field {
  std::string name;
  std::string json;

  Field(std::string n, const std::string& v)
      : name(std::move(n)), json(obs::jsonString(v)) {}
  Field(std::string n, const char* v)
      : name(std::move(n)), json(obs::jsonString(v)) {}
  Field(std::string n, double v)
      : name(std::move(n)), json(obs::jsonNumber(v)) {}
  Field(std::string n, std::uint64_t v)
      : name(std::move(n)), json(std::to_string(v)) {}
  Field(std::string n, std::uint32_t v)
      : name(std::move(n)), json(std::to_string(v)) {}
  Field(std::string n, int v) : name(std::move(n)), json(std::to_string(v)) {}
  Field(std::string n, bool v)
      : name(std::move(n)), json(v ? "true" : "false") {}
};

/// Machine-readable mirror of a bench's printed table.  Construct with
/// argv; `--json [FILE]` enables it (FILE defaults to bench_<name>.json).
/// Call row() with the same values the table printf uses; the file —
/// {"bench": <name>, "rows": [{...}, ...]} — is written on destruction.
class JsonReport {
 public:
  JsonReport(std::string name, int argc, char** argv)
      : name_(std::move(name)) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") != 0) {
        continue;
      }
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        path_ = argv[i + 1];
      } else {
        path_ = "bench_" + name_ + ".json";
      }
    }
  }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  ~JsonReport() { write(); }

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  void row(std::initializer_list<Field> fields) {
    if (!enabled()) {
      return;
    }
    // Rows render with keys in sorted order (schema_version invariant:
    // diffable output), stamped with the build that produced them.
    std::vector<Field> all(fields);
    all.emplace_back("git_describe", LOCWM_GIT_DESCRIBE);
    all.emplace_back("build_type", LOCWM_BUILD_TYPE);
    all.emplace_back("cpu_model", cpuModel());
    all.emplace_back("hardware_threads",
                     static_cast<std::uint64_t>(rt::hardwareThreads()));
    std::sort(all.begin(), all.end(), [](const Field& a, const Field& b) {
      return a.name < b.name;
    });
    std::string r = "{";
    bool first = true;
    for (const Field& f : all) {
      if (!first) {
        r += ", ";
      }
      first = false;
      r += obs::jsonString(f.name);
      r += ": ";
      r += f.json;
    }
    r += "}";
    rows_.push_back(std::move(r));
  }

  /// Writes the report now (also runs at destruction).  Returns false if
  /// the file cannot be opened; a failure is also reported on stderr.
  bool write() {
    if (!enabled() || written_) {
      return true;
    }
    written_ = true;
    std::FILE* out = std::fopen(path_.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench: cannot write '%s'\n", path_.c_str());
      return false;
    }
    std::fprintf(out, "{\"bench\": %s, \"rows\": [",
                 obs::jsonString(name_).c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(out, "%s\n  %s", i == 0 ? "" : ",", rows_[i].c_str());
    }
    std::fprintf(out, "\n], \"schema_version\": %d}\n",
                 obs::kStatsSchemaVersion);
    std::fclose(out);
    std::printf("json rows -> %s\n", path_.c_str());
    return true;
  }

 private:
  std::string name_;
  std::string path_;  // empty = disabled
  std::vector<std::string> rows_;
  bool written_ = false;
};

}  // namespace locwm::bench
