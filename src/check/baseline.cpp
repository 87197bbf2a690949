#include "check/baseline.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "obs/json.h"

namespace locwm::check {

namespace {

[[noreturn]] void fail(const std::string& why) {
  throw std::runtime_error(why);
}

}  // namespace

Baseline Baseline::fromReport(const Report& report) {
  Baseline b;
  for (const Diagnostic& d : report.diagnostics()) {
    b.keys_.insert(findingKey(d));
  }
  return b;
}

Baseline Baseline::parse(const std::string& text) try {
  Baseline b;
  obs::JsonReader s(text);
  s.expect('{');
  bool saw_version = false;
  bool first = true;
  while (s.peek() != '}') {
    if (!first) {
      s.expect(',');
    }
    first = false;
    const std::string field = s.string();
    s.expect(':');
    if (field == "schema_version") {
      if (s.number() != 1) {
        fail("unsupported schema_version");
      }
      saw_version = true;
    } else if (field == "findings") {
      s.expect('[');
      while (s.peek() != ']') {
        if (s.peek() == ',') {
          s.expect(',');
        }
        s.expect('{');
        std::string code;
        std::string artifact;
        std::string location;
        bool obj_first = true;
        while (s.peek() != '}') {
          if (!obj_first) {
            s.expect(',');
          }
          obj_first = false;
          const std::string name = s.string();
          s.expect(':');
          const std::string value = s.string();
          if (name == "code") {
            code = value;
          } else if (name == "artifact") {
            artifact = value;
          } else if (name == "location") {
            location = value;
          } else {
            fail("unknown finding field '" + name + "'");
          }
        }
        s.expect('}');
        if (code.empty()) {
          fail("finding without a code");
        }
        b.keys_.insert(findingKey(code, artifact, location));
      }
      s.expect(']');
    } else {
      fail("unknown field '" + field + "'");
    }
  }
  s.expect('}');
  if (!saw_version) {
    fail("missing schema_version");
  }
  return b;
} catch (const std::runtime_error& e) {
  throw std::runtime_error(std::string("baseline parse error: ") + e.what());
}

std::string Baseline::toJson() const {
  // Deterministic: one line per finding, sorted by the composite key.
  std::vector<std::string> sorted(keys_.begin(), keys_.end());
  std::sort(sorted.begin(), sorted.end());
  std::string out = "{\"schema_version\": 1, \"findings\": [";
  bool first = true;
  for (const std::string& key : sorted) {
    const std::size_t a = key.find('\x1f');
    const std::size_t b = key.find('\x1f', a + 1);
    if (!first) {
      out += ',';
    }
    first = false;
    out += "\n  {\"code\": ";
    out += obs::jsonString(key.substr(0, a));
    out += ", \"artifact\": ";
    out += obs::jsonString(key.substr(a + 1, b - a - 1));
    out += ", \"location\": ";
    out += obs::jsonString(key.substr(b + 1));
    out += '}';
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

bool Baseline::contains(const Diagnostic& d) const {
  return keys_.count(findingKey(d)) != 0;
}

Report Baseline::filterNew(const Report& report) const {
  Report out;
  for (const Diagnostic& d : report.diagnostics()) {
    if (!contains(d)) {
      out.add(d);
    }
  }
  return out;
}

}  // namespace locwm::check
