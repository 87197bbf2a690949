#include "store/store.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "cdfg/error.h"
#include "crypto/sha256.h"

namespace locwm::store {
namespace {

namespace fs = std::filesystem;

/// SHA-256 hex over the length-prefixed key fields, so no two field lists
/// share an encoding.
std::string keyDigest(const KeyFields& key) {
  std::string material;
  for (const std::string& field : key) {
    material += std::to_string(field.size()) + ':' + field;
  }
  return crypto::sha256Hex(material);
}

std::string headerLine(const std::string& key_digest, std::string_view body) {
  return "locwm-store v1 " + key_digest + ' ' + std::to_string(body.size()) +
         ' ' + crypto::sha256Hex(body) + '\n';
}

std::string entryName(std::string_view ns, const std::string& key_digest) {
  return std::string(ns) + "-" + key_digest.substr(0, 32);
}

}  // namespace

std::vector<std::string> listFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  fs::recursive_directory_iterator it(dir, ec);
  for (const fs::recursive_directory_iterator end; !ec && it != end;
       it.increment(ec)) {
    const fs::path& path = it->path();
    std::error_code type_ec;  // dangling links are skipped, not errors
    if (path.filename().string().starts_with('.')) {
      if (it->is_directory(type_ec)) {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (it->is_regular_file(type_ec)) {
      files.push_back(path.lexically_relative(dir).generic_string());
    }
  }
  if (ec) {
    throw Error("cannot list directory '" + dir + "': " + ec.message());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::optional<std::string> readFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return std::move(buffer).str();
}

CacheDir::CacheDir(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) {
    return;
  }
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw Error("cannot create cache directory: " + dir_);
  }
}

std::optional<std::string> CacheDir::get(std::string_view ns,
                                         const KeyFields& key) const {
  if (!enabled()) {
    return std::nullopt;
  }
  const std::string digest = keyDigest(key);
  std::optional<std::string> text =
      readFile((fs::path(dir_) / entryName(ns, digest)).string());
  if (!text) {
    return std::nullopt;
  }
  const std::size_t eol = text->find('\n');
  if (eol == std::string::npos) {
    return std::nullopt;
  }
  const std::string_view header(text->data(), eol + 1);
  const std::string_view body(text->data() + eol + 1, text->size() - eol - 1);
  if (header != headerLine(digest, body)) {
    return std::nullopt;
  }
  text->erase(0, eol + 1);
  return text;
}

bool CacheDir::put(std::string_view ns, const KeyFields& key,
                   std::string_view body) const {
  if (!enabled()) {
    return false;
  }
  // Hidden, per-process and per-call temp names: concurrent writers never
  // share one, and listFiles() never sees them.
  static std::atomic<std::uint64_t> sequence{0};
  const std::string digest = keyDigest(key);
  const std::string name = entryName(ns, digest);
  const fs::path file = fs::path(dir_) / name;
  const fs::path tmp =
      fs::path(dir_) / ("." + name + ".tmp." + std::to_string(::getpid()) +
                        "." + std::to_string(sequence.fetch_add(1)));
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os << headerLine(digest, body) << body;
    if (!os) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, file, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace locwm::store
