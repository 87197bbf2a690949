// The artifact store shared by `locwm lint --project` and `locwm scan`:
// the one directory walker, file reader and persistent cache.
//
// A CacheDir holds one file per entry, `<namespace>-<32 hex of SHA-256
// over the key fields>`: a header line, then the caller's body.
//
//   locwm-store v1 <key SHA-256> <body bytes> <body SHA-256>
//
// get() serves an entry only when every header field matches, so a
// truncated, edited, misnamed or foreign entry is a miss: a damaged cache
// costs time, never an answer.  put() renames a hidden temp file over the
// entry, so concurrent writers of one key never expose a partial entry.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace locwm::store {

/// Every regular file under `dir` (recursive), as sorted '/'-separated
/// paths relative to `dir`.  Names starting with '.' are skipped and
/// hidden directories are not descended into.  Throws Error when `dir`
/// cannot be listed.
[[nodiscard]] std::vector<std::string> listFiles(const std::string& dir);

/// The whole content of the file at `path`, or nullopt when it cannot be
/// opened.
[[nodiscard]] std::optional<std::string> readFile(const std::string& path);

/// The fields an entry is keyed by, hashed in order.
using KeyFields = std::vector<std::string>;

/// A directory of checksummed cache entries (see the file comment).
class CacheDir {
 public:
  /// An empty `dir` disables the cache: get() misses and put() stores
  /// nothing.  Otherwise the directory is created if missing; throws
  /// Error when it cannot be.
  explicit CacheDir(std::string dir = {});

  [[nodiscard]] bool enabled() const noexcept { return !dir_.empty(); }

  /// The body stored under (`ns`, `key`), or nullopt on any mismatch.
  [[nodiscard]] std::optional<std::string> get(std::string_view ns,
                                               const KeyFields& key) const;

  /// Stores `body` under (`ns`, `key`).  Returns false when the entry
  /// could not be written (the cache is best-effort).
  bool put(std::string_view ns, const KeyFields& key,
           std::string_view body) const;

 private:
  std::string dir_;
};

}  // namespace locwm::store
