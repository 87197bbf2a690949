// Artifact-store tests: the one directory walker's skip rule and the
// checksummed cache — round trip, every header mismatch as a miss, and
// concurrent writers of one key leaving one valid entry.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cdfg/error.h"
#include "rt/rt.h"
#include "store/store.h"

namespace locwm::store {
namespace {

namespace fs = std::filesystem;

fs::path tempDir(const char* tag) {
  const fs::path dir =
      fs::temp_directory_path() / (std::string("locwm_store_") + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void writeFile(const fs::path& path, const std::string& text) {
  fs::create_directories(path.parent_path());
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << text;
}

std::string readFile(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// The one entry file of a cache directory that holds exactly one.
fs::path onlyEntry(const fs::path& dir) {
  const std::vector<std::string> files = listFiles(dir.string());
  EXPECT_EQ(files.size(), 1u);
  return files.empty() ? fs::path() : dir / files.front();
}

TEST(Store, ListFilesSkipsHiddenNamesAndDirectories) {
  const fs::path dir = tempDir("walk");
  writeFile(dir / "b.cdfg", "b");
  writeFile(dir / "a" / "c.sched", "c");
  writeFile(dir / "a" / ".hidden", "h");
  writeFile(dir / "m" / "n" / "o.cert", "o");
  // Nothing under a hidden directory is listed, not even names that are
  // not hidden themselves: the walker does not descend into it.
  writeFile(dir / ".locwm-cache" / "sub" / "entry", "e");
  writeFile(dir / "z" / ".git" / "config", "g");
  const std::vector<std::string> expected = {"a/c.sched", "b.cdfg",
                                             "m/n/o.cert"};
  EXPECT_EQ(listFiles(dir.string()), expected);
  // A trailing separator on the root changes nothing.
  EXPECT_EQ(listFiles(dir.string() + "/"), expected);
  fs::remove_all(dir);
}

TEST(Store, ListFilesThrowsOnMissingDirectory) {
  EXPECT_THROW(static_cast<void>(listFiles(
                   (fs::temp_directory_path() / "locwm_store_absent").string())),
               Error);
}

TEST(Store, PutGetRoundTrip) {
  const fs::path dir = tempDir("roundtrip");
  const CacheDir cache(dir.string());
  const std::string body = std::string("line 1\nline 2\n\0binary", 21);
  ASSERT_TRUE(cache.put("ns", {"a", "b"}, body));
  EXPECT_EQ(cache.get("ns", {"a", "b"}), body);
  // The namespace and every key field take part in the key, and field
  // boundaries are not ambiguous.
  EXPECT_FALSE(cache.get("other", {"a", "b"}).has_value());
  EXPECT_FALSE(cache.get("ns", {"ab"}).has_value());
  EXPECT_FALSE(cache.get("ns", {"a", "b", ""}).has_value());
  // Entries are named <namespace>-<32 hex>.
  const std::string name = onlyEntry(dir).filename().string();
  EXPECT_EQ(name.size(), 3u + 32u);
  EXPECT_EQ(name.rfind("ns-", 0), 0u);
  // An empty body is an entry like any other.
  ASSERT_TRUE(cache.put("ns", {"empty"}, ""));
  EXPECT_EQ(cache.get("ns", {"empty"}), "");
  fs::remove_all(dir);
}

TEST(Store, DisabledCacheMissesAndStoresNothing) {
  const CacheDir cache;
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.put("ns", {"k"}, "body"));
  EXPECT_FALSE(cache.get("ns", {"k"}).has_value());
}

TEST(Store, EveryHeaderMismatchIsAMiss) {
  const fs::path dir = tempDir("mismatch");
  const CacheDir cache(dir.string());
  const std::string body = "issues 0\nroot 1 2 3\n";
  ASSERT_TRUE(cache.put("ns", {"k"}, body));
  const fs::path file = onlyEntry(dir);
  const std::string good = readFile(file);
  const std::size_t eol = good.find('\n');
  ASSERT_NE(eol, std::string::npos);
  std::istringstream header(good.substr(0, eol));
  std::string magic;
  std::string version;
  std::string key_digest;
  std::size_t bytes = 0;
  std::string body_digest;
  ASSERT_TRUE(header >> magic >> version >> key_digest >> bytes >> body_digest);
  EXPECT_EQ(magic, "locwm-store");
  EXPECT_EQ(version, "v1");
  EXPECT_EQ(key_digest.size(), 64u);
  EXPECT_EQ(bytes, body.size());
  EXPECT_EQ(body_digest.size(), 64u);
  EXPECT_EQ(good.substr(eol + 1), body);

  const auto headerWith = [&](const std::string& v, const std::string& kd,
                              std::size_t n, const std::string& bd) {
    return "locwm-store " + v + " " + kd + " " + std::to_string(n) + " " +
           bd + "\n";
  };
  std::string flipped_digest = body_digest;
  flipped_digest[0] = flipped_digest[0] == '0' ? '1' : '0';
  std::string flipped_key = key_digest;
  flipped_key[63] = flipped_key[63] == '0' ? '1' : '0';
  std::string edited_body = body;
  edited_body[7] = '1';  // "issues 1": same size, different digest
  const std::vector<std::string> damaged = {
      headerWith("v2", key_digest, bytes, body_digest) + body,
      headerWith(version, key_digest, bytes + 1, body_digest) + body,
      headerWith(version, key_digest, bytes, flipped_digest) + body,
      headerWith(version, flipped_key, bytes, body_digest) + body,
      headerWith(version, key_digest, bytes, body_digest) + edited_body,
      good.substr(0, good.size() - 1),  // truncated body
      good.substr(0, eol),              // header only, no newline
      "",
  };
  for (const std::string& text : damaged) {
    writeFile(file, text);
    EXPECT_FALSE(cache.get("ns", {"k"}).has_value()) << text;
  }
  // A valid entry copied under another key's name is not served either.
  writeFile(file, good);
  ASSERT_TRUE(cache.put("ns", {"other"}, "x"));
  for (const std::string& name : listFiles(dir.string())) {
    writeFile(dir / name, good);
  }
  EXPECT_EQ(cache.get("ns", {"k"}), body);
  EXPECT_FALSE(cache.get("ns", {"other"}).has_value());
  fs::remove_all(dir);
}

TEST(Store, ConcurrentPutsOfOneKeyLeaveOneValidEntry) {
  const fs::path dir = tempDir("race");
  const CacheDir cache(dir.string());
  const std::string body(64 * 1024, 'x');
  rt::setThreadCount(8);
  rt::parallel_for(0, 64, 1, [&](std::size_t) {
    EXPECT_TRUE(cache.put("ns", {"same"}, body));
  });
  rt::setThreadCount(0);  // restore automatic sizing for other tests
  EXPECT_EQ(cache.get("ns", {"same"}), body);
  // One entry, and no temp file left behind (hidden or not).
  std::size_t files = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    static_cast<void>(e);
    ++files;
  }
  EXPECT_EQ(files, 1u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace locwm::store
