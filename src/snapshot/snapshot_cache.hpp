/// @file
/// Keyed cache of parsed warm-state snapshots, shareable by threads and —
/// through an optional directory — by processes. No campaign execution
/// path creates one any more (a cold start is build + warm-up); the
/// benchmark and the snapshot tests still do.
///
/// Keys are content digests (sha256 hex of the canonicalized deployment
/// configuration + warm-up seed; see shield::deployment_warm_key), so a
/// snapshot can never be applied to a deployment it was not taken from.
///
/// In-memory entries hold the parsed StateDoc behind a shared_ptr:
/// parsing/validation happens once per process per key, and concurrent
/// workers restore from the same immutable document. With a directory
/// configured, store() also persists `<dir>/<key>.hsnap` via a
/// write-to-temp + rename, so concurrent shard processes racing on the
/// same key each publish a complete file or none — readers never observe
/// a partial snapshot. A corrupted, truncated or version-mismatched file
/// is rejected with a SnapshotError by load_snapshot_file(); find()
/// reports it to stderr once and returns a miss so the caller falls back
/// to a cold warm-up (no partial restores, ever).
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "snapshot/state_io.hpp"

namespace hs::snapshot {

/// Reads and fully validates one snapshot file. Throws SnapshotError on
/// unreadable, corrupt, truncated or version-mismatched content.
StateDoc load_snapshot_file(const std::string& path);

class SnapshotCache {
 public:
  /// `dir` empty => in-memory only. The directory must already exist.
  explicit SnapshotCache(std::string dir = {});

  SnapshotCache(const SnapshotCache&) = delete;
  SnapshotCache& operator=(const SnapshotCache&) = delete;

  /// Looks up `key`: memory first, then `<dir>/<key>.hsnap`. A missing
  /// key returns nullptr; an invalid file is reported to stderr and
  /// treated as a miss (the caller warms up cold). Thread-safe.
  std::shared_ptr<const StateDoc> find(const std::string& key);

  /// Parses `payload` (a StateWriter::finish() document), stores it under
  /// `key`, and — when a directory is configured — publishes it
  /// atomically to disk. First store wins; a concurrent duplicate is
  /// dropped. Returns the stored (parsed) document. Thread-safe.
  std::shared_ptr<const StateDoc> store(const std::string& key,
                                        const std::string& payload);

  bool persistent() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  /// Cache lookup counters (the snapshot tests assert on them).
  std::size_t hits() const;
  std::size_t misses() const;
  std::size_t disk_loads() const;

 private:
  std::string file_path(const std::string& key) const;

  std::string dir_;
  mutable std::mutex mutex_;
  // Ordering audit (determinism linter: unordered-in-serializer allow
  // entry in LINT.toml): docs_ is keyed by content digest and accessed
  // exclusively through find()/emplace() — it is never iterated, so its
  // bucket order can never reach a report, stream, or snapshot byte.
  // If you add iteration (e.g. an eviction sweep), switch to std::map
  // or sort the keys first, and update LINT.toml.
  std::unordered_map<std::string, std::shared_ptr<const StateDoc>> docs_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t disk_loads_ = 0;
};

}  // namespace hs::snapshot
