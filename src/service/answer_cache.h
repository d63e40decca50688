// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// AnswerCache — a noisy-answer replay cache. Differential privacy is closed
// under post-processing, so re-releasing a *stored* noisy answer for the same
// (canonical query, ε) costs zero additional privacy budget: the adversary
// learns nothing they did not already learn from the first release. Replay is
// therefore the cheapest accuracy-per-ε win a DP service has, and the cache
// tracks exactly how much ε it saved.
//
// The cache is a mutex-guarded LRU keyed by query::CanonicalKey(bound, ε).
// Keys must include ε: an answer drawn at ε=0.1 is not exchangeable with a
// fresh draw at ε=1.0.

#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "exec/query_result.h"

namespace dpstarj::service {

/// \brief Thread-safe LRU cache of noisy answers with replay accounting.
class AnswerCache {
 public:
  /// Hit/miss/ε accounting, as returned by GetStats().
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    /// Total privacy budget saved by replays (Σ ε over hits).
    double epsilon_saved = 0.0;

    /// hits / (hits + misses), 0 when empty.
    double HitRate() const {
      uint64_t lookups = hits + misses;
      return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
    }
  };

  /// A capacity of 0 disables the cache (every lookup misses, inserts drop).
  explicit AnswerCache(size_t capacity);

  /// \brief Returns the stored noisy answer for `key`, bumping it to
  /// most-recently-used, or nullopt on a miss. `epsilon` is the budget the
  /// replay saves; it is added to Stats::epsilon_saved on a hit.
  std::optional<exec::QueryResult> Lookup(const std::string& key, double epsilon);

  /// Counts a replay of `epsilon` served without a Lookup: an identical
  /// in-flight miss's answer handed to the query that waited for it.
  void CountReplay(double epsilon);
  /// Stores `answer` under `key`, evicting the least-recently-used entry when
  /// full. Re-inserting an existing key refreshes its recency (the stored
  /// answer is kept: the first release is the one that was paid for).
  void Insert(const std::string& key, const exec::QueryResult& answer);

  /// Drops every entry (stats are preserved).
  void Clear();

  /// Current entry count.
  size_t size() const;
  /// Configured capacity.
  size_t capacity() const { return capacity_; }

  /// A consistent snapshot of the accounting counters.
  Stats GetStats() const;

 private:
  using Entry = std::pair<std::string, exec::QueryResult>;

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace dpstarj::service
