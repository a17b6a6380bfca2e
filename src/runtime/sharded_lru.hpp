#pragma once
// ShardedLru<Entry>: the one memo core behind runtime::PredictionCache
// (whole predictions) and runtime::SharedStepCache (comm steps).
//
// A 64-bit key hash selects a shard; each shard holds an LRU list of
// entries guarded by its own mutex, plus a hash -> entries index (usually
// one entry per hash; collisions append to the bucket).  Concurrent pool
// workers only contend when they land on the same shard.  Because 64 bits
// can collide, the core never decides a hit on the hash alone: lookups and
// inserts pass a match predicate over the caller's full key, so a
// collision is a miss, never a wrong answer.
//
// Every entry is charged an approximate byte footprint, computed by the
// caller.  Each shard gets an equal slice of the byte budget; an insert
// that overruns the slice evicts least-recently-used entries, oldest
// first, and an entry larger than a whole slice is not retained at all.
//
// The callbacks are template parameters, resolved at compile time (no
// std::function, no allocation on the lookup path).  They run under the
// shard lock, so they must be short and must not re-enter the cache.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace logsim::runtime {

/// Cumulative counters of one cache, summed over its shards.
struct LruStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;

  [[nodiscard]] double hit_rate() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

template <class Entry>
class ShardedLru {
 public:
  /// What insert() did.
  struct Inserted {
    bool stored = false;      ///< false: already cached, or oversized
    std::size_t evicted = 0;  ///< LRU entries dropped to make room
  };

  /// `shards` is clamped to at least 1; each gets byte_budget / shards.
  ShardedLru(std::size_t shards, std::size_t byte_budget) {
    const std::size_t count = shards == 0 ? 1 : shards;
    slice_ = byte_budget / count;
    shards_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Shard a key hash routes to (exposed so tests can force collisions).
  [[nodiscard]] std::size_t shard_of(std::uint64_t hash) const {
    return hash % shards_.size();
  }

  /// Finds the first entry under `hash` for which match(entry) holds.  On
  /// a hit the entry becomes most-recently-used and on_hit(entry) runs
  /// under the shard lock (copy the answer out there); on_hit returns true
  /// to count the hit as marked (see marked_hits()).  Counts a hit or a
  /// miss.
  template <class Match, class OnHit>
  bool lookup(std::uint64_t hash, const Match& match, const OnHit& on_hit) {
    Shard& shard = *shards_[shard_of(hash)];
    std::lock_guard lock{shard.mu};
    const Entry* entry = touch_locked(shard, hash, match);
    if (entry == nullptr) {
      ++shard.misses;
      return false;
    }
    ++shard.hits;
    if (on_hit(*entry)) ++shard.marked_hits;
    return true;
  }

  /// Counts a miss for a lookup that never reached the entries (an
  /// injected failure degrades to a miss).
  void count_miss(std::uint64_t hash) {
    Shard& shard = *shards_[shard_of(hash)];
    std::lock_guard lock{shard.mu};
    ++shard.misses;
  }

  /// Stores `entry`, charged `bytes`, under `hash` -- unless an entry
  /// satisfying match() is already cached (a racing worker got there
  /// first), which is refreshed to most-recently-used instead.
  template <class Match>
  Inserted insert(std::uint64_t hash, const Match& match, Entry entry,
                  std::size_t bytes) {
    Inserted result;
    if (bytes > slice_) return result;  // would evict everything
    Shard& shard = *shards_[shard_of(hash)];
    std::lock_guard lock{shard.mu};
    if (touch_locked(shard, hash, match) != nullptr) return result;
    shard.lru.push_front(Node{hash, bytes, std::move(entry)});
    shard.index[hash].push_back(shard.lru.begin());
    shard.bytes += bytes;
    ++shard.insertions;
    result.stored = true;
    result.evicted = evict_to_budget_locked(shard);
    return result;
  }

  [[nodiscard]] LruStats stats() const {
    LruStats total;
    for (const auto& shard_ptr : shards_) {
      const Shard& shard = *shard_ptr;
      std::lock_guard lock{shard.mu};
      total.hits += shard.hits;
      total.misses += shard.misses;
      total.insertions += shard.insertions;
      total.evictions += shard.evictions;
      total.entries += shard.lru.size();
      total.bytes += shard.bytes;
    }
    return total;
  }

  /// Hits whose on_hit callback returned true, summed over shards.
  [[nodiscard]] std::uint64_t marked_hits() const {
    std::uint64_t total = 0;
    for (const auto& shard_ptr : shards_) {
      std::lock_guard lock{shard_ptr->mu};
      total += shard_ptr->marked_hits;
    }
    return total;
  }

  /// Drops all entries; counters are kept (they are cumulative).
  void clear() {
    for (auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      std::lock_guard lock{shard.mu};
      shard.lru.clear();
      shard.index.clear();
      shard.bytes = 0;
    }
  }

 private:
  struct Node {
    std::uint64_t hash = 0;
    std::size_t bytes = 0;
    Entry entry;
  };
  using NodeIt = typename std::list<Node>::iterator;

  struct Shard {
    mutable std::mutex mu;
    std::list<Node> lru;  // front = most recently used
    std::unordered_map<std::uint64_t, std::vector<NodeIt>> index;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t marked_hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  /// The entry under `hash` satisfying match(), promoted to
  /// most-recently-used; nullptr when there is none.
  template <class Match>
  static const Entry* touch_locked(Shard& shard, std::uint64_t hash,
                                   const Match& match) {
    const auto bucket = shard.index.find(hash);
    if (bucket == shard.index.end()) return nullptr;
    for (const auto node : bucket->second) {
      if (!match(std::as_const(node->entry))) continue;
      shard.lru.splice(shard.lru.begin(), shard.lru, node);
      return &node->entry;
    }
    return nullptr;
  }

  std::size_t evict_to_budget_locked(Shard& shard) {
    std::size_t evicted = 0;
    while (shard.bytes > slice_ && !shard.lru.empty()) {
      const auto victim = std::prev(shard.lru.end());
      shard.bytes -= victim->bytes;
      unindex(shard, victim);
      shard.lru.erase(victim);
      ++evicted;
    }
    shard.evictions += evicted;
    return evicted;
  }

  static void unindex(Shard& shard, NodeIt it) {
    auto bucket = shard.index.find(it->hash);
    std::erase(bucket->second, it);
    if (bucket->second.empty()) shard.index.erase(bucket);
  }

  std::size_t slice_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace logsim::runtime
