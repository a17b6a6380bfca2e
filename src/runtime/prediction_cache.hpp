#pragma once
// Memoization cache for whole predictions, one user of the shared
// ShardedLru core (runtime/sharded_lru.hpp: hash-selected shards, per-shard
// mutex + LRU list, byte-budget eviction, cumulative stats).
//
// Key: a canonical 64-bit FNV-1a hash over the step program's structure,
// its cost table, and the LogGP parameters (plus the simulation seed,
// which changes worst-case tie-breaking).  The cost table is part of the
// key because it is part of the answer: two programs with identical
// structure but different calibrations predict different times -- a
// distinction that never arose while every caller shared one process-wide
// analytic table, but which the serving layer (cost tables arrive with
// every request) makes load-bearing.  Because 64 bits can collide, every
// entry keeps a full copy of its (program, costs, params) key and lookups
// verify with operator== before reporting a hit -- a collision is a miss,
// never a wrong answer.
//
// Each entry is charged for its program copy (steps, work items,
// touched-block ids, messages), its cost-table copy (op names and
// calibration points: on the serving path that table is untrusted upload
// content) and its Prediction vectors.

#include <cstddef>
#include <cstdint>
#include <optional>

#include "core/predictor.hpp"
#include "core/step_program.hpp"
#include "loggp/params.hpp"
#include "runtime/sharded_lru.hpp"

namespace logsim::runtime {

/// Canonical FNV-1a-64 hash of the program-shaped half of a prediction
/// key: the step program's structure (step kinds, work items, touched ids,
/// messages) and the cost table (op names, calibration points).  Walking
/// both is O(program), so callers that evaluate one program under many
/// (params, seed) points -- the serving layer's registered handles --
/// compute this once and compose per-request keys with the O(1) overload
/// below.
[[nodiscard]] std::uint64_t prediction_program_hash(
    const core::StepProgram& program, const core::CostTable& costs);

/// Canonical FNV-1a-64 hash of a prediction-cache key.  Identical
/// (program, costs, params, seed) tuples always hash equal; logically
/// equal inputs built by different code paths agree.
[[nodiscard]] std::uint64_t prediction_key_hash(const core::StepProgram& program,
                                                const core::CostTable& costs,
                                                const loggp::Params& params,
                                                std::uint64_t seed);

/// Composes a full key from a precomputed prediction_program_hash: equals
/// the 4-argument overload when program_hash matches the inputs it hashed.
[[nodiscard]] std::uint64_t prediction_key_hash(std::uint64_t program_hash,
                                                const loggp::Params& params,
                                                std::uint64_t seed);

class PredictionCache {
 public:
  struct Config {
    /// Number of independently locked shards (clamped to at least 1).
    std::size_t shards = 16;
    /// Total byte budget across shards; each shard gets an equal slice.
    /// Entries larger than a slice are simply not retained.  The default
    /// (16 MiB per shard at 16 shards) comfortably holds every program of
    /// the paper's Fig-7 sweep, including the block-4 giants.
    std::size_t byte_budget = 256ull << 20;
  };

  using Stats = LruStats;

  PredictionCache() : PredictionCache(Config{}) {}
  explicit PredictionCache(Config config)
      : lru_(config.shards, config.byte_budget) {}

  /// Returns the cached prediction for an exactly-equal key, promoting the
  /// entry to most-recently-used; counts a hit or a miss.
  [[nodiscard]] std::optional<core::Prediction> lookup(
      const core::StepProgram& program, const core::CostTable& costs,
      const loggp::Params& params, std::uint64_t seed);

  /// Stores a prediction, copying the key for collision verification.
  /// Re-inserting an existing key refreshes its LRU position; insertion may
  /// evict LRU entries to respect the byte budget.
  void insert(const core::StepProgram& program, const core::CostTable& costs,
              const loggp::Params& params, std::uint64_t seed,
              const core::Prediction& prediction);

  /// Hashed-key variants: hashing walks the whole program, so callers that
  /// look up and then insert on a miss should hash once (the hash MUST be
  /// prediction_key_hash of the same key; a stale hash corrupts nothing but
  /// wastes the entry).
  [[nodiscard]] std::optional<core::Prediction> lookup(
      std::uint64_t hash, const core::StepProgram& program,
      const core::CostTable& costs, const loggp::Params& params,
      std::uint64_t seed);
  void insert(std::uint64_t hash, const core::StepProgram& program,
              const core::CostTable& costs, const loggp::Params& params,
              std::uint64_t seed, const core::Prediction& prediction);

  [[nodiscard]] Stats stats() const { return lru_.stats(); }
  [[nodiscard]] std::size_t shard_count() const { return lru_.shard_count(); }
  /// Shard a key hash routes to (exposed so tests can force collisions).
  [[nodiscard]] std::size_t shard_of(std::uint64_t hash) const {
    return lru_.shard_of(hash);
  }

  /// Drops all entries; counters are kept (they are cumulative).
  void clear() { lru_.clear(); }

 private:
  struct Entry {
    core::StepProgram program;  // full key copy for collision verification
    core::CostTable costs;      // ditto: calibration is part of the answer
    loggp::Params params;
    std::uint64_t seed = 0;
    core::Prediction prediction;
  };

  ShardedLru<Entry> lru_;
};

/// Approximate heap footprint of one cached entry, used for the budget.
[[nodiscard]] std::size_t prediction_entry_bytes(
    const core::StepProgram& program, const core::CostTable& costs,
    const core::Prediction& prediction);

}  // namespace logsim::runtime
