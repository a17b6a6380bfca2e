#pragma once
// Cross-job comm-step cache: the runtime implementation of
// core::StepCache, one user of the shared ShardedLru core
// (runtime/sharded_lru.hpp: hash-selected shards, per-shard mutex + LRU
// list, byte-budget eviction, cumulative stats).  What is its own: the
// entry (canonical form, ready times, finish times), the match predicate
// (full-key verification on every candidate, so a 64-bit collision is a
// miss, never a wrong answer), the footprint, the step_cache.* failpoints
// and trace instants, and the relabel_hits counter.
//
// Shared by all BatchPredictor workers: a GE block-size sweep simulates
// each distinct canonical broadcast shape once across ALL jobs, and every
// other occurrence -- the same step later in the same program, the rotated
// copy in the next iteration, the identical step in a neighbouring sweep
// configuration -- replays the stored finish times.  Hits that arrive
// through a different processor labeling than the entry was inserted with
// are additionally counted as relabel_hits.
//
// core::ProgramSimOptions::step_cache == nullptr bypasses the machinery
// entirely; logsim_cli and perf_regression map --no-step-cache onto it.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/step_cache.hpp"
#include "loggp/params.hpp"
#include "pattern/canonical.hpp"
#include "runtime/sharded_lru.hpp"
#include "util/types.hpp"

namespace logsim::runtime {

class SharedStepCache final : public core::StepCache {
 public:
  struct Config {
    /// Number of independently locked shards (clamped to at least 1).
    std::size_t shards = 16;
    /// Total byte budget across shards.  Step entries are small (a few
    /// Time vectors plus a shared canonical form), so 64 MiB holds the
    /// working set of sweeps far larger than the paper's.
    std::size_t byte_budget = 64ull << 20;
  };

  struct Stats : LruStats {
    /// Subset of hits served through a different processor labeling than
    /// the entry was inserted with (canonical sharing at work).
    std::uint64_t relabel_hits = 0;
  };

  SharedStepCache() : SharedStepCache(Config{}) {}
  explicit SharedStepCache(Config config)
      : lru_(config.shards, config.byte_budget) {}

  [[nodiscard]] bool lookup(const core::CommStepQuery& query,
                            std::vector<Time>& finish,
                            std::size_t& ops) override;
  void insert(const core::CommStepQuery& query,
              const std::vector<Time>& finish) override;

  [[nodiscard]] Stats stats() const {
    return {lru_.stats(), lru_.marked_hits()};
  }
  [[nodiscard]] std::size_t shard_count() const { return lru_.shard_count(); }
  /// Shard a key hash routes to (exposed so tests can force collisions).
  [[nodiscard]] std::size_t shard_of(std::uint64_t hash) const {
    return lru_.shard_of(hash);
  }

  /// Drops all entries; counters are kept (they are cumulative).
  void clear() { lru_.clear(); }

 private:
  struct Entry {
    std::shared_ptr<const pattern::CanonicalPattern> canon;
    std::vector<Time> ready;          // canonical order, bitwise key
    loggp::Params params;
    std::uint64_t seed = 0;           // key component iff exact
    std::vector<ProcId> origin_perm;  // from_canonical at insert time:
                                      // key component iff exact, relabel
                                      // detection otherwise
    bool worst_case = false;
    bool exact = false;
    std::vector<Time> finish;         // canonical order, absolute times
    std::size_t ops = 0;
  };

  [[nodiscard]] static bool matches(const Entry& entry,
                                    const core::CommStepQuery& query);

  ShardedLru<Entry> lru_;
};

}  // namespace logsim::runtime
