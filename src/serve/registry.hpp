#pragma once
// Registered-program registry for the serving layer (DESIGN.md §14).
//
// REGISTER interns a program once: one parse, one canonicalization, one
// structural hash -- and every later PREDICT that presents the returned
// handle skips all three.  The registry is process-wide (shared by every
// connection and every reactor), content-addressed (registering an equal
// program twice returns the same handle, so N clients registering the
// same workload share one entry), and append-only for the daemon's
// lifetime: handles stay valid until the server restarts, which is the
// documented client contract (reconnecting clients re-register; the
// interned entry makes that a cheap dedup hit when the server survived).
//
// Each entry carries a (params, seed) -> Prediction memo, the microsecond
// warm path: the global PredictionCache verifies hits with a full program
// equality walk (64-bit hashes can collide), which is exactly the O(bytes)
// cost handles exist to avoid.  The memo lives on the entry whose identity
// the handle already proves, so a hit is one small hash + table probe.
// The memo is bounded per entry; when full it is cleared wholesale
// (registered programs are re-simulated or served by the global cache
// until it refills) -- simple, and a parameter sweep wider than the bound
// degrades gracefully instead of evicting hot points one by one.
//
// Thread model: intern()/find() take a shared_mutex (writes are rare,
// lookups are the hot path and share the lock); each entry's memo has its
// own mutex.  Entries are immutable shared_ptrs -- a worker holding one
// never races a concurrent registration.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/predictor.hpp"
#include "fault/status.hpp"
#include "io/program_io.hpp"
#include "loggp/params.hpp"
#include "network/network_model.hpp"

namespace logsim::serve {

/// One interned program: parsed and hashed once at REGISTER time, shared
/// (immutably) by every connection that presents the handle.  An entry
/// may carry a non-flat topology (the REGISTER topology prefix): the
/// NetworkModel is materialized once here, and every handle predict
/// reuses it.  The topology is part of the entry's identity -- the same
/// program registered under two topologies yields two handles -- which is
/// what keeps the per-entry (params, seed) memo sound.
class RegisteredProgram {
 public:
  RegisteredProgram(std::uint64_t handle, io::ProgramBundle bundle,
                    std::uint64_t program_hash, std::size_t memo_capacity,
                    network::TopologySpec topology)
      : handle_(handle),
        bundle_(std::move(bundle)),
        program_hash_(program_hash),
        memo_capacity_(memo_capacity == 0 ? 1 : memo_capacity),
        topology_(std::move(topology)),
        net_(topology_.is_flat() ? nullptr
                                 : network::NetworkModel::create(topology_)) {}

  [[nodiscard]] std::uint64_t handle() const { return handle_; }
  [[nodiscard]] const core::StepProgram& program() const {
    return bundle_.program;
  }
  [[nodiscard]] const core::CostTable& costs() const { return bundle_.costs; }
  /// runtime::prediction_program_hash of (program, costs), precomputed so
  /// per-request cache keys cost O(1).  Topology-independent by design
  /// (non-flat entries bypass the global cache anyway).
  [[nodiscard]] std::uint64_t program_hash() const { return program_hash_; }
  /// The topology the program was registered under (flat by default).
  [[nodiscard]] const network::TopologySpec& topology() const {
    return topology_;
  }
  /// The entry's network model; nullptr for flat (so handle predicts on
  /// flat entries keep the zero-overhead PredictJob::net == nullptr path).
  [[nodiscard]] const network::NetworkModel* net() const { return net_.get(); }

  /// The warm path: a prediction memoized under exactly (params, seed).
  [[nodiscard]] std::optional<core::Prediction> memo_lookup(
      const loggp::Params& params, std::uint64_t seed) const;
  void memo_insert(const loggp::Params& params, std::uint64_t seed,
                   const core::Prediction& prediction) const;

  /// Memo entries currently held (tests / gauges).
  [[nodiscard]] std::size_t memo_size() const;
  /// Times the memo hit capacity and was cleared wholesale.
  [[nodiscard]] std::uint64_t memo_clears() const;

 private:
  struct MemoKey {
    loggp::Params params;
    std::uint64_t seed = 0;
    [[nodiscard]] bool operator==(const MemoKey&) const = default;
  };
  struct MemoKeyHash {
    [[nodiscard]] std::size_t operator()(const MemoKey& key) const;
  };

  std::uint64_t handle_;
  io::ProgramBundle bundle_;
  std::uint64_t program_hash_;
  std::size_t memo_capacity_;
  network::TopologySpec topology_;
  std::unique_ptr<const network::NetworkModel> net_;

  // const methods mutate only the memo, under its own lock: the memo is a
  // cache bolted onto an otherwise immutable entry.
  mutable std::mutex memo_mu_;
  mutable std::unordered_map<MemoKey, core::Prediction, MemoKeyHash> memo_;
  mutable std::uint64_t memo_clears_ = 0;
};

class ProgramRegistry {
 public:
  struct Config {
    /// Registered programs the daemon will hold at once; registration
    /// beyond this fails with a transient error (clients fall back to
    /// inline program text).  Entries are never evicted -- a handle handed
    /// out stays valid -- so this bounds daemon memory.
    std::size_t max_programs = 1024;
    /// (params, seed) memo points per entry; the memo clears wholesale
    /// when full.
    std::size_t memo_entries_per_program = 4096;
    /// Guards for the REGISTER-time parse (the server forwards its wire
    /// limit into max_bytes).
    io::ProgramParseOptions parse;
  };

  struct Stats {
    std::uint64_t programs = 0;       ///< live entries
    std::uint64_t registrations = 0;  ///< REGISTER calls that parsed OK
    std::uint64_t dedup_hits = 0;     ///< ... of which returned an entry
  };

  ProgramRegistry() : ProgramRegistry(Config{}) {}
  explicit ProgramRegistry(Config config) : config_(config) {}

  /// Parses, canonicalizes and interns `text` under `topology` (flat by
  /// default).  Registering a program structurally equal to an existing
  /// entry WITH the same topology returns that entry (same handle); the
  /// same program under a different topology is a distinct entry.  The
  /// topology is validated against the parsed program's processor count.
  /// Fails invalid-input on a parse/validate error, transient when the
  /// registry is full.
  [[nodiscard]] Result<std::shared_ptr<const RegisteredProgram>> intern(
      const std::string& text,
      const network::TopologySpec& topology = network::TopologySpec::flat());

  /// The entry for a handle; nullptr when the handle was never issued.
  [[nodiscard]] std::shared_ptr<const RegisteredProgram> find(
      std::uint64_t handle) const;

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  Config config_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const RegisteredProgram>>
      by_handle_;
  // (program_hash ^ topology hash) -> handles with that key (usually one;
  // collisions and equal re-registrations share the bucket, verified by
  // full program + topology equality).
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> by_content_;
  std::uint64_t next_handle_ = 1;
  std::uint64_t registrations_ = 0;
  std::uint64_t dedup_hits_ = 0;
};

}  // namespace logsim::serve
