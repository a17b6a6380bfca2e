#pragma once
// Parallel component decomposition of a communication step.
//
// A communication step whose pattern splits into several connected
// components is several independent LogGP simulations: messages never
// cross components, so neither does causality.  This layer simulates the
// components concurrently and stitches the per-processor finish times back
// together, bit-identical to the scalar Figure-2 simulation.
//
// Bit-identity rests on the repo's uniform-bytes invariant
// (pattern/canonical.hpp): the standard simulator's committed times are
// relabel-equivariant and seed-independent iff every network message in
// the step carries the same byte count.  The global rng tie-break stream
// is inherently sequential -- interleaving draws across components in
// *some* order -- but under the invariant every tie-break order yields the
// same finish times, and a per-component simulation is exactly the global
// one under a particular tie-break policy.  Steps outside the invariant
// (mixed bytes, worst-case schedule, per-message hooks) transparently fall
// back to the scalar path; correctness never depends on the caller
// checking eligibility.
//
// Layering: core cannot depend on runtime, so the thread pool arrives as a
// ParallelFor function (runtime/sim_pool.hpp adapts runtime::ThreadPool);
// an empty ParallelFor runs components sequentially, which still wins on
// cache locality for many-component steps and keeps the path testable
// without threads.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/comm_sim.hpp"
#include "core/comm_sink.hpp"
#include "core/sim_scratch.hpp"
#include "loggp/params.hpp"
#include "pattern/comm_pattern.hpp"
#include "pattern/component_split.hpp"
#include "util/types.hpp"

namespace logsim::core {

/// Minimal parallel-for abstraction: invoke body(0..n-1), in any order,
/// possibly concurrently, returning only when every call finished.  The
/// body is re-entrant across distinct indices.
using ParallelFor =
    std::function<void(std::size_t n, const std::function<void(std::size_t)>&)>;

struct ParallelCommOptions {
  /// Decomposition engages only at or above this processor count; smaller
  /// steps simulate scalar (the decomposition bookkeeping costs more than
  /// it saves).  ProgramSimulator always uses the default; tests lower it
  /// to reach the component path on small patterns.
  int min_procs = 2048;
  bool enabled = true;
  /// Executor for the component simulations; empty = sequential.
  ParallelFor parallel;
  /// Topology backend (borrowed), same contract as CommSimOptions::net.  A
  /// non-flat model forces the scalar path: component relabeling changes
  /// absolute processor ids, which topology distances depend on, and the
  /// dense scan's tie-break-independence argument assumes flat costs.
  const network::NetworkModel* net = nullptr;
};

/// What a run did -- exposed for tests, benches and obs counters.
struct ParallelRunInfo {
  int components = 0;    ///< components found (0 = not even analyzed)
  bool decomposed = false;  ///< true when the component path ran
  /// True when the single-component dense ordered-ties scan ran (see
  /// CommSimulator::run_dense_into); decomposed components use the same
  /// scan internally without setting this.
  bool dense = false;
};

/// Finish-times-only simulation of one communication step with transparent
/// component-parallel execution.  Semantics equal CommSimulator::run_into
/// with a FinishOnlySink, bit-for-bit, on every input.
class ParallelCommSimulator {
 public:
  explicit ParallelCommSimulator(loggp::Params params,
                                 ParallelCommOptions opts = {});

  /// Simulates `pattern` with per-processor ready times into `sink`.
  /// `seed` drives the scalar fallback's tie-break stream (and, derived
  /// per component, the component simulations -- where the uniform-bytes
  /// invariant makes it provably irrelevant); a seed per call lets one
  /// warmed instance serve every step of a program run.  Not const and not
  /// thread-safe: the per-component scratch slots live in the simulator
  /// (use one instance per calling thread).
  ParallelRunInfo run_into(const pattern::CommPattern& pattern,
                           const std::vector<Time>& ready, std::uint64_t seed,
                           FinishOnlySink& sink);

  [[nodiscard]] const loggp::Params& params() const { return params_; }

 private:
  loggp::Params params_;
  ParallelCommOptions opts_;
  CommSimScratch scalar_scratch_;
  pattern::ComponentSplit split_;

  /// Per-component simulation state, one slot per component so concurrent
  /// tasks never share mutable state.  Slots are grow-only scratch.
  struct CompSlot {
    pattern::CommPattern sub{1};
    std::vector<Time> ready;
    FinishOnlySink sink;
    CommSimScratch scratch;
  };
  std::vector<CompSlot> slots_;
};

}  // namespace logsim::core
