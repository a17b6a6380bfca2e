#pragma once
// Runtime-side executors for the core parallel-decomposition path.
//
// core::ParallelCommSimulator is layering-clean: it takes work through a
// core::ParallelFor function and knows nothing about threads.  This header
// provides the two adapters callers actually use:
//
//   * pool_parallel(pool)  -- a ParallelFor running bodies as tasks on an
//     existing runtime::ThreadPool, joined by a countdown latch (NOT
//     wait_idle(): the pool may be shared and concurrently loaded, and
//     wait_idle() would block on unrelated work).  Body exceptions are
//     contained by the pool (counted in task_exceptions()); the latch
//     always reaches zero.
//
//   * sim_parallel_for()   -- the process-wide default executor, backed by
//     a lazily created pool sized by LOGSIM_SIM_THREADS (default: hardware
//     concurrency; 0 or 1 = no pool, empty executor, sequential
//     simulation).
//
// LOGSIM_SIM_THREADS=N, read once on first use, sets the pool's worker
// count; logsim_cli's --sim-threads maps onto the same switch.
// Decomposition itself is always on (core::ProgramSimOptions::decompose
// is the per-run seam); finish times are bit-identical either way.

#include <cstddef>

#include "core/parallel_comm.hpp"
#include "runtime/thread_pool.hpp"

namespace logsim::runtime {

/// ParallelFor adapter over an existing pool (borrowed; must outlive every
/// call through the returned function).
[[nodiscard]] core::ParallelFor pool_parallel(ThreadPool& pool);

/// Worker count the simulation pool would use: LOGSIM_SIM_THREADS if set
/// (clamped to >= 0), else std::thread::hardware_concurrency().
[[nodiscard]] std::size_t sim_thread_count();

/// Overrides the LOGSIM_SIM_THREADS-derived default (CLI flag hook).
/// Takes effect only before the first sim_parallel_for() call.
void set_sim_thread_count(std::size_t threads);

/// Process-wide executor for component simulations: empty when the
/// configured thread count is <= 1, else backed by a shared lazily
/// created ThreadPool.  The empty case keeps callers allocation- and
/// thread-free (components then run sequentially in the caller).
[[nodiscard]] const core::ParallelFor& sim_parallel_for();

}  // namespace logsim::runtime
