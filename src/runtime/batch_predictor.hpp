#pragma once
// Parallel batch evaluation of the predictor, hardened against faults.
//
// A BatchPredictor owns a ThreadPool and fans a vector of independent
// PredictJobs out across it.  Results come back in input order, each as a
// JobResult that either holds the Prediction or the Status explaining its
// absence -- one bad job never takes down the batch.  Determinism: every
// job runs a self-contained core::Predictor with the configured seed, so
// an N-thread batch returns bit-identical Predictions to running the
// serial Predictor over the same jobs in a loop, and a job retried after
// a transient fault recomputes the identical Prediction.
//
// Hardening (DESIGN.md §8):
//   * per-job and per-batch deadlines, polled cooperatively between
//     simulation steps -- an expired job returns kTimeout, never hangs;
//   * a cancel token checked before and during every job;
//   * transient failures retried with jittered capped exponential backoff
//     (fault::RetryPolicy), bounded by the job's deadline;
//   * a watchdog on the batch deadline: if workers wedge (injected
//     "pool.job" faults, a stuck compute_overhead closure), predict_all
//     marks the unfinished jobs kTimeout and returns instead of blocking
//     forever.  Jobs borrow their program/costs, so when the watchdog
//     fires keep those inputs alive until the pool drains (wait_idle or
//     destruction) -- a wedged worker may still be reading them.
//
// An optional PredictionCache memoizes (program, params, seed) triples
// across batches; hits skip the simulation entirely.  All of the above
// feed the metrics Registry (jobs run, errors, retries, timeouts,
// cancellations, watchdog expiries, wall/queue times).

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "fault/cancel.hpp"
#include "obs/sim_trace.hpp"
#include "fault/retry.hpp"
#include "fault/status.hpp"
#include "loggp/params.hpp"
#include "runtime/metrics.hpp"
#include "runtime/prediction_cache.hpp"
#include "runtime/step_cache.hpp"
#include "runtime/thread_pool.hpp"

namespace logsim::runtime {

/// One prediction request.  The program and cost table are borrowed, not
/// copied: both must outlive the predict_all() call that evaluates the job
/// (and, when a batch deadline is configured, the pool drain that follows
/// a watchdog expiry).
struct PredictJob {
  const core::StepProgram* program = nullptr;
  loggp::Params params;
  const core::CostTable* costs = nullptr;
  /// Optional simulated-machine timeline capture for THIS job (borrowed,
  /// not thread-safe -- set it on at most one job per batch).  A traced
  /// job bypasses the prediction cache: a hit would skip the simulation
  /// and leave the recorder empty.  The recorder ends up holding the
  /// standard-schedule run (see core::Predictor).
  obs::SimTraceRecorder* sim_trace = nullptr;
  /// Optional per-job stop controls, honoured in ADDITION to the batch
  /// token / config deadlines (the serving layer attaches one per request).
  /// Neither affects the prediction value, so cached results still apply.
  fault::CancelToken cancel{};
  /// Wall-clock budget for this job's attempt chain; zero disables.
  /// Combined with Config::job_deadline by taking the earlier expiry.
  std::chrono::steady_clock::duration deadline{};
  /// Optional per-job simulation-seed override (worst-case tie-breaking);
  /// nullopt uses Config::sim.seed.  The effective seed is part of the
  /// cache key, so jobs with different seeds never share an entry.  The
  /// serving layer maps the wire request's seed here.
  std::optional<std::uint64_t> seed = std::nullopt;
  /// Precomputed prediction_program_hash(*program, *costs); nullopt hashes
  /// on demand.  The serving layer's registered programs carry it so a
  /// cache key costs O(1) per request instead of a structural walk.  Must
  /// match the borrowed program/costs or cache entries are wasted (never
  /// wrong: lookups verify with full equality).
  std::optional<std::uint64_t> program_hash = std::nullopt;
  /// Skips the PredictionCache for this job: for callers that memoize at
  /// a higher level and don't want a second full program copy retained in
  /// the shared cache.  The comm-step cache still applies.
  bool bypass_cache = false;
  /// Optional topology backend override for THIS job (borrowed; must
  /// outlive the predict call).  nullptr inherits Config::sim.net.  A
  /// non-flat model implies bypass_cache: prediction keys do not carry the
  /// topology, and the comm-step cache is disabled inside the simulator
  /// for the same reason (see core::ProgramSimOptions::net).
  const network::NetworkModel* net = nullptr;
};

/// Per-job outcome: a Prediction, or the Status explaining its absence.
struct JobResult {
  std::optional<core::Prediction> prediction;
  Status status;              ///< ok() iff prediction.has_value()
  int attempts = 0;           ///< tries consumed
  bool from_cache = false;    ///< served by the PredictionCache

  [[nodiscard]] bool ok() const { return prediction.has_value(); }
  /// Precondition: ok().
  [[nodiscard]] const core::Prediction& value() const { return *prediction; }
  /// Rendered status for diagnostics; empty when ok().
  [[nodiscard]] std::string error() const {
    return ok() ? std::string{} : status.to_string();
  }
};

class BatchPredictor {
 public:
  struct Config {
    /// Worker threads; 0 means std::thread::hardware_concurrency().
    std::size_t threads = 0;
    /// Simulation options shared by every job (seed, worst-case toggle).
    /// A compute_overhead callback, if set, must be thread-safe; jobs using
    /// one bypass the cache (a closure has no canonical hash).  The
    /// cancel/deadline fields are overwritten per job.
    core::ProgramSimOptions sim{};
    /// Optional memoization cache; borrowed, may be shared across
    /// BatchPredictors.  nullptr disables memoization.
    PredictionCache* cache = nullptr;
    /// Optional comm-step cache shared by every worker (and across
    /// BatchPredictors); distinct canonical comm steps are simulated once
    /// per (params, readies) key across the whole batch.  Unlike the
    /// whole-program cache, it also serves jobs with a compute_overhead
    /// closure -- the closure only perturbs compute steps, never the comm
    /// steps this cache keys on.  nullptr disables.
    SharedStepCache* step_cache = nullptr;
    /// Metrics sink; nullptr means metrics::Registry::global().
    metrics::Registry* metrics = nullptr;
    /// Retry budget for transient job failures; max_attempts = 1 (the
    /// default) disables retry.
    fault::RetryPolicy retry{};
    /// Wall-clock budget per job attempt chain; zero disables.
    std::chrono::steady_clock::duration job_deadline{};
    /// Wall-clock budget for a whole predict_all call; zero disables.
    /// Doubles as the watchdog horizon.
    std::chrono::steady_clock::duration batch_deadline{};
  };

  BatchPredictor() : BatchPredictor(Config{}) {}
  explicit BatchPredictor(Config config);

  /// Evaluates all jobs concurrently; result i corresponds to job i.
  /// Blocks until the whole batch is done, the batch deadline expires, or
  /// `cancel` fires (remaining jobs then come back kCancelled/kTimeout).
  /// Thread-safe: concurrent predict_all() calls share the pool (FIFO).
  [[nodiscard]] std::vector<JobResult> predict_all(
      const std::vector<PredictJob>& jobs,
      fault::CancelToken cancel = fault::CancelToken{});

  /// Convenience: evaluates one job through the same cache + retry +
  /// metrics path (no watchdog).  High-rate callers (the
  /// serving layer) pass publish_gauges = false so a warm cache hit stays
  /// at memory speed, and publish on their own cadence instead.
  [[nodiscard]] JobResult predict_one(const PredictJob& job,
                                      bool publish_gauges = true);

  [[nodiscard]] std::size_t threads() const { return pool_.size(); }
  [[nodiscard]] PredictionCache* cache() const { return cache_; }
  [[nodiscard]] SharedStepCache* step_cache() const { return step_cache_; }
  [[nodiscard]] metrics::Registry& metrics() const { return *metrics_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Publishes current cache hit-rate / entry / failpoint gauges into the
  /// registry (called automatically at the end of every predict_all).
  void publish_cache_gauges();

 private:
  /// Shared by predict_all, its pool tasks, and the watchdog: heap-
  /// allocated so a watchdog-abandoned batch leaves late workers writing
  /// into live memory instead of a dead stack frame.
  struct BatchState;

  /// The PredictionCache key of `job`, or nullopt when the job must not
  /// touch the cache: no cache configured, null inputs, bypass_cache, a
  /// sim_trace recorder, a non-flat network, or a compute_overhead
  /// closure (opaque to the canonical hash).
  [[nodiscard]] std::optional<std::uint64_t> cache_key(
      const PredictJob& job) const;

  JobResult run_job(const PredictJob& job, const fault::CancelToken& cancel,
                    std::chrono::steady_clock::time_point batch_deadline,
                    std::optional<std::uint64_t> key, std::uint64_t trace_id);
  Status run_attempt(const PredictJob& job, const fault::CancelToken& cancel,
                     std::chrono::steady_clock::time_point deadline,
                     std::optional<std::uint64_t> key, JobResult* result);
  void finish_job(const std::shared_ptr<BatchState>& state, std::size_t index,
                  JobResult result);

  Config config_;
  core::ProgramSimOptions sim_;
  PredictionCache* cache_;
  SharedStepCache* step_cache_;
  metrics::Registry* metrics_;
  metrics::Counter& jobs_run_;
  metrics::Counter& job_errors_;
  metrics::Counter& retries_;
  metrics::Counter& timeouts_;
  metrics::Counter& cancelled_;
  metrics::Counter& watchdog_expiries_;
  metrics::Histogram& job_wall_us_;
  metrics::Histogram& queue_wait_us_;
  ThreadPool pool_;  // last: workers must never outlive the fields above
};

}  // namespace logsim::runtime
