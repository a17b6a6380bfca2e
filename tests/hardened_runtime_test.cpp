// Failpoint-driven matrix tests for the hardened batch runtime: retry
// with backoff, per-job deadlines, cooperative mid-batch cancellation,
// the watchdog on wedged workers, rerun determinism of a ge_sweep and
// graceful degradation of the cache under injected faults.  Everything
// here drives the GLOBAL failpoint registry -- each test scopes its
// configuration with ScopedFailpoints so the next test starts disarmed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "../bench/ge_sweep.hpp"
#include "core/predictor.hpp"
#include "fault/cancel.hpp"
#include "fault/failpoint.hpp"
#include "fault/retry.hpp"
#include "layout/layout.hpp"
#include "loggp/params.hpp"
#include "runtime/batch_predictor.hpp"
#include "runtime/metrics.hpp"
#include "runtime/prediction_cache.hpp"
#include "runtime/thread_pool.hpp"

namespace logsim {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;

/// Arms the global registry for one test; disarms on scope exit.
struct ScopedFailpoints {
  explicit ScopedFailpoints(const std::string& spec, std::uint64_t seed = 1) {
    const Status st = fault::FailpointRegistry::global().configure(spec, seed);
    EXPECT_TRUE(st.ok()) << st.to_string();
  }
  ~ScopedFailpoints() { fault::FailpointRegistry::global().clear(); }
};

/// A retry policy whose backoff is measured in tens of microseconds so
/// fault-storm tests stay fast.
fault::RetryPolicy fast_retry(int max_attempts) {
  fault::RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.initial_backoff = Time{10.0};
  policy.max_backoff = Time{100.0};
  policy.jitter = 0.5;
  return policy;
}

/// Distinct two-proc programs keyed by `block`.
core::StepProgram tiny_program(int block) {
  core::StepProgram program{2};
  core::ComputeStep cs;
  cs.items.push_back(core::WorkItem{0, 0, block, {}});
  cs.items.push_back(core::WorkItem{1, 0, block, {}});
  program.add_compute(std::move(cs));
  pattern::CommPattern pat{2};
  pat.add(0, 1, Bytes{64});
  program.add_comm(std::move(pat));
  return program;
}

core::CostTable tiny_costs() {
  core::CostTable costs;
  costs.register_op("op0");
  costs.set_cost(0, 4, Time{10.0});
  costs.set_cost(0, 64, Time{100.0});
  return costs;
}

struct Fixture {
  std::vector<core::StepProgram> programs;
  core::CostTable costs = tiny_costs();
  loggp::Params params = loggp::presets::meiko_cs2(2);
  std::vector<runtime::PredictJob> jobs;
  std::vector<core::Prediction> serial;

  explicit Fixture(int n, std::uint64_t seed = 1) {
    programs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) programs.push_back(tiny_program(4 + i));
    core::ProgramSimOptions sim;
    sim.seed = seed;
    for (const auto& p : programs) {
      jobs.push_back(runtime::PredictJob{&p, params, &costs});
      serial.push_back(core::Predictor{params, sim}.predict_or_die(p, costs));
    }
  }
};

void expect_identical(const core::ProgramResult& a,
                      const core::ProgramResult& b) {
  EXPECT_EQ(a.total.us(), b.total.us());
  EXPECT_EQ(a.comm_ops, b.comm_ops);
  ASSERT_EQ(a.proc_end.size(), b.proc_end.size());
  for (std::size_t p = 0; p < a.proc_end.size(); ++p) {
    EXPECT_EQ(a.proc_end[p].us(), b.proc_end[p].us());
    EXPECT_EQ(a.comp[p].us(), b.comp[p].us());
    EXPECT_EQ(a.comm[p].us(), b.comm[p].us());
  }
}

void expect_identical(const core::Prediction& a, const core::Prediction& b) {
  expect_identical(a.standard, b.standard);
  expect_identical(a.worst_case, b.worst_case);
}

// ------------------------------------------------------------------ retry

TEST(HardenedRuntime, RetryRecoversFromBoundedTransientFaults) {
  const Fixture fx{1};
  const ScopedFailpoints fp{"batch.job:err#2"};  // first two attempts fail

  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{
      {.threads = 1, .metrics = &metrics, .retry = fast_retry(3)}};
  const auto results = batch.predict_all(fx.jobs);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok()) << results[0].error();
  EXPECT_EQ(results[0].attempts, 3);
  expect_identical(results[0].value(), fx.serial[0]);
  EXPECT_EQ(metrics.counter("batch.retries").value(), 2u);
  EXPECT_EQ(metrics.counter("batch.jobs_run").value(), 1u);
  EXPECT_EQ(metrics.counter("batch.job_errors").value(), 0u);
}

TEST(HardenedRuntime, RetryBudgetExhaustionSurfacesTransientStatus) {
  const Fixture fx{1};
  const ScopedFailpoints fp{"batch.job:err"};  // every attempt fails

  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{
      {.threads = 1, .metrics = &metrics, .retry = fast_retry(3)}};
  const auto results = batch.predict_all(fx.jobs);
  ASSERT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].status.code(), ErrorCode::kTransient);
  EXPECT_EQ(results[0].attempts, 3);
  EXPECT_EQ(metrics.counter("batch.retries").value(), 2u);
  EXPECT_EQ(metrics.counter("batch.job_errors").value(), 1u);
}

TEST(HardenedRuntime, TransientFaultStormStillBitIdentical) {
  const Fixture fx{12};
  // Transient failures injected at ~30% of job attempts; with retry the
  // batch must still complete with results bit-identical to a clean run.
  const ScopedFailpoints fp{"batch.job:err@0.3", 11};

  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{
      {.threads = 4, .metrics = &metrics, .retry = fast_retry(25)}};
  const auto results = batch.predict_all(fx.jobs);
  ASSERT_EQ(results.size(), fx.jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].error();
    expect_identical(results[i].value(), fx.serial[i]);
  }
  // The storm actually happened (fire decisions are seed-deterministic,
  // and a fire always forces a retry).
  EXPECT_GE(fault::FailpointRegistry::global().fires("batch.job"), 1u);
  EXPECT_EQ(metrics.counter("batch.retries").value(),
            fault::FailpointRegistry::global().fires("batch.job"));
}

// -------------------------------------------------- deadlines + watchdog

TEST(HardenedRuntime, ExpiredJobDeadlineReturnsTimeout) {
  const Fixture fx{2};
  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{
      {.threads = 2, .metrics = &metrics, .job_deadline = nanoseconds{1}}};
  const auto results = batch.predict_all(fx.jobs);
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status.code(), ErrorCode::kTimeout);
    EXPECT_EQ(r.attempts, 1);  // timeouts are not retryable
  }
  EXPECT_EQ(metrics.counter("batch.timeouts").value(), 2u);
}

TEST(HardenedRuntime, RetryNeverSleepsPastTheJobDeadline) {
  const Fixture fx{1};
  const ScopedFailpoints fp{"batch.job:err"};

  // Backoff (1 s) dwarfs the deadline (50 ms): instead of sleeping through
  // the deadline just to fail, the job must fail fast with context.
  fault::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = Time{1e6};
  policy.jitter = 0.0;
  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{{.threads = 1,
                                 .metrics = &metrics,
                                 .retry = policy,
                                 .job_deadline = milliseconds{50}}};
  const auto start = std::chrono::steady_clock::now();
  const auto results = batch.predict_all(fx.jobs);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].attempts, 1);
  EXPECT_NE(results[0].error().find("no room to retry"), std::string::npos);
  EXPECT_EQ(metrics.counter("batch.retries").value(), 0u);
  EXPECT_LT(elapsed, milliseconds{500});
}

TEST(HardenedRuntime, WatchdogUnwedgesABatchWithASwallowedTask) {
  const Fixture fx{4};
  // A "pool.job" error fires before any caller code runs: the task (and
  // the batch's completion signal for that job) is swallowed whole.
  // Without the watchdog this predict_all would block forever.
  const ScopedFailpoints fp{"pool.job:err#1"};

  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{{.threads = 2,
                                 .metrics = &metrics,
                                 .batch_deadline = milliseconds{250}}};
  const auto start = std::chrono::steady_clock::now();
  const auto results = batch.predict_all(fx.jobs);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, milliseconds{5000});

  std::size_t ok = 0, timed_out = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].ok()) {
      expect_identical(results[i].value(), fx.serial[i]);
      ++ok;
    } else if (results[i].status.code() == ErrorCode::kTimeout) {
      ++timed_out;
    }
  }
  EXPECT_EQ(ok, 3u);
  EXPECT_EQ(timed_out, 1u);
  EXPECT_EQ(metrics.counter("batch.watchdog_expiries").value(), 1u);
}

TEST(HardenedRuntime, ThreadPoolSurvivesThrowingTasks) {
  const ScopedFailpoints fp{"pool.job:err#3"};
  runtime::ThreadPool pool{2};
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&ran](std::chrono::steady_clock::duration) { ++ran; });
  }
  pool.wait_idle();  // must not deadlock on the three swallowed tasks
  EXPECT_EQ(pool.task_exceptions(), 3u);
  EXPECT_EQ(ran.load(), 13);
}

TEST(HardenedRuntime, DelayFailpointSlowsButDoesNotFail) {
  const Fixture fx{2};
  const ScopedFailpoints fp{"pool.job:delay@1ms"};
  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{{.threads = 2, .metrics = &metrics}};
  const auto results = batch.predict_all(fx.jobs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].error();
    expect_identical(results[i].value(), fx.serial[i]);
  }
}

// ----------------------------------------------------------- cancellation

TEST(HardenedRuntime, PreCancelledBatchShortCircuitsEveryJob) {
  const Fixture fx{3};
  const fault::CancelToken cancel = fault::CancelToken::create();
  cancel.cancel();

  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{{.threads = 2, .metrics = &metrics}};
  const auto results = batch.predict_all(fx.jobs, cancel);
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status.code(), ErrorCode::kCancelled);
  }
  EXPECT_EQ(metrics.counter("batch.cancelled").value(), 3u);
  EXPECT_EQ(metrics.counter("batch.jobs_run").value(), 0u);
}

TEST(HardenedRuntime, MidBatchCancellationStopsInFlightAndQueuedJobs) {
  const Fixture fx{4};
  const fault::CancelToken cancel = fault::CancelToken::create();

  // The first simulated work item pulls the plug; the in-flight job must
  // observe it at its next step boundary, queued jobs before they start.
  auto fired = std::make_shared<std::atomic<bool>>(false);
  core::ProgramSimOptions sim;
  sim.compute_overhead = [fired, cancel](const core::WorkItem&) {
    if (!fired->exchange(true)) cancel.cancel();
    return Time::zero();
  };

  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{
      {.threads = 1, .sim = sim, .metrics = &metrics}};
  const auto results = batch.predict_all(fx.jobs, cancel);
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status.code(), ErrorCode::kCancelled);
  }
  EXPECT_EQ(metrics.counter("batch.cancelled").value(), 4u);
}

// ------------------------------------------------------------------ sweep

TEST(HardenedRuntime, GeSweepRerunIsBitIdentical) {
  const layout::DiagonalMap map{8};
  const bench::SweepResult first = bench::run_sweep(map);
  ASSERT_FALSE(first.points.empty());
  const bench::SweepResult second = bench::run_sweep(map);

  ASSERT_EQ(second.points.size(), first.points.size());
  for (std::size_t i = 0; i < first.points.size(); ++i) {
    EXPECT_EQ(second.points[i].block, first.points[i].block);
    EXPECT_EQ(second.points[i].simulated_standard,
              first.points[i].simulated_standard);
    EXPECT_EQ(second.points[i].simulated_worst,
              first.points[i].simulated_worst);
    EXPECT_EQ(second.points[i].simulated_comm_standard,
              first.points[i].simulated_comm_standard);
  }
}

// ------------------------------------------------------------------ cache

TEST(HardenedRuntime, CacheFailpointsDegradeToMissesNotFailures) {
  const Fixture fx{4};
  runtime::PredictionCache cache;
  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{
      {.threads = 2, .cache = &cache, .metrics = &metrics}};

  const auto warmup = batch.predict_all(fx.jobs);
  for (const auto& r : warmup) ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(cache.stats().entries, fx.jobs.size());

  // With lookups failing, the warm cache looks cold: every job recomputes
  // (bit-identically) instead of erroring out.
  const ScopedFailpoints fp{"cache.lookup:err"};
  const auto degraded = batch.predict_all(fx.jobs);
  for (std::size_t i = 0; i < degraded.size(); ++i) {
    ASSERT_TRUE(degraded[i].ok()) << degraded[i].error();
    EXPECT_FALSE(degraded[i].from_cache);
    expect_identical(degraded[i].value(), fx.serial[i]);
  }
}

TEST(HardenedRuntime, CacheInsertFailpointDropsEntriesSilently) {
  const Fixture fx{3};
  const ScopedFailpoints fp{"cache.insert:err"};
  runtime::PredictionCache cache;
  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{
      {.threads = 2, .cache = &cache, .metrics = &metrics}};
  const auto results = batch.predict_all(fx.jobs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].error();
    expect_identical(results[i].value(), fx.serial[i]);
  }
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(HardenedRuntime, ArmedRegistryPublishesFireGauge) {
  const Fixture fx{1};
  const ScopedFailpoints fp{"batch.job:err#1"};
  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{
      {.threads = 1, .metrics = &metrics, .retry = fast_retry(2)}};
  const auto results = batch.predict_all(fx.jobs);
  ASSERT_TRUE(results[0].ok()) << results[0].error();
  EXPECT_NE(metrics.to_string().find("fault.failpoint_fires"),
            std::string::npos);
}

}  // namespace
}  // namespace logsim
