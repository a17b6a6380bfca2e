#include "runtime/batch_predictor.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <new>
#include <thread>
#include <utility>

#include "fault/failpoint.hpp"
#include "network/network_model.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace logsim::runtime {

namespace {

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

double to_us(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

std::chrono::steady_clock::duration from_time(Time t) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::micro>(t.us()));
}

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

/// True when the model adds nothing over flat LogGP -- the only regime
/// where prediction keys (which do not carry a topology) are sound.
bool flat_net(const network::NetworkModel* net) {
  return net == nullptr || net->is_flat();
}

}  // namespace

/// One live batch.  Tasks hold a shared_ptr, so if the watchdog abandons
/// the batch every late write still lands in valid heap memory; the
/// caller's copy of `results` is taken under the mutex before returning.
struct BatchPredictor::BatchState {
  std::vector<PredictJob> jobs;  // copied: outlives an abandoned caller frame
  std::vector<JobResult> results;
  std::vector<char> done;
  std::vector<std::optional<std::uint64_t>> keys;  // cache_key() per job

  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t remaining = 0;
  bool abandoned = false;  // watchdog fired; unstarted tasks bail out
};

BatchPredictor::BatchPredictor(Config config)
    : config_(config),
      sim_(std::move(config.sim)),
      cache_(config.cache),
      step_cache_(config.step_cache),
      metrics_(config.metrics != nullptr ? config.metrics
                                         : &metrics::Registry::global()),
      jobs_run_(metrics_->counter("batch.jobs_run")),
      job_errors_(metrics_->counter("batch.job_errors")),
      retries_(metrics_->counter("batch.retries")),
      timeouts_(metrics_->counter("batch.timeouts")),
      cancelled_(metrics_->counter("batch.cancelled")),
      watchdog_expiries_(metrics_->counter("batch.watchdog_expiries")),
      job_wall_us_(metrics_->histogram("batch.job_wall", "us")),
      queue_wait_us_(metrics_->histogram("batch.queue_wait", "us")),
      pool_(resolve_threads(config.threads)) {
  // The per-batch fields are injected per job; a caller-set value here
  // would silently leak into predict_one, so normalize them away.
  sim_.cancel = fault::CancelToken{};
  sim_.deadline = kNoDeadline;
  // Config.step_cache wins over a cache wired in via sim options, so the
  // step_cache.* gauges always describe the cache the workers actually use
  // (a plain sim-options pointer still works, it just publishes no stats).
  if (step_cache_ != nullptr) sim_.step_cache = step_cache_;
}

std::vector<JobResult> BatchPredictor::predict_all(
    const std::vector<PredictJob>& jobs, fault::CancelToken cancel) {
  if (jobs.empty()) return {};

  auto state = std::make_shared<BatchState>();
  state->jobs = jobs;
  state->results.resize(jobs.size());
  state->done.assign(jobs.size(), 0);
  state->remaining = jobs.size();

  const auto batch_deadline =
      config_.batch_deadline.count() > 0
          ? std::chrono::steady_clock::now() + config_.batch_deadline
          : kNoDeadline;

  // Hash every job once, here on the calling thread; the key serves both
  // the cache lookup and the miss-path insert.
  state->keys.reserve(jobs.size());
  for (const PredictJob& job : jobs) state->keys.push_back(cache_key(job));

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    pool_.submit([this, state, cancel, batch_deadline,
                  i](std::chrono::steady_clock::duration queue_wait) {
      queue_wait_us_.record(to_us(queue_wait));
      if (obs::TraceSession& tracer = obs::TraceSession::global();
          tracer.enabled()) {
        // Queueing time as a span ending "now": makes queue pressure
        // visible on the worker's track right before the job span.
        const double wait_us = to_us(queue_wait);
        tracer.complete("batch.queued", "batch", tracer.now_us() - wait_us,
                        wait_us, i);
      }
      bool abandoned = false;
      {
        std::lock_guard lock{state->mu};
        abandoned = state->abandoned;
      }
      JobResult result;
      if (abandoned) {
        result.status = Status::timeout(
            "batch deadline expired before the job started");
        timeouts_.add();
        job_errors_.add();
      } else if (cancel.cancelled()) {
        result.status =
            Status::cancelled("batch cancelled before the job started");
        cancelled_.add();
        job_errors_.add();
      } else {
        result =
            run_job(state->jobs[i], cancel, batch_deadline, state->keys[i], i);
      }
      finish_job(state, i, std::move(result));
    });
  }

  std::vector<JobResult> out;
  {
    std::unique_lock lock{state->mu};
    auto batch_done = [&state] { return state->remaining == 0; };
    if (batch_deadline == kNoDeadline) {
      state->done_cv.wait(lock, batch_done);
    } else if (!state->done_cv.wait_until(lock, batch_deadline, batch_done)) {
      // Watchdog: the deadline passed with jobs outstanding.  Cooperative
      // jobs observe the same deadline between simulation steps and finish
      // on their own moments later; anything truly wedged (an injected
      // pool fault that swallowed a task, a stuck closure) would otherwise
      // hang this wait forever.  Mark the stragglers timed out and return.
      watchdog_expiries_.add();
      if (obs::TraceSession& tracer = obs::TraceSession::global();
          tracer.enabled()) {
        tracer.instant("batch.watchdog_expiry", "batch");
      }
      state->abandoned = true;
      for (std::size_t i = 0; i < state->results.size(); ++i) {
        if (state->done[i]) continue;
        state->results[i].prediction.reset();
        state->results[i].status = Status::timeout(
            "batch deadline expired with the job still outstanding");
        timeouts_.add();
        job_errors_.add();
      }
    }
    out = state->results;
  }

  publish_cache_gauges();
  return out;
}

JobResult BatchPredictor::predict_one(const PredictJob& job,
                                      bool publish_gauges) {
  JobResult result = run_job(job, fault::CancelToken{}, kNoDeadline,
                             cache_key(job), obs::kNoId);
  if (publish_gauges) publish_cache_gauges();
  return result;
}

std::optional<std::uint64_t> BatchPredictor::cache_key(
    const PredictJob& job) const {
  // Without a cache the key has no consumer, and computing it walks every
  // work item of the program.
  if (cache_ == nullptr || job.program == nullptr || job.costs == nullptr ||
      job.bypass_cache || sim_.compute_overhead || job.sim_trace != nullptr ||
      !flat_net(job.net != nullptr ? job.net : sim_.net)) {
    return std::nullopt;
  }
  const std::uint64_t program_hash =
      job.program_hash.has_value()
          ? *job.program_hash
          : prediction_program_hash(*job.program, *job.costs);
  return prediction_key_hash(program_hash, job.params,
                             job.seed.value_or(sim_.seed));
}

JobResult BatchPredictor::run_job(
    const PredictJob& job, const fault::CancelToken& cancel,
    std::chrono::steady_clock::time_point batch_deadline,
    std::optional<std::uint64_t> key, std::uint64_t trace_id) {
  obs::TraceSession& tracer = obs::TraceSession::global();
  obs::Span job_span{tracer, "batch.job", "batch", trace_id};
  const auto start = std::chrono::steady_clock::now();
  auto deadline = batch_deadline;
  if (config_.job_deadline.count() > 0) {
    deadline = std::min(deadline, start + config_.job_deadline);
  }
  if (job.deadline.count() > 0) {
    deadline = std::min(deadline, start + job.deadline);
  }
  // The job's own token is polled alongside the batch-wide one, so a
  // serving request cancelled by its client stops without touching
  // unrelated jobs in the same batch.
  const fault::CancelToken effective_cancel =
      fault::CancelToken::merged(cancel, job.cancel);

  // Backoff jitter stream: deterministic per (seed, job), so reruns of a
  // faulty batch reproduce the exact same delay schedule.
  util::Rng backoff_rng{sim_.seed ^ key.value_or(0) ^ 0x9e3779b97f4a7c15ULL};

  JobResult result;
  int attempt = 0;
  for (;;) {
    ++attempt;
    result.prediction.reset();
    result.from_cache = false;
    Status st = run_attempt(job, effective_cancel, deadline, key, &result);
    result.attempts = attempt;
    result.status = st;
    if (st.ok()) {
      jobs_run_.add();
      break;
    }
    if (st.code() == ErrorCode::kTimeout) {
      timeouts_.add();
      if (tracer.enabled()) tracer.instant("batch.timeout", "batch", trace_id);
    }
    if (st.code() == ErrorCode::kCancelled) {
      cancelled_.add();
      if (tracer.enabled()) {
        tracer.instant("batch.cancelled", "batch", trace_id);
      }
    }
    if (fault::should_retry(st, attempt, config_.retry)) {
      const auto delay = from_time(
          fault::backoff_delay(config_.retry, attempt, backoff_rng));
      const auto wake = std::chrono::steady_clock::now() + delay;
      if (wake < deadline) {
        retries_.add();
        if (tracer.enabled()) tracer.instant("batch.retry", "batch", trace_id);
        std::this_thread::sleep_until(wake);
        continue;
      }
      // Retrying would blow the deadline: fail now rather than block past
      // it waiting out a backoff we could never use.
      result.status =
          std::move(st).with_context("job deadline left no room to retry");
    }
    job_errors_.add();
    break;
  }
  job_wall_us_.record(to_us(std::chrono::steady_clock::now() - start));
  return result;
}

Status BatchPredictor::run_attempt(
    const PredictJob& job, const fault::CancelToken& cancel,
    std::chrono::steady_clock::time_point deadline,
    std::optional<std::uint64_t> key, JobResult* result) {
  try {
    if (job.program == nullptr || job.costs == nullptr) {
      return Status::invalid_input(
          "PredictJob: program and costs must be non-null");
    }
    // The canonical transient-fault injection site for the batch runtime.
    if (Status st = fault::failpoint("batch.job"); !st.ok()) {
      return st.with_context("while running a prediction job");
    }
    const std::uint64_t seed = job.seed.value_or(sim_.seed);
    if (key.has_value()) {
      if (auto hit = cache_->lookup(*key, *job.program, *job.costs,
                                    job.params, seed)) {
        result->prediction = std::move(hit);
        result->from_cache = true;
        return Status{};
      }
    }
    core::ProgramSimOptions opts = sim_;
    opts.cancel = cancel;
    opts.deadline = deadline;
    opts.sim_trace = job.sim_trace;
    opts.seed = seed;
    if (job.net != nullptr) opts.net = job.net;
    const core::Predictor predictor{job.params, opts};
    Result<core::Prediction> prediction =
        predictor.predict(*job.program, *job.costs);
    if (!prediction.ok()) return prediction.status();
    result->prediction = std::move(prediction).value();
    if (key.has_value()) {
      cache_->insert(*key, *job.program, *job.costs, job.params, seed,
                     *result->prediction);
    }
    return Status{};
  } catch (const std::bad_alloc&) {
    return Status::transient("out of memory while running a prediction job");
  } catch (const std::exception& e) {
    return Status::internal(std::string{"prediction job threw: "} + e.what());
  } catch (...) {
    return Status::internal("prediction job threw an unknown exception");
  }
}

void BatchPredictor::finish_job(const std::shared_ptr<BatchState>& state,
                                std::size_t index, JobResult result) {
  std::lock_guard lock{state->mu};
  state->results[index] = std::move(result);
  state->done[index] = 1;
  if (--state->remaining == 0) state->done_cv.notify_all();
}

void BatchPredictor::publish_cache_gauges() {
  if (fault::FailpointRegistry::global().armed()) {
    metrics_->set_gauge(
        "fault.failpoint_fires",
        std::to_string(fault::FailpointRegistry::global().total_fires()));
  }
  if (step_cache_ != nullptr) {
    const SharedStepCache::Stats stats = step_cache_->stats();
    metrics_->set_gauge("step_cache.hits", std::to_string(stats.hits));
    metrics_->set_gauge("step_cache.relabel_hits",
                        std::to_string(stats.relabel_hits));
    metrics_->set_gauge("step_cache.misses", std::to_string(stats.misses));
    metrics_->set_gauge("step_cache.entries", std::to_string(stats.entries));
    metrics_->set_gauge("step_cache.bytes", std::to_string(stats.bytes));
    metrics_->set_gauge("step_cache.evictions",
                        std::to_string(stats.evictions));
    metrics_->set_gauge("step_cache.hit_rate",
                        util::fmt(stats.hit_rate() * 100.0, 1) + "%");
  }
  if (cache_ == nullptr) return;
  const PredictionCache::Stats stats = cache_->stats();
  metrics_->set_gauge("cache.hits", std::to_string(stats.hits));
  metrics_->set_gauge("cache.misses", std::to_string(stats.misses));
  metrics_->set_gauge("cache.entries", std::to_string(stats.entries));
  metrics_->set_gauge("cache.bytes", std::to_string(stats.bytes));
  metrics_->set_gauge("cache.evictions", std::to_string(stats.evictions));
  metrics_->set_gauge("cache.hit_rate",
                      util::fmt(stats.hit_rate() * 100.0, 1) + "%");
}

}  // namespace logsim::runtime
