// Throughput of the logsim::runtime batch-prediction engine on the Fig-7
// sweep workload (blocked GE, 960x960, 8 procs, both layouts, all paper
// block sizes): serial Predictor loop vs BatchPredictor at 1/2/4/N threads,
// then a warm-cache rerun showing the memoization hit rate.  Acceptance
// targets: >= 2x speedup at 4 threads (on >= 4 hardware threads) and > 90%
// hit rate on the warm rerun.
//
// --trace-out FILE (or --trace-out=FILE) appends a traced pass: one more
// 4-thread batch run with the global TraceSession enabled, the first job
// carrying a SimTraceRecorder, exported as Chrome trace-event JSON (one
// track per worker thread plus one per simulated processor of job 0).
// All timed passes above run with tracing disabled, so the numbers are
// unaffected.

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <logsim/core.hpp>
#include <logsim/obs.hpp>
#include <logsim/programs.hpp>
#include <logsim/runtime.hpp>

#include "ge_sweep.hpp"

using namespace logsim;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
    }
  }

  const auto costs = ops::analytic_cost_table();
  const auto params = loggp::presets::meiko_cs2(bench::kProcs);
  const layout::DiagonalMap diag{bench::kProcs};
  const layout::RowCyclic row{bench::kProcs};
  const auto& blocks = ops::default_block_sizes();

  // Build the full Fig-7 workload: every (layout, block) candidate program.
  std::vector<core::StepProgram> programs;
  programs.reserve(2 * blocks.size());
  std::vector<runtime::PredictJob> jobs;
  jobs.reserve(programs.capacity());
  for (const layout::Layout* map :
       {static_cast<const layout::Layout*>(&diag),
        static_cast<const layout::Layout*>(&row)}) {
    for (int b : blocks) {
      programs.push_back(
          ge::build_ge_program(ge::GeConfig{.n = bench::kMatrixN, .block = b},
                               *map));
      jobs.push_back(runtime::PredictJob{&programs.back(), params, &costs});
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "=== batch-prediction throughput: Fig-7 sweep workload ===\n"
            << "jobs: " << jobs.size() << " (N=" << bench::kMatrixN
            << ", P=" << bench::kProcs << ", 2 layouts)  hardware threads: "
            << hw << "\n\n";

  // Serial baseline: the historical loop over core::Predictor.
  const auto serial_start = Clock::now();
  std::vector<core::Prediction> serial;
  serial.reserve(jobs.size());
  {
    const core::Predictor predictor{params};
    for (const auto& job : jobs) {
      serial.push_back(predictor.predict_or_die(*job.program, *job.costs));
    }
  }
  const double serial_sec = seconds_since(serial_start);

  util::Table table{{"configuration", "wall(s)", "jobs/s", "speedup",
                     "identical"}};
  table.add_row({"serial Predictor loop", util::fmt(serial_sec, 3),
                 util::fmt(static_cast<double>(jobs.size()) / serial_sec, 1),
                 "1.00", "-"});

  double speedup_at_4 = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4},
                                    static_cast<std::size_t>(hw == 0 ? 1 : hw)}) {
    runtime::metrics::Registry metrics;  // fresh per run, cold everything
    runtime::BatchPredictor batch{
        {.threads = threads, .metrics = &metrics}};
    const auto start = Clock::now();
    const auto results = batch.predict_all(jobs);
    const double sec = seconds_since(start);

    bool identical = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
      identical = identical && results[i].ok() &&
                  results[i].value().standard.total == serial[i].standard.total &&
                  results[i].value().worst_case.total == serial[i].worst_case.total;
    }
    const double speedup = serial_sec / sec;
    if (threads == 4) speedup_at_4 = speedup;
    table.add_row({"batch, " + std::to_string(threads) + " thread(s)",
                   util::fmt(sec, 3),
                   util::fmt(static_cast<double>(jobs.size()) / sec, 1),
                   util::fmt(speedup, 2), identical ? "yes" : "NO"});
  }
  std::cout << table << '\n';
  std::cout << "speedup at 4 threads: " << util::fmt(speedup_at_4, 2) << "x"
            << (hw < 4 ? "  (machine has fewer than 4 hardware threads; "
                         "thread-level speedup is capped at ~1x here)"
                       : "")
            << "\n\n";

  // Cache-cold vs cache-warm: same jobs twice through one cached engine.
  runtime::metrics::Registry metrics;
  // The sweep's block-4 programs are tens of MB each; budget generously so
  // every candidate is retained and the warm pass is all hits.
  runtime::PredictionCache cache{{.byte_budget = 1ull << 30}};
  runtime::BatchPredictor batch{
      {.threads = 4, .cache = &cache, .metrics = &metrics}};

  const auto cold_start = Clock::now();
  (void)batch.predict_all(jobs);
  const double cold_sec = seconds_since(cold_start);
  const auto cold_stats = cache.stats();

  const auto warm_start = Clock::now();
  const auto warm = batch.predict_all(jobs);
  const double warm_sec = seconds_since(warm_start);

  bool warm_identical = true;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    warm_identical = warm_identical && warm[i].ok() &&
                     warm[i].value().standard.total == serial[i].standard.total;
  }

  const auto stats = cache.stats();
  // Hit rate of the warm rerun alone (the cumulative cache.hit_rate gauge
  // also counts the cold pass's compulsory misses).
  const auto warm_lookups = (stats.hits - cold_stats.hits) +
                            (stats.misses - cold_stats.misses);
  const double warm_hit_rate =
      warm_lookups == 0
          ? 0.0
          : static_cast<double>(stats.hits - cold_stats.hits) /
                static_cast<double>(warm_lookups);
  metrics.set_gauge("cache.warm_pass_hit_rate",
                    util::fmt(warm_hit_rate * 100.0, 1) + "%");

  std::cout << "=== cache-cold vs cache-warm (4 threads) ===\n";
  util::Table cache_table{{"pass", "wall(s)", "jobs/s", "speedup vs cold"}};
  cache_table.add_row({"cold", util::fmt(cold_sec, 3),
                       util::fmt(static_cast<double>(jobs.size()) / cold_sec, 1),
                       "1.00"});
  cache_table.add_row({"warm", util::fmt(warm_sec, 3),
                       util::fmt(static_cast<double>(jobs.size()) / warm_sec, 1),
                       util::fmt(cold_sec / warm_sec, 2)});
  std::cout << cache_table << '\n';
  std::cout << "warm results identical to serial: "
            << (warm_identical ? "yes" : "NO") << '\n';
  std::cout << "warm-pass hit rate: " << util::fmt(warm_hit_rate * 100.0, 1)
            << "% (" << (stats.hits - cold_stats.hits) << "/" << warm_lookups
            << " lookups; cumulative incl. cold misses: "
            << util::fmt(stats.hit_rate() * 100.0, 1) << "%)\n\n";

  // Comm-step cache: the structure-aware layer below the whole-program
  // cache.  The cold pass already dedups canonical steps within and across
  // jobs (GE's rotated pivot broadcasts land as relabel hits); the warm
  // rerun replays every step.
  runtime::metrics::Registry sc_metrics;
  runtime::SharedStepCache step_cache;
  runtime::BatchPredictor sc_batch{
      {.threads = 4, .step_cache = &step_cache, .metrics = &sc_metrics}};

  const auto sc_cold_start = Clock::now();
  (void)sc_batch.predict_all(jobs);
  const double sc_cold_sec = seconds_since(sc_cold_start);
  const auto sc_cold = step_cache.stats();

  const auto sc_warm_start = Clock::now();
  const auto sc_warm_results = sc_batch.predict_all(jobs);
  const double sc_warm_sec = seconds_since(sc_warm_start);
  const auto sc_stats = step_cache.stats();

  bool sc_identical = true;
  for (std::size_t i = 0; i < sc_warm_results.size(); ++i) {
    sc_identical =
        sc_identical && sc_warm_results[i].ok() &&
        sc_warm_results[i].value().standard.total ==
            serial[i].standard.total &&
        sc_warm_results[i].value().worst_case.total ==
            serial[i].worst_case.total;
  }

  std::cout << "=== comm-step cache, cold vs warm (4 threads) ===\n";
  util::Table sc_table{{"pass", "wall(s)", "jobs/s", "speedup vs serial",
                        "step hits", "relabel", "misses"}};
  sc_table.add_row(
      {"cold", util::fmt(sc_cold_sec, 3),
       util::fmt(static_cast<double>(jobs.size()) / sc_cold_sec, 1),
       util::fmt(serial_sec / sc_cold_sec, 2),
       std::to_string(sc_cold.hits), std::to_string(sc_cold.relabel_hits),
       std::to_string(sc_cold.misses)});
  sc_table.add_row(
      {"warm", util::fmt(sc_warm_sec, 3),
       util::fmt(static_cast<double>(jobs.size()) / sc_warm_sec, 1),
       util::fmt(serial_sec / sc_warm_sec, 2),
       std::to_string(sc_stats.hits - sc_cold.hits),
       std::to_string(sc_stats.relabel_hits - sc_cold.relabel_hits),
       std::to_string(sc_stats.misses - sc_cold.misses)});
  std::cout << sc_table << '\n';
  const auto warm_step_lookups = (sc_stats.hits - sc_cold.hits) +
                                 (sc_stats.misses - sc_cold.misses);
  std::cout << "step-cache results identical to serial: "
            << (sc_identical ? "yes" : "NO") << '\n'
            << "cold-pass step hit rate: "
            << util::fmt(sc_cold.hit_rate() * 100.0, 1) << "% ("
            << sc_cold.hits << "/" << (sc_cold.hits + sc_cold.misses)
            << " lookups, " << sc_cold.relabel_hits << " via relabeling)\n"
            << "warm-pass step hit rate: "
            << util::fmt(warm_step_lookups == 0
                             ? 0.0
                             : 100.0 *
                                   static_cast<double>(sc_stats.hits -
                                                       sc_cold.hits) /
                                   static_cast<double>(warm_step_lookups),
                         1)
            << "% (" << sc_stats.entries << " entries, " << sc_stats.bytes
            << " bytes)\n\n";
  std::cout << "=== step-cache runtime metrics ===\n"
            << sc_metrics.to_string() << '\n';

  std::cout << "=== runtime metrics ===\n" << metrics.to_string();

  // Traced pass, after every timed section: rerun the batch once with the
  // global session enabled and job 0 carrying a simulated-machine recorder.
  if (!trace_out.empty()) {
    obs::TraceSession& session = obs::TraceSession::global();
    session.set_thread_name("main");
    session.enable();
    obs::SimTraceRecorder recorder;
    std::vector<runtime::PredictJob> traced_jobs = jobs;
    traced_jobs.front().sim_trace = &recorder;
    runtime::metrics::Registry trace_metrics;
    runtime::BatchPredictor traced_batch{
        {.threads = 4, .metrics = &trace_metrics}};
    const auto traced = traced_batch.predict_all(traced_jobs);
    session.disable();
    bool traced_ok = true;
    for (const auto& r : traced) traced_ok = traced_ok && r.ok();
    if (obs::write_chrome_trace(trace_out, session, &recorder)) {
      std::cout << "\n=== traced pass ===\ntrace written to " << trace_out
                << " (" << session.event_count() << " wall events, "
                << recorder.slices().size() << " simulated slices, jobs ok: "
                << (traced_ok ? "yes" : "NO") << ")\n";
    } else {
      std::cerr << "cannot write trace to " << trace_out << '\n';
      return 1;
    }
    session.clear();
  }
  return 0;
}
