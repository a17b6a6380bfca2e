// Closed-loop workloads: one caller that issues its next unit of work only
// when the previous one has returned.
//
//   ge_sweep   repeated Fig-7 sweeps (GE N=960, P=8, 15 block sizes x
//              {diagonal, row-cyclic} = 30 jobs) through one 4-thread
//              runtime::BatchPredictor whose comm-step cache starts empty
//              for every sweep.  The paper's headline use; its floor is
//              the compute-step walk.
//   scale_p4k  core::Predictor::predict (standard + worst-case schedule)
//              on large-P programs: a 2-D tiled Jacobi stencil and a
//              recursive-doubling allgather, each at P = 1024 and 4096,
//              with the component decomposition on a 4-thread pool.  The
//              one workload whose floor is communication simulation.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <variant>

#include <logsim/logsim.hpp>

#include "runtime/prediction_cache.hpp"
#include "runtime/sim_pool.hpp"
#include "workloads.hpp"

namespace lbench {
namespace {

using namespace logsim;

constexpr int kGeN = 960;
constexpr int kGeProcs = 8;
constexpr std::size_t kGeParamSets = 4;  // sweeps cycle through these

/// One prediction input.  Program and costs are borrowed from the state
/// that owns them.
struct Input {
  const core::StepProgram* program = nullptr;
  const core::CostTable* costs = nullptr;
  loggp::Params params;
  std::uint64_t seed = 1;
  std::string label;
};

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "benchmark: %s\n", what.c_str());
  std::exit(2);
}

/// Each LogGP field drawn within +-20% of `base`.
loggp::Params jitter(loggp::Params base, Rng& rng) {
  base.L = Time{base.L.us() * rng.uniform(0.8, 1.2)};
  base.o = Time{base.o.us() * rng.uniform(0.8, 1.2)};
  base.g = Time{base.g.us() * rng.uniform(0.8, 1.2)};
  base.G *= rng.uniform(0.8, 1.2);
  return base;
}

/// The reference: the plain path -- no caches, no decomposition, one
/// thread.
Expected reference(const Input& in) {
  core::ProgramSimOptions plain;
  plain.seed = in.seed;
  plain.decompose = false;
  Result<core::Prediction> r =
      core::Predictor{in.params, plain}.predict(*in.program, *in.costs);
  if (!r.ok()) die("reference for " + in.label + ": " + r.status().to_string());
  return Expected::of(r.value());
}

void digest_input(Digest& d, const Input& in) {
  d.add(runtime::prediction_program_hash(*in.program, *in.costs));
  d.add(in.params.L.us());
  d.add(in.params.o.us());
  d.add(in.params.g.us());
  d.add(in.params.G);
  d.add(static_cast<std::uint64_t>(in.params.P));
  d.add(in.seed);
}

// --- the traced layer pass ----------------------------------------------

struct LayerSums {
  LayerSums& operator+=(const LayerSums& o) {
    jobs += o.jobs;
    walk_us += o.walk_us;
    comm_std_us += o.comm_std_us;
    comm_worst_us += o.comm_worst_us;
    items += o.items;
    std_ops += o.std_ops;
    worst_ops += o.worst_ops;
    comm_steps += o.comm_steps;
    components += o.components;
    canon_us += o.canon_us;
    return *this;
  }

  std::size_t jobs = 0;
  double walk_us = 0.0;        // one walk per job
  double comm_std_us = 0.0;    // predict_standard minus the walk
  double comm_worst_us = 0.0;  // predict_worst_case minus the walk
  double items = 0.0;
  double std_ops = 0.0;
  double worst_ops = 0.0;
  double comm_steps = 0.0;
  double components = 0.0;
  double canon_us = 0.0;
};

/// Times each layer of one job on its own, under spans sharing `id`: the
/// compute walk (ProgramSimulator::run on a copy without comm steps), the
/// standard and worst-case passes with caches off -- each with the walk
/// recorded as its child, so their self time is the comm simulation --
/// and the two pattern analyses over every comm step.
LayerSums layer_pass(const Input& in, core::ProgramSimOptions opts,
                     obs::TraceSession& ts, std::uint64_t id) {
  opts.seed = in.seed;
  opts.step_cache = nullptr;
  core::StepProgram stripped{in.program->procs()};
  std::vector<const pattern::CommPattern*> comm;
  for (std::size_t i = 0; i < in.program->size(); ++i) {
    const auto& step = in.program->step(i);
    if (const auto* c = std::get_if<core::ComputeStep>(&step)) {
      stripped.add_compute(*c);
    } else {
      comm.push_back(&std::get<core::CommStep>(step).pattern);
    }
  }
  const core::Predictor predictor{in.params, opts};
  const double job_start = ts.now_us();

  double t0 = ts.now_us();
  (void)core::ProgramSimulator{in.params, opts}.run(stripped, *in.costs);
  const double walk_us = ts.now_us() - t0;

  t0 = ts.now_us();
  const core::ProgramResult std_res =
      predictor.predict_standard(*in.program, *in.costs);
  const double std_us = ts.now_us() - t0;
  ts.complete("core.predict_standard", "layer", t0, std_us, id);
  record_child(ts, "core.walk", t0, std::min(walk_us, std_us), id);

  t0 = ts.now_us();
  const core::ProgramResult worst_res =
      predictor.predict_worst_case(*in.program, *in.costs);
  const double worst_us = ts.now_us() - t0;
  ts.complete("core.predict_worst_case", "layer", t0, worst_us, id);
  record_child(ts, "core.walk", t0, std::min(walk_us, worst_us), id);

  pattern::Canonicalizer canon;
  t0 = ts.now_us();
  for (const pattern::CommPattern* p : comm) (void)canon.analyze(*p);
  const double canon_us = ts.now_us() - t0;
  ts.complete("pattern.canon", "layer", t0, canon_us, id);

  pattern::ComponentSplit split;
  double components = 0.0;
  t0 = ts.now_us();
  for (const pattern::CommPattern* p : comm) components += split.analyze(*p);
  ts.complete("pattern.components", "layer", t0, ts.now_us() - t0, id);
  ts.complete("ledger.job", "layer", job_start, ts.now_us() - job_start, id);

  LayerSums one;
  one.jobs = 1;
  one.walk_us = walk_us;
  one.comm_std_us = std::max(0.0, std_us - walk_us);
  one.comm_worst_us = std::max(0.0, worst_us - walk_us);
  one.items = static_cast<double>(in.program->work_item_count());
  one.std_ops = static_cast<double>(std_res.comm_ops);
  one.worst_ops = static_cast<double>(worst_res.comm_ops);
  one.comm_steps = static_cast<double>(comm.size());
  one.components = components;
  one.canon_us = canon_us;
  return one;
}

/// Per-layer metrics and ledger of a closed-loop workload's layer pass.
/// `e2e_ms_per_job` is the job's end-to-end time on the untraced path.
void emit_layers(const LayerSums& s, obs::TraceSession& ts,
                 double e2e_ms_per_job, const std::string& e2e_source,
                 LayerTable& layers) {
  const double n = static_cast<double>(std::max<std::size_t>(s.jobs, 1));
  const double steps = std::max(s.comm_steps, 1.0);
  layers.set("core.walk_ms", s.walk_us / n / 1e3);
  layers.set("core.walk_items_per_s",
             s.walk_us > 0 ? s.items / (s.walk_us / 1e6) : 0.0);
  layers.set("core.comm_std_ms", s.comm_std_us / n / 1e3);
  layers.set("core.comm_std_ops_per_s",
             s.comm_std_us > 0 ? s.std_ops / (s.comm_std_us / 1e6) : 0.0);
  layers.set("core.comm_worst_ms", s.comm_worst_us / n / 1e3);
  layers.set("core.comm_worst_ops_per_s",
             s.comm_worst_us > 0 ? s.worst_ops / (s.comm_worst_us / 1e6)
                                 : 0.0);
  layers.set("core.components_per_step", s.components / steps);
  layers.set("pattern.canon_us_per_step", s.canon_us / steps);

  // The ledger rows come from the recorded spans' self times: the walk is
  // the child of both schedule spans, so it is counted once per schedule.
  const auto self = span_self_times(ts.collect());
  auto self_ms = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.self_us / n / 1e3;
  };
  Ledger ledger;
  ledger.item = "job";
  ledger.e2e_ms_per_item = e2e_ms_per_job;
  ledger.e2e_source = e2e_source;
  ledger.rows = {
      {"core.walk (x2 schedules)", self_ms("core.walk"), "span, stripped copy"},
      {"core.comm_std", self_ms("core.predict_standard"), "span self time"},
      {"core.comm_worst", self_ms("core.predict_worst_case"),
       "span self time"},
  };
  ledger.remainder =
      "runtime dispatch, input validation and the comm-step cache probes "
      "(none timed on their own); contention between concurrent jobs";
  ledger.print();
  layers.set("ledger.coverage_pct", ledger.coverage_pct());
}

// --- ge_sweep ---------------------------------------------------------------

struct GeState {
  core::CostTable costs;
  std::vector<core::StepProgram> programs;
  std::vector<std::string> labels;
  std::vector<loggp::Params> params;  // kGeParamSets draws
  std::vector<std::uint64_t> seeds;
  std::vector<std::vector<Expected>> refs;  // [param set][program]
  obs::metrics::Registry registry;
  runtime::SharedStepCache step_cache;
  std::unique_ptr<runtime::BatchPredictor> batch;
  std::uint64_t input_digest = 0;
  std::uint64_t ref_digest = 0;

  [[nodiscard]] Input input(std::size_t k, std::size_t j) const {
    return Input{&programs[j], &costs, params[k], seeds[k], labels[j]};
  }
};

/// One sweep on parameter set k; returns its latency in ms and adds the
/// jobs that failed or disagreed with their reference to `failed`.
double ge_sweep_once(GeState& st, std::size_t k, std::size_t& failed,
                     Report& report) {
  std::vector<runtime::PredictJob> jobs;
  jobs.reserve(st.programs.size());
  for (std::size_t j = 0; j < st.programs.size(); ++j) {
    runtime::PredictJob job;
    job.program = &st.programs[j];
    job.params = st.params[k];
    job.costs = &st.costs;
    job.seed = st.seeds[k];
    jobs.push_back(std::move(job));
  }
  st.step_cache.clear();  // every sweep starts cold
  const auto t0 = Clock::now();
  const std::vector<runtime::JobResult> results = st.batch->predict_all(jobs);
  const double ms = ms_between(t0, Clock::now());
  for (std::size_t j = 0; j < results.size(); ++j) {
    if (!results[j].ok()) {
      ++failed;
      report.fail(st.labels[j] + ": " + results[j].error());
    } else if (!st.refs[k][j].matches(results[j].value())) {
      ++failed;
      report.fail(st.labels[j] + ": prediction differs from its reference");
    }
  }
  return ms;
}

std::unique_ptr<GeState> make_ge(std::uint64_t seed, Report& report) {
  auto st = std::make_unique<GeState>();
  st->costs = ops::analytic_cost_table();
  const layout::DiagonalMap diagonal{kGeProcs};
  const layout::RowCyclic row_cyclic{kGeProcs};
  const std::vector<int>& blocks = ops::default_block_sizes();
  st->programs.reserve(blocks.size() * 2);
  for (const int b : blocks) {
    for (const layout::Layout* map :
         {static_cast<const layout::Layout*>(&diagonal),
          static_cast<const layout::Layout*>(&row_cyclic)}) {
      st->programs.push_back(
          ge::build_ge_program(ge::GeConfig{.n = kGeN, .block = b}, *map));
      st->labels.push_back("ge b=" + std::to_string(b) + " " + map->name());
    }
  }
  Rng rng{substream(seed, 1)};
  for (std::size_t k = 0; k < kGeParamSets; ++k) {
    st->params.push_back(jitter(loggp::presets::meiko_cs2(kGeProcs), rng));
    st->seeds.push_back(rng.next());
  }
  Digest inputs;
  Digest refs;
  st->refs.resize(kGeParamSets);
  for (std::size_t k = 0; k < kGeParamSets; ++k) {
    for (std::size_t j = 0; j < st->programs.size(); ++j) {
      const Input in = st->input(k, j);
      digest_input(inputs, in);
      st->refs[k].push_back(reference(in));
      st->refs[k].back().digest_into(refs);
    }
  }
  st->input_digest = inputs.value();
  st->ref_digest = refs.value();

  runtime::BatchPredictor::Config cfg;
  cfg.threads = 4;
  cfg.step_cache = &st->step_cache;
  cfg.metrics = &st->registry;
  st->batch = std::make_unique<runtime::BatchPredictor>(cfg);
  std::size_t failed = 0;
  (void)ge_sweep_once(*st, 0, failed, report);  // warm-up pass
  if (failed != 0) report.count(st->programs.size(), failed);
  return st;
}

/// Mean |standard total - Testbed with-cache total| / Testbed, in percent,
/// over the sweep at the preset parameters.  machine::Testbed is the only
/// reference this repository has: no real Meiko measurements exist.
double prediction_error_pct(const GeState& st) {
  const loggp::Params preset = loggp::presets::meiko_cs2(kGeProcs);
  const machine::Testbed testbed{machine::TestbedConfig::meiko_cs2(kGeProcs)};
  double sum = 0.0;
  for (std::size_t j = 0; j < st.programs.size(); ++j) {
    const Expected pred =
        reference(Input{&st.programs[j], &st.costs, preset, 1, st.labels[j]});
    const double measured =
        testbed.run(st.programs[j], st.costs).total_with_cache.us();
    sum += std::abs(pred.total_us - measured) / measured;
  }
  return 100.0 * sum / static_cast<double>(st.programs.size());
}

}  // namespace

Digests ge_sweep_digests(std::uint64_t seed) {
  Report scratch;
  const auto st = make_ge(seed, scratch);
  return {st->input_digest, st->ref_digest};
}

void run_ge_sweep(const Options& opts, Report& report) {
  SetupTime setup;
  auto st = timed_setups(setup, [&] { return make_ge(opts.seed, report); });
  check_reference_digest(opts, st->input_digest, st->ref_digest, report);
  const std::size_t per_sweep = st->programs.size();

  // One sweep, cycling through the parameter sets; with a session, under a
  // span.
  std::size_t sweep_index = 0;
  std::size_t failed = 0;
  auto sweep = [&](obs::TraceSession* ts) {
    const double start = ts != nullptr ? ts->now_us() : 0.0;
    const double ms =
        ge_sweep_once(*st, sweep_index % kGeParamSets, failed, report);
    if (ts != nullptr) {
      ts->complete("ge.sweep", "e2e", start, ts->now_us() - start,
                   sweep_index);
    }
    ++sweep_index;
    return ms;
  };

  if (!opts.trace) {
    std::vector<double> lat;
    const auto end = Clock::now() + std::chrono::duration<double>(opts.seconds);
    while (Clock::now() < end) lat.push_back(sweep(nullptr));
    report.count(lat.size() * per_sweep, failed);
    const std::size_t jobs = lat.size() * per_sweep;
    report.add({"setup_s", setup.median_s, "s", setup.count, ""});
    report.add({"jobs_per_s",
                blocked_rate(lat, static_cast<double>(per_sweep)), "1/s", jobs,
                "median over blocks of sweeps"});
    report.add({"p50_ms", percentile(lat, 50), "ms", lat.size(), "per sweep"});
    report.add({"tail_ms", percentile(lat, opts.tail_pct), "ms", lat.size(),
                "p" + pct_label(opts.tail_pct) + " per sweep"});
    report.add_p99(lat, "per sweep");
    report.absent("p50_ms_lo", "ms", "closed loop");
    report.absent("p99_ms_lo", "ms", "closed loop");
    report.absent("p50_ms_hi", "ms", "closed loop");
    report.absent("p99_ms_hi", "ms", "closed loop");
    report.absent("max_rate_rps", "1/s", "closed loop");
    report.add({"pred_err_pct", prediction_error_pct(*st), "%",
                per_sweep, "vs machine::Testbed at preset parameters"});
    return;
  }

  // Traced run: untraced sweeps, sweeps under a span (the difference is
  // the tracing overhead) and the layer pass on one job, interleaved so
  // that drift of the shared host touches all three alike.
  LayerTable layers;
  st->registry.reset();
  const runtime::SharedStepCache::Stats before = st->step_cache.stats();
  obs::TraceSession ts;
  ts.set_thread_name("benchmark");
  std::vector<double> plain;
  std::vector<double> traced;
  LayerSums sums;
  const auto end = Clock::now() + std::chrono::duration<double>(opts.seconds);
  for (std::size_t i = 0; Clock::now() < end; ++i) {
    plain.push_back(sweep(nullptr));
    ts.enable();
    traced.push_back(sweep(&ts));
    sums += layer_pass(st->input((i / per_sweep) % kGeParamSets, i % per_sweep),
                       st->batch->config().sim, ts, i);
    ts.disable();
  }
  report.count((plain.size() + traced.size()) * per_sweep, failed);
  layers.set("trace.overhead_pct", 100.0 * (mean(traced) / mean(plain) - 1.0));
  const runtime::SharedStepCache::Stats after = st->step_cache.stats();
  const double job_wall_us = st->registry.histogram("batch.job_wall").mean();
  layers.set("runtime.batch_job_us", job_wall_us);
  layers.set("runtime.batch_queue_wait_us",
             st->registry.histogram("batch.queue_wait").mean());
  layers.set("runtime.job_errors",
             static_cast<double>(st->registry.counter("batch.job_errors").value()));
  layers.set("runtime.retries",
             static_cast<double>(st->registry.counter("batch.retries").value()));
  layers.set("runtime.timeouts",
             static_cast<double>(st->registry.counter("batch.timeouts").value()));
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  layers.set("runtime.step_cache_hits", hits);
  layers.set("runtime.step_cache_relabel_hits",
             static_cast<double>(after.relabel_hits - before.relabel_hits));
  layers.set("runtime.step_cache_misses", misses);
  layers.set("runtime.step_cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0);
  emit_layers(sums, ts, job_wall_us / 1e3,
              "BatchPredictor batch.job_wall mean over the sweeps, 4 threads",
              layers);
  const std::string path = write_trace(ts, opts.out_dir, opts.workload);
  std::printf("chrome trace: %s\n", path.empty() ? "(write failed)" : path.c_str());
  layers.emit(report, plain.size() * per_sweep);
}

// --- scale_p4k ----------------------------------------------------------------

namespace {

struct ScaleState {
  std::vector<core::StepProgram> programs;
  std::vector<core::CostTable> costs;
  std::vector<Input> inputs;
  std::vector<Expected> refs;
  std::vector<std::size_t> order;  // the round's job order, seed-drawn
  std::unique_ptr<runtime::ThreadPool> pool;
  core::ProgramSimOptions sim;     // the measured path's options
  std::uint64_t input_digest = 0;
  std::uint64_t ref_digest = 0;
};

constexpr int kStencilIterations = 2;

/// Predicts job i on the measured path; returns its latency in ms.
double scale_job(const ScaleState& st, std::size_t i, std::size_t& failed,
                 Report& report) {
  const Input& in = st.inputs[i];
  core::ProgramSimOptions opts = st.sim;
  opts.seed = in.seed;
  const auto t0 = Clock::now();
  Result<core::Prediction> r =
      core::Predictor{in.params, opts}.predict(*in.program, *in.costs);
  const double ms = ms_between(t0, Clock::now());
  if (!r.ok()) {
    ++failed;
    report.fail(in.label + ": " + r.status().to_string());
  } else if (!st.refs[i].matches(r.value())) {
    ++failed;
    report.fail(in.label + ": prediction differs from its reference");
  }
  return ms;
}

std::unique_ptr<ScaleState> make_scale(std::uint64_t seed, Report& report) {
  auto st = std::make_unique<ScaleState>();
  Rng rng{substream(seed, 2)};
  st->programs.reserve(4);
  st->costs.reserve(4);
  std::vector<loggp::Params> params;
  std::vector<std::string> labels;
  for (const int procs : {1024, 4096}) {
    const int side = procs == 1024 ? 32 : 64;
    const int tile = 16 + static_cast<int>(rng.below(33));  // 16..48 cells
    const stencil::StencilConfig cfg{.n = side * tile,
                                     .iterations = kStencilIterations,
                                     .partition = stencil::Partition::kTiles2D,
                                     .procs = procs};
    st->programs.push_back(stencil::build_stencil_program(cfg));
    st->costs.push_back(
        stencil::stencil_cost_table(cfg, rng.uniform(0.008, 0.012)));
    params.push_back(jitter(loggp::presets::meiko_cs2(procs), rng));
    labels.push_back("stencil2d P=" + std::to_string(procs));

    // The worst-case cost of the doubling allgather swings by up to 40%
    // with its LogGP parameters and tie-breaking seed (the schedule's ties
    // change), so those stay at the preset and seed 1; the run seed picks
    // its message size, which leaves the cost within a few percent.
    const Bytes bytes{64u << rng.below(3)};
    st->programs.push_back(collective::allgather_doubling(procs, bytes));
    st->costs.emplace_back();
    params.push_back(loggp::presets::meiko_cs2(procs));
    labels.push_back("allgather_doubling P=" + std::to_string(procs));
  }
  Digest inputs;
  Digest refs;
  for (std::size_t i = 0; i < st->programs.size(); ++i) {
    const bool allgather = i % 2 == 1;
    const std::uint64_t tie_seed = rng.next();
    st->inputs.push_back(Input{&st->programs[i], &st->costs[i], params[i],
                               allgather ? 1 : tie_seed, labels[i]});
    digest_input(inputs, st->inputs.back());
    st->refs.push_back(reference(st->inputs.back()));
    st->refs.back().digest_into(refs);
  }
  st->input_digest = inputs.value();
  st->ref_digest = refs.value();
  st->order = {0, 1, 2, 3};
  for (std::size_t i = st->order.size() - 1; i > 0; --i) {
    std::swap(st->order[i], st->order[rng.below(i + 1)]);
  }
  st->pool = std::make_unique<runtime::ThreadPool>(4);
  st->sim.comm_parallel = runtime::pool_parallel(*st->pool);
  // Warm-up pass over the P=1024 jobs: grows the simulators' scratch and
  // starts the pool without paying for a full P=4096 round.
  std::size_t failed = 0;
  for (std::size_t i : {std::size_t{0}, std::size_t{1}}) {
    (void)scale_job(*st, i, failed, report);
  }
  if (failed != 0) report.count(2, failed);
  return st;
}

}  // namespace

Digests scale_p4k_digests(std::uint64_t seed) {
  Report scratch;
  const auto st = make_scale(seed, scratch);
  return {st->input_digest, st->ref_digest};
}

void run_scale_p4k(const Options& opts, Report& report) {
  SetupTime setup;
  auto st = timed_setups(setup, [&] { return make_scale(opts.seed, report); });
  check_reference_digest(opts, st->input_digest, st->ref_digest, report);

  std::size_t failed = 0;
  // One round: each job once, in the seed-drawn order; with a session,
  // each job under a span.  Returns the round's latency.
  auto round = [&](obs::TraceSession* ts, std::vector<double>& job_lat) {
    double total = 0.0;
    for (std::size_t i : st->order) {
      const double start = ts != nullptr ? ts->now_us() : 0.0;
      const double ms = scale_job(*st, i, failed, report);
      if (ts != nullptr) {
        ts->complete("scale.job", "e2e", start, ts->now_us() - start,
                     job_lat.size());
      }
      job_lat.push_back(ms);
      total += ms;
    }
    return total;
  };

  if (!opts.trace) {
    std::vector<double> jobs;
    std::vector<double> rounds;
    const auto end = Clock::now() + std::chrono::duration<double>(opts.seconds);
    while (Clock::now() < end) rounds.push_back(round(nullptr, jobs));
    report.count(jobs.size(), failed);
    report.add({"setup_s", setup.median_s, "s", setup.count, ""});
    report.add({"jobs_per_s",
                blocked_rate(rounds, static_cast<double>(st->order.size())),
                "1/s", jobs.size(), "median over blocks of rounds"});
    report.add({"p50_ms", percentile(rounds, 50), "ms", rounds.size(),
                "per round of the four jobs"});
    report.add({"tail_ms", percentile(jobs, opts.tail_pct), "ms", jobs.size(),
                "p" + pct_label(opts.tail_pct) + " per job"});
    report.add_p99(jobs, "per job");
    report.absent("p50_ms_lo", "ms", "closed loop");
    report.absent("p99_ms_lo", "ms", "closed loop");
    report.absent("p50_ms_hi", "ms", "closed loop");
    report.absent("p99_ms_hi", "ms", "closed loop");
    report.absent("max_rate_rps", "1/s", "closed loop");
    report.absent("pred_err_pct", "%", "ge_sweep only");
    return;
  }

  // Untraced rounds, traced rounds and the layer pass on one job,
  // interleaved as in ge_sweep.
  LayerTable layers;
  obs::TraceSession ts;
  ts.set_thread_name("benchmark");
  std::vector<double> plain_jobs;
  std::vector<double> traced_jobs;
  LayerSums sums;
  std::vector<LayerSums> per_job(st->inputs.size());
  const auto end = Clock::now() + std::chrono::duration<double>(opts.seconds);
  for (std::size_t i = 0; Clock::now() < end; ++i) {
    (void)round(nullptr, plain_jobs);
    ts.enable();
    (void)round(&ts, traced_jobs);
    const std::size_t job = st->order[i % st->order.size()];
    const LayerSums one = layer_pass(st->inputs[job], st->sim, ts, i);
    per_job[job] += one;
    sums += one;
    ts.disable();
  }
  // How each layer scales with P: the per-job figures behind the means.
  for (std::size_t j = 0; j < per_job.size(); ++j) {
    const LayerSums& p = per_job[j];
    if (p.jobs == 0) continue;
    const double n = static_cast<double>(p.jobs);
    std::printf("  %-24s walk %8.3f ms  comm_std %9.3f ms  comm_worst %9.3f ms"
                "  components/step %7.1f\n",
                st->inputs[j].label.c_str(), p.walk_us / n / 1e3,
                p.comm_std_us / n / 1e3, p.comm_worst_us / n / 1e3,
                p.components / std::max(p.comm_steps, 1.0));
  }
  report.count(plain_jobs.size() + traced_jobs.size(), failed);
  layers.set("trace.overhead_pct",
             100.0 * (mean(traced_jobs) / mean(plain_jobs) - 1.0));
  // The end-to-end time per job over the same mix of jobs the layer pass
  // covered: the untraced rounds' mean latency of each job, averaged over
  // the passes.
  std::vector<double> job_mean(st->order.size(), 0.0);
  const std::size_t rounds_run = plain_jobs.size() / st->order.size();
  for (std::size_t r = 0; r < rounds_run; ++r) {
    for (std::size_t q = 0; q < st->order.size(); ++q) {
      job_mean[st->order[q]] += plain_jobs[r * st->order.size() + q] /
                                static_cast<double>(rounds_run);
    }
  }
  double e2e_ms = 0.0;
  for (std::size_t i = 0; i < sums.jobs; ++i) {
    e2e_ms += job_mean[st->order[i % st->order.size()]] /
              static_cast<double>(sums.jobs);
  }
  emit_layers(sums, ts, e2e_ms,
              "Predictor::predict mean per job, untraced rounds", layers);
  const std::string path = write_trace(ts, opts.out_dir, opts.workload);
  std::printf("chrome trace: %s\n", path.empty() ? "(write failed)" : path.c_str());
  layers.emit(report, plain_jobs.size());
}

}  // namespace lbench
