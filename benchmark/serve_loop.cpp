// Open-loop workloads against an in-process serve::Server speaking the
// binary codec over loopback: one reactor, one worker and its predictor's
// one pool thread, plus the generator -- four threads in all.
//
//   serve_reg     the GE programs are REGISTERed during set-up; about 95%
//                 of requests repeat an already answered (handle, params,
//                 seed) and hit the registry memo, about 5% carry a fresh
//                 seed and fall through to simulation.  The microsecond
//                 hot path: reactor, wire, admission, coalescing, memo.
//   serve_upload  every PREDICT uploads the full program text (GE N=960,
//                 b in {32,48,64,96,120}); seeds repeat, so after parsing
//                 every request hits the PredictionCache.  The served path
//                 whose floor is parsing and decoding large frames.
//
// Each phase -- the fixed lo and hi rates, the saturation loop and every
// probe of the max-rate search -- runs against a fresh server, so the
// fresh seeds of serve_reg come from one pool whose references are
// computed during set-up.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include <logsim/logsim.hpp>

#include "io/params_io.hpp"
#include "io/program_io.hpp"
#include "loadgen.hpp"
#include "workloads.hpp"

namespace lbench {
namespace {

using namespace logsim;

constexpr std::size_t kConns = 4;
constexpr std::size_t kSetupThreads = 4;  // the whole thread budget
constexpr std::size_t kSaturationWindow = 64;  // outstanding, all connections
constexpr std::size_t kFreshEvery = 20;  // serve_reg: every 20th request
constexpr double kFreshShare = 1.0 / kFreshEvery;
constexpr std::size_t kRepeatSeeds = 4;
constexpr std::size_t kPinnedFresh = 256;
constexpr int kSearchProbes = 5;
const std::vector<int> kServeBlocks = {32, 48, 64, 96, 120};

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "benchmark: %s\n", what.c_str());
  std::exit(2);
}

/// How the run's seconds are split between phases.
struct Plan {
  double lo_s = 0.0;
  double hi_s = 0.0;
  double sat_s = 0.0;
  double probe_s = 0.0;

  static Plan of(const Options& opts) {
    Plan p;
    if (opts.trace) {  // lo with every other request traced, then hi
      p.lo_s = 0.45 * opts.seconds;
      p.hi_s = 0.25 * opts.seconds;
    } else {  // most of the run goes to the gated saturation loop
      p.lo_s = 0.20 * opts.seconds;
      p.hi_s = 0.15 * opts.seconds;
      p.sat_s = 0.50 * opts.seconds;
      p.probe_s = 0.15 * opts.seconds / kSearchProbes;
    }
    return p;
  }
  /// Most requests any single phase can issue (with Poisson slack).  The
  /// saturation loop issues at most its schedule: search_max_rps x sat_s.
  [[nodiscard]] double max_requests(const Options& opts) const {
    const double most =
        std::max({opts.lo_rps * lo_s, opts.hi_rps * hi_s,
                  opts.search_max_rps * std::max(probe_s, sat_s)});
    return most + 4.0 * std::sqrt(most) + 16.0;
  }
};

struct ServeState {
  bool upload = false;
  std::string params_text;
  loggp::Params params;
  std::vector<std::string> texts;
  std::vector<std::string> labels;
  std::vector<io::ProgramBundle> bundles;  // the texts, parsed
  /// Requests [0, n_repeat) form the repeat set; the rest are serve_reg's
  /// fresh-seed pool.
  std::vector<serve::PredictRequest> reqs;
  std::vector<std::size_t> req_text;
  std::vector<PreparedRequest> prepared;  // payloads for the live server
  std::size_t n_repeat = 0;
  /// One cycle of the repeat mix: request indices, the middle program's
  /// repeated twice in serve_upload.
  std::vector<std::uint32_t> mix;
  std::vector<core::Prediction> repeat_preds;
  double fresh_ref_ms = 0.0;  // mean plain-path cost of a fresh request
  std::uint64_t input_digest = 0;
  std::uint64_t ref_digest = 0;

  std::unique_ptr<obs::metrics::Registry> registry;
  std::unique_ptr<serve::Server> server;
  std::vector<std::uint64_t> handles;
};

/// A fresh server: started, programs registered (serve_reg), payloads
/// encoded against its handles, and every repeat request answered once so
/// the memo or the prediction cache holds it.
void restart_server(ServeState& st, Report& report) {
  st.server.reset();
  // Hand the stopped server's free pages back, so the next phase's peak
  // memory does not depend on where the allocator happened to put them.
  ::malloc_trim(0);
  st.registry = std::make_unique<obs::metrics::Registry>();
  serve::Server::Config cfg;
  cfg.workers = 1;
  cfg.reactors = 1;
  cfg.sim_threads = 1;
  // Sized so that only a sustained overload, not a stall of the shared
  // host, makes admission control refuse requests.
  cfg.max_inflight_per_conn = 1024;
  cfg.metrics = st.registry.get();
  st.server = std::make_unique<serve::Server>(cfg);
  if (Status s = st.server->start(); !s.ok()) die("server: " + s.to_string());
  Result<serve::Client> client =
      serve::Client::connect("127.0.0.1", st.server->port());
  if (!client.ok() || !client->hello().ok()) die("cannot reach the server");
  st.handles.clear();
  if (!st.upload) {
    for (const std::string& text : st.texts) {
      Result<std::uint64_t> h = client->register_program(text);
      if (!h.ok()) die("REGISTER: " + h.status().to_string());
      st.handles.push_back(h.value());
    }
  }
  st.prepared.resize(st.reqs.size());
  for (std::size_t i = 0; i < st.reqs.size(); ++i) {
    serve::PredictRequest req = st.reqs[i];
    if (!st.upload) req.handle = st.handles[st.req_text[i]];
    st.prepared[i].payload =
        serve::encode_predict_request(req, serve::Codec::kBinary);
  }
  std::size_t failed = 0;
  for (std::size_t i = 0; i < st.n_repeat; ++i) {
    serve::PredictRequest req = st.reqs[i];
    if (!st.upload) req.handle = st.handles[st.req_text[i]];
    Result<serve::PredictReply> r = client->predict(req);
    if (!r.ok() || !st.prepared[i].expected.matches(
                       r->total_us, r->comp_us, r->comm_us, r->comm_worst_us)) {
      ++failed;
      report.fail("warm-up " + st.labels[st.req_text[i]] + ": " +
                  (r.ok() ? "reply differs from its reference"
                          : r.status().to_string()));
    }
  }
  report.count(st.n_repeat, failed);
}

std::unique_ptr<ServeState> make_serve(const Options& opts, bool upload,
                                       Report& report) {
  auto st = std::make_unique<ServeState>();
  st->upload = upload;
  Rng rng{substream(opts.seed, upload ? 4 : 3)};
  const loggp::Params meiko = loggp::presets::meiko_cs2(8);
  char buf[256];
  std::snprintf(buf, sizeof buf, "L=%.17g,o=%.17g,g=%.17g,G=%.17g",
                meiko.L.us() * rng.uniform(0.8, 1.2),
                meiko.o.us() * rng.uniform(0.8, 1.2),
                meiko.g.us() * rng.uniform(0.8, 1.2),
                meiko.G * rng.uniform(0.8, 1.2));
  st->params_text = buf;
  Result<loggp::Params> params = io::parse_params(st->params_text, meiko);
  if (!params.ok()) die("params: " + params.status().to_string());
  st->params = params.value();

  // serve_upload sends the diagonal layout only; serve_reg registers both.
  const core::CostTable costs = ops::analytic_cost_table();
  const layout::DiagonalMap diagonal{8};
  const layout::RowCyclic row_cyclic{8};
  std::vector<const layout::Layout*> maps = {&diagonal};
  if (!upload) maps.push_back(&row_cyclic);
  for (const layout::Layout* map : maps) {
    for (const int b : kServeBlocks) {
      st->texts.push_back(io::to_text(
          ge::build_ge_program(ge::GeConfig{.n = 960, .block = b}, *map),
          costs));
      st->labels.push_back("ge b=" + std::to_string(b) + " " + map->name());
      Result<io::ProgramBundle> bundle = io::parse_program(st->texts.back());
      if (!bundle.ok()) die("parse: " + bundle.status().to_string());
      st->bundles.push_back(std::move(bundle).value());
    }
  }

  auto add_request = [&](std::size_t text, std::uint64_t seed) {
    serve::PredictRequest req;
    req.params_text = st->params_text;
    req.seed = seed;
    if (upload) req.program_text = st->texts[text];
    st->reqs.push_back(std::move(req));
    st->req_text.push_back(text);
  };
  std::vector<std::uint64_t> seeds(kRepeatSeeds);
  for (auto& s : seeds) s = rng.next();
  for (std::size_t t = 0; t < st->texts.size(); ++t) {
    for (std::uint64_t s : seeds) add_request(t, s);
  }
  st->n_repeat = st->reqs.size();
  // serve_upload sends b=64 twice as often as the others, so the median of
  // its mix of 1 ms and 17 ms parses falls inside one program's latencies
  // instead of on the boundary between two, where it flipped between seeds.
  for (std::size_t i = 0; i < st->n_repeat; ++i) {
    const int copies =
        upload && kServeBlocks[st->req_text[i] % kServeBlocks.size()] == 64 ? 2
                                                                           : 1;
    for (int c = 0; c < copies; ++c) {
      st->mix.push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (!upload) {
    // Fresh seeds go to the two cheapest block sizes of both layouts, so
    // the pool's references stay affordable at set-up.
    std::vector<std::size_t> cheap;
    for (std::size_t t = 0; t < st->texts.size(); ++t) {
      if (kServeBlocks[t % kServeBlocks.size()] >= 96) cheap.push_back(t);
    }
    // Sized by the untraced plan, so both run modes draw the same pool.
    // Each phase runs on a fresh server and starts at the pool's head.
    Options untraced = opts;
    untraced.trace = false;
    const auto pool = static_cast<std::size_t>(std::ceil(
        Plan::of(untraced).max_requests(untraced) * kFreshShare * 1.25));
    for (std::size_t i = 0; i < pool; ++i) {
      add_request(cheap[rng.below(cheap.size())], rng.next());
    }
  }

  // One plain-path reference per request.  No server runs yet, so the
  // references are spread over the whole thread budget; each is timed
  // alone.
  const std::size_t n = st->reqs.size();
  st->prepared.resize(n);
  st->repeat_preds.resize(st->n_repeat);
  std::vector<std::string> errors(n);
  std::vector<double> fresh_ms(kSetupThreads, 0.0);
  auto references = [&](std::size_t first) {
    for (std::size_t i = first; i < n; i += kSetupThreads) {
      const io::ProgramBundle& bundle = st->bundles[st->req_text[i]];
      core::ProgramSimOptions plain;
      plain.seed = st->reqs[i].seed;
      plain.decompose = false;
      const auto t0 = Clock::now();
      Result<core::Prediction> pred = core::Predictor{st->params, plain}.predict(
          bundle.program, bundle.costs);
      if (i >= st->n_repeat) fresh_ms[first] += ms_between(t0, Clock::now());
      if (!pred.ok()) {
        errors[i] = pred.status().to_string();
        continue;
      }
      st->prepared[i].expected = Expected::of(pred.value());
      if (i < st->n_repeat) st->repeat_preds[i] = std::move(pred).value();
    }
  };
  std::vector<std::thread> helpers;
  for (std::size_t t = 1; t < kSetupThreads; ++t) {
    helpers.emplace_back(references, t);
  }
  references(0);
  for (std::thread& h : helpers) h.join();

  Digest inputs;
  Digest refs;
  for (const std::string& text : st->texts) inputs.add(text);
  inputs.add(st->params_text);
  for (std::size_t i = 0; i < n; ++i) {
    if (!errors[i].empty()) die("reference: " + errors[i]);
    inputs.add(static_cast<std::uint64_t>(st->req_text[i]));
    inputs.add(st->reqs[i].seed);
    // The pinned digest covers the repeat set and the first fresh seeds, so
    // it does not depend on --seconds, which sizes the fresh pool.
    if (i < st->n_repeat + kPinnedFresh) st->prepared[i].expected.digest_into(refs);
  }
  const std::size_t fresh = st->reqs.size() - st->n_repeat;
  double fresh_total_ms = 0.0;
  for (double ms : fresh_ms) fresh_total_ms += ms;
  st->fresh_ref_ms = fresh > 0 ? fresh_total_ms / static_cast<double>(fresh) : 0.0;
  st->input_digest = inputs.value();
  st->ref_digest = refs.value();
  restart_server(*st, report);
  return st;
}

/// Server-side counters over one phase.
struct ServerSample {
  double latency_mean_us = 0.0, latency_max_us = 0.0;
  double queue_mean_us = 0.0, queue_max_us = 0.0;
  double rejected = 0.0, memo_hits = 0.0, memo_misses = 0.0;
  double batch_queue_us = 0.0, batch_job_us = 0.0;
  double job_errors = 0.0, retries = 0.0, timeouts = 0.0;
  runtime::SharedStepCache::Stats step;
  runtime::PredictionCache::Stats pred;
};

struct Phase {
  PhaseResult gen;
  ServerSample server;
  std::string invalid;  ///< why a fixed phase stayed invalid, or empty
};

/// One phase on a fresh server: open loop at `rate` for `secs`, or with
/// `window` > 0 a closed loop keeping that many requests outstanding for
/// `secs`.  Both send the same mix.
Phase run_phase(ServeState& st, const Options& opts, double rate, double secs,
                std::uint64_t schedule_seed, obs::TraceSession* trace,
                Report& report, std::size_t window = 0) {
  restart_server(st, report);
  obs::metrics::Registry& reg = *st.registry;
  const double memo_hits0 =
      static_cast<double>(reg.counter("serve.memo_hits").value());
  const double memo_misses0 =
      static_cast<double>(reg.counter("serve.memo_misses").value());
  runtime::BatchPredictor& predictor = st.server->predictor();
  const runtime::SharedStepCache::Stats step0 = predictor.step_cache()->stats();
  const runtime::PredictionCache::Stats pred0 = predictor.cache()->stats();
  reg.histogram("serve.latency").reset();
  reg.histogram("serve.queue_wait").reset();
  reg.histogram("batch.queue_wait").reset();
  reg.histogram("batch.job_wall").reset();

  // A balanced mix: the repeat mix cycled, each cycle in a new seeded
  // order, so every input carries the same share of every phase (the
  // latency percentiles of a mix of large and small programs would
  // otherwise move with the draw) and no one order sets how the server
  // coalesces queued requests; in serve_reg every 20th request is a fresh
  // seed.
  std::vector<std::uint32_t> order = st.mix;
  Rng shuffle{schedule_seed ^ 0x5EEDull};
  std::size_t issued = 0;
  std::size_t repeats = 0;
  std::size_t next_fresh = st.n_repeat;
  std::size_t fresh_short = 0;
  auto pick = [&](Rng&) -> std::uint32_t {
    if (!st.upload && ++issued % kFreshEvery == 0) {
      if (next_fresh < st.reqs.size()) {
        return static_cast<std::uint32_t>(next_fresh++);
      }
      ++fresh_short;
    }
    if (repeats++ % order.size() == 0) {
      for (std::size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[shuffle.below(i + 1)]);
      }
    }
    return order[(repeats - 1) % order.size()];
  };
  // A closed loop sends at most search_max_rps: the schedule only supplies
  // its inputs.
  const std::vector<Arrival> schedule =
      window > 0 ? poisson_schedule(schedule_seed, opts.search_max_rps, secs, pick)
                 : poisson_schedule(schedule_seed, rate, secs, pick);
  if (fresh_short != 0) {
    report.fail("fresh-seed pool too small by " + std::to_string(fresh_short));
  }
  OpenLoop gen;
  if (Status s = gen.connect(st.server->port(), kConns); !s.ok()) {
    die("connect: " + s.to_string());
  }
  Phase p;
  p.gen = gen.run(schedule, st.prepared, rate, 1.0 + 5.0 * opts.limit_ms / 1e3,
                  trace, 1, window, secs);
  ServerSample& s = p.server;
  s.latency_mean_us = reg.histogram("serve.latency").mean();
  s.latency_max_us = reg.histogram("serve.latency").max();
  s.queue_mean_us = reg.histogram("serve.queue_wait").mean();
  s.queue_max_us = reg.histogram("serve.queue_wait").max();
  s.rejected = static_cast<double>(reg.counter("serve.rejected").value());
  s.memo_hits =
      static_cast<double>(reg.counter("serve.memo_hits").value()) - memo_hits0;
  s.memo_misses = static_cast<double>(reg.counter("serve.memo_misses").value()) -
                  memo_misses0;
  s.batch_queue_us = reg.histogram("batch.queue_wait").mean();
  s.batch_job_us = reg.histogram("batch.job_wall").mean();
  s.job_errors = static_cast<double>(reg.counter("batch.job_errors").value());
  s.retries = static_cast<double>(reg.counter("batch.retries").value());
  s.timeouts = static_cast<double>(reg.counter("batch.timeouts").value());
  const runtime::SharedStepCache::Stats step1 = predictor.step_cache()->stats();
  s.step.hits = step1.hits - step0.hits;
  s.step.relabel_hits = step1.relabel_hits - step0.relabel_hits;
  s.step.misses = step1.misses - step0.misses;
  const runtime::PredictionCache::Stats pred1 = predictor.cache()->stats();
  s.pred.hits = pred1.hits - pred0.hits;
  s.pred.misses = pred1.misses - pred0.misses;
  if (p.gen.wrong != 0) {
    report.fail(std::to_string(p.gen.wrong) +
                " replies differ from their references");
  }
  std::printf("  phase %8.1f rps %5.2fs: sent %zu ok %zu err %zu timeout %zu "
              "p50 %.3f ms p%s %.3f ms (windowed %.3f) late-p99 %.3f ms "
              "backlog %zu rss %.1f MB\n",
              rate, secs, p.gen.sent, p.gen.completed, p.gen.errors,
              p.gen.timeouts, percentile(p.gen.latency_ms, 50),
              pct_label(opts.tail_pct).c_str(),
              percentile(p.gen.latency_ms, opts.tail_pct),
              p.gen.windowed(opts.tail_pct), p.gen.late_p99_ms(),
              p.gen.backlog, peak_rss_mb());
  return p;
}

/// Why a phase does not count, or an empty string: the generator fell
/// behind its schedule, or the backlog grew.
std::string invalid_reason(const Phase& p, const Options& opts) {
  if (p.gen.generator_behind(opts.limit_ms)) {
    return "generator fell behind (median lateness " +
           std::to_string(p.gen.last_slice_median(p.gen.late_ms)) +
           " ms at the end)";
  }
  if (p.gen.backlog_growing(opts.limit_ms)) return "backlog grew";
  return {};
}

/// A fixed-rate phase.  An invalid one is run again, at most twice, on a
/// fresh server with the same schedule; if it is still invalid its
/// latencies are withheld (they would not describe the offered rate).
/// Validity is about the measurement, so it leaves `correct`, which is
/// about the outputs, alone.
Phase fixed_phase(ServeState& st, const Options& opts, double rate,
                  double secs, std::uint64_t schedule_seed, const char* name,
                  Report& report) {
  for (int attempt = 0;; ++attempt) {
    Phase p = run_phase(st, opts, rate, secs, schedule_seed, nullptr, report);
    const std::string why = invalid_reason(p, opts);
    if (why.empty()) return p;
    std::printf("  %s phase invalid (%s)%s\n", name, why.c_str(),
                attempt == 2 ? ": its latencies are not reported" : ": run again");
    if (attempt == 2) {
      p.invalid = std::string{name} + " phase invalid: " + why;
      return p;
    }
  }
}

/// A rate is met when the tail stays within the limit -- a request that
/// failed or was refused counts as missing it -- at most 1% of requests
/// failed, the backlog did not grow and the generator kept to its
/// schedule.
bool probe_passes(const Phase& p, const Options& opts) {
  return p.gen.failed() * 100 <= p.gen.sent && invalid_reason(p, opts).empty() &&
         p.gen.windowed(opts.tail_pct) <= opts.limit_ms;
}

template <typename F>
double mean_us(std::size_t n, F body) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) body(i);
  return us_between(t0, Clock::now()) / static_cast<double>(n);
}

/// The traced run: layer metrics, the request ledger and the Chrome trace.
void traced_serve(ServeState& st, const Options& opts, const Plan& plan,
                  Report& report) {
  LayerTable layers;
  const std::uint64_t sched = substream(opts.seed, 10);
  // Every other request of the lo phase is traced, so traced and untraced
  // requests share the phase and the difference of their means is the
  // tracing overhead.
  obs::TraceSession ts;
  ts.set_thread_name("generator");
  ts.enable();
  const Phase lo = run_phase(st, opts, opts.lo_rps, plan.lo_s, sched, &ts,
                             report);
  ts.disable();
  const Phase hi = run_phase(st, opts, opts.hi_rps, plan.hi_s,
                             substream(opts.seed, 11), nullptr, report);
  for (const Phase* p : {&lo, &hi}) report.count(p->gen.sent, p->gen.failed());
  std::vector<double> untraced;
  std::vector<double> traced;
  for (std::size_t i = 0; i < lo.gen.latency_ms.size(); ++i) {
    (i % 2 == 0 ? traced : untraced).push_back(lo.gen.latency_ms[i]);
  }
  const double lo_ms = mean(untraced);
  layers.set("trace.overhead_pct", 100.0 * (mean(traced) / lo_ms - 1.0));

  // Server-side layer counters over the hi phase.
  const ServerSample& s = hi.server;
  layers.set("serve.latency_us_mean", s.latency_mean_us);
  layers.set("serve.latency_us_max", s.latency_max_us);
  layers.set("serve.queue_wait_us_mean", s.queue_mean_us);
  layers.set("serve.queue_wait_us_max", s.queue_max_us);
  layers.set("serve.rejected", s.rejected);
  layers.set("serve.memo_hits", s.memo_hits);
  layers.set("serve.memo_misses", s.memo_misses);
  layers.set("serve.memo_hit_ratio",
             s.memo_hits + s.memo_misses > 0
                 ? s.memo_hits / (s.memo_hits + s.memo_misses)
                 : 0.0);
  layers.set("runtime.batch_queue_wait_us", s.batch_queue_us);
  layers.set("runtime.batch_job_us", s.batch_job_us);
  layers.set("runtime.job_errors", s.job_errors);
  layers.set("runtime.retries", s.retries);
  layers.set("runtime.timeouts", s.timeouts);
  const auto step_h = static_cast<double>(s.step.hits);
  const auto step_m = static_cast<double>(s.step.misses);
  layers.set("runtime.step_cache_hits", step_h);
  layers.set("runtime.step_cache_relabel_hits",
             static_cast<double>(s.step.relabel_hits));
  layers.set("runtime.step_cache_misses", step_m);
  layers.set("runtime.step_cache_hit_ratio",
             step_h + step_m > 0 ? step_h / (step_h + step_m) : 0.0);
  const auto pred_h = static_cast<double>(s.pred.hits);
  const auto pred_m = static_cast<double>(s.pred.misses);
  layers.set("runtime.pred_cache_hits", pred_h);
  layers.set("runtime.pred_cache_misses", pred_m);
  layers.set("runtime.pred_cache_hit_ratio",
             pred_h + pred_m > 0 ? pred_h / (pred_h + pred_m) : 0.0);
  layers.set("gen.late_ms_p99", hi.gen.late_p99_ms());
  layers.set("gen.sent", static_cast<double>(hi.gen.sent));
  layers.set("gen.completed", static_cast<double>(hi.gen.completed));

  // Layers timed on their own over the workload's own inputs, weighted as
  // the request mix weights them.
  const std::size_t reps = 2000;
  const std::size_t nreq = st.n_repeat;
  double bytes = 0.0;
  for (std::size_t i = 0; i < nreq; ++i) {
    bytes += static_cast<double>(st.prepared[i].payload.size());
  }
  layers.set("io.request_kb", bytes / static_cast<double>(nreq) / 1024.0);
  const double decode_us = mean_us(reps, [&](std::size_t i) {
    (void)serve::decode_predict_request(st.prepared[i % nreq].payload,
                                        serve::Codec::kBinary);
  });
  layers.set("serve.wire_decode_us", decode_us);
  const double encode_us = mean_us(reps, [&](std::size_t i) {
    const Expected& e = st.prepared[i % nreq].expected;
    serve::PredictReply reply;
    reply.total_us = e.total_us;
    reply.comp_us = e.comp_us;
    reply.comm_us = e.comm_us;
    reply.comm_worst_us = e.comm_worst_us;
    (void)serve::encode_predict_reply(reply, serve::Codec::kBinary);
  });
  layers.set("serve.wire_encode_us", encode_us);
  Result<serve::Client> client =
      serve::Client::connect("127.0.0.1", st.server->port());
  if (!client.ok() || !client->hello().ok()) die("cannot reach the server");
  const double rtt_us = mean_us(500, [&](std::size_t) { (void)client->ping(); });
  layers.set("serve.rtt_us", rtt_us);

  Ledger ledger;
  ledger.item = "request at the lo rate";
  ledger.e2e_ms_per_item = lo_ms;
  ledger.e2e_source = "mean due-to-reply latency, untraced lo requests";
  const auto self = span_self_times(ts.collect());
  auto span_ms = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() || it->second.count == 0
               ? 0.0
               : it->second.self_us / static_cast<double>(it->second.count) /
                     1e3;
  };
  ledger.rows.push_back({"gen.late", span_ms("gen.late"), "span"});
  ledger.rows.push_back(
      {"serve.rtt", rtt_us / 1e3, "Client::ping round trip, timed alone"});
  ledger.rows.push_back(
      {"serve.wire_decode", decode_us / 1e3, "codec, timed alone"});
  ledger.rows.push_back({"serve.queue_wait", lo.server.queue_mean_us / 1e3,
                         "server serve.queue_wait mean"});
  if (st.upload) {
    double parse_ms = 0.0;
    double text_bytes = 0.0;
    for (std::size_t t = 0; t < st.texts.size(); ++t) {
      auto t0 = Clock::now();
      (void)io::parse_program(st.texts[t]);
      const double one_ms = ms_between(t0, Clock::now());
      parse_ms += one_ms;
      text_bytes += static_cast<double>(st.texts[t].size());
      // What the upload costs against what the prediction costs.
      core::ProgramSimOptions plain;
      plain.decompose = false;
      t0 = Clock::now();
      (void)core::Predictor{st.params, plain}.predict(st.bundles[t].program,
                                                      st.bundles[t].costs);
      std::printf("  %-22s %7.1f KB  parse %8.3f ms  predict %8.3f ms\n",
                  st.labels[t].c_str(),
                  static_cast<double>(st.texts[t].size()) / 1024.0, one_ms,
                  ms_between(t0, Clock::now()));
    }
    const double n = static_cast<double>(st.texts.size());
    layers.set("io.parse_ms", parse_ms / n);
    layers.set("io.parse_mb_per_s", text_bytes / 1e6 / (parse_ms / 1e3));
    ledger.rows.push_back({"io.parse", parse_ms / n, "timed alone"});
    runtime::PredictionCache cache;
    for (std::size_t i = 0; i < nreq; ++i) {
      const io::ProgramBundle& b = st.bundles[st.req_text[i]];
      cache.insert(b.program, b.costs, st.params, st.reqs[i].seed,
                   st.repeat_preds[i]);
    }
    const double lookup_us = mean_us(nreq * 4, [&](std::size_t i) {
      const io::ProgramBundle& b = st.bundles[st.req_text[i % nreq]];
      (void)cache.lookup(b.program, b.costs, st.params, st.reqs[i % nreq].seed);
    });
    ledger.rows.push_back(
        {"runtime.pred_cache lookup", lookup_us / 1e3, "timed alone"});
  } else {
    const double memo_us = mean_us(reps, [&](std::size_t i) {
      const std::size_t r = i % nreq;
      (void)st.server->registry()
          .find(st.handles[st.req_text[r]])
          ->memo_lookup(st.params, st.reqs[r].seed);
    });
    ledger.rows.push_back(
        {"serve.memo lookup", memo_us / 1e3 * (1 - kFreshShare), "timed alone"});
    ledger.rows.push_back({"core.predict (fresh share)",
                           st.fresh_ref_ms * kFreshShare,
                           "plain path at set-up x fresh share"});
  }
  ledger.rows.push_back(
      {"serve.wire_encode", encode_us / 1e3, "codec, timed alone"});
  ledger.rows.push_back(
      {"client.wire_decode", span_ms("client.wire_decode"), "span"});
  ledger.remainder =
      "worker wake-up and hand-off between reactor and worker, coalescing, "
      "the registry and params lookups, socket copies of the payload";
  ledger.print();
  layers.set("ledger.coverage_pct", ledger.coverage_pct());
  const std::string path = write_trace(ts, opts.out_dir, opts.workload);
  std::printf("chrome trace: %s\n",
              path.empty() ? "(write failed)" : path.c_str());
  layers.emit(report, hi.gen.sent);
}

}  // namespace

Digests serve_digests(const Options& opts, bool upload) {
  Report scratch;
  const auto st = make_serve(opts, upload, scratch);
  return {st->input_digest, st->ref_digest};
}

void run_serve(const Options& opts, bool upload, Report& report) {
  if (opts.lo_rps <= 0 || opts.hi_rps <= opts.lo_rps || opts.limit_ms <= 0 ||
      opts.search_max_rps <= opts.hi_rps) {
    die("serve workloads need --lo-rps < --hi-rps < --search-max-rps and "
        "--limit-ms");
  }
  const Plan plan = Plan::of(opts);
  SetupTime setup;
  auto st = timed_setups(setup,
                         [&] { return make_serve(opts, upload, report); });
  check_reference_digest(opts, st->input_digest, st->ref_digest, report);
  if (opts.trace) {
    traced_serve(*st, opts, plan, report);
    return;
  }

  const Phase lo = fixed_phase(*st, opts, opts.lo_rps, plan.lo_s,
                               substream(opts.seed, 10), "lo", report);
  const Phase hi = fixed_phase(*st, opts, opts.hi_rps, plan.hi_s,
                               substream(opts.seed, 11), "hi", report);
  // Saturation: a closed loop keeping the server busy gives the requests
  // it completes per second -- the gated throughput, which, unlike the
  // max-rate search, does not hinge on a tail crossing a limit.
  const Phase sat = run_phase(*st, opts, 0.0, plan.sat_s,
                              substream(opts.seed, 12), nullptr, report,
                              kSaturationWindow);
  report.count(lo.gen.sent, lo.gen.failed());
  report.count(hi.gen.sent, hi.gen.failed());
  report.count(sat.gen.sent, sat.gen.failed());

  // Bisection between the last passing and the first failing rate, then
  // linear interpolation of the tail between the two for the rate where it
  // meets the limit.  A failing probe's tail counts as at most twice the
  // limit, and as exactly twice when it failed on backlog or lateness
  // alone.
  const bool hi_passes = probe_passes(hi, opts);
  double pass = hi_passes ? opts.hi_rps : opts.lo_rps;
  double pass_tail = (hi_passes ? hi : lo).gen.windowed(opts.tail_pct);
  double fail = opts.search_max_rps;
  double fail_tail = -1.0;  // never probed
  for (int i = 0; i < kSearchProbes; ++i) {
    const double rate = 0.5 * (pass + fail);
    const Phase probe =
        run_phase(*st, opts, rate, plan.probe_s,
                  substream(opts.seed, 20 + static_cast<std::uint64_t>(i)),
                  nullptr, report);
    const double tail = probe.gen.windowed(opts.tail_pct);
    if (probe_passes(probe, opts)) {
      pass = rate;
      pass_tail = tail;
    } else {
      fail = rate;
      fail_tail = tail > opts.limit_ms ? std::min(tail, 2.0 * opts.limit_ms)
                                       : 2.0 * opts.limit_ms;
    }
  }
  double max_rate = pass;
  if (fail_tail > opts.limit_ms && pass_tail < opts.limit_ms) {
    max_rate += (fail - pass) * (opts.limit_ms - pass_tail) /
                (std::max(fail_tail, opts.limit_ms) - pass_tail);
  }

  const std::vector<double>& lo_lat = lo.gen.latency_ms;
  const std::vector<double>& hi_lat = hi.gen.latency_ms;
  // A figure that rests on an invalid phase is withheld.
  auto add_from = [&](const Phase& p, Metric m) {
    if (p.invalid.empty()) {
      report.add(std::move(m));
    } else {
      report.absent(m.name, m.unit, p.invalid);
    }
  };
  report.add({"setup_s", setup.median_s, "s", setup.count, ""});
  report.add({"jobs_per_s", sat.gen.throughput(), "1/s", sat.gen.completed,
              "replies per second at saturation (" +
                  std::to_string(kSaturationWindow) + " outstanding)"});
  add_from(lo, {"p50_ms", lo.gen.windowed(50), "ms", lo_lat.size(),
                "p50 at the lo rate, median over slices of the phase"});
  add_from(hi, {"tail_ms", hi.gen.windowed(opts.tail_pct), "ms", hi_lat.size(),
                "p" + pct_label(opts.tail_pct) +
                    " at the hi rate, median over slices of the phase"});
  report.absent("p99_ms", "ms", "open loop: see the _lo and _hi rows");
  add_from(lo, {"p50_ms_lo", percentile(lo_lat, 50), "ms", lo_lat.size(), ""});
  add_from(hi, {"p50_ms_hi", percentile(hi_lat, 50), "ms", hi_lat.size(), ""});
  for (const auto& [name, p] :
       {std::pair{"p99_ms_lo", &lo}, std::pair{"p99_ms_hi", &hi}}) {
    const std::vector<double>& lat = p->gen.latency_ms;
    if (percentile_supported(lat.size(), 99)) {
      add_from(*p, {name, percentile(lat, 99), "ms", lat.size(), ""});
    } else {
      report.absent(name, "ms",
                    "needs 1000 samples for 10 beyond p99, have " +
                        std::to_string(lat.size()));
    }
  }
  // The search starts from the highest fixed rate that passed.
  add_from(hi_passes ? hi : lo,
           {"max_rate_rps", max_rate, "1/s", kSearchProbes,
            "limit " + pct_label(opts.tail_pct) + "th pct <= " +
                std::to_string(opts.limit_ms) + " ms"});
  report.absent("pred_err_pct", "%", "ge_sweep only");
}

}  // namespace lbench
