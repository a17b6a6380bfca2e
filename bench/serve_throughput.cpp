// Load generator for the serving layer (DESIGN.md §12): measures what
// `logsimd` adds on top of the in-process BatchPredictor -- wire framing,
// request parsing, admission, fair queueing -- and what the process-wide
// warm caches give back.
//
// Measurements over the same GE workload (N=960, blocks 32/64/96/120,
// diagonal layout; every request is one serialized program text):
//
//   serve_direct_ref   the in-process analogue of serving the same request
//                      stream: N threads, each parsing its request texts
//                      and calling predict_one on a shared BatchPredictor
//                      (no prediction cache, shared step cache) -- exactly
//                      the server's worker path minus wire and queueing.
//                      Parsing is charged to both sides because both sides
//                      pay it; what the comparison isolates is the serving
//                      overhead itself.
//   serve_cold         a fresh server per sample, per-request unique seeds:
//                      every request misses the prediction cache and
//                      simulates.  Wire + parse + queue + compute.
//   serve_warm         one server, caches pre-filled, fixed seeds: every
//                      request uploads its full program text and is
//                      answered from the prediction cache.  This is the
//                      reference row the registered phase is judged
//                      against.
//   serve_reg          (--register) the DESIGN.md §14 steady-state hot
//                      path: programs REGISTERed once, every request
//                      carries only (handle, params, seed) and hits the
//                      per-program memo.  No program bytes on the wire, no
//                      parse, no simulation.
//
// Every phase speaks the wire's one binary codec.
//
// Load shape: N client threads (default 4), each with its own connection,
// pipelining up to kWindow correlation ids on the socket (requests are
// issued without waiting for earlier replies, bounded only by the window
// so the generator cannot outrun the server's admission cap).  Per-request
// latency is send-to-reply; pass throughput is total jobs over wall time.
// Each phase runs samples+1 passes, discards the first, reports the
// SAMPLE MEDIAN (same methodology as perf_regression).
//
// Rows land in BENCH_perf.json schema "logsim-perf-v4" (v4 = v3 plus the
// serve_reg* rows; layout unchanged, v3 baselines still parse):
//   jobs_per_sec rows   serve_direct_ref, serve_cold, serve_warm,
//                       serve_reg                   (gated, >= 75% of base)
//   latency_us rows     serve_{cold,warm,reg}_p{50,99}_us  (gated lower-is-
//                       better at a deliberately wide allowance -- tails on
//                       a shared box swing several-fold with scheduler
//                       luck; the gate catches order-of-magnitude blowups)
//
// Usage:
//   serve_throughput [--quick] [--clients N] [--register]
//                    [--reactors N] [--out FILE] [--merge FILE]
//                    [--baseline FILE] [--max-regress FRAC] [--check]
//
// --reactors shards the benched servers' connections across N epoll
// threads.  --merge appends the rows to an existing BENCH_perf.json
// (written by perf_regression) instead of writing a standalone file.
// --check asserts the acceptance bars: warm served throughput within 2x
// of direct, and (with --register) registered throughput >= 5x the
// full-upload warm row.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <logsim/logsim.hpp>

#include "ge_sweep.hpp"
#include "io/program_io.hpp"

using namespace logsim;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kWindow = 8;  // pipelined correlation ids per connection

struct BenchResult {
  std::string name;
  std::string metric;
  double value = 0.0;
  std::vector<double> samples;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in [0,100]) of an unsorted sample set.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Workload {
  std::vector<core::StepProgram> programs;
  std::vector<std::string> texts;  // io::to_text of each program
  core::CostTable costs;
  loggp::Params params;
};

Workload build_workload() {
  Workload w;
  w.costs = ops::analytic_cost_table();
  w.params = loggp::presets::meiko_cs2(bench::kProcs);
  const layout::DiagonalMap map{bench::kProcs};
  for (const int b : {32, 64, 96, 120}) {
    w.programs.push_back(ge::build_ge_program(
        ge::GeConfig{.n = bench::kMatrixN, .block = b}, map));
    w.texts.push_back(io::to_text(w.programs.back(), w.costs));
  }
  return w;
}

struct PassResult {
  double seconds = 0.0;
  std::size_t jobs = 0;
  std::size_t errors = 0;
  std::vector<double> latencies_us;  // send-to-reply, all clients pooled
};

/// How run_pass shapes its requests.
struct PassOptions {
  /// 0 pins every request to seed 1 (the cacheable shape); otherwise each
  /// request gets a globally unique seed so none can hit any cache.
  std::uint64_t seed_base = 0;
  /// Non-empty: request handles[i % size] instead of uploading program
  /// text -- the registered-program hot path.
  std::vector<std::uint64_t> handles;
};

/// One open-loop pass: `clients` threads, `per_client` requests each,
/// pipelined `kWindow` deep.
PassResult run_pass(std::uint16_t port, const Workload& w, int clients,
                    int per_client, const PassOptions& opts) {
  std::vector<std::thread> threads;
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(clients));
  std::atomic<std::size_t> errors{0};
  const auto start = Clock::now();
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Result<serve::Client> connected =
          serve::Client::connect("127.0.0.1", port);
      if (!connected.ok()) {
        errors.fetch_add(static_cast<std::size_t>(per_client));
        return;
      }
      serve::Client client = std::move(connected).value();
      std::unordered_map<std::uint64_t, Clock::time_point> sent;
      int issued = 0;
      int received = 0;
      while (received < per_client) {
        while (issued < per_client &&
               sent.size() < static_cast<std::size_t>(kWindow)) {
          serve::PredictRequest req;
          const std::size_t slot =
              static_cast<std::size_t>(issued) % w.texts.size();
          if (opts.handles.empty()) {
            req.program_text = w.texts[slot];
          } else {
            req.handle = opts.handles[slot % opts.handles.size()];
          }
          req.seed = opts.seed_base == 0
                         ? 1
                         : opts.seed_base +
                               static_cast<std::uint64_t>(c) *
                                   static_cast<std::uint64_t>(per_client) +
                               static_cast<std::uint64_t>(issued);
          const std::uint64_t id = client.next_id();
          sent.emplace(id, Clock::now());
          if (!client
                   .send(serve::Frame{serve::FrameKind::kPredict, id,
                                      serve::encode_predict_request(req)})
                   .ok()) {
            errors.fetch_add(
                static_cast<std::size_t>(per_client - received));
            return;
          }
          ++issued;
        }
        Result<serve::Frame> frame = client.receive();
        if (!frame.ok()) {
          errors.fetch_add(static_cast<std::size_t>(per_client - received));
          return;
        }
        if (const auto it = sent.find(frame->id); it != sent.end()) {
          lat[static_cast<std::size_t>(c)].push_back(
              seconds_since(it->second) * 1e6);
          sent.erase(it);
        }
        if (frame->kind == serve::FrameKind::kError) errors.fetch_add(1);
        ++received;
      }
    });
  }
  for (auto& t : threads) t.join();

  PassResult r;
  r.seconds = seconds_since(start);
  r.jobs = static_cast<std::size_t>(clients) *
           static_cast<std::size_t>(per_client);
  r.errors = errors.load();
  for (auto& per_conn : lat) {
    r.latencies_us.insert(r.latencies_us.end(), per_conn.begin(),
                          per_conn.end());
  }
  return r;
}

serve::Server::Config server_config(int clients, int reactors,
                                    obs::metrics::Registry* registry) {
  serve::Server::Config config;
  config.port = 0;
  config.workers = static_cast<std::size_t>(clients);
  if (reactors > 0) config.reactors = static_cast<std::size_t>(reactors);
  config.metrics = registry;
  return config;
}

/// Direct in-process reference: `clients` threads, each parsing its
/// request texts and predicting through one shared BatchPredictor (the
/// server's worker path without the wire).  Unique seeds, like the cold
/// phase; fresh step cache per sample; no prediction cache.
BenchResult bench_direct(const Workload& w, int clients, int per_client,
                         int samples) {
  const std::size_t total = static_cast<std::size_t>(clients) *
                            static_cast<std::size_t>(per_client);
  BenchResult r;
  r.name = "serve_direct_ref";
  r.metric = "jobs_per_sec";
  for (int s = 0; s <= samples; ++s) {
    runtime::SharedStepCache step_cache;
    runtime::BatchPredictor::Config cfg;
    cfg.threads = static_cast<std::size_t>(clients);
    cfg.step_cache = &step_cache;
    runtime::BatchPredictor batch{cfg};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    const auto start = Clock::now();
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (int i = 0; i < per_client; ++i) {
          Result<io::ProgramBundle> bundle = io::parse_program(
              w.texts[static_cast<std::size_t>(i) % w.texts.size()]);
          if (!bundle.ok()) std::abort();  // the texts are self-generated
          loggp::Params params = w.params;
          params.P = bundle->program.procs();
          runtime::PredictJob job{&bundle->program, params, &bundle->costs};
          job.seed = 1000 + static_cast<std::uint64_t>(c) *
                                static_cast<std::uint64_t>(per_client) +
                     static_cast<std::uint64_t>(i);
          (void)batch.predict_one(job);
        }
      });
    }
    for (auto& t : threads) t.join();
    const double sec = seconds_since(start);
    if (s == 0) continue;  // warm-up: scratch growth, page faults
    r.samples.push_back(static_cast<double>(total) / sec);
  }
  r.value = median(r.samples);
  return r;
}

/// Cold phase: a brand-new server (empty caches) per sample; per-request
/// unique seeds keep even same-pass repeats out of the prediction cache.
BenchResult bench_cold(const Workload& w, int clients, int per_client,
                       int samples, int reactors, std::vector<double>* p50,
                       std::vector<double>* p99) {
  BenchResult r;
  r.name = "serve_cold";
  r.metric = "jobs_per_sec";
  for (int s = 0; s <= samples; ++s) {
    obs::metrics::Registry registry;
    serve::Server server{server_config(clients, reactors, &registry)};
    if (const Status st = server.start(); !st.ok()) {
      std::cerr << "serve_cold: server failed to start: " << st.to_string()
                << "\n";
      std::exit(2);
    }
    PassOptions opts;
    opts.seed_base = 1000;
    const PassResult pass = run_pass(server.port(), w, clients, per_client,
                                     opts);
    server.stop();
    if (pass.errors != 0) {
      std::cerr << "serve_cold: " << pass.errors << " request errors\n";
      std::exit(2);
    }
    if (s == 0) continue;
    r.samples.push_back(static_cast<double>(pass.jobs) / pass.seconds);
    p50->push_back(percentile(pass.latencies_us, 50.0));
    p99->push_back(percentile(pass.latencies_us, 99.0));
  }
  r.value = median(r.samples);
  return r;
}

/// Warm phase: one server, prediction cache pre-filled by a discarded
/// warm-up pass; fixed seeds make every measured request a cache hit.
/// Every request uploads its full program text: this is the reference row
/// the registered phase's speedup is measured from.
BenchResult bench_warm(const Workload& w, int clients, int per_client,
                       int samples, int reactors, std::vector<double>* p50,
                       std::vector<double>* p99) {
  obs::metrics::Registry registry;
  serve::Server server{server_config(clients, reactors, &registry)};
  if (const Status st = server.start(); !st.ok()) {
    std::cerr << "serve_warm: server failed to start: " << st.to_string()
              << "\n";
    std::exit(2);
  }
  BenchResult r;
  r.name = "serve_warm";
  r.metric = "jobs_per_sec";
  for (int s = 0; s <= samples; ++s) {
    const PassResult pass =
        run_pass(server.port(), w, clients, per_client, PassOptions{});
    if (pass.errors != 0) {
      std::cerr << "serve_warm: " << pass.errors << " request errors\n";
      std::exit(2);
    }
    if (s == 0) continue;  // warm-up pass fills the caches
    r.samples.push_back(static_cast<double>(pass.jobs) / pass.seconds);
    p50->push_back(percentile(pass.latencies_us, 50.0));
    p99->push_back(percentile(pass.latencies_us, 99.0));
  }
  server.stop();
  r.value = median(r.samples);
  return r;
}

/// Registered phase (DESIGN.md §14): one server, the workload's programs
/// REGISTERed once up front, fixed seeds.  Every measured request carries
/// only (handle, params, seed) -- after the discarded warm-up pass each
/// one is a per-program memo hit: no program bytes, no parse, no
/// simulation.  This is the microsecond steady-state path the multi-
/// reactor refactor exists for.
BenchResult bench_registered(const Workload& w, int clients, int per_client,
                             int samples, int reactors,
                             std::vector<double>* p50,
                             std::vector<double>* p99) {
  obs::metrics::Registry registry;
  serve::Server server{server_config(clients, reactors, &registry)};
  if (const Status st = server.start(); !st.ok()) {
    std::cerr << "serve_reg: server failed to start: " << st.to_string()
              << "\n";
    std::exit(2);
  }
  std::vector<std::uint64_t> handles;
  {
    Result<serve::Client> connected =
        serve::Client::connect("127.0.0.1", server.port());
    if (!connected.ok()) {
      std::cerr << "serve_reg: " << connected.status().to_string() << "\n";
      std::exit(2);
    }
    serve::Client client = std::move(connected).value();
    for (const std::string& text : w.texts) {
      const Result<std::uint64_t> handle = client.register_program(text);
      if (!handle.ok()) {
        std::cerr << "serve_reg: REGISTER: " << handle.status().to_string()
                  << "\n";
        std::exit(2);
      }
      handles.push_back(handle.value());
    }
  }
  BenchResult r;
  r.name = "serve_reg";
  r.metric = "jobs_per_sec";
  // The hot path answers in microseconds, so a text-phase-sized pass is
  // over before the percentiles mean anything; 8x the requests still
  // finishes in milliseconds and stabilizes the p50/p99 rows.
  per_client *= 8;
  for (int s = 0; s <= samples; ++s) {
    PassOptions opts;
    opts.handles = handles;
    const PassResult pass = run_pass(server.port(), w, clients, per_client,
                                     opts);
    if (pass.errors != 0) {
      std::cerr << "serve_reg: " << pass.errors << " request errors\n";
      std::exit(2);
    }
    if (s == 0) continue;  // warm-up pass fills the per-program memos
    r.samples.push_back(static_cast<double>(pass.jobs) / pass.seconds);
    p50->push_back(percentile(pass.latencies_us, 50.0));
    p99->push_back(percentile(pass.latencies_us, 99.0));
  }
  server.stop();
  r.value = median(r.samples);
  return r;
}

BenchResult percentile_row(const std::string& name,
                           std::vector<double> samples) {
  BenchResult r;
  r.name = name;
  r.metric = "latency_us";
  r.samples = std::move(samples);
  r.value = median(r.samples);
  return r;
}

void write_rows(std::ostream& out, const std::vector<BenchResult>& results) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"metric\": \"" << r.metric
        << "\", \"value\": " << util::fmt(r.value, 1) << ", \"samples\": [";
    for (std::size_t s = 0; s < r.samples.size(); ++s) {
      out << (s ? ", " : "") << util::fmt(r.samples[s], 1);
    }
    out << "]}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
}

void write_json(std::ostream& out, const std::vector<BenchResult>& results,
                bool quick) {
  out << "{\n"
      << "  \"schema\": \"logsim-perf-v4\",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"benchmarks\": [\n";
  write_rows(out, results);
  out << "  ]\n}\n";
}

/// Appends the rows inside the benchmarks array of an existing
/// BENCH_perf.json (the perf_regression output ends "...}\n  ]\n}\n";
/// rows slot in before the closing "  ]").
bool merge_json(const std::string& path,
                const std::vector<BenchResult>& results) {
  std::ifstream in{path};
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  const std::size_t close = text.rfind("\n  ]");
  if (close == std::string::npos) return false;
  std::ostringstream rows;
  rows << ",\n";
  write_rows(rows, results);
  std::string block = rows.str();
  if (!block.empty() && block.back() == '\n') block.pop_back();
  text.insert(close, block);
  std::ofstream out{path, std::ios::trunc};
  if (!out) return false;
  out << text;
  return true;
}

/// Same minimal name/value scanner as perf_regression: reads files this
/// tool or perf_regression wrote.
std::vector<std::pair<std::string, double>> read_baseline(
    const std::string& path) {
  std::vector<std::pair<std::string, double>> out;
  std::ifstream in{path};
  if (!in) return out;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::size_t pos = 0;
  while (true) {
    const std::size_t name_key = text.find("\"name\"", pos);
    if (name_key == std::string::npos) break;
    const std::size_t q1 = text.find('"', text.find(':', name_key));
    const std::size_t q2 = text.find('"', q1 + 1);
    const std::size_t value_key = text.find("\"value\"", q2);
    if (q1 == std::string::npos || q2 == std::string::npos ||
        value_key == std::string::npos) {
      break;
    }
    out.emplace_back(text.substr(q1 + 1, q2 - q1 - 1),
                     std::strtod(text.c_str() + text.find(':', value_key) + 1,
                                 nullptr));
    pos = value_key;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool check = false;
  bool with_registered = false;
  int clients = 4;
  int reactors = 0;
  std::string out_path;
  std::string merge_path;
  std::string baseline_path;
  double max_regress = 0.25;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--register") {
      with_registered = true;
    } else if (arg == "--clients") {
      clients = std::atoi(next().c_str());
    } else if (arg == "--reactors") {
      reactors = std::atoi(next().c_str());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--merge") {
      merge_path = next();
    } else if (arg == "--baseline") {
      baseline_path = next();
    } else if (arg == "--max-regress") {
      max_regress = std::strtod(next().c_str(), nullptr);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }
  if (clients < 1) clients = 1;

  const int samples = quick ? 3 : 5;
  const int per_client = quick ? 8 : 24;

  const Workload w = build_workload();
  std::vector<double> cold_p50;
  std::vector<double> cold_p99;
  std::vector<double> warm_p50;
  std::vector<double> warm_p99;
  std::vector<double> reg_p50;
  std::vector<double> reg_p99;

  std::vector<BenchResult> results;
  results.push_back(bench_direct(w, clients, per_client, samples));
  results.push_back(bench_cold(w, clients, per_client, samples, reactors,
                               &cold_p50, &cold_p99));
  results.push_back(bench_warm(w, clients, per_client, samples, reactors,
                               &warm_p50, &warm_p99));
  if (with_registered) {
    results.push_back(bench_registered(w, clients, per_client, samples,
                                       reactors, &reg_p50, &reg_p99));
  }
  results.push_back(percentile_row("serve_cold_p50_us", std::move(cold_p50)));
  results.push_back(percentile_row("serve_cold_p99_us", std::move(cold_p99)));
  results.push_back(percentile_row("serve_warm_p50_us", std::move(warm_p50)));
  results.push_back(percentile_row("serve_warm_p99_us", std::move(warm_p99)));
  if (with_registered) {
    results.push_back(percentile_row("serve_reg_p50_us", std::move(reg_p50)));
    results.push_back(percentile_row("serve_reg_p99_us", std::move(reg_p99)));
  }

  util::Table table{{"benchmark", "metric", "median", "samples"}};
  for (const auto& r : results) {
    std::string samp;
    for (std::size_t s = 0; s < r.samples.size(); ++s) {
      samp += (s ? " " : "") + util::fmt(r.samples[s], 0);
    }
    table.add_row({r.name, r.metric, util::fmt(r.value, 0), samp});
  }
  std::cout << "=== serve throughput (" << clients << " clients x "
            << per_client << " jobs, window " << kWindow << ", median of "
            << samples << ") ===\n"
            << table;

  if (!out_path.empty()) {
    std::ofstream out{out_path};
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 2;
    }
    write_json(out, results, quick);
    std::cout << "wrote " << out_path << "\n";
  }
  if (!merge_path.empty()) {
    if (!merge_json(merge_path, results)) {
      std::cerr << "cannot merge into " << merge_path << "\n";
      return 2;
    }
    std::cout << "merged serve rows into " << merge_path << "\n";
  }

  const auto row = [&](const std::string& name) -> const BenchResult* {
    for (const auto& r : results) {
      if (r.name == name) return &r;
    }
    return nullptr;
  };

  int rc = 0;
  if (check) {
    const double direct = row("serve_direct_ref")->value;
    const double warm = row("serve_warm")->value;
    const bool ok = warm * 2.0 >= direct;
    std::cout << "\n--- check: warm served vs direct in-process ---\n"
              << "direct " << util::fmt(direct, 1) << " jobs/s, warm served "
              << util::fmt(warm, 1) << " jobs/s ("
              << util::fmt(warm / direct * 100.0, 1) << "%, need >= 50%) "
              << (ok ? "(ok)" : "(FAILED)") << "\n";
    if (!ok) rc = 1;
    if (with_registered) {
      // The registered hot path must beat the full-upload warm path by at
      // least 5x.
      const double reg = row("serve_reg")->value;
      const bool reg_ok = reg >= 5.0 * warm;
      std::cout << "--- check: registered hot path vs full-upload warm ---\n"
                << "warm " << util::fmt(warm, 1) << " jobs/s, registered "
                << util::fmt(reg, 1) << " jobs/s ("
                << util::fmt(reg / warm, 1) << "x, need >= 5x) "
                << (reg_ok ? "(ok)" : "(FAILED)") << "\n";
      if (!reg_ok) rc = 1;
    }
  }

  if (!baseline_path.empty()) {
    const auto baseline = read_baseline(baseline_path);
    if (baseline.empty()) {
      std::cerr << "baseline " << baseline_path
                << " missing or unreadable; skipping gate\n";
      return rc;
    }
    bool failed = false;
    std::cout << "\n--- regression gate vs " << baseline_path << " (max "
              << util::fmt(max_regress * 100.0, 0)
              << "% throughput drop; latency rows lower-is-better, wide "
                 "allowance) ---\n";
    for (const auto& r : results) {
      const bool throughput =
          r.metric.size() >= 8 &&
          r.metric.compare(r.metric.size() - 8, 8, "_per_sec") == 0;
      const auto it =
          std::find_if(baseline.begin(), baseline.end(),
                       [&](const auto& b) { return b.first == r.name; });
      if (it == baseline.end()) {
        std::cout << r.name << ": no baseline entry, skipped\n";
        continue;
      }
      if (it->second <= 0.0) {
        std::cout << r.name << ": zero baseline, skipped\n";
        continue;
      }
      const double ratio = r.value / it->second;
      // Throughput gates on drops; latency gates on growth.  The latency
      // allowance is deliberately wide (8x the throughput fraction, so 3x
      // the baseline at the default 25%): on a single-core box the open-
      // loop tails swing several-fold with scheduler luck, and what the
      // gate exists to catch is the order-of-magnitude blowup of a hot
      // path falling off its cache -- not jitter.
      const bool ok = throughput ? ratio >= 1.0 - max_regress
                                 : ratio <= 1.0 + 8.0 * max_regress;
      std::cout << r.name << ": " << util::fmt(ratio * 100.0, 1)
                << "% of baseline " << (ok ? "(ok)" : "(REGRESSION)") << "\n";
      failed = failed || !ok;
    }
    if (failed) {
      std::cerr << "serve perf regression gate FAILED\n";
      return 1;
    }
    std::cout << "serve perf regression gate passed\n";
  }
  return rc;
}
