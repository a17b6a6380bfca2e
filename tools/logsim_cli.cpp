// logsim_cli -- command-line driver for the library.
//
//   logsim_cli simulate <pattern-file> [--params STR] [--worst] [--seed N]
//                       [--csv FILE]
//       Derive the send/receive schedule of a pattern file (see
//       src/io/pattern_io.hpp for the format) and print the timeline.
//
//   logsim_cli predict-ge <N> <block> <procs> <layout> [--params STR]
//       Predict blocked Gaussian Elimination (layout: diagonal|row-cyclic).
//
//   logsim_cli predict <program-file> [--params STR] [--worst]
//                      [--server HOST:PORT] [--topology SPEC]
//       Predict a whole step program serialized in the program text
//       format (see src/io/program_io.hpp).  With --server the program
//       is sent to a running logsimd instead of simulated in-process;
//       the wire carries doubles as raw IEEE-754 bits, so the numbers
//       match the local path bit for bit (modulo its shared caches
//       serving hits).  --topology routes every message over a network
//       shape ("torus:4x4", "fattree:4,4/1,2", "mesh:2x8;hop=3"; see
//       src/io/topology_io.hpp) instead of the flat LogGP network;
//       remotely it rides the PREDICT request's topology field.
//
//   logsim_cli fit [--params STR]
//       Demonstrate LogGP parameter recovery against the built-in
//       simulator configured with the given (hidden) parameters.
//
// --params accepts "meiko", "cluster", "ideal" or "L=..,o=..,g=..,G=..,P=..".
// --no-step-cache disables the comm-step memoization cache in predict /
// predict-ge; predictions are bit-identical either way.
// --sim-threads N (or LOGSIM_SIM_THREADS=N) sizes the component-simulation
// pool for mega-scale comm steps (0/1 = sequential); predictions are
// bit-identical at any size, the knob trades wall-clock.
// --trace-out FILE (or --trace-out=FILE, or LOGSIM_TRACE=FILE in the
// environment) makes predict / predict-ge write a Chrome trace-event JSON
// file: wall-clock tracks for the process plus one track per simulated
// processor (load it at ui.perfetto.dev or chrome://tracing).  Tracing is
// observation-only -- predictions are bit-identical with it on or off.

#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <logsim/analysis.hpp>
#include <logsim/core.hpp>
#include <logsim/obs.hpp>
#include <logsim/programs.hpp>
#include <logsim/runtime.hpp>
#include <logsim/serve.hpp>

#include "io/params_io.hpp"
#include "io/pattern_io.hpp"
#include "io/program_io.hpp"
#include "io/topology_io.hpp"

using namespace logsim;

namespace {

struct Flags {
  std::string params_text = "meiko";
  bool worst = false;
  bool step_cache = true;
  std::uint64_t seed = 1;
  std::string csv;
  std::string trace_out;  // empty = tracing off
  std::string server;     // "HOST:PORT"; empty = predict in-process
  std::string topology;   // io/topology_io.hpp format; empty = flat
  std::vector<std::string> positional;
};

/// Renders a boundary Status as a compiler-style diagnostic:
/// "<origin>:<line>: <code>: <message> (<context>; ...)".
void report(const std::string& origin, const Status& st) {
  std::cerr << origin;
  if (st.line() > 0) std::cerr << ':' << st.line();
  std::cerr << ": " << error_code_name(st.code()) << ": " << st.message();
  for (const auto& frame : st.context()) std::cerr << " (" << frame << ')';
  std::cerr << '\n';
}

Flags parse_flags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--worst") {
      flags.worst = true;
    } else if (arg == "--no-step-cache") {
      flags.step_cache = false;
    } else if (arg == "--sim-threads" && i + 1 < argc) {
      runtime::set_sim_thread_count(
          static_cast<std::size_t>(std::atoll(argv[++i])));
    } else if (arg == "--params" && i + 1 < argc) {
      flags.params_text = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      flags.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--csv" && i + 1 < argc) {
      flags.csv = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      flags.trace_out = argv[++i];
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      flags.trace_out = arg.substr(std::strlen("--trace-out="));
    } else if (arg == "--server" && i + 1 < argc) {
      flags.server = argv[++i];
    } else if (arg.rfind("--server=", 0) == 0) {
      flags.server = arg.substr(std::strlen("--server="));
    } else if (arg == "--topology" && i + 1 < argc) {
      flags.topology = argv[++i];
    } else if (arg.rfind("--topology=", 0) == 0) {
      flags.topology = arg.substr(std::strlen("--topology="));
    } else {
      flags.positional.push_back(arg);
    }
  }
  if (flags.trace_out.empty()) {
    // Environment fallback: LOGSIM_TRACE names the output file ("0" and
    // the empty string keep tracing off).
    if (const char* env = std::getenv("LOGSIM_TRACE");
        env != nullptr && *env != '\0' && std::string_view{env} != "0") {
      flags.trace_out = env;
    }
  }
  return flags;
}

/// RAII tracing scope for one CLI command: enables the global session and
/// names the calling thread, then writes the Chrome trace on destruction.
class TraceScope {
 public:
  TraceScope(std::string path, const obs::SimTraceRecorder* sim)
      : path_(std::move(path)), sim_(sim) {
    if (!active()) return;
    obs::TraceSession::global().set_thread_name("main");
    obs::TraceSession::global().enable();
  }

  ~TraceScope() {
    if (!active()) return;
    obs::TraceSession::global().disable();
    if (obs::write_chrome_trace(path_, obs::TraceSession::global(), sim_)) {
      std::cout << "trace written to " << path_ << '\n';
    } else {
      std::cerr << "cannot write trace to " << path_ << '\n';
    }
    obs::TraceSession::global().clear();
  }

  [[nodiscard]] bool active() const { return !path_.empty(); }

 private:
  std::string path_;
  const obs::SimTraceRecorder* sim_;
};

int cmd_simulate(const Flags& flags) {
  if (flags.positional.empty()) {
    std::cerr << "simulate: missing pattern file\n";
    return 2;
  }
  const auto parsed = io::load_pattern(flags.positional[0]);
  if (!parsed.ok()) {
    report(flags.positional[0], parsed.status());
    return 1;
  }
  const auto& pat = *parsed;

  loggp::Params defaults;
  defaults.P = pat.procs();
  const auto pr = io::parse_params(flags.params_text, defaults);
  if (!pr.ok()) {
    report("--params", pr.status());
    return 1;
  }
  loggp::Params params = *pr;
  params.P = pat.procs();

  core::CommTrace trace =
      flags.worst
          ? core::WorstCaseSimulator{params,
                                     core::WorstCaseOptions{flags.seed}}
                .run(pat)
          : [&] {
              core::CommSimOptions opts;
              opts.seed = flags.seed;
              return core::CommSimulator{params, opts}.run(pat);
            }();
  if (const auto verdict = core::validate_trace(trace, pat)) {
    std::cerr << "internal error: invalid trace: " << *verdict << '\n';
    return 1;
  }

  std::cout << params.to_string() << "  algorithm="
            << (flags.worst ? "worst-case" : "standard") << "\n\n";
  util::GanttChart gantt{72};
  for (int p = 0; p < pat.procs(); ++p) {
    gantt.set_lane_name(p, "P" + std::to_string(p));
    for (const auto& op : trace.ops_of(p)) {
      gantt.add_box(p, op.start.us(), op.cpu_end.us(),
                    op.kind == loggp::OpKind::kSend ? 's' : 'r');
    }
  }
  std::cout << gantt.render() << '\n';
  std::cout << "makespan: " << util::fmt(trace.makespan().us(), 2) << " us\n";

  const auto bindings = analysis::classify_receives(trace, pat);
  std::cout << "receive bindings: " << bindings.arrival_bound << " arrival, "
            << bindings.sequence_bound << " gap/occupancy, "
            << bindings.ready_bound << " ready\n";

  if (!flags.csv.empty()) {
    if (analysis::write_trace_csv(flags.csv, trace)) {
      std::cout << "trace written to " << flags.csv << '\n';
    } else {
      std::cerr << "cannot write " << flags.csv << '\n';
      return 1;
    }
  }
  return 0;
}

int cmd_predict_ge(const Flags& flags) {
  if (flags.positional.size() < 4) {
    std::cerr << "predict-ge: need N block procs layout\n";
    return 2;
  }
  const int n = std::atoi(flags.positional[0].c_str());
  const int block = std::atoi(flags.positional[1].c_str());
  const int procs = std::atoi(flags.positional[2].c_str());
  const bool row = flags.positional[3] == "row-cyclic";

  loggp::Params defaults;
  defaults.P = procs;
  const auto pr = io::parse_params(flags.params_text, defaults);
  if (!pr.ok()) {
    report("--params", pr.status());
    return 1;
  }

  const std::unique_ptr<layout::Layout> map =
      row ? layout::make_row_cyclic(procs) : layout::make_diagonal(procs);
  const ge::IrregularGeConfig cfg{.n = n, .block = block};
  if (!cfg.valid()) {
    std::cerr << "invalid N/block\n";
    return 1;
  }
  const auto program = ge::build_ge_program_irregular(cfg, *map);
  const auto costs = ops::analytic_cost_table();
  // The predictor runs the program under both schedules; the comm-step
  // cache dedups the shared structure between them within this one call.
  runtime::SharedStepCache step_cache;
  core::ProgramSimOptions opts;
  if (flags.step_cache) opts.step_cache = &step_cache;
  opts.comm_parallel = runtime::sim_parallel_for();
  obs::SimTraceRecorder recorder;
  TraceScope trace{flags.trace_out, &recorder};
  if (trace.active()) opts.sim_trace = &recorder;
  const Result<core::Prediction> predicted =
      core::Predictor{*pr, opts}.predict(program, costs);
  if (!predicted.ok()) {
    report("predict-ge", predicted.status());
    return 1;
  }
  const core::Prediction& pred = *predicted;
  const auto bounds = analysis::analyze_program(program, costs, *pr);

  std::cout << "GE " << n << "x" << n << " block " << block << " on " << procs
            << " procs (" << map->name() << ")\n"
            << "  predicted total: " << util::fmt(pred.total().sec(), 4)
            << " s (worst case " << util::fmt(pred.total_worst().sec(), 4)
            << " s)\n"
            << "  computation:     " << util::fmt(pred.comp().sec(), 4)
            << " s, communication: " << util::fmt(pred.comm().sec(), 4)
            << " s\n"
            << "  lower bound:     " << util::fmt(bounds.lower_bound().sec(), 4)
            << " s (work " << util::fmt(bounds.work_bound.sec(), 4)
            << ", dependency chain "
            << util::fmt(bounds.dependency_bound.sec(), 4) << ")\n";
  return 0;
}

/// predict via a running logsimd: ship the program text over the wire and
/// render the reply in the local format.  The wire sends doubles as raw
/// bits, so the numbers are bit-identical to an in-process prediction.
int cmd_predict_remote(const Flags& flags) {
  const std::size_t colon = flags.server.rfind(':');
  if (colon == std::string::npos || colon + 1 >= flags.server.size()) {
    std::cerr << "--server: want HOST:PORT\n";
    return 2;
  }
  std::ifstream in{flags.positional[0], std::ios::binary};
  if (!in) {
    std::cerr << "cannot read " << flags.positional[0] << '\n';
    return 1;
  }
  std::ostringstream program_text;
  program_text << in.rdbuf();

  auto connected = serve::Client::connect(
      flags.server.substr(0, colon),
      static_cast<std::uint16_t>(std::atoi(flags.server.c_str() + colon + 1)));
  if (!connected.ok()) {
    report(flags.server, connected.status());
    return 1;
  }
  serve::Client client = std::move(connected).value();
  serve::PredictRequest req;
  req.params_text = flags.params_text;
  req.seed = flags.seed;
  req.program_text = program_text.str();
  req.topology_text = flags.topology;
  const Result<serve::PredictReply> reply = client.predict(req);
  if (!reply.ok()) {
    report(flags.server, reply.status());
    return 1;
  }
  const double total = flags.worst ? reply->total_worst_us : reply->total_us;
  const double comm = flags.worst ? reply->comm_worst_us : reply->comm_us;
  std::cout << "server " << flags.server << "  schedule="
            << (flags.worst ? "worst-case" : "standard") << '\n'
            << "predicted total: " << util::fmt(total, 2)
            << " us (computation " << util::fmt(reply->comp_us, 2)
            << ", communication " << util::fmt(comm, 2) << ")"
            << (reply->from_cache ? "  [server cache hit]" : "") << '\n';
  return 0;
}

int cmd_predict(const Flags& flags) {
  if (flags.positional.empty()) {
    std::cerr << "predict: missing program file\n";
    return 2;
  }
  if (!flags.server.empty()) return cmd_predict_remote(flags);
  const auto parsed = io::load_program(flags.positional[0]);
  if (!parsed.ok()) {
    report(flags.positional[0], parsed.status());
    return 1;
  }
  const auto& bundle = *parsed;

  loggp::Params defaults;
  defaults.P = bundle.program.procs();
  const auto pr = io::parse_params(flags.params_text, defaults);
  if (!pr.ok()) {
    report("--params", pr.status());
    return 1;
  }
  loggp::Params params = *pr;
  params.P = bundle.program.procs();

  std::unique_ptr<network::NetworkModel> net;
  if (!flags.topology.empty()) {
    auto spec = io::parse_topology(flags.topology);
    Status st = spec.ok() ? spec->validate(bundle.program.procs())
                          : spec.status();
    if (!st.ok()) {
      report("--topology", st);
      return 1;
    }
    net = network::NetworkModel::create(std::move(spec).value());
  }

  runtime::SharedStepCache step_cache;
  core::ProgramSimOptions opts;
  opts.worst_case = flags.worst;
  opts.seed = flags.seed;
  if (net != nullptr) opts.net = net.get();
  if (flags.step_cache) opts.step_cache = &step_cache;
  opts.comm_parallel = runtime::sim_parallel_for();
  obs::SimTraceRecorder recorder;
  TraceScope trace{flags.trace_out, &recorder};
  if (trace.active()) opts.sim_trace = &recorder;
  const auto result = core::ProgramSimulator{params, opts}.run(bundle.program,
                                                               bundle.costs);
  std::cout << params.to_string() << "  schedule="
            << (flags.worst ? "worst-case" : "standard") << '\n'
            << "steps: " << bundle.program.compute_step_count()
            << " compute + " << bundle.program.comm_step_count()
            << " comm; " << bundle.program.work_item_count() << " ops, "
            << bundle.program.network_bytes().count() << " network bytes\n"
            << "predicted total: " << util::fmt(result.total.us(), 2)
            << " us (computation " << util::fmt(result.comp_max().us(), 2)
            << ", communication " << util::fmt(result.comm_max().us(), 2)
            << ")\n";
  if (!flags.csv.empty()) {
    if (!analysis::write_result_csv(flags.csv, result)) {
      std::cerr << "cannot write " << flags.csv << '\n';
      return 1;
    }
    std::cout << "per-processor breakdown written to " << flags.csv << '\n';
  }
  return 0;
}

int cmd_fit(const Flags& flags) {
  const auto pr = io::parse_params(flags.params_text);
  if (!pr.ok()) {
    report("--params", pr.status());
    return 1;
  }
  const fitting::FitResult fit =
      fitting::fit_params(fitting::simulator_oracle(*pr));
  std::cout << "hidden machine: " << pr->to_string() << '\n'
            << "recovered:      " << fit.params.to_string() << '\n'
            << (fit.g_dominates_o ? "" : "warning: o > g regime, fit unsound\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: logsim_cli simulate|predict|predict-ge|fit ... "
                 "(see header comment)\n";
    return 2;
  }
  const std::string cmd = argv[1];
  const Flags flags = parse_flags(argc, argv, 2);
  try {
    if (cmd == "simulate") return cmd_simulate(flags);
    if (cmd == "predict") return cmd_predict(flags);
    if (cmd == "predict-ge") return cmd_predict_ge(flags);
    if (cmd == "fit") return cmd_fit(flags);
  } catch (const std::exception& e) {
    // Boundary errors arrive as Status; anything escaping as an exception
    // is a logsim bug, but the CLI still exits cleanly with a diagnostic.
    std::cerr << "logsim_cli " << cmd << ": internal: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "unknown command '" << cmd << "'\n";
  return 2;
}
