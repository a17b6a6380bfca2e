// logsim_bench: the repository benchmark's measuring program.  run.py
// builds it and passes the per-workload settings from config.json; see
// README.md for the workloads, metrics and how to read the ledger.
//
//   logsim_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--tail-pct P] [--lo-rps R --hi-rps R --search-max-rps R
//                 --limit-ms MS] [--pin WORKLOAD=HEX ...] [--out-dir DIR]
//   logsim_bench --self-test [--pin WORKLOAD=HEX ...] [serve settings]
//
// --pin gives a workload's reference digest at seed 1; a run checks its
// own workload's pin, the self-test every pin.
//
// The last line of stdout is the JSON result; everything above it is the
// human-readable report.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "loadgen.hpp"
#include "workloads.hpp"

namespace lbench {

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::add_p99(const std::vector<double>& samples_ms,
                     const std::string& per) {
  if (percentile_supported(samples_ms.size(), 99)) {
    add({"p99_ms", percentile(samples_ms, 99), "ms", samples_ms.size(), per});
  } else {
    absent("p99_ms", "ms",
           "needs 1000 samples for 10 beyond p99, have " +
               std::to_string(samples_ms.size()));
  }
}

void Report::print(const std::string& workload, const std::string& mode) const {
  std::printf("== %s (%s) ==\n", workload.c_str(), mode.c_str());
  std::printf("  %-34s %16s  %-6s %8s  %s\n", "metric", "value", "unit",
              "samples", "note");
  for (const Metric& m : metrics_) {
    if (m.note.rfind("n/a", 0) == 0) {
      std::printf("  %-34s %16s  %-6s %8s  %s\n", m.name.c_str(), "-",
                  m.unit.c_str(), "-", m.note.c_str());
    } else {
      std::printf("  %-34s %16.6g  %-6s %8zu  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples, m.note.c_str());
    }
  }
  std::printf("  attempted %zu, failed %zu, outputs %s\n", attempted_, failed_,
              correct_ ? "correct" : "NOT correct");
  for (const std::string& f : failures_) std::printf("  failure: %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (m.note.rfind("n/a", 0) == 0) continue;
    char value[64];
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof value, "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof value, "null");
    }
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\", \"samples\": " + std::to_string(m.samples) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void check_reference_digest(const Options& opts, std::uint64_t input_digest,
                            std::uint64_t ref_digest, Report& report) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(ref_digest));
  std::printf("input digest %016llx, reference digest %s\n",
              static_cast<unsigned long long>(input_digest), buf);
  const std::string pin = opts.pin(opts.workload);
  if (opts.seed == kDefaultSeed && !pin.empty() && pin != buf) {
    report.fail("reference digest " + std::string{buf} +
                " differs from the pinned " + pin +
                ": the plain prediction path changed");
  }
}

int run_self_tests(const Options& opts) {
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("  %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  // The rule of at least ten samples beyond a percentile.
  check(samples_beyond(1000, 99) == 10 && percentile_supported(1000, 99),
        "1000 samples support p99 (10 beyond)");
  check(!percentile_supported(999, 99), "999 samples do not support p99");
  check(percentile_supported(100, 90) && !percentile_supported(99, 90),
        "p90 needs 100 samples");
  std::vector<double> ramp;
  for (int i = 1; i <= 100; ++i) ramp.push_back(i);
  check(percentile(ramp, 50) == 50 && percentile(ramp, 99) == 99 &&
            percentile(ramp, 100) == 100,
        "nearest-rank percentiles of 1..100");

  // The arrival schedule is a function of its seed.
  auto pick = [](Rng& r) { return static_cast<std::uint32_t>(r.below(7)); };
  const auto a = poisson_schedule(42, 1000.0, 2.0, pick);
  const auto b = poisson_schedule(42, 1000.0, 2.0, pick);
  const auto c = poisson_schedule(43, 1000.0, 2.0, pick);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].due_s == b[i].due_s && a[i].input == b[i].input;
  }
  check(same, "same seed, same arrival schedule");
  check(a.size() != c.size() || a.front().due_s != c.front().due_s,
        "another seed, another arrival schedule");
  const auto longer = poisson_schedule(7, 5000.0, 4.0, pick);
  check(std::abs(static_cast<double>(longer.size()) / 4.0 - 5000.0) < 250.0,
        "Poisson schedule keeps its rate within 5%");

  // Inputs and references are functions of the seed; the references at the
  // default seed match their pins.
  auto digests_check = [&](const std::string& w, const Digests& d1,
                           const Digests& d2, const Digests& other) {
    check(d1 == d2, w + ": same seed, identical input and reference digests");
    check(d1.inputs != other.inputs, w + ": another seed, other inputs");
    const std::string pin = opts.pin(w);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(d1.refs));
    if (!pin.empty()) check(pin == buf, w + ": reference digest matches its pin");
  };
  digests_check("ge_sweep", ge_sweep_digests(kDefaultSeed),
                ge_sweep_digests(kDefaultSeed), ge_sweep_digests(2));
  digests_check("scale_p4k", scale_p4k_digests(kDefaultSeed),
                scale_p4k_digests(kDefaultSeed), scale_p4k_digests(2));
  for (const bool upload : {false, true}) {
    Options o = opts;
    o.seed = kDefaultSeed;
    const Digests d1 = serve_digests(o, upload);
    const Digests d2 = serve_digests(o, upload);
    o.seed = 2;
    digests_check(upload ? "serve_upload" : "serve_reg", d1, d2,
                  serve_digests(o, upload));
  }
  std::printf("self-test: %d failure(s)\n", failures);
  return failures;
}

}  // namespace lbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "logsim_bench: %s (see the header of main.cpp)\n", why);
  std::exit(2);
}

double number(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v)) {
    usage((std::string{"bad value for "} + flag).c_str());
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  lbench::Options opts;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") opts.workload = v;
    else if (flag == "--seed") opts.seed = static_cast<std::uint64_t>(number(argv[i - 1], v));
    else if (flag == "--seconds") opts.seconds = number(argv[i - 1], v);
    else if (flag == "--trace") opts.trace = number(argv[i - 1], v) != 0;
    else if (flag == "--tail-pct") opts.tail_pct = number(argv[i - 1], v);
    else if (flag == "--lo-rps") opts.lo_rps = number(argv[i - 1], v);
    else if (flag == "--hi-rps") opts.hi_rps = number(argv[i - 1], v);
    else if (flag == "--search-max-rps") opts.search_max_rps = number(argv[i - 1], v);
    else if (flag == "--limit-ms") opts.limit_ms = number(argv[i - 1], v);
    else if (flag == "--out-dir") opts.out_dir = v;
    else if (flag == "--pin") {
      const std::string pin = v;
      const auto eq = pin.find('=');
      if (eq == std::string::npos) usage("--pin wants WORKLOAD=HEX");
      opts.pins.emplace_back(pin.substr(0, eq), pin.substr(eq + 1));
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (self_test) return lbench::run_self_tests(opts) == 0 ? 0 : 1;
  if (opts.seconds <= 0 || opts.tail_pct <= 0 || opts.tail_pct > 100) {
    usage("--seconds and --tail-pct must be positive");
  }

  lbench::Report report;
  if (opts.workload == "ge_sweep") lbench::run_ge_sweep(opts, report);
  else if (opts.workload == "scale_p4k") lbench::run_scale_p4k(opts, report);
  else if (opts.workload == "serve_reg") lbench::run_serve(opts, false, report);
  else if (opts.workload == "serve_upload") lbench::run_serve(opts, true, report);
  else usage("unknown --workload");

  if (!opts.trace) {
    const double attempted = static_cast<double>(report.attempted());
    report.add({"fail_frac",
                attempted > 0 ? static_cast<double>(report.failed()) / attempted
                              : 0.0,
                "ratio", report.attempted(), ""});
    report.add({"peak_rss_mb", lbench::peak_rss_mb(), "MB", 1, ""});
  }
  report.print(opts.workload, opts.trace ? "traced: per-layer" : "end to end");
  return 0;
}
