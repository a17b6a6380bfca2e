#pragma once
// The four benchmark workloads.  Each runs in its own process, so the
// peak-memory figure belongs to it alone, and uses at most four threads
// (the host this was sized on has four cores).

#include <cstdint>
#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ledger.hpp"

namespace lbench {

/// Everything a run is told on its command line.  The rates, limits and
/// tail percentiles are fixed per workload in config.json; run.py passes
/// them through.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  double tail_pct = 99.0;     ///< the tail percentile reported as tail_ms
  double lo_rps = 0.0;        ///< serve_*: fixed low offered rate
  double hi_rps = 0.0;        ///< serve_*: fixed high offered rate
  double limit_ms = 0.0;      ///< serve_*: latency limit on tail_ms
  double search_max_rps = 0;  ///< serve_*: ceiling of the max-rate search
  /// Pinned reference digests at seed 1, workload -> hex, from config.json.
  std::vector<std::pair<std::string, std::string>> pins;

  /// The pin of `name`, or an empty string.
  [[nodiscard]] std::string pin(const std::string& name) const {
    for (const auto& [w, hex] : pins) {
      if (w == name) return hex;
    }
    return {};
  }
};

/// The seed whose reference digest config.json pins.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// A run sets up at least kMinSetups times, and again until the set-ups
/// have taken kMinSetupSeconds, so that a cheap set-up is timed often
/// enough for its median to hold still.
inline constexpr std::size_t kMinSetups = 3;
inline constexpr double kMinSetupSeconds = 2.0;

struct SetupTime {
  double median_s = 0.0;
  std::size_t count = 0;
};

/// Runs `make` as often as the rule above asks, each time from scratch
/// with the previous state released first, and records the median wall
/// time in `setup`.  Returns the last state: the one the run measures.
template <typename Make>
auto timed_setups(SetupTime& setup, Make make) -> decltype(make()) {
  decltype(make()) state;
  std::vector<double> secs;
  double total = 0.0;
  while (secs.size() < kMinSetups || total < kMinSetupSeconds) {
    state.reset();
    const auto t0 = Clock::now();
    state = make();
    secs.push_back(ms_between(t0, Clock::now()) / 1000.0);
    total += secs.back();
  }
  setup.count = secs.size();
  setup.median_s = percentile(secs, 50);
  return state;
}

/// Checks the reference digest against the workload's pin (seed 1 only),
/// printing both digests.
void check_reference_digest(const Options& opts, std::uint64_t input_digest,
                            std::uint64_t ref_digest, Report& report);

void run_ge_sweep(const Options& opts, Report& report);
void run_scale_p4k(const Options& opts, Report& report);
void run_serve(const Options& opts, bool upload, Report& report);

/// The input and reference digests a workload's set-up produces (the
/// self-tests check that one seed always yields the same pair).
struct Digests {
  std::uint64_t inputs = 0;
  std::uint64_t refs = 0;
  friend bool operator==(const Digests&, const Digests&) = default;
};
[[nodiscard]] Digests ge_sweep_digests(std::uint64_t seed);
[[nodiscard]] Digests scale_p4k_digests(std::uint64_t seed);
[[nodiscard]] Digests serve_digests(const Options& opts, bool upload);

/// Self-tests of the benchmark's helpers, with the serve settings and the
/// pins of `opts`.  Returns the failures.
int run_self_tests(const Options& opts);

}  // namespace lbench
