#pragma once
// Open-loop load generator for the serve_* workloads.  One thread drives
// up to four non-blocking connections on a seeded Poisson arrival
// schedule; every request is timed from the moment it was due, so a stall
// anywhere (server, socket or the generator itself) is charged to the
// requests it delays.  How late the generator ran is reported, and a
// phase whose generator fell behind or whose backlog grew is marked
// invalid instead of passing.  The same loop also runs closed, keeping a
// fixed number of requests outstanding, to measure saturation throughput.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fault/status.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/wire.hpp"

namespace lbench {

struct Arrival {
  double due_s = 0.0;       ///< offset from the phase start
  std::uint32_t input = 0;  ///< index into the prepared requests
};

/// Poisson arrivals at `rate` per second over `secs`; `pick` chooses each
/// request's input from the same seeded stream, so one seed fixes the
/// whole schedule.
template <typename Pick>
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate,
                                      double secs, Pick pick) {
  Rng rng{seed};
  std::vector<Arrival> out;
  double t = rng.exponential(rate);
  while (t < secs) {
    out.push_back(Arrival{t, pick(rng)});
    t += rng.exponential(rate);
  }
  return out;
}

/// One distinct request: its encoded PREDICT payload (binary codec) and
/// the reference its reply must match bit for bit.
struct PreparedRequest {
  std::string payload;
  Expected expected;
};

struct PhaseResult {
  double rate = 0.0;
  double secs = 0.0;
  std::vector<double> due_s;       ///< per request, in schedule order
  std::vector<double> latency_ms;  ///< due -> reply; failures read +inf
  std::vector<double> late_ms;     ///< due -> sent
  std::vector<double> done_s;      ///< reply time; -1 when none matched
  std::size_t sent = 0;
  std::size_t completed = 0;  ///< replies that matched their reference
  std::size_t errors = 0;     ///< ERROR replies (rejects included)
  std::size_t wrong = 0;      ///< replies that differ from the reference
  std::size_t timeouts = 0;   ///< no reply within the grace period
  std::size_t backlog = 0;    ///< outstanding when the last request left

  [[nodiscard]] std::size_t failed() const { return errors + wrong + timeouts; }
  /// Matched replies per second: the median over nine equal slices of the
  /// phase, so the window's ramp-up and drain and a few stalls of the host
  /// do not set the figure.
  [[nodiscard]] double throughput() const;
  /// The phase's p-th latency percentile, sliced (see below).
  [[nodiscard]] double windowed(double p) const { return sliced(latency_ms, p); }
  [[nodiscard]] double late_p99_ms() const { return sliced(late_ms, 99); }
  /// The p-th percentile of a per-request series taken as the median over
  /// equal slices of the phase (by due time) of each slice's percentile,
  /// so one stall of the shared host moves one slice, not the figure.  One,
  /// three or five slices: as many as leave 25 samples beyond p in each
  /// (with fewer, the slices' own sampling noise outweighs the stalls).
  [[nodiscard]] double sliced(const std::vector<double>& series,
                              double p) const;
  /// The generator fell behind its schedule: in the last fifth of the
  /// phase it sent the median request more than half the limit late.  A
  /// generator that cannot drive the rate lags more and more; a stall of
  /// the shared host only delays the requests it overlaps.
  [[nodiscard]] bool generator_behind(double limit_ms) const {
    return last_slice_median(late_ms) > 0.5 * limit_ms;
  }
  /// The backlog grew: in the last fifth of the phase the median request
  /// already waited longer than the limit.
  [[nodiscard]] bool backlog_growing(double limit_ms) const {
    return last_slice_median(latency_ms) > limit_ms;
  }
  [[nodiscard]] double last_slice_median(const std::vector<double>& series) const;
};

class OpenLoop {
 public:
  /// Opens `conns` connections to the loopback server and negotiates the
  /// binary codec on each.
  [[nodiscard]] logsim::Status connect(std::uint16_t port, std::size_t conns);

  /// Sends `schedule` (request i on connection i mod conns) and collects
  /// every reply, waiting at most `grace_s` past the last arrival.  With
  /// `trace` set, every even-numbered request is recorded as a
  /// "serve.request" span from due time to reply, with "gen.late" (due ->
  /// sent) and "client.wire_decode" children, under id `id_base + i`; the
  /// odd ones stay untraced for comparison.
  ///
  /// With `window` > 0 the loop is closed instead: the schedule's due
  /// times are ignored, a request leaves whenever fewer than `window` are
  /// outstanding, and sending stops after `window_secs`.
  [[nodiscard]] PhaseResult run(const std::vector<Arrival>& schedule,
                                const std::vector<PreparedRequest>& inputs,
                                double rate, double grace_s,
                                logsim::obs::TraceSession* trace,
                                std::uint64_t id_base, std::size_t window = 0,
                                double window_secs = 0.0);

 private:
  struct Conn {
    explicit Conn(logsim::serve::Client c) : client(std::move(c)) {}
    logsim::serve::Client client;
    std::string out;
    std::size_t out_off = 0;
    logsim::serve::FrameAssembler frames{logsim::serve::WireLimits{}};
  };
  std::vector<Conn> conns_;
};

}  // namespace lbench
