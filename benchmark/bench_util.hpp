#pragma once
// Helpers shared by every workload of the logsim benchmark: the seeded
// input generator, sample statistics with the "ten samples beyond a
// percentile" rule, the FNV-1a digests that pin inputs and references,
// the bit-exact prediction check, and the metric report that ends in the
// one-line JSON result.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/predictor.hpp"

namespace lbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double us_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// splitmix64: a tiny generator whose output is fixed by the algorithm
/// alone, so the same seed yields the same inputs on every standard
/// library (std::*_distribution output is implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * unit(); }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Exponential inter-arrival gap for a Poisson process of `rate` per unit.
  double exponential(double rate) { return -std::log1p(-unit()) / rate; }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream for one purpose from the run seed.
[[nodiscard]] inline std::uint64_t substream(std::uint64_t seed,
                                             std::uint64_t purpose) {
  Rng r{seed ^ (purpose * 0xD1B54A32D192ED03ull)};
  return r.next();
}

// --- statistics ----------------------------------------------------------

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it.  p in (0, 100].
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Samples strictly above the nearest-rank p-th percentile of n samples.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return rank >= n ? 0 : n - rank;
}

/// A percentile is reported only when at least ten samples lie beyond it.
inline constexpr std::size_t kMinBeyond = 10;
[[nodiscard]] inline bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= kMinBeyond;
}

[[nodiscard]] inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Work per second as the median over up to ten consecutive blocks of a
/// closed-loop run, each block's work over its time, so a stall of the
/// shared host moves one block and not the figure.
[[nodiscard]] inline double blocked_rate(const std::vector<double>& unit_ms,
                                         double work_per_unit) {
  const std::size_t blocks = std::min<std::size_t>(10, unit_ms.size());
  std::vector<double> rates;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = unit_ms.size() * b / blocks;
    const std::size_t hi = unit_ms.size() * (b + 1) / blocks;
    double ms = 0.0;
    for (std::size_t i = lo; i < hi; ++i) ms += unit_ms[i];
    rates.push_back(work_per_unit * static_cast<double>(hi - lo) / (ms / 1e3));
  }
  return rates.empty() ? 0.0 : percentile(rates, 50);
}

/// "97" for 97.0, "99.5" for 99.5: a percentile's label.
[[nodiscard]] inline std::string pct_label(double p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", p);
  return buf;
}

// --- digests and bit-exact checks -----------------------------------------

class Digest {
 public:
  void add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ull;
    }
  }
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    add_bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

[[nodiscard]] inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The four headline numbers a prediction is checked on, in microseconds
/// (the unit the wire carries).
struct Expected {
  double total_us = 0.0;
  double comp_us = 0.0;
  double comm_us = 0.0;
  double comm_worst_us = 0.0;

  [[nodiscard]] static Expected of(const logsim::core::Prediction& p) {
    return {p.total().us(), p.comp().us(), p.comm().us(),
            p.comm_worst().us()};
  }
  [[nodiscard]] bool matches(double total, double comp, double comm,
                             double comm_worst) const {
    return same_bits(total, total_us) && same_bits(comp, comp_us) &&
           same_bits(comm, comm_us) && same_bits(comm_worst, comm_worst_us);
  }
  [[nodiscard]] bool matches(const logsim::core::Prediction& p) const {
    return matches(p.total().us(), p.comp().us(), p.comm().us(),
                   p.comm_worst().us());
  }
  void digest_into(Digest& d) const {
    d.add(total_us);
    d.add(comp_us);
    d.add(comm_us);
    d.add(comm_worst_us);
  }
};

/// Peak resident set of this process in MiB (getrusage high-water mark).
[[nodiscard]] double peak_rss_mb();

// --- the report -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< samples behind the value
  std::string note;         ///< what the value aliases, or "n/a: why"
};

class Report {
 public:
  void add(Metric m) { metrics_.push_back(std::move(m)); }
  /// A metric the workload does not define: printed, never in the JSON.
  void absent(const std::string& name, const std::string& unit,
              const std::string& why) {
    metrics_.push_back(Metric{name, 0.0, unit, 0, "n/a: " + why});
  }
  void fail(const std::string& why) {
    if (failures_.size() < 20) failures_.push_back(why);
    correct_ = false;
  }
  void count(std::size_t attempted, std::size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

  /// Prints the human-readable table, then the JSON result line (every
  /// present metric, with all its digits) as the last line of stdout.
  void print(const std::string& workload, const std::string& mode) const;

  /// Adds p99_ms when the samples support it (at least ten beyond the
  /// 99th percentile), and otherwise records why it is absent.
  void add_p99(const std::vector<double>& samples_ms, const std::string& per);

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  bool correct_ = true;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace lbench
