#pragma once
// The traced run's bookkeeping: spans recorded by the benchmark itself
// into a private obs::TraceSession (the library's process-wide session
// stays off, so no span from inside src/ lands here), each layer's self
// time (span time minus the time its child spans cover), the ledger that
// sets those self times against the end-to-end time, and the per-layer
// metric table every workload fills in.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/trace.hpp"

namespace lbench {

/// Aggregate self time of every span sharing one name.
struct SpanSelf {
  std::size_t count = 0;
  double total_us = 0.0;  ///< sum of span durations
  double self_us = 0.0;   ///< sum of (duration - direct children)
};

/// Nests the complete events of each track by interval containment and
/// returns, per span name, the summed duration and self time.
[[nodiscard]] std::map<std::string, SpanSelf> span_self_times(
    const std::vector<logsim::obs::TraceSession::Track>& tracks);

/// Records a span that was timed elsewhere (a layer measured on its own)
/// as a child placed at `start_us` inside its parent.
void record_child(logsim::obs::TraceSession& session, const char* name,
                  double start_us, double dur_us, std::uint64_t id);

struct LedgerRow {
  std::string layer;
  double ms_per_item = 0.0;
  std::string source;  ///< how the row was measured
};

/// Layer self times per item (job or request) against the end-to-end time
/// of the same item on the untraced path.
struct Ledger {
  std::string item;  ///< "job", "sweep job", "request"
  double e2e_ms_per_item = 0.0;
  std::string e2e_source;
  std::vector<LedgerRow> rows;
  std::string remainder;  ///< what the uncovered share consists of

  [[nodiscard]] double coverage_pct() const;
  void print() const;
};

/// Every per-layer metric name with its unit.  Each workload reports all
/// of them; a layer the workload never enters reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetric>& layer_metric_names();

class LayerTable {
 public:
  LayerTable();
  void set(const std::string& name, double value);
  /// Moves every layer metric into the report (0 where never set).
  void emit(Report& report, std::size_t samples) const;

 private:
  std::map<std::string, double> values_;
};

/// Writes the collected session as a Chrome trace under `dir`; returns the
/// path written, or an empty string on failure.
[[nodiscard]] std::string write_trace(const logsim::obs::TraceSession& session,
                                      const std::string& dir,
                                      const std::string& workload);

}  // namespace lbench
