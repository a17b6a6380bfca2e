#include "ledger.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "obs/chrome_trace.hpp"

namespace lbench {

using logsim::obs::Phase;
using logsim::obs::TraceEvent;
using logsim::obs::TraceSession;

std::map<std::string, SpanSelf> span_self_times(
    const std::vector<TraceSession::Track>& tracks) {
  std::map<std::string, SpanSelf> out;
  for (const TraceSession::Track& track : tracks) {
    std::vector<const TraceEvent*> spans;
    for (const TraceEvent& e : track.events) {
      if (e.phase == Phase::kComplete) spans.push_back(&e);
    }
    // Parents sort before the children they contain: earlier start first,
    // longer span first on a tie.
    std::sort(spans.begin(), spans.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                return a->dur_us > b->dur_us;
              });
    std::vector<double> child_us(spans.size(), 0.0);
    std::vector<std::size_t> open;  // indices into spans, innermost last
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const TraceEvent& e = *spans[i];
      while (!open.empty()) {
        const TraceEvent& top = *spans[open.back()];
        if (e.ts_us + e.dur_us <= top.ts_us + top.dur_us + 1e-3) break;
        open.pop_back();
      }
      if (!open.empty()) child_us[open.back()] += e.dur_us;
      open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SpanSelf& s = out[spans[i]->name];
      ++s.count;
      s.total_us += spans[i]->dur_us;
      s.self_us += std::max(0.0, spans[i]->dur_us - child_us[i]);
    }
  }
  return out;
}

void record_child(TraceSession& session, const char* name, double start_us,
                  double dur_us, std::uint64_t id) {
  session.complete(name, "layer", start_us, dur_us, id);
}

double Ledger::coverage_pct() const {
  if (e2e_ms_per_item <= 0.0) return 0.0;
  double sum = 0.0;
  for (const LedgerRow& r : rows) sum += r.ms_per_item;
  return 100.0 * sum / e2e_ms_per_item;
}

void Ledger::print() const {
  std::printf("ledger (per %s): end-to-end %.4f ms [%s]\n", item.c_str(),
              e2e_ms_per_item, e2e_source.c_str());
  double sum = 0.0;
  for (const LedgerRow& r : rows) {
    sum += r.ms_per_item;
    const double share =
        e2e_ms_per_item > 0.0 ? 100.0 * r.ms_per_item / e2e_ms_per_item : 0.0;
    std::printf("  %-28s self %10.4f ms  %6.1f%%  [%s]\n", r.layer.c_str(),
                r.ms_per_item, share, r.source.c_str());
  }
  std::printf("  %-28s      %10.4f ms  %6.1f%%  (coverage)\n", "sum", sum,
              coverage_pct());
  std::printf("  remainder: %s\n", remainder.c_str());
}

const std::vector<LayerMetric>& layer_metric_names() {
  static const std::vector<LayerMetric> names = {
      {"core.walk_ms", "ms"},
      {"core.walk_items_per_s", "1/s"},
      {"core.comm_std_ms", "ms"},
      {"core.comm_std_ops_per_s", "1/s"},
      {"core.comm_worst_ms", "ms"},
      {"core.comm_worst_ops_per_s", "1/s"},
      {"core.components_per_step", "count"},
      {"pattern.canon_us_per_step", "us"},
      {"runtime.step_cache_hits", "count"},
      {"runtime.step_cache_relabel_hits", "count"},
      {"runtime.step_cache_misses", "count"},
      {"runtime.step_cache_hit_ratio", "ratio"},
      {"runtime.pred_cache_hits", "count"},
      {"runtime.pred_cache_misses", "count"},
      {"runtime.pred_cache_hit_ratio", "ratio"},
      {"runtime.batch_queue_wait_us", "us"},
      {"runtime.batch_job_us", "us"},
      {"runtime.job_errors", "count"},
      {"runtime.retries", "count"},
      {"runtime.timeouts", "count"},
      {"io.parse_ms", "ms"},
      {"io.parse_mb_per_s", "MB/s"},
      {"io.request_kb", "KB"},
      {"serve.wire_decode_us", "us"},
      {"serve.wire_encode_us", "us"},
      {"serve.memo_hits", "count"},
      {"serve.memo_misses", "count"},
      {"serve.memo_hit_ratio", "ratio"},
      {"serve.latency_us_mean", "us"},
      {"serve.latency_us_max", "us"},
      {"serve.queue_wait_us_mean", "us"},
      {"serve.queue_wait_us_max", "us"},
      {"serve.rejected", "count"},
      {"serve.rtt_us", "us"},
      {"gen.late_ms_p99", "ms"},
      {"gen.sent", "count"},
      {"gen.completed", "count"},
      {"ledger.coverage_pct", "%"},
      {"trace.overhead_pct", "%"},
  };
  return names;
}

LayerTable::LayerTable() {
  for (const LayerMetric& m : layer_metric_names()) values_[m.name] = 0.0;
}

void LayerTable::set(const std::string& name, double value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    std::fprintf(stderr, "unknown layer metric %s\n", name.c_str());
    std::abort();
  }
  it->second = value;
}

void LayerTable::emit(Report& report, std::size_t samples) const {
  for (const LayerMetric& m : layer_metric_names()) {
    report.add(Metric{m.name, values_.at(m.name), m.unit, samples, ""});
  }
}

std::string write_trace(const TraceSession& session, const std::string& dir,
                        const std::string& workload) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/trace_" + workload + ".json";
  return logsim::obs::write_chrome_trace(path, session) ? path : std::string{};
}

}  // namespace lbench
