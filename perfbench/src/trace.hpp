// In-memory span tracing and the benchmark's own statistics.
//
// Spans are recorded by the benchmark around its calls into the library's
// public seams (policy and admission wrappers, an engine observer, direct
// calls); the library itself is never instrumented. Spans stay in a vector
// until the run ends and are then summarised and written out, so tracing
// does no I/O while the measured code runs.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One closed (or still open, end_ns < 0) interval. `name` must point to a
/// string with static storage; `parent` indexes the enclosing span (-1 for
/// a root span).
struct Span {
  const char* name = "";
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
};

/// Single-threaded span recorder. Spans nest by call order: begin() makes
/// the innermost open span the parent of the new one.
class Tracer {
 public:
  Tracer();
  std::int32_t begin(const char* name);
  void end(std::int32_t id);
  /// Nanoseconds since the tracer was created.
  std::int64_t now_ns() const;
  const std::vector<Span>& spans() const { return spans_; }
  /// Tab-separated dump: per-name totals (`# name count total_ns
  /// self_ns`) for every span, then `id parent name start_ns end_ns` for
  /// the first `limit` spans.
  void write_tsv(const std::string& path, std::size_t limit) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null tracer makes it a no-op, so untraced code paths share
/// the traced ones without paying for clock reads.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its direct children covers. Children may overlap each
/// other or stick out of the parent; only covered time inside the parent
/// counts, and only once.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

struct NameTotals {
  std::size_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
std::map<std::string, NameTotals> totals_by_name(const std::vector<Span>& spans);
/// Durations (ns) of every closed span with this name, in record order.
std::vector<double> durations_ns(const std::vector<Span>& spans,
                                 std::string_view name);

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);

/// The highest percentile of the ladder 99.9, 99, 90, 50 that leaves at
/// least ten of `n` samples beyond it (n * (1 - q) >= 10), capped at
/// `want`; 0 when not even the median qualifies.
double supported_quantile(std::size_t n, double want);

/// A latency reported the way every benchmark number is: median, the tail
/// percentile the sample size supports, and the sample count.
struct Latency {
  double p50 = 0.0;
  double tail_q = 0.0;  ///< the percentile actually reported as the tail
  double tail = 0.0;
  std::size_t samples = 0;
};
Latency summarize_latency(const std::vector<double>& samples,
                          double want = 0.99);

/// First quartile, median and third quartile, computed the way Python's
/// statistics.quantiles(values, n=4) does (the "exclusive" method).
struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/// Metric names: one or more of [A-Za-z0-9_.-], starting with a letter or
/// a digit, at most 64 characters.
bool valid_metric_name(std::string_view name);

}  // namespace perfbench
