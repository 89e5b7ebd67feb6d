// Tests for the benchmark's own arithmetic: span self time, the percentile
// sample-count rule, quartiles and the metric-name grammar.
//
//   perfbench_selftest        exit 0 when every case passes
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "trace.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-9; }

perfbench::Span span(std::int32_t parent, std::int64_t a, std::int64_t b) {
  perfbench::Span s;
  s.name = "x";
  s.parent = parent;
  s.start_ns = a;
  s.end_ns = b;
  return s;
}

void test_self_time() {
  using perfbench::self_times_ns;
  // Parent [0, 100) with disjoint children [10, 20) and [30, 50).
  {
    const auto self = self_times_ns({span(-1, 0, 100), span(0, 10, 20),
                                     span(0, 30, 50)});
    expect(self[0] == 70, "disjoint children: parent self 70");
    expect(self[1] == 10 && self[2] == 20, "leaf self = duration");
  }
  // Overlapping children [10, 40) and [30, 60): covered once, 50.
  {
    const auto self = self_times_ns({span(-1, 0, 100), span(0, 10, 40),
                                     span(0, 30, 60)});
    expect(self[0] == 50, "overlapping children counted once");
  }
  // A child nested inside another child, and one sticking out of the parent.
  {
    const auto self = self_times_ns({span(-1, 0, 100), span(0, 10, 40),
                                     span(0, 15, 25), span(0, 90, 130)});
    expect(self[0] == 100 - 30 - 10, "contained and overhanging children");
  }
  // Grandchildren count against their parent only.
  {
    const auto self = self_times_ns({span(-1, 0, 100), span(0, 10, 60),
                                     span(1, 20, 30)});
    expect(self[0] == 50 && self[1] == 40, "grandchild only hits its parent");
  }
  // An open span contributes nothing.
  {
    const auto self = self_times_ns({span(-1, 0, 100), span(0, 10, -1)});
    expect(self[0] == 100, "open child ignored");
  }
}

void test_tracer_nesting() {
  perfbench::Tracer tr;
  {
    const perfbench::ScopedSpan a(&tr, "outer");
    const perfbench::ScopedSpan b(&tr, "inner");
  }
  const perfbench::ScopedSpan none(nullptr, "ignored");
  expect(tr.spans().size() == 2, "two spans recorded");
  expect(tr.spans()[1].parent == 0, "inner span's parent is outer");
  const auto totals = perfbench::totals_by_name(tr.spans());
  expect(totals.at("outer").count == 1 && totals.at("inner").count == 1,
         "totals by name count each span");
  expect(totals.at("outer").self_ns ==
             totals.at("outer").total_ns - totals.at("inner").total_ns,
         "outer self = outer minus inner");
}

void test_percentile_rule() {
  using perfbench::supported_quantile;
  expect(supported_quantile(1000, 0.99) == 0.99, "1000 samples support p99");
  expect(supported_quantile(999, 0.99) == 0.9, "999 samples fall back to p90");
  expect(supported_quantile(10000, 0.99) == 0.99, "capped at the wanted p99");
  expect(supported_quantile(10000, 0.999) == 0.999, "10000 support p99.9");
  expect(supported_quantile(100, 0.99) == 0.9, "100 samples support p90");
  expect(supported_quantile(20, 0.99) == 0.5, "20 samples: median only");
  expect(supported_quantile(19, 0.99) == 0.0, "19 samples: nothing");

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const perfbench::Latency l = perfbench::summarize_latency(v);
  expect(l.samples == 1000 && l.tail_q == 0.99, "latency keeps p99");
  expect(near(l.p50, 500.5), "median of 1..1000");
  expect(near(l.tail, 990.01), "p99 of 1..1000 by interpolation");
  v.resize(500);
  const perfbench::Latency s = perfbench::summarize_latency(v);
  expect(s.tail_q == 0.9 && near(s.tail, perfbench::quantile(v, 0.9)),
         "500 samples report p90 as the tail");
}

void test_quartiles() {
  // Values from Python: statistics.quantiles([1..10], n=4)
  // == [2.75, 5.5, 8.25]; for [1, 2, 3, 4, 5] == [1.5, 3.0, 4.5].
  std::vector<double> a;
  for (int i = 10; i >= 1; --i) a.push_back(i);
  const perfbench::Quartiles qa = perfbench::quartiles(a);
  expect(near(qa.q1, 2.75) && near(qa.median, 5.5) && near(qa.q3, 8.25),
         "quartiles of 1..10 match Python");
  const perfbench::Quartiles qb = perfbench::quartiles({5, 4, 3, 2, 1});
  expect(near(qb.q1, 1.5) && near(qb.median, 3.0) && near(qb.q3, 4.5),
         "quartiles of 1..5 match Python");
}

void test_metric_names() {
  using perfbench::valid_metric_name;
  for (const char* ok : {"jobs_per_s", "sim.query_ns_p99", "exec.pool.task_ms_p50",
                         "p99-flow", "9lives"})
    expect(valid_metric_name(ok), std::string("valid: ") + ok);
  for (const char* bad : {"", ".hidden", "_x", "a b", "a/b", "jobs:s", "é"})
    expect(!valid_metric_name(bad), std::string("invalid: ") + bad);
  expect(valid_metric_name(std::string(64, 'a')), "64 characters allowed");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters refused");
}

}  // namespace

int main() {
  test_self_time();
  test_tracer_nesting();
  test_percentile_rule();
  test_quartiles();
  test_metric_names();
  if (g_failures == 0) std::printf("perfbench_selftest: all cases pass\n");
  return g_failures == 0 ? 0 : 1;
}
