#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::int32_t Tracer::begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  const auto id = static_cast<std::int32_t>(spans_.size());
  open_.push_back(id);
  s.start_ns = now_ns();
  spans_.push_back(s);
  return id;
}

void Tracer::end(std::int32_t id) {
  const std::int64_t t = now_ns();
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("span closed out of order");
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

void Tracer::write_tsv(const std::string& path, std::size_t limit) const {
  std::ofstream out(path, std::ios::trunc);
  out << "# name\tcount\ttotal_ns\tself_ns\n";
  for (const auto& [name, t] : totals_by_name(spans_))
    out << "# " << name << '\t' << t.count << '\t' << t.total_ns << '\t'
        << t.self_ns << '\n';
  out << "id\tparent\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < std::min(limit, spans_.size()); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.name << '\t' << s.start_ns
        << '\t' << s.end_ns << '\n';
  }
  if (!out) throw std::runtime_error("cannot write span file " + path);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  // Children intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || s.end_ns < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi =
        p.end_ns < 0 ? s.end_ns : std::min(s.end_ns, p.end_ns);
    if (hi > lo) kids[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < 0) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, NameTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ns < 0) continue;
    NameTotals& t = out[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

std::vector<double> durations_ns(const std::vector<Span>& spans,
                                 std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (s.end_ns >= 0 && name == s.name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double w = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - w) + v[hi] * w;
}

double supported_quantile(std::size_t n, double want) {
  for (const double q : {0.999, 0.99, 0.9, 0.5}) {
    if (q > want) continue;
    // n * (1 - q) >= 10, in integers to dodge rounding at the boundary.
    const auto beyond_per_mille = static_cast<std::size_t>(
        std::llround((1.0 - q) * 1000.0));
    if (n * beyond_per_mille >= 10 * 1000) return q;
  }
  return 0.0;
}

Latency summarize_latency(const std::vector<double>& samples, double want) {
  Latency l;
  l.samples = samples.size();
  if (samples.empty()) return l;
  l.p50 = quantile(samples, 0.5);
  l.tail_q = supported_quantile(samples.size(), want);
  l.tail = l.tail_q > 0.0 ? quantile(samples, l.tail_q) : l.p50;
  return l;
}

Quartiles quartiles(std::vector<double> v) {
  Quartiles out;
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    out.q1 = out.median = out.q3 = v[0];
    return out;
  }
  const auto ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double cut[3];
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  out.q1 = cut[0];
  out.median = cut[1];
  out.q3 = cut[2];
  return out;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench
