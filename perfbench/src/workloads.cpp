// The three benchmark workloads. Each one builds its inputs from the seed,
// times the program's own entry point (Engine::run, exec::run_stream or
// exec::run_sweep), checks the outputs, and reports either the end-to-end
// metrics or, in the traced run, the per-layer ones. Tracing hooks only the
// library's public seams: wrapped AssignmentPolicy / AdmissionPolicy, an
// EngineObserver, and direct calls.
#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "alloc_count.hpp"
#include "reference.hpp"
#include "trace.hpp"
#include "treesched/exec/snapshot_store.hpp"
#include "treesched/exec/stream_runner.hpp"
#include "treesched/exec/sweep.hpp"
#include "treesched/experiments/harness.hpp"
#include "treesched/fault/model.hpp"
#include "treesched/overload/controller.hpp"
#include "treesched/sim/runlog_segments.hpp"
#include "treesched/sim/validator.hpp"
#include "treesched/treesched.hpp"
#include "treesched/util/hash.hpp"
#include "treesched/workload/stream.hpp"

namespace perfbench {

// ---------------------------------------------------------------- report --

namespace {
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name))
    throw std::logic_error("bad metric name '" + name + "'");
  check(std::isfinite(value), "metric " + name + " is finite");
  metrics_.emplace_back(name, std::make_pair(value, unit));
}

void Report::check(bool ok, const std::string& what) {
  tally(1, ok ? 0 : 1, what);
}

void Report::tally(std::uint64_t attempted, std::uint64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0)
    note("CHECK FAILED: " + what + " (" + std::to_string(failed) + " of " +
         std::to_string(attempted) + ")");
}

void Report::note(const std::string& line) {
  std::printf("  %s\n", line.c_str());
  std::fflush(stdout);
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) out += ", ";
    first = false;
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    out += "\"" + name + "\": {\"value\": " + fmt(v) + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  return out;
}

namespace {

using namespace treesched;
using Clock = std::chrono::steady_clock;

// Set-ups repeat for at least this long: on a shared host the median of
// 25 back-to-back set-ups (a quarter second) still moves by 15% between
// runs; over two seconds it moves by about half that.
constexpr int kSetupReps = 25;
constexpr double kSetupSeconds = 2.0;
constexpr int kMinTrials = 3;
constexpr double kEps = 0.5;

template <class F>
double time_s(F&& f) {
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(const std::vector<double>& v) { return quartiles(v).median; }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::string quartile_note(const std::vector<double>& v) {
  const Quartiles q = quartiles(v);
  return "median " + fmt(q.median) + " [q1 " + fmt(q.q1) + ", q3 " +
         fmt(q.q3) + "] over " + std::to_string(v.size());
}

/// Trial walls, and each wall over the reference kernel's wall measured
/// right after it.
struct Trials {
  std::vector<double> walls;
  std::vector<double> ratios;
};

/// Runs `trial` (timed, then paired with a reference measurement) until
/// `seconds` have passed and at least kMinTrials ran.
template <class F>
Trials timed_trials(double seconds, Reference& ref, F&& trial) {
  Trials t;
  const auto start = Clock::now();
  while (t.walls.size() < static_cast<std::size_t>(kMinTrials) ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             seconds) {
    t.walls.push_back(time_s(trial));
    t.ratios.push_back(t.walls.back() / ref.measure());
  }
  return t;
}

/// Walls of timed set-ups, at least kSetupReps of them and for at least
/// kSetupSeconds; keeps the last result in `out`.
template <class T, class F>
std::vector<double> timed_setups(std::optional<T>& out, F&& make) {
  std::vector<double> walls;
  const auto start = Clock::now();
  while (walls.size() < static_cast<std::size_t>(kSetupReps) ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             kSetupSeconds) {
    std::optional<T> fresh;
    walls.push_back(time_s([&] { fresh.emplace(make()); }));
    out = std::move(fresh);
  }
  return walls;
}

/// `jobs` simulated per trial; throughput is printed per wall second and
/// reported per reference-kernel run (see reference.hpp).
void report_end_to_end(Report& r, double jobs, const Trials& t,
                       double setup_s, double rss_mib, double allocs_per_job,
                       double mean_flow, double p99_flow, double flow_ratio) {
  r.note("jobs_per_s " + fmt(jobs / median(t.walls)) + " jobs/s (trial walls " +
         quartile_note(t.walls) + " trials of " + fmt(jobs) + " jobs)");
  r.note("jobs_per_ref: trial wall / reference wall " + quartile_note(t.ratios));
  r.metric("jobs_per_ref", jobs / median(t.ratios), "jobs/ref");
  r.metric("setup_s", setup_s, "s");
  r.metric("peak_rss_mb", rss_mib, "MiB");
  r.metric("allocs_per_job", allocs_per_job, "allocs/job");
  r.metric("mean_flow", mean_flow, "simtime");
  r.metric("p99_flow", p99_flow, "simtime");
  r.metric("flow_ratio", flow_ratio, "ratio");
}

// ------------------------------------------------------- per-layer sheet --

struct LayerDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in emission order. A workload that does not
// exercise a layer reports 0 for it.
constexpr LayerDef kLayers[] = {
    {"sim.run_s", "s"},
    {"sim.self_s", "s"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.query_ns_p50", "ns"},
    {"sim.query_ns_p99", "ns"},
    {"sim.query_samples", "count"},
    {"sim.peak_event_queue", "count"},
    {"sim.arena_slots", "count"},
    {"sim.save_state_s", "s"},
    {"sim.load_state_s", "s"},
    {"sim.state_bytes", "bytes"},
    {"sim.segments.write_s", "s"},
    {"sim.segments.bytes", "bytes"},
    {"algo.assign_calls", "count"},
    {"algo.assign_s", "s"},
    {"algo.assign_share", "fraction"},
    {"algo.assign_us_p50", "us"},
    {"algo.assign_us_p99", "us"},
    {"overload.admit_calls", "count"},
    {"overload.admit_s", "s"},
    {"overload.admit_us_p50", "us"},
    {"overload.admit_us_p99", "us"},
    {"overload.shed_jobs", "count"},
    {"fault.plan_s", "s"},
    {"fault.redispatches", "count"},
    {"workload.generate_s", "s"},
    {"workload.stream_next_ns", "ns"},
    {"core.instance_build_s", "s"},
    {"lp.lower_bound_s", "s"},
    {"exec.stream.wall_s", "s"},
    {"exec.stream.monolithic_s", "s"},
    {"exec.stream.overhead_s", "s"},
    {"exec.stream.overhead_share", "fraction"},
    {"exec.stream.max_window", "count"},
    {"exec.snapshot.write_s", "s"},
    {"exec.snapshot.bytes", "bytes"},
    {"exec.snapshot.count", "count"},
    {"exec.pool.threads", "count"},
    {"exec.pool.wall_1t_s", "s"},
    {"exec.pool.wall_nt_s", "s"},
    {"exec.pool.speedup", "ratio"},
    {"exec.pool.task_ms_p50", "ms"},
    {"exec.pool.task_ms_p99", "ms"},
    {"exec.pool.task_samples", "count"},
    {"guard.idle_s", "s"},
    {"guard.overhead_frac", "fraction"},
    {"guard.overhead_frac_q1", "fraction"},
    {"guard.overhead_frac_q3", "fraction"},
    {"guard.pairs", "count"},
    {"trace.untraced_s", "s"},
    {"trace.traced_s", "s"},
    {"trace.overhead_frac", "fraction"},
};

class Layers {
 public:
  void set(const std::string& name, double v) {
    const bool known =
        std::any_of(std::begin(kLayers), std::end(kLayers),
                    [&](const LayerDef& d) { return name == d.name; });
    if (!known) throw std::logic_error("unknown layer metric " + name);
    values_[name] = v;
  }
  /// Latency triple: `<base>_p50`, `<base>_p99` (or the highest percentile
  /// below it with ten samples beyond) and the sample count under
  /// `samples_name` when given.
  void latency(Report& r, const std::string& base,
               const std::vector<double>& samples, double scale,
               const std::string& samples_name = "") {
    const Latency l = summarize_latency(samples);
    set(base + "_p50", l.p50 * scale);
    set(base + "_p99", l.tail * scale);
    if (!samples_name.empty())
      set(samples_name, static_cast<double>(l.samples));
    if (l.samples > 0 && l.tail_q != 0.99)
      r.note(base + "_p99 reports p" + fmt(l.tail_q * 100) + ": only " +
             std::to_string(l.samples) + " samples");
  }
  void emit(Report& r) const {
    for (const LayerDef& d : kLayers) {
      const auto it = values_.find(d.name);
      r.metric(d.name, it == values_.end() ? 0.0 : it->second, d.unit);
    }
  }

 private:
  std::map<std::string, double> values_;
};

// ------------------------------------------------------ engine tracing --

/// Everything gathered from traced Engine::run calls; accumulates when
/// several engines run under one probe (the sweep replica).
struct RunProbe {
  Tracer* tr = nullptr;
  /// Save the live engine once, at the first event after this many
  /// admissions (0 = never).
  std::uint64_t save_at = 0;
  std::uint64_t events = 0;
  std::uint64_t admitted = 0;
  std::size_t peak_queue = 0;
  std::size_t arena = 0;
  std::vector<double> query_ns;  ///< per higher_priority_remaining call
  std::string state;             ///< the saved engine, when save_at hit
  double save_s = 0.0;
  double load_s = 0.0;
  double sink = 0.0;
};

class TracedPolicy : public sim::AssignmentPolicy {
 public:
  TracedPolicy(sim::AssignmentPolicy& inner, RunProbe& p)
      : inner_(inner), p_(p) {}
  NodeId assign(const sim::Engine& e, const Job& j) override {
    const auto& rcs = e.tree().root_children();
    const std::int32_t q = p_.tr->begin("sim.query");
    for (const NodeId rc : rcs)
      p_.sink += e.higher_priority_remaining(rc, j.size, j.release, j.id);
    p_.tr->end(q);
    const Span& s = p_.tr->spans()[static_cast<std::size_t>(q)];
    p_.query_ns.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                          static_cast<double>(rcs.size()));
    const ScopedSpan span(p_.tr, "algo.assign");
    return inner_.assign(e, j);
  }
  const char* name() const override { return inner_.name(); }

 private:
  sim::AssignmentPolicy& inner_;
  RunProbe& p_;
};

class TracedAdmission : public sim::AdmissionPolicy {
 public:
  TracedAdmission(sim::AdmissionPolicy& inner, Tracer* tr)
      : inner_(inner), tr_(tr) {}
  bool admit(sim::Engine& e, const Job& j) override {
    const ScopedSpan span(tr_, "overload.admit");
    return inner_.admit(e, j);
  }
  const char* name() const override { return inner_.name(); }

 private:
  sim::AdmissionPolicy& inner_;
  Tracer* tr_;
};

class TraceObserver : public sim::EngineObserver {
 public:
  explicit TraceObserver(RunProbe& p) : p_(p) {}
  void on_event(const sim::Engine& e, Time) override {
    ++p_.events;
    p_.peak_queue = std::max(p_.peak_queue, e.event_queue_size());
    if (p_.save_at > 0 && p_.state.empty() && p_.admitted >= p_.save_at) {
      const ScopedSpan span(p_.tr, "sim.save_state");
      std::ostringstream os;
      p_.save_s = time_s([&] { e.save_state(os); });
      p_.state = os.str();
    }
  }
  void on_job_admitted(const sim::Engine& e, JobId) override {
    ++p_.admitted;
    p_.peak_queue = std::max(p_.peak_queue, e.event_queue_size());
  }

 private:
  RunProbe& p_;
};

/// engine.run(policy) under spans; `admission` (may be null) is wrapped
/// and armed here.
void traced_run(RunProbe& p, sim::Engine& engine,
                sim::AssignmentPolicy& policy,
                sim::AdmissionPolicy* admission) {
  TracedPolicy tp(policy, p);
  std::optional<TracedAdmission> ta;
  if (admission != nullptr) {
    ta.emplace(*admission, p.tr);
    engine.set_admission(&*ta);
  }
  TraceObserver obs(p);
  engine.set_observer(&obs);
  {
    const ScopedSpan span(p.tr, "sim.run");
    engine.run(tp);
  }
  engine.set_observer(nullptr);
  p.arena = std::max(p.arena, engine.arena_size());
}

/// Loads the probe's saved state into a pristine engine and checks that
/// saving it again reproduces the bytes.
void load_round_trip(Report& r, RunProbe& p, const Instance& inst,
                     const SpeedProfile& speeds) {
  r.check(!p.state.empty(), "a live engine state was saved mid-run");
  if (p.state.empty()) return;
  sim::Engine fresh(inst, speeds, sim::EngineConfig{});
  {
    const ScopedSpan span(p.tr, "sim.load_state");
    std::istringstream is(p.state);
    p.load_s = time_s([&] { fresh.load_state(is); });
  }
  std::ostringstream again;
  fresh.save_state(again);
  r.check(again.str() == p.state, "engine save/load/save is byte-exact");
}

/// The sim / algo / overload layer metrics of one traced tracer.
void engine_layers(Report& r, Layers& L, const Tracer& tr,
                   const RunProbe& p) {
  auto totals = totals_by_name(tr.spans());
  const auto sec = [&](const char* n) { return totals[n].total_ns / 1e9; };
  const double run_s = sec("sim.run");
  const double self_s = totals["sim.run"].self_ns / 1e9;
  L.set("sim.run_s", run_s);
  L.set("sim.self_s", self_s);
  L.set("sim.events", static_cast<double>(p.events));
  L.set("sim.ns_per_event",
        p.events > 0 ? self_s * 1e9 / static_cast<double>(p.events) : 0.0);
  L.latency(r, "sim.query_ns", p.query_ns, 1.0, "sim.query_samples");
  L.set("sim.peak_event_queue", static_cast<double>(p.peak_queue));
  L.set("sim.arena_slots", static_cast<double>(p.arena));
  L.set("sim.save_state_s", p.save_s);
  L.set("sim.load_state_s", p.load_s);
  L.set("sim.state_bytes", static_cast<double>(p.state.size()));
  L.set("algo.assign_calls", static_cast<double>(totals["algo.assign"].count));
  L.set("algo.assign_s", sec("algo.assign"));
  L.set("algo.assign_share", run_s > 0.0 ? sec("algo.assign") / run_s : 0.0);
  L.latency(r, "algo.assign_us", durations_ns(tr.spans(), "algo.assign"),
            1e-3);
  L.set("overload.admit_calls",
        static_cast<double>(totals["overload.admit"].count));
  L.set("overload.admit_s", sec("overload.admit"));
  L.latency(r, "overload.admit_us", durations_ns(tr.spans(), "overload.admit"),
            1e-3);
  r.note("traced engine: " + fmt(run_s) + " s in sim.run, " + fmt(self_s) +
         " s self; assign share " + fmt(run_s > 0 ? sec("algo.assign") / run_s
                                                  : 0.0) +
         " of sim.run_s");
}

/// The span file of a traced run: totals for every span, and the spans
/// themselves up to a cap that keeps the file small.
void write_spans(const Tracer& tr, const Options& o, const char* workload) {
  tr.write_tsv(o.work_dir + "/spans-" + workload + ".tsv", 200000);
}

/// Traced-versus-untraced walls of the same computation.
void trace_overhead(Report& r, Layers& L, const std::vector<double>& plain,
                    const std::vector<double>& traced) {
  const double a = median(plain), b = median(traced);
  L.set("trace.untraced_s", a);
  L.set("trace.traced_s", b);
  L.set("trace.overhead_frac", a > 0.0 ? b / a - 1.0 : 0.0);
  r.note("trace overhead: traced " + quartile_note(traced) +
         " s vs untraced " + quartile_note(plain) + " s");
}

// --------------------------------------------------------- dispatch_wide --
//
// Batch Engine::run with the paper's greedy dispatch on a 10^4-leaf fat
// tree, overloaded at rho = 4 with uniform speed 1.5: F evaluation and the
// DispatchIndex queries dominate.

constexpr int kWideJobs = 40000;

struct WideInputs {
  Instance inst;
  SpeedProfile speeds;
};

WideInputs make_wide(std::uint64_t seed, Tracer* tr = nullptr) {
  auto tree = std::make_shared<const Tree>(builders::fat_tree(100, 1, 100));
  util::Rng rng(util::split_seed(seed, 1));
  workload::WorkloadSpec spec;
  spec.jobs = kWideJobs;
  spec.load = 4.0;
  spec.sizes.dist = workload::SizeDistribution::kBoundedPareto;
  const ScopedSpan span(tr, "workload.generate");
  Instance inst = workload::generate(rng, tree, spec);
  SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.5);
  return WideInputs{std::move(inst), std::move(speeds)};
}

bool same_jobs(const Instance& a, const Instance& b) {
  if (a.job_count() != b.job_count()) return false;
  for (std::size_t i = 0; i < a.jobs().size(); ++i) {
    const Job& x = a.jobs()[i];
    const Job& y = b.jobs()[i];
    if (x.id != y.id || bits(x.release) != bits(y.release) ||
        bits(x.size) != bits(y.size))
      return false;
  }
  return true;
}

void dispatch_wide(const Options& o, Report& r) {
  std::optional<WideInputs> in;
  const std::vector<double> setup = timed_setups(in, [&] {
    return make_wide(o.seed);
  });
  r.check(same_jobs(in->inst, make_wide(o.seed).inst),
          "the same seed generates the same instance");
  const Instance& inst = in->inst;
  const SpeedProfile& speeds = in->speeds;
  r.note("setup_s " + quartile_note(setup) + " set-ups");

  if (o.trace) {
    Tracer tr;
    RunProbe probe;
    probe.tr = &tr;
    probe.save_at = kWideJobs / 2;
    make_wide(o.seed, &tr);
    {
      std::vector<Job> jobs = inst.jobs();
      const ScopedSpan span(&tr, "core.instance_build");
      const Instance copy(inst.tree_ptr(), std::move(jobs),
                          EndpointModel::kIdentical);
    }
    std::vector<double> plain, traced;
    std::optional<std::uint64_t> flow_bits;
    const auto start = Clock::now();
    for (std::size_t i = 0;
         i < 3 || std::chrono::duration<double>(Clock::now() - start).count() <
                      o.seconds;
         ++i) {
      for (int side = 0; side < 2; ++side) {
        algo::PaperGreedyPolicy policy(kEps);
        sim::Engine engine(inst, speeds, sim::EngineConfig{});
        if (((i + side) & 1) == 0) {
          plain.push_back(time_s([&] { engine.run(policy); }));
        } else {
          Tracer discard;
          RunProbe extra;
          extra.tr = &discard;
          RunProbe& p = traced.empty() ? probe : extra;
          traced.push_back(time_s([&] { traced_run(p, engine, policy, nullptr); }));
        }
        const std::uint64_t fb = bits(engine.metrics().total_flow_time());
        if (!flow_bits) flow_bits = fb;
        r.check(fb == *flow_bits,
                "traced and untraced runs schedule identically");
      }
    }
    load_round_trip(r, probe, inst, speeds);
    {
      const ScopedSpan span(&tr, "lp.lower_bound");
      r.check(lp::combined_lower_bound(inst) > 0.0, "lower bound positive");
    }
    Layers L;
    engine_layers(r, L, tr, probe);
    auto totals = totals_by_name(tr.spans());
    L.set("workload.generate_s", totals["workload.generate"].total_ns / 1e9);
    L.set("core.instance_build_s",
          totals["core.instance_build"].total_ns / 1e9);
    L.set("lp.lower_bound_s", totals["lp.lower_bound"].total_ns / 1e9);
    trace_overhead(r, L, plain, traced);
    L.emit(r);
    write_spans(tr, o, "dispatch_wide");
    return;
  }

  Reference ref(1);
  std::vector<double> allocs;
  std::vector<std::uint64_t> flows;
  std::uint64_t incomplete = 0;
  double mean_flow = 0.0, p99_flow = 0.0, total_flow = 0.0;
  const Trials trials = timed_trials(
      o.seconds, ref,
      [&] {
        const std::uint64_t a0 = alloc_count();
        algo::PaperGreedyPolicy policy(kEps);
        sim::Engine engine(inst, speeds, sim::EngineConfig{});
        engine.run(policy);
        allocs.push_back(static_cast<double>(alloc_count() - a0));
        const sim::Metrics& m = engine.metrics();
        incomplete += kWideJobs - m.completed_count();
        total_flow = m.total_flow_time();
        flows.push_back(bits(total_flow));
        mean_flow = m.mean_flow_time();
        p99_flow = m.flow_percentile(0.99);
      });
  const double rss = peak_rss_mib();
  r.tally(static_cast<std::uint64_t>(kWideJobs) * trials.walls.size(),
          incomplete,
          "every job completes");
  r.check(std::all_of(flows.begin(), flows.end(),
                      [&](std::uint64_t f) { return f == flows.front(); }),
          "total flow is bit-identical across trials");

  sim::EngineConfig rec_cfg;
  rec_cfg.record_schedule = true;
  algo::PaperGreedyPolicy policy(kEps);
  sim::Engine recorded(inst, speeds, rec_cfg);
  recorded.run(policy);
  const sim::ValidationResult v = sim::validate_schedule(
      inst, speeds, rec_cfg, recorded.recorder(), recorded.metrics());
  r.check(v.ok, "validate_schedule accepts a recorded run");
  r.check(bits(recorded.metrics().total_flow_time()) == flows.front(),
          "recording does not change the schedule");
  const double lb = lp::combined_lower_bound(inst);

  r.note("flow_ratio base: lower bound " + fmt(lb));
  r.note("shed_frac 0 (no admission control on this workload)");
  report_end_to_end(r, kWideJobs, trials, median(setup), rss,
                    median(allocs) / kWideJobs, mean_flow, p99_flow,
                    total_flow / lb);
}

// -------------------------------------------------------- stream_durable --
//
// exec::run_stream as an operator launches it: segmented run log,
// snapshot generations, watchdog and governor armed (never firing). One
// pass runs kSubStreams independent streams of kStreamJobs arrivals each.
// A single long stream's cost is set by its longest busy period, because
// every quantum boundary inside one extends the window; cutting the pass
// into several streams averages that over several busy periods.

constexpr std::uint64_t kStreamJobs = 20000;
constexpr std::size_t kSubStreams = 12;
constexpr std::size_t kMinPasses = 2;  // a pass is long; two still compare
constexpr std::size_t kGuardPairs = 8;

struct SubStream {
  exec::StreamRunnerConfig cfg;
  Instance all;  ///< every arrival, for the monolithic cross-check
};

struct StreamInputs {
  std::shared_ptr<const Tree> tree;
  SpeedProfile speeds;
  std::vector<SubStream> subs;
};

void arm_guard(exec::StreamRunnerConfig& cfg) {
  cfg.guard.watchdog.window_deadline_s = 3600.0;
  cfg.guard.governor.rss_ceiling_bytes = std::uint64_t{1} << 50;
  cfg.guard.governor.queue_ceiling = std::size_t{1} << 40;
  cfg.guard.governor.arena_ceiling = std::size_t{1} << 40;
}

StreamInputs make_stream(std::uint64_t seed, Tracer* tr = nullptr) {
  auto tree = std::make_shared<const Tree>(builders::fat_tree(2, 2, 2));
  StreamInputs in{tree, SpeedProfile::paper_identical(*tree, kEps), {}};
  for (std::size_t k = 0; k < kSubStreams; ++k) {
    exec::StreamRunnerConfig cfg;
    cfg.stream.seed = util::split_seed(seed, 100 + k);
    cfg.stream.sizes.dist = workload::SizeDistribution::kBoundedPareto;
    cfg.stream.lambda = workload::arrival_rate_for_load(
        static_cast<int>(tree->root_children().size()),
        cfg.stream.sizes.mean(), 0.7);
    cfg.total_jobs = kStreamJobs;
    cfg.window = 4096;
    cfg.eps = kEps;
    cfg.policy = "paper";
    std::vector<Job> jobs;
    jobs.reserve(kStreamJobs);
    {
      const ScopedSpan span(tr, "workload.stream_next");
      const workload::JobStream stream(cfg.stream);
      workload::StreamCursor cursor;
      for (std::uint64_t i = 0; i < kStreamJobs; ++i) {
        const workload::StreamJob a = stream.next(cursor);
        jobs.emplace_back(static_cast<JobId>(i), a.release, a.size);
      }
    }
    in.subs.push_back(
        {cfg, Instance(tree, std::move(jobs), EndpointModel::kIdentical)});
  }
  return in;
}

/// A fresh directory for one run_stream's segments and snapshots; returns
/// the durable config pointed at it.
exec::StreamRunnerConfig durable_config(const SubStream& sub,
                                        const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  exec::StreamRunnerConfig cfg = sub.cfg;
  cfg.record_path = dir + "/run.manifest";
  cfg.snapshot_path = dir + "/snap.manifest";
  cfg.snapshot_every = kStreamJobs / 4;
  cfg.snapshot_keep = 3;
  arm_guard(cfg);
  return cfg;
}

std::string sub_dir(const std::string& root, std::size_t k) {
  return root + "/s" + std::to_string(k);
}

struct Pass {
  double wall = 0.0;      ///< summed run_stream walls
  double ref_wall = 0.0;  ///< summed reference runs, one after each stream
  std::uint64_t allocs = 0;
};

/// One pass: every sub-stream through run_stream, each timed alone
/// (directory preparation untimed) and, with `ref`, followed by a
/// reference run. Results are appended to `out[k]`.
Pass stream_pass(const StreamInputs& in, const std::string& root,
                 std::vector<std::vector<exec::StreamRunnerResult>>& out,
                 Reference* ref) {
  out.resize(in.subs.size());
  Pass p;
  for (std::size_t k = 0; k < in.subs.size(); ++k) {
    const exec::StreamRunnerConfig cfg =
        durable_config(in.subs[k], sub_dir(root, k));
    const std::uint64_t a0 = alloc_count();
    p.wall += time_s(
        [&] { out[k].push_back(exec::run_stream(in.tree, in.speeds, cfg)); });
    p.allocs += alloc_count() - a0;
    if (ref != nullptr) p.ref_wall += ref->measure();
  }
  return p;
}

std::uint64_t dir_bytes(const std::string& dir, const std::string& prefix) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.is_regular_file() &&
        e.path().filename().string().rfind(prefix, 0) == 0)
      total += e.file_size();
  return total;
}

/// Audit tolerance for run_stream's segment logs. The default (1e-6 x
/// scale) also decides when a hop's work is done, so a job preempted with
/// less than 1e-6 x size left on a hop has its last, legitimate residual
/// burst rejected as "off the job's current hop" (on about one seed in ten
/// of this workload). 1e-9 is tighter on every rule and still 60x above the
/// rounding of (t1 - t0) x rate at these times (sizes >= 8, t < 4e5).
constexpr double kSegmentAuditTol = 1e-9;

/// Checks everything a durable run left on disk.
void check_durable_outputs(Report& r, const std::string& dir,
                           const exec::StreamRunnerResult& res) {
  const std::string manifest = dir + "/run.manifest";
  sim::SegmentAuditOptions strict;
  strict.tol = kSegmentAuditTol;
  const sim::SegmentAuditResult audit = sim::audit_segments(manifest, strict);
  r.check(audit.ok,
          "audit_segments (tol 1e-9) accepts the segmented run log " + dir);
  for (const sim::SegmentAuditViolation& v : audit.violations)
    r.note("  segment " + std::to_string(v.segment) + ": " + v.message);
  // The default-tolerance verdict stays visible; see kSegmentAuditTol.
  const sim::SegmentAuditResult loose = sim::audit_segments(manifest);
  if (audit.ok && !loose.ok)
    r.note("known audit_segments defect: at its default tol it rejects " +
           dir + ": " + loose.violations.front().message);
  r.check(audit.arrivals == kStreamJobs && audit.completed == kStreamJobs,
          "segment trailer: arrivals = completed = all arrivals");
  const exec::SnapshotStore store(dir + "/snap.manifest", 3);
  const std::vector<exec::SnapshotGeneration> gens = store.generations();
  r.check(gens.size() == std::min<std::size_t>(3, res.snapshots_written),
          "the snapshot manifest keeps the retention budget");
  for (const exec::SnapshotGeneration& g : gens) {
    const std::optional<std::string> bytes = store.read(g);
    bool ok = bytes.has_value() && util::fnv1a_64(*bytes) == g.fingerprint;
    if (ok) {
      try {
        exec::decode_snapshot_envelope(*bytes);
      } catch (const std::exception&) {
        ok = false;
      }
    }
    r.check(ok, "snapshot generation " + std::to_string(g.index) +
                    " reads back and verifies");
  }
}

/// Replays a recorded monolithic run through the segment writer in the
/// canonical (time, kind) order; returns the bytes written.
std::uint64_t replay_segments(const sim::Engine& e, const SpeedProfile& speeds,
                              const std::string& dir) {
  struct Ev {
    double key;
    int rank;
    std::size_t i;
  };
  const auto& segs = e.recorder().segments();
  const auto& jobs = e.instance().jobs();
  std::vector<Ev> evs;
  evs.reserve(segs.size() + 2 * jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    evs.push_back({jobs[i].release, 0, i});
    evs.push_back({e.metrics().job(jobs[i].id).completion, 2, i});
  }
  for (std::size_t i = 0; i < segs.size(); ++i)
    evs.push_back({segs[i].t1, 1, i});
  std::stable_sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    return a.key != b.key ? a.key < b.key : a.rank < b.rank;
  });
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  sim::SegmentedRunLogWriter w({dir + "/replay.manifest", 4096}, e.tree(),
                               speeds.speeds(), sim::NodePolicy::kSjf, 0.0,
                               overload::ShedConfig{});
  w.start_fresh();
  for (std::size_t k = 0; k < evs.size(); ++k) {
    const Ev& ev = evs[k];
    if (ev.rank == 1) {
      w.on_burst(segs[ev.i], static_cast<std::uint64_t>(segs[ev.i].job));
    } else {
      const Job& j = jobs[ev.i];
      if (ev.rank == 0)
        w.on_admit(static_cast<std::uint64_t>(j.id), j.release, j.weight,
                   j.size, e.assigned_leaf(j.id));
      else
        w.on_done(static_cast<std::uint64_t>(j.id), ev.key);
    }
    if (k + 1 == evs.size() || evs[k + 1].key > ev.key) w.commit(false);
  }
  const sim::Metrics& m = e.metrics();
  w.write_final(jobs.size(), m.completed_count(), 0, 0, m.total_flow_time(),
                m.makespan());
  return dir_bytes(dir, "replay");
}

void stream_durable(const Options& o, Report& r) {
  std::optional<StreamInputs> in;
  const std::vector<double> setup =
      timed_setups(in, [&] { return make_stream(o.seed); });
  r.note("setup_s " + quartile_note(setup) + " set-ups");
  const std::string root = o.work_dir + "/stream";
  const double pass_jobs = static_cast<double>(kStreamJobs * kSubStreams);

  if (o.trace) {
    Tracer tr;
    make_stream(o.seed, &tr);
    // A run_stream pass against monolithic Engine::run passes over the same
    // arrivals, untraced and traced, in rotating order.
    RunProbe probe;
    probe.tr = &tr;
    std::vector<double> stream_walls, mono_walls, traced_walls;
    std::vector<std::vector<exec::StreamRunnerResult>> runs;
    std::vector<exec::StreamRunnerResult> last;
    std::size_t deepest = 0;  // sub-stream with the largest window
    const auto start = Clock::now();
    for (std::size_t i = 0;
         i < 2 || std::chrono::duration<double>(Clock::now() - start).count() <
                      o.seconds;
         ++i) {
      for (std::size_t k = 0; k < 3; ++k) {
        const std::size_t which = (i + k) % 3;
        if (which == 0) {
          stream_walls.push_back(stream_pass(*in, root, runs, nullptr).wall);
          last.clear();
          for (const auto& reps : runs) last.push_back(reps.back());
          for (std::size_t s = 0; s < last.size(); ++s)
            if (last[s].max_window > last[deepest].max_window) deepest = s;
          continue;
        }
        Tracer discard;
        RunProbe extra;
        extra.tr = &discard;
        RunProbe& p = traced_walls.empty() ? probe : extra;
        double wall = 0.0;
        for (std::size_t s = 0; s < in->subs.size(); ++s) {
          const Instance& inst = in->subs[s].all;
          algo::PaperGreedyPolicy policy(kEps);
          sim::Engine engine(inst, in->speeds, sim::EngineConfig{});
          if (which == 1) {
            wall += time_s([&] { engine.run(policy); });
          } else {
            // Round trip the live engine at the depth the deepest stream
            // window reached (mid-stream until run_stream has run once).
            p.save_at = 0;
            if (s == deepest && p.state.empty())
              p.save_at = last.empty() ? kStreamJobs / 2
                                       : last[deepest].max_window;
            wall += time_s([&] { traced_run(p, engine, policy, nullptr); });
            if (&p == &probe && s == deepest)
              load_round_trip(r, probe, inst, in->speeds);
          }
          r.tally(kStreamJobs,
                  kStreamJobs - engine.metrics().completed_count(),
                  "monolithic run completes every job");
        }
        (which == 1 ? mono_walls : traced_walls).push_back(wall);
      }
    }

    const double stream_s = median(stream_walls);
    const double mono_s = median(mono_walls);
    std::size_t max_window = 0, snapshots = 0;
    for (const auto& x : last) {
      max_window = std::max(max_window, x.max_window);
      snapshots += x.snapshots_written;
    }
    Layers L;
    engine_layers(r, L, tr, probe);
    L.set("exec.stream.wall_s", stream_s);
    L.set("exec.stream.monolithic_s", mono_s);
    L.set("exec.stream.overhead_s", stream_s - mono_s);
    L.set("exec.stream.overhead_share", (stream_s - mono_s) / stream_s);
    L.set("exec.stream.max_window", static_cast<double>(max_window));
    r.note("per pass of " + std::to_string(kSubStreams) + " x " +
           std::to_string(kStreamJobs) + " arrivals: run_stream " +
           quartile_note(stream_walls) + " s; monolithic Engine::run " +
           quartile_note(mono_walls) + " s");

    const Instance& deep = in->subs[deepest].all;
    {
      std::vector<Job> window(
          deep.jobs().begin(),
          deep.jobs().begin() + static_cast<std::ptrdiff_t>(max_window));
      const ScopedSpan span(&tr, "core.instance_build");
      const Instance w(in->tree, std::move(window), EndpointModel::kIdentical);
    }
    for (const SubStream& sub : in->subs) {
      const ScopedSpan span(&tr, "lp.lower_bound");
      r.check(lp::combined_lower_bound(sub.all) > 0.0, "lower bound positive");
    }

    // The last pass's snapshot generations, re-written through a fresh
    // SnapshotStore.
    std::vector<double> snap_walls, snap_bytes;
    std::filesystem::create_directories(o.work_dir + "/snapcopy");
    exec::SnapshotStore copy(o.work_dir + "/snapcopy/snap.manifest", 3);
    for (std::size_t s = 0; s < in->subs.size(); ++s) {
      const exec::SnapshotStore kept(sub_dir(root, s) + "/snap.manifest", 3);
      for (const auto& g : kept.generations()) {
        const std::optional<std::string> bytes = kept.read(g);
        if (!bytes) continue;
        snap_bytes.push_back(static_cast<double>(bytes->size()));
        const std::int32_t id = tr.begin("exec.snapshot.write");
        copy.write(g.progress, *bytes);
        tr.end(id);
        const Span& sp = tr.spans()[static_cast<std::size_t>(id)];
        snap_walls.push_back(static_cast<double>(sp.end_ns - sp.start_ns) /
                             1e9);
      }
    }
    L.set("exec.snapshot.write_s", median(snap_walls));
    L.set("exec.snapshot.bytes", mean(snap_bytes));
    L.set("exec.snapshot.count", static_cast<double>(snapshots));
    r.note("exec.snapshot.write_s is per generation (" +
           std::to_string(snap_walls.size()) + " re-written); count is per pass");

    // Segment writer: every sub-stream recorded monolithically and replayed
    // through it.
    double seg_s = 0.0;
    std::uint64_t seg_bytes = 0;
    for (const SubStream& sub : in->subs) {
      sim::EngineConfig rec;
      rec.record_schedule = true;
      algo::PaperGreedyPolicy policy(kEps);
      sim::Engine engine(sub.all, in->speeds, rec);
      engine.run(policy);
      seg_s += time_s([&] {
        const ScopedSpan span(&tr, "sim.segments.write");
        seg_bytes += replay_segments(engine, in->speeds, o.work_dir + "/replay");
      });
    }
    L.set("sim.segments.write_s", seg_s);
    L.set("sim.segments.bytes", static_cast<double>(seg_bytes));

    // Guard overhead: armed/idle pairs of one plain stream each, alternating
    // which side runs first.
    std::vector<double> idle, ratio;
    for (std::size_t i = 0; i < kGuardPairs; ++i) {
      double w[2] = {0.0, 0.0};
      for (std::size_t k = 0; k < 2; ++k) {
        const std::size_t armed = (i + k) & 1;
        exec::StreamRunnerConfig gcfg = in->subs[i % kSubStreams].cfg;
        if (armed != 0) arm_guard(gcfg);
        w[armed] =
            time_s([&] { exec::run_stream(in->tree, in->speeds, gcfg); });
      }
      idle.push_back(w[0]);
      ratio.push_back(w[1] / w[0] - 1.0);
    }
    const Quartiles gq = quartiles(ratio);
    L.set("guard.idle_s", median(idle));
    L.set("guard.overhead_frac", gq.median);
    L.set("guard.overhead_frac_q1", gq.q1);
    L.set("guard.overhead_frac_q3", gq.q3);
    L.set("guard.pairs", static_cast<double>(ratio.size()));
    r.note("guard overhead " + quartile_note(ratio) + " armed/idle pairs of " +
           std::to_string(kStreamJobs) + " arrivals; idle base " +
           fmt(median(idle)) + " s");

    auto totals = totals_by_name(tr.spans());
    L.set("workload.stream_next_ns",
          static_cast<double>(totals["workload.stream_next"].total_ns) /
              pass_jobs);
    L.set("core.instance_build_s",
          totals["core.instance_build"].total_ns / 1e9);
    L.set("lp.lower_bound_s", totals["lp.lower_bound"].total_ns / 1e9);
    trace_overhead(r, L, mono_walls, traced_walls);
    L.emit(r);
    write_spans(tr, o, "stream_durable");
    for (const char* d : {"/stream", "/replay", "/snapcopy"})
      std::filesystem::remove_all(o.work_dir + d);
    return;
  }

  // One trial is a pass over every stream (see stream_pass).
  Reference ref(1);
  Trials trials;
  std::vector<double> allocs;
  std::vector<std::vector<exec::StreamRunnerResult>> runs;
  const auto start = Clock::now();
  while (trials.walls.size() < kMinPasses ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             o.seconds) {
    const Pass p = stream_pass(*in, root, runs, &ref);
    trials.walls.push_back(p.wall);
    // The pass wall in units of one reference run.
    trials.ratios.push_back(p.wall / (p.ref_wall / kSubStreams));
    allocs.push_back(static_cast<double>(p.allocs) / pass_jobs);
  }
  const double rss = peak_rss_mib();

  std::uint64_t incomplete = 0;
  bool same = true;
  std::vector<exec::StreamRunnerResult> res;
  for (const auto& reps : runs) {
    res.push_back(reps.back());
    for (const exec::StreamRunnerResult& x : reps) {
      incomplete += kStreamJobs - std::min(kStreamJobs, x.acc.completed);
      same = same && x.arrivals == kStreamJobs &&
             bits(x.acc.flow.value()) == bits(res.back().acc.flow.value()) &&
             bits(x.acc.flow_digest.quantile(0.99)) ==
                 bits(res.back().acc.flow_digest.quantile(0.99)) &&
             x.max_window == res.back().max_window;
    }
  }
  r.tally(kStreamJobs * kSubStreams * trials.walls.size(), incomplete,
          "every arrival completes");
  r.check(same, "stream metrics are identical across repetitions");

  // The same arrivals in one monolithic engine each: exact flows.
  double flow = 0.0, completed = 0.0, lb = 0.0;
  std::vector<double> p99s, errs;
  std::size_t max_window = 0;
  for (std::size_t k = 0; k < res.size(); ++k) {
    const sim::StreamAccumulator& acc = res[k].acc;
    r.check(res[k].stage == guard::Stage::kNormal ||
                res[k].stage == guard::Stage::kStreamingMetrics,
            "the governor never degrades the run");
    check_durable_outputs(r, sub_dir(root, k), res[k]);
    const Instance& inst = in->subs[k].all;
    algo::PaperGreedyPolicy policy(kEps);
    sim::Engine mono(inst, in->speeds, sim::EngineConfig{});
    mono.run(policy);
    const sim::Metrics& m = mono.metrics();
    const double total = acc.flow.value();
    r.check(m.completed_count() == kStreamJobs &&
                std::abs(m.total_flow_time() - total) <= 1e-9 * total,
            "run_stream matches a monolithic Engine::run on the same arrivals");
    const double digest = acc.flow_digest.quantile(0.99);
    const double exact = m.flow_percentile(0.99);
    p99s.push_back(digest);
    errs.push_back(std::abs(digest - exact) / exact);
    flow += total;
    completed += static_cast<double>(acc.completed);
    lb += lp::combined_lower_bound(inst);
    max_window = std::max(max_window, res[k].max_window);
  }

  r.note("one trial = one pass over " + std::to_string(kSubStreams) +
         " streams x " + std::to_string(kStreamJobs) + " arrivals; max window " +
         std::to_string(max_window));
  r.note("p99_digest_err " + fmt(mean(errs)) +
         " fraction (mean over streams of |digest p99 - exact p99| / exact)");
  r.note("p99_flow: mean digest p99 over streams; flow_ratio base: summed "
         "lower bound " + fmt(lb));
  r.note("shed_frac 0 (no admission control on this workload)");
  report_end_to_end(r, pass_jobs, trials, median(setup), rss, median(allocs),
                    flow / completed, mean(p99s), flow / lb);
  std::filesystem::remove_all(root);
}

// ------------------------------------------------------------ sweep_grid --
//
// exec::run_sweep over 192 short tasks on the thread pool, with admission
// control and fault re-dispatch in the grid.

constexpr int kSweepJobs = 6000;

exec::SweepSpec sweep_spec(std::uint64_t seed, std::size_t threads) {
  exec::SweepSpec s;
  s.policies = {"paper", "closest"};
  s.trees = {"fat-2x2x2", "figure1", "star-2x3"};
  s.eps_grid = {1.0, 0.5};
  s.shed_policies = {"none", "deadline"};
  s.fault_rates = {0.0, 0.005};
  s.seeds = 4;
  s.jobs = kSweepJobs;
  s.base_seed = util::split_seed(seed, 3);
  s.threads = threads;
  return s;
}

/// The CPUs this process may run on (what nproc prints), at most 8 so the
/// sweep and its reference kernel stay small on wide hosts.
std::size_t host_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int n = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set)
                                                            : 1;
  return static_cast<std::size_t>(std::clamp(n, 1, 8));
}

struct ReplicaTask {
  double total_flow = 0.0;
  double p99 = 0.0;
  std::size_t shed = 0;
  std::size_t redispatches = 0;
};

/// One sweep task rebuilt from public calls, the way run_sweep runs it
/// (same seeds, same order of construction). With a probe, the engine run
/// and the calls around it are traced.
ReplicaTask replica_task(const exec::SweepSpec& spec,
                         const std::vector<std::shared_ptr<const Tree>>& trees,
                         const exec::SweepTask& t, RunProbe* probe) {
  Tracer* tr = probe != nullptr ? probe->tr : nullptr;
  const double eps = spec.eps_grid[t.eps_i];
  util::Rng rng(t.seed);
  workload::WorkloadSpec w;
  w.jobs = spec.jobs;
  w.load = spec.load;
  w.sizes.dist = workload::SizeDistribution::kBoundedPareto;
  w.sizes.class_eps = eps;
  std::optional<Instance> inst;
  {
    const ScopedSpan span(tr, "workload.generate");
    inst.emplace(workload::generate(rng, trees[t.tree_i], w));
  }
  const SpeedProfile speeds = SpeedProfile::paper_identical(inst->tree(), eps);
  overload::ShedConfig shed;
  shed.policy = overload::parse_shed_policy(spec.shed_policies[t.shed_i]);
  shed.queue_cap = spec.queue_cap;
  shed.deadline_slack = spec.deadline_slack;
  sim::EngineConfig cfg;
  cfg.shed = shed;
  const auto policy =
      algo::make_policy(spec.policies[t.policy_i], *inst, eps, t.seed);
  sim::Engine engine(*inst, speeds, cfg);
  std::optional<overload::AdmissionController> admission;
  if (shed.enabled()) admission.emplace(shed, eps);
  fault::FaultModel model;
  model.node_failure_rate = spec.fault_rates[t.fault_i];
  model.node_mttr = spec.fault_mttr;
  const Time last = inst->jobs().back().release;
  model.horizon = std::max(10.0, 2.0 * last);
  fault::FaultPlan plan;
  {
    const ScopedSpan span(tr, "fault.plan");
    plan = fault::generate_plan(inst->tree(), model,
                                util::split_seed(~t.seed, 1));
  }
  algo::FaultAwareGreedy redispatch(eps);
  engine.set_fault_plan(&plan, &redispatch);
  if (probe != nullptr) {
    traced_run(*probe, engine, *policy, admission ? &*admission : nullptr);
  } else {
    if (admission) engine.set_admission(&*admission);
    engine.run(*policy);
  }
  ReplicaTask out;
  const sim::Metrics& m = engine.metrics();
  out.total_flow = m.total_flow_time();
  out.p99 = m.flow_percentile(0.99);
  out.shed = m.shed_count() + m.rejected_count();
  for (const sim::FaultRecord& f : engine.fault_log())
    if (f.kind == sim::FaultRecord::Kind::kRedispatch) ++out.redispatches;
  {
    const ScopedSpan span(tr, "lp.lower_bound");
    (void)lp::combined_lower_bound(*inst);
  }
  return out;
}

std::vector<std::shared_ptr<const Tree>> sweep_trees(
    const exec::SweepSpec& spec) {
  const auto named = experiments::standard_trees();
  std::vector<std::shared_ptr<const Tree>> out;
  for (const std::string& want : spec.trees)
    for (const auto& nt : named)
      if (nt.name == want) out.push_back(std::make_shared<const Tree>(nt.tree));
  return out;
}

std::vector<ReplicaTask> replica(const exec::SweepSpec& spec,
                                 const exec::SweepResult& res,
                                 RunProbe* probe) {
  const auto trees = sweep_trees(spec);
  std::vector<ReplicaTask> out;
  for (const exec::SweepTask& t : res.tasks)
    out.push_back(replica_task(spec, trees, t, probe));
  return out;
}

std::size_t failed_tasks(const exec::SweepResult& res) {
  return static_cast<std::size_t>(std::count_if(
      res.tasks.begin(), res.tasks.end(), [](const exec::SweepTask& t) {
        return t.status != exec::TaskStatus::kOk;
      }));
}

void sweep_grid(const Options& o, Report& r) {
  const std::size_t threads = host_threads();
  // Forked before run_sweep starts any thread; as parallel as the trials.
  std::optional<Reference> ref;
  if (!o.trace) ref.emplace(static_cast<int>(threads));
  struct Setup {
    exec::SweepSpec spec;
    double offered = 0.0;
  };
  std::optional<Setup> in;
  const std::vector<double> setup = timed_setups(in, [&] {
    Setup s{sweep_spec(o.seed, threads), 0.0};
    s.offered = exec::probe_offered_load(s.spec);
    return s;
  });
  const exec::SweepSpec& spec = in->spec;
  r.note("setup_s " + quartile_note(setup) +
         " set-ups; offered load probe " + fmt(in->offered) + "; threads " +
         std::to_string(threads));

  if (o.trace) {
    Tracer tr;
    RunProbe probe;
    probe.tr = &tr;
    const exec::SweepResult first = exec::run_sweep(spec);
    r.tally(first.tasks.size(), failed_tasks(first), "sweep tasks succeed");

    // Serial replica, traced and untraced, alternating.
    std::vector<double> plain, traced;
    std::vector<ReplicaTask> traced_rep;
    for (std::size_t i = 0; i < 4; ++i) {
      if ((i & 1) == 0) {
        plain.push_back(time_s([&] { replica(spec, first, nullptr); }));
      } else {
        Tracer discard;
        RunProbe extra;
        extra.tr = &discard;
        RunProbe& p = traced.empty() ? probe : extra;
        traced.push_back(
            time_s([&] { traced_rep = replica(spec, first, &p); }));
      }
    }
    std::size_t mismatched = 0, shed = 0, redispatches = 0;
    for (std::size_t i = 0; i < traced_rep.size(); ++i) {
      mismatched += bits(traced_rep[i].total_flow) !=
                    bits(first.tasks[i].alg_flow);
      shed += traced_rep[i].shed;
      redispatches += traced_rep[i].redispatches;
    }
    r.tally(traced_rep.size(), mismatched,
            "traced replica reproduces every sweep task's total flow");

    // Live-engine round trip on the first task's instance, fault-free; its
    // engine run stays out of the replica's sim.* totals.
    std::optional<Instance> inst0;
    {
      util::Rng rng(first.tasks[0].seed);
      workload::WorkloadSpec w;
      w.jobs = spec.jobs;
      w.load = spec.load;
      w.sizes.dist = workload::SizeDistribution::kBoundedPareto;
      w.sizes.class_eps = spec.eps_grid[0];
      inst0.emplace(workload::generate(rng, sweep_trees(spec)[0], w));
      Tracer rt;
      RunProbe rp;
      rp.tr = &rt;
      rp.save_at = kSweepJobs / 2;
      const SpeedProfile speeds =
          SpeedProfile::paper_identical(inst0->tree(), spec.eps_grid[0]);
      algo::PaperGreedyPolicy policy(spec.eps_grid[0]);
      sim::Engine engine(*inst0, speeds, sim::EngineConfig{});
      traced_run(rp, engine, policy, nullptr);
      load_round_trip(r, rp, *inst0, speeds);
      probe.state = rp.state;
      probe.save_s = rp.save_s;
      probe.load_s = rp.load_s;
    }
    {
      std::vector<Job> jobs = inst0->jobs();
      const ScopedSpan span(&tr, "core.instance_build");
      const Instance copy(inst0->tree_ptr(), std::move(jobs),
                          EndpointModel::kIdentical);
    }

    // Pool: 1-thread against host-thread sweeps, alternating which runs
    // first, until the task-latency sample supports a p99.
    std::vector<double> wall_1t, wall_nt, task_ms;
    exec::SweepSpec one = spec;
    one.threads = 1;
    for (std::size_t i = 0; i < 3 || task_ms.size() < 1000; ++i) {
      for (int k = 0; k < 2; ++k) {
        const bool serial = ((i + static_cast<std::size_t>(k)) & 1) == 0;
        exec::SweepResult res;
        const double w =
            time_s([&] { res = exec::run_sweep(serial ? one : spec); });
        r.tally(res.tasks.size(), failed_tasks(res), "sweep tasks succeed");
        (serial ? wall_1t : wall_nt).push_back(w);
        if (!serial)
          for (const exec::SweepTask& t : res.tasks)
            task_ms.push_back(t.wall_ms);
      }
    }
    Layers L;
    L.set("exec.pool.threads", static_cast<double>(threads));
    L.set("exec.pool.wall_1t_s", median(wall_1t));
    L.set("exec.pool.wall_nt_s", median(wall_nt));
    L.set("exec.pool.speedup", median(wall_1t) / median(wall_nt));
    L.latency(r, "exec.pool.task_ms", task_ms, 1.0, "exec.pool.task_samples");
    r.note("pool: 1-thread wall " + quartile_note(wall_1t) + " s; " +
           std::to_string(threads) + "-thread wall " + quartile_note(wall_nt) +
           " s");

    engine_layers(r, L, tr, probe);
    auto totals = totals_by_name(tr.spans());
    L.set("core.instance_build_s",
          totals["core.instance_build"].total_ns / 1e9);
    L.set("overload.shed_jobs", static_cast<double>(shed));
    L.set("fault.plan_s", totals["fault.plan"].total_ns / 1e9);
    L.set("fault.redispatches", static_cast<double>(redispatches));
    L.set("workload.generate_s", totals["workload.generate"].total_ns / 1e9);
    L.set("lp.lower_bound_s", totals["lp.lower_bound"].total_ns / 1e9);
    trace_overhead(r, L, plain, traced);
    L.emit(r);
    write_spans(tr, o, "sweep_grid");
    return;
  }

  std::vector<double> allocs;
  std::vector<std::string> docs;
  exec::SweepResult res;
  std::size_t failed = 0, attempted = 0;
  const Trials trials = timed_trials(
      o.seconds, *ref,
      [&] {
        const std::uint64_t a0 = alloc_count();
        res = exec::run_sweep(spec);
        allocs.push_back(static_cast<double>(alloc_count() - a0));
        attempted += res.tasks.size();
        failed += failed_tasks(res);
        docs.push_back(exec::sweep_json(res, false));
      });
  const double rss = peak_rss_mib();
  r.tally(attempted, failed, "sweep tasks succeed (none failed or timed out)");
  r.check(std::all_of(docs.begin(), docs.end(),
                      [&](const std::string& d) { return d == docs.front(); }),
          "sweep JSON is byte-identical across trials");
  exec::SweepSpec one = spec;
  one.threads = 1;
  r.check(exec::sweep_json(exec::run_sweep(one), false) == docs.front(),
          "sweep JSON is byte-identical to a 1-thread run");

  const std::vector<ReplicaTask> rep = replica(spec, res, nullptr);
  std::size_t mismatched = 0;
  std::vector<double> means, p99s, ratios;
  double shed = 0.0;
  for (std::size_t i = 0; i < res.tasks.size(); ++i) {
    const exec::SweepTask& t = res.tasks[i];
    mismatched += bits(rep[i].total_flow) != bits(t.alg_flow) ||
                  rep[i].shed != t.shed_jobs;
    if (std::isfinite(t.mean_flow)) means.push_back(t.mean_flow);
    if (std::isfinite(rep[i].p99)) p99s.push_back(rep[i].p99);
    ratios.push_back(t.ratio);
    shed += static_cast<double>(t.shed_jobs);
  }
  r.tally(rep.size(), mismatched,
          "a serial public-API replica reproduces each task's flow and sheds");
  const double jobs =
      static_cast<double>(res.tasks.size()) * static_cast<double>(kSweepJobs);
  r.note(std::to_string(res.tasks.size()) + " tasks x " +
         std::to_string(kSweepJobs) + " jobs per trial");
  r.note("shed_frac " + fmt(shed / jobs) + " fraction (" + fmt(shed) +
         " shed or rejected of " + fmt(jobs) + " arrivals)");
  r.note("mean_flow, p99_flow, flow_ratio: means over " +
         std::to_string(means.size()) + " tasks");
  report_end_to_end(r, jobs, trials, median(setup), rss,
                    median(allocs) / jobs, mean(means), mean(p99s),
                    mean(ratios));
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"dispatch_wide",
                                                 "stream_durable",
                                                 "sweep_grid"};
  return names;
}

void run_workload(const Options& o, Report& r) {
  std::filesystem::create_directories(o.work_dir);
  if (o.workload == "dispatch_wide") return dispatch_wide(o, r);
  if (o.workload == "stream_durable") return stream_durable(o, r);
  if (o.workload == "sweep_grid") return sweep_grid(o, r);
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

}  // namespace perfbench
