// E22 — streaming endurance: throughput, memory ceiling, and sketch
// fidelity of the bounded-memory streaming mode.
//
// Two measurements:
//
//  1. Endurance run: `--jobs` Poisson arrivals through the streaming
//     runner (windowed engines, streaming metrics accumulator, optional
//     segmented run log). Reports wall-clock jobs/s, peak RSS (the number
//     the CI leg gates — it must stay bounded no matter how many arrivals
//     flow through), and the peak window size the extension logic reached.
//
//  2. Sketch fidelity: a smaller `--exact-jobs` prefix of the SAME arrival
//     stream is run twice — once streaming (p99 from the mergeable
//     quantile digest) and once monolithic with full per-job records (p99
//     exact by sorting). The relative delta is reported next to the
//     digest's documented rank-error bound (1/max_centroids, tested at
//     2/max_centroids); windowing is metric-invariant, so any difference
//     is sketch error alone.
//
// All randomness derives from --seed via per-arrival split streams, so
// every number here is byte-identical run to run.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>

#include "treesched/exec/stream_runner.hpp"
#include "treesched/treesched.hpp"
#include "treesched/util/fs.hpp"
#include "treesched/util/mem.hpp"
#include "treesched/util/stopwatch.hpp"

using namespace treesched;
using util::json_num;

int main(int argc, char** argv) {
  util::Cli cli("bench_endurance",
                "Streaming endurance: jobs/s, peak RSS, sketch fidelity.");
  auto& jobs = cli.add_int("jobs", 200000, "endurance-run arrivals");
  auto& exact_jobs = cli.add_int(
      "exact-jobs", 20000, "arrivals for the sketch-vs-exact comparison");
  auto& window = cli.add_int("window", 4096, "engine window quantum");
  auto& load = cli.add_double("load", 0.7, "root-cut utilization target");
  auto& eps = cli.add_double("eps", 0.5, "epsilon for the paper rule");
  auto& seed = cli.add_int("seed", 1, "stream seed");
  auto& record = cli.add_string(
      "record-out", "", "also write a segmented run log (manifest path)");
  auto& json_path = cli.add_string("json", "", "machine-readable results file");
  cli.parse(argc, argv);

  try {
    auto tree = std::make_shared<const Tree>(builders::fat_tree(2, 2, 2));
    const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, eps);

    exec::StreamRunnerConfig scfg;
    scfg.stream.seed = static_cast<std::uint64_t>(seed);
    scfg.stream.sizes.dist = workload::SizeDistribution::kBoundedPareto;
    scfg.stream.lambda = workload::arrival_rate_for_load(
        static_cast<int>(tree->root_children().size()),
        scfg.stream.sizes.mean(), load);
    scfg.total_jobs = static_cast<std::uint64_t>(jobs);
    scfg.window = static_cast<std::size_t>(window);
    scfg.eps = eps;
    scfg.record_path = record;

    std::cout << "E22 — streaming endurance (" << jobs << " arrivals, window "
              << window << ", load " << load << ")\n\n";

    util::Stopwatch watch;
    const exec::StreamRunnerResult big = exec::run_stream(tree, speeds, scfg);
    const double wall = watch.elapsed_seconds();
    const double rate = wall > 0.0 ? static_cast<double>(big.arrivals) / wall
                                   : 0.0;
    const std::uint64_t rss = util::peak_rss_bytes();

    std::cout << "arrivals           : " << big.arrivals << '\n'
              << "wall seconds       : " << wall << '\n'
              << "jobs / second      : " << rate << '\n'
              << "peak rss           : " << rss / (1024 * 1024) << " MB\n"
              << "max window         : " << big.max_window << '\n'
              << "segments written   : " << big.segments_written << '\n'
              << "p99 flow (digest)  : " << big.acc.flow_digest.quantile(0.99)
              << '\n'
              << "p99 flow (marker)  : " << big.acc.p99_marker.estimate()
              << "\n\n";

    // Supervision hot-path tax: the SAME endurance stream with watchdog +
    // governor armed at ceilings that never fire, against an unguarded run
    // of the identical config. Both drop the segmented log so the pair
    // isolates the per-arrival guard bookkeeping (watchdog progress,
    // pressure sampling) from recording I/O. The chaos-supervision CI leg
    // gates guard_overhead_frac at <= 3%.
    exec::StreamRunnerConfig plain_cfg = scfg;
    plain_cfg.record_path.clear();
    util::Stopwatch plain_watch;
    const exec::StreamRunnerResult plain =
        exec::run_stream(tree, speeds, plain_cfg);
    const double plain_wall = plain_watch.elapsed_seconds();
    const double rate_plain =
        plain_wall > 0.0 ? static_cast<double>(plain.arrivals) / plain_wall
                         : 0.0;

    exec::StreamRunnerConfig guard_cfg = plain_cfg;
    guard_cfg.guard.watchdog.window_deadline_s = 3600.0;
    guard_cfg.guard.governor.rss_ceiling_bytes = std::uint64_t{1} << 50;
    guard_cfg.guard.governor.queue_ceiling = std::size_t{1} << 40;
    guard_cfg.guard.governor.arena_ceiling = std::size_t{1} << 40;
    util::Stopwatch guard_watch;
    const exec::StreamRunnerResult guarded =
        exec::run_stream(tree, speeds, guard_cfg);
    const double guard_wall = guard_watch.elapsed_seconds();
    const double rate_guarded =
        guard_wall > 0.0 ? static_cast<double>(guarded.arrivals) / guard_wall
                         : 0.0;
    const double overhead_frac =
        rate_plain > 0.0 ? std::max(0.0, 1.0 - rate_guarded / rate_plain)
                         : 0.0;

    std::cout << "guard overhead (" << jobs << " arrivals, armed, idle)\n"
              << "jobs/s unguarded   : " << rate_plain << '\n'
              << "jobs/s guarded     : " << rate_guarded << '\n'
              << "overhead fraction  : " << overhead_frac << "\n\n";

    // Sketch fidelity on a prefix small enough for full per-job records.
    exec::StreamRunnerConfig small_cfg = scfg;
    small_cfg.total_jobs = static_cast<std::uint64_t>(exact_jobs);
    small_cfg.record_path.clear();
    const exec::StreamRunnerResult small =
        exec::run_stream(tree, speeds, small_cfg);
    const double p99_digest = small.acc.flow_digest.quantile(0.99);
    const double p99_marker = small.acc.p99_marker.estimate();

    workload::JobStream stream(scfg.stream);
    workload::StreamCursor cursor;
    std::vector<Job> exact_arrivals;
    exact_arrivals.reserve(static_cast<std::size_t>(exact_jobs));
    for (std::int64_t i = 0; i < exact_jobs; ++i) {
      const workload::StreamJob a = stream.next(cursor);
      exact_arrivals.emplace_back(static_cast<JobId>(i), a.release, a.size);
    }
    const Instance inst(tree, std::move(exact_arrivals),
                        EndpointModel::kIdentical);
    algo::PaperGreedyPolicy policy(eps);
    sim::Engine engine(inst, speeds, sim::EngineConfig{});
    engine.run(policy);
    const double p99_exact = engine.metrics().flow_percentile(0.99);
    const double delta =
        p99_exact > 0.0 ? std::abs(p99_digest - p99_exact) / p99_exact : 0.0;
    const double bound =
        1.0 / static_cast<double>(small.acc.flow_digest.max_centroids());

    std::cout << "sketch fidelity (" << exact_jobs << " arrivals)\n"
              << "p99 exact          : " << p99_exact << '\n'
              << "p99 digest         : " << p99_digest << '\n'
              << "p99 marker         : " << p99_marker << '\n'
              << "relative delta     : " << delta << '\n'
              << "digest rank bound  : " << bound << " (1/max_centroids)\n";

    if (!json_path.empty()) {
      std::ostringstream os;
      os << "{\n"
         << "  \"format\": \"treesched-bench-endurance-v1\",\n"
         << "  \"jobs\": " << big.arrivals << ",\n"
         << "  \"wall_s\": " << json_num(wall) << ",\n"
         << "  \"jobs_per_s\": " << json_num(rate) << ",\n"
         << "  \"peak_rss_bytes\": " << rss << ",\n"
         << "  \"max_window\": " << big.max_window << ",\n"
         << "  \"segments\": " << big.segments_written << ",\n"
         << "  \"jobs_per_s_unguarded\": " << json_num(rate_plain) << ",\n"
         << "  \"jobs_per_s_guarded\": " << json_num(rate_guarded) << ",\n"
         << "  \"guard_overhead_frac\": " << json_num(overhead_frac) << ",\n"
         << "  \"p99_digest\": " << json_num(big.acc.flow_digest.quantile(0.99))
         << ",\n"
         << "  \"p99_marker\": " << json_num(big.acc.p99_marker.estimate())
         << ",\n"
         << "  \"exact_jobs\": " << exact_jobs << ",\n"
         << "  \"p99_exact_small\": " << json_num(p99_exact) << ",\n"
         << "  \"p99_digest_small\": " << json_num(p99_digest) << ",\n"
         << "  \"p99_rel_delta\": " << json_num(delta) << ",\n"
         << "  \"digest_rank_bound\": " << json_num(bound) << "\n"
         << "}\n";
      util::write_file_atomic(json_path, os.str());
      std::cout << "json               : " << json_path << '\n';
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
