// The benchmark's workloads and the report they fill.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;     ///< per-layer run instead of the end-to-end one
  std::string work_dir;   ///< segment, snapshot and span files go here
};

/// What one workload process reports: metrics in emission order, human
/// notes, and the correctness tally. Every check, task and simulated job
/// counts as attempted; failed checks, failed tasks and unfinished jobs
/// count as failed.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void check(bool ok, const std::string& what);
  /// Bulk accounting for tasks or jobs: `attempted` items, `failed` of them
  /// bad. Any failure also makes the run incorrect.
  void tally(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);
  /// A human-readable line, printed at once.
  void note(const std::string& line);

  bool correct() const { return failed_ == 0; }
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  metrics() const {
    return metrics_;
  }
  /// The one-line result object.
  std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

const std::vector<std::string>& workload_names();
/// Runs one workload. Throws std::invalid_argument for an unknown name.
void run_workload(const Options& opts, Report& report);

}  // namespace perfbench
