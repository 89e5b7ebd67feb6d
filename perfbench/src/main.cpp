// perfbench: one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Prints human-readable notes, then the result object as the last line of
// stdout. Exit status: 0 when every check passed, 1 when a check failed
// (the result is still printed, with "correct": false), 2 on usage errors
// or an exception (no result printed).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\nworkloads:",
               why.c_str());
  for (const std::string& w : perfbench::workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.work_dir.empty()) usage("--work-dir is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");

  // A dead reference child must surface as an error, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  perfbench::Report report;
  try {
    std::printf("%s seed %llu, %s run, %g s\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed),
                o.trace ? "traced per-layer" : "end-to-end", o.seconds);
    perfbench::run_workload(o, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 2;
  }
  for (const auto& [name, vu] : report.metrics())
    std::printf("  %-28s %.6g %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  std::printf("%s\n", report.json().c_str());
  return report.correct() ? 0 : 1;
}
