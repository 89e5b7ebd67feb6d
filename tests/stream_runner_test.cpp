// Streaming endurance runner (exec/stream_runner.hpp): window invariance,
// agreement with a monolithic engine over the same arrivals, segmented
// run-log audit (accept / tamper-reject / resume), and the kill-and-resume
// differential in-process.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "treesched/algo/policies.hpp"
#include "treesched/core/tree_builders.hpp"
#include "treesched/exec/stream_runner.hpp"
#include "treesched/sim/engine.hpp"
#include "treesched/sim/run_log.hpp"
#include "treesched/sim/runlog_segments.hpp"
#include "treesched/util/csum.hpp"
#include "treesched/workload/stream.hpp"

using namespace treesched;
namespace fs = std::filesystem;

namespace {

std::shared_ptr<const Tree> test_tree() {
  return std::make_shared<const Tree>(builders::fat_tree(2, 2, 2));
}

exec::StreamRunnerConfig base_config(std::uint64_t jobs, std::size_t window) {
  exec::StreamRunnerConfig cfg;
  cfg.stream.seed = 0x5eed;
  cfg.stream.lambda = 0.35;
  cfg.total_jobs = jobs;
  cfg.window = window;
  cfg.segment_cap = 256;
  return cfg;
}

std::string acc_bytes(const sim::StreamAccumulator& acc) {
  std::ostringstream os;
  acc.save(os);
  return os.str();
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// A hand-built segmented log on root -> router 1 -> machine 2, unit speeds:
// each job is (release, size) and lands on machine 2; bursts and
// completions are fed as given, completions in time order.
struct HandBurst {
  NodeId node;
  std::uint64_t job;
  double t0, t1;
};
struct HandDone {
  std::uint64_t job;
  double t;
};

sim::SegmentAuditResult audit_hand_log(
    const std::string& name, const std::vector<std::pair<double, double>>& jobs,
    const std::vector<HandBurst>& bursts, const std::vector<HandDone>& done) {
  const Tree tree = builders::star_of_paths(1, 1);
  EXPECT_EQ(tree.kind(2), NodeKind::kMachine);
  const std::string path = fresh_dir(name) + "/manifest.log";
  sim::SegmentedRunLogWriter w(
      {path, 4096}, tree, std::vector<double>(uidx(tree.node_count()), 1.0),
      sim::NodePolicy::kSjf, 0.0, overload::ShedConfig{});
  w.start_fresh();
  for (std::size_t k = 0; k < jobs.size(); ++k)
    w.on_admit(k, jobs[k].first, 1.0, jobs[k].second, 2);
  for (const HandBurst& b : bursts) {
    sim::Segment seg;
    seg.node = b.node;
    seg.t0 = b.t0;
    seg.t1 = b.t1;
    w.on_burst(seg, b.job);
  }
  util::CompensatedSum flow;
  double makespan = 0.0;
  for (const HandDone& d : done) {
    w.on_done(d.job, d.t);
    flow.add(d.t - jobs[d.job].first);
    makespan = std::max(makespan, d.t);
  }
  w.write_final(jobs.size(), done.size(), 0, 0, flow.value(), makespan);
  return sim::audit_segments(path);
}

bool has_violation(const sim::SegmentAuditResult& a, const std::string& what) {
  for (const auto& v : a.violations)
    if (v.message.find(what) != std::string::npos) return true;
  return false;
}

}  // namespace

TEST(StreamRunnerTest, ResultsAreWindowInvariant) {
  auto tree = test_tree();
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const auto r64 = exec::run_stream(tree, speeds, base_config(800, 64));
  const auto r1k = exec::run_stream(tree, speeds, base_config(800, 1024));
  EXPECT_EQ(r64.arrivals, 800u);
  EXPECT_EQ(acc_bytes(r64.acc), acc_bytes(r1k.acc));
}

TEST(StreamRunnerTest, MatchesMonolithicEngineExactly) {
  auto tree = test_tree();
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const auto cfg = base_config(600, 128);
  const auto streamed = exec::run_stream(tree, speeds, cfg);

  // The same arrivals as one big instance through the ordinary engine.
  workload::JobStream stream(cfg.stream);
  workload::StreamCursor cur;
  std::vector<Job> jobs;
  for (std::uint64_t i = 0; i < cfg.total_jobs; ++i) {
    const workload::StreamJob a = stream.next(cur);
    jobs.emplace_back(static_cast<JobId>(i), a.release, a.size);
  }
  const Instance inst(tree, std::move(jobs), EndpointModel::kIdentical);
  algo::PaperGreedyPolicy policy(cfg.eps);
  sim::Engine engine(inst, speeds, sim::EngineConfig{});
  engine.run(policy);

  EXPECT_EQ(streamed.acc.completed, cfg.total_jobs);
  // Bit-equal objectives: windowing must be invisible in the metrics.
  EXPECT_EQ(streamed.acc.flow.value(), engine.metrics().total_flow_time());
  EXPECT_EQ(streamed.acc.makespan, engine.metrics().makespan());
  EXPECT_EQ(streamed.acc.max_flow, engine.metrics().max_flow_time());
}

TEST(StreamRunnerTest, SegmentedLogPassesAudit) {
  auto tree = test_tree();
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const std::string dir = fresh_dir("stream_seg_ok");
  auto cfg = base_config(500, 128);
  cfg.record_path = dir + "/manifest.log";
  const auto res = exec::run_stream(tree, speeds, cfg);
  EXPECT_GT(res.segments_written, 1u);

  const sim::SegmentAuditResult audit = sim::audit_segments(cfg.record_path);
  EXPECT_TRUE(audit.ok) << (audit.violations.empty()
                                ? "no violations?"
                                : audit.violations.front().message);
  EXPECT_EQ(audit.arrivals, 500u);
  EXPECT_EQ(audit.completed, 500u);
  EXPECT_EQ(audit.segments, res.segments_written);
}

TEST(StreamRunnerTest, AuditRejectsTamperedSegment) {
  auto tree = test_tree();
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const std::string dir = fresh_dir("stream_seg_tamper");
  auto cfg = base_config(400, 128);
  cfg.record_path = dir + "/manifest.log";
  exec::run_stream(tree, speeds, cfg);

  const std::string seg = sim::segment_log_path(cfg.record_path, 0);
  std::string bytes = slurp(seg);
  ASSERT_FALSE(bytes.empty());
  const std::size_t at = bytes.find("seg ");
  ASSERT_NE(at, std::string::npos);
  bytes[at + 4] = bytes[at + 4] == '1' ? '2' : '1';
  std::ofstream(seg, std::ios::binary) << bytes;

  const sim::SegmentAuditResult audit = sim::audit_segments(cfg.record_path);
  EXPECT_FALSE(audit.ok);
  bool saw_fp = false;
  for (const auto& v : audit.violations)
    if (v.message.find("fingerprint") != std::string::npos) saw_fp = true;
  EXPECT_TRUE(saw_fp);
}

TEST(StreamRunnerTest, AuditRejectsDroppedSegment) {
  auto tree = test_tree();
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const std::string dir = fresh_dir("stream_seg_drop");
  auto cfg = base_config(500, 128);
  cfg.record_path = dir + "/manifest.log";
  const auto res = exec::run_stream(tree, speeds, cfg);
  ASSERT_GT(res.segments_written, 2u);

  // Splice segment 1 out of the manifest: the chain over segment 2 no
  // longer extends segment 0's, so the audit must notice the gap.
  std::istringstream in(slurp(cfg.record_path));
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line))
    if (line.find("segment 1 ") != 0) out << line << '\n';
  std::ofstream(cfg.record_path, std::ios::binary) << out.str();

  EXPECT_FALSE(sim::audit_segments(cfg.record_path).ok);
}

TEST(StreamRunnerTest, KillAndResumeIsByteIdentical) {
  auto tree = test_tree();
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);

  // Reference: uninterrupted, but with the same snapshot cadence (each
  // snapshot force-commits a segment, so cadence shapes segment bounds).
  const std::string ref_dir = fresh_dir("stream_resume_ref");
  auto ref_cfg = base_config(900, 128);
  ref_cfg.record_path = ref_dir + "/manifest.log";
  ref_cfg.snapshot_every = 300;
  ref_cfg.snapshot_path = ref_dir + "/snap.bin";
  const auto ref = exec::run_stream(tree, speeds, ref_cfg);
  EXPECT_FALSE(ref.interrupted);
  EXPECT_EQ(ref.snapshots_written, 2u);  // at 300 and 600; not at the end

  // Killed run: dies right after the first snapshot...
  const std::string kill_dir = fresh_dir("stream_resume_kill");
  auto kill_cfg = ref_cfg;
  kill_cfg.record_path = kill_dir + "/manifest.log";
  kill_cfg.snapshot_path = kill_dir + "/snap.bin";
  kill_cfg.die_after_snapshot = 1;
  const auto killed = exec::run_stream(tree, speeds, kill_cfg);
  EXPECT_TRUE(killed.interrupted);
  EXPECT_EQ(killed.arrivals, 300u);

  // ...and the resumed process finishes the stream.
  auto resume_cfg = kill_cfg;
  resume_cfg.die_after_snapshot = 0;
  resume_cfg.resume_snapshot = kill_cfg.snapshot_path;
  const auto resumed = exec::run_stream(tree, speeds, resume_cfg);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.arrivals, 900u);

  // Metrics bits and every run-log byte match the uninterrupted run.
  EXPECT_EQ(acc_bytes(resumed.acc), acc_bytes(ref.acc));
  EXPECT_EQ(slurp(kill_cfg.record_path), slurp(ref_cfg.record_path));
  const sim::SegmentAuditResult audit =
      sim::audit_segments(kill_cfg.record_path);
  EXPECT_TRUE(audit.ok) << (audit.violations.empty()
                                ? "no violations?"
                                : audit.violations.front().message);
  for (std::size_t i = 0; i < audit.segments; ++i)
    EXPECT_EQ(slurp(sim::segment_log_path(kill_cfg.record_path, i)),
              slurp(sim::segment_log_path(ref_cfg.record_path, i)))
        << "segment " << i;
}

TEST(StreamRunnerTest, ResumeRejectsMismatchedSpec) {
  auto tree = test_tree();
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const std::string dir = fresh_dir("stream_resume_bad");
  auto cfg = base_config(400, 128);
  cfg.snapshot_every = 200;
  cfg.snapshot_path = dir + "/snap.bin";
  cfg.die_after_snapshot = 1;
  exec::run_stream(tree, speeds, cfg);

  auto bad = cfg;
  bad.die_after_snapshot = 0;
  bad.resume_snapshot = cfg.snapshot_path;
  bad.stream.lambda = 0.9;  // different arrival process: different run
  EXPECT_THROW(exec::run_stream(tree, speeds, bad), std::invalid_argument);
}

TEST(StreamRunnerTest, SheddingStreamAuditsClean) {
  auto tree = test_tree();
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const std::string dir = fresh_dir("stream_shed");
  auto cfg = base_config(600, 128);
  cfg.stream.lambda = 1.2;  // overload: force shed/reject traffic
  cfg.shed.policy = overload::ShedPolicy::kLargestFirst;
  cfg.shed.queue_cap = 48.0;
  cfg.record_path = dir + "/manifest.log";
  const auto res = exec::run_stream(tree, speeds, cfg);
  EXPECT_EQ(res.acc.completed + res.acc.shed + res.acc.rejected, 600u);
  EXPECT_GT(res.acc.shed + res.acc.rejected, 0u);

  const sim::SegmentAuditResult audit = sim::audit_segments(cfg.record_path);
  EXPECT_TRUE(audit.ok) << (audit.violations.empty()
                                ? "no violations?"
                                : audit.violations.front().message);
}

// --- audit_segments hop accounting ----------------------------------------

// Minimised from run_stream on fat_tree(2,2,2), stream seed split_seed(8,
// 107), rho 0.7, bounded-Pareto sizes, paper policy, eps 0.5: a job is
// preempted on its first hop with 9.3e-5 of 112 units left — under the
// default tolerance — and runs that residue after another job. The hop
// ends when the next hop starts, so the residue is on the current hop.
TEST(SegmentAuditHops, ResidueBelowToleranceStaysOnTheCurrentHop) {
  const auto audit = audit_hand_log(
      "audit_hop_residue", {{0.0, 112.0}, {100.0, 1.0}},
      {{1, 0, 0.0, 111.999907},
       {1, 1, 111.999907, 112.999907},
       {1, 0, 112.999907, 113.0},
       {2, 1, 112.999907, 113.999907},
       {2, 0, 113.999907, 225.999907}},
      {{1, 113.999907}, {0, 225.999907}});
  for (const auto& v : audit.violations)
    ADD_FAILURE() << "segment " << v.segment << ": " << v.message;
  EXPECT_TRUE(audit.ok);
  EXPECT_EQ(audit.completed, 2u);
}

TEST(SegmentAuditHops, RejectsNextHopBeforeTheRequirement) {
  const auto audit = audit_hand_log("audit_hop_early", {{0.0, 2.0}},
                                    {{1, 0, 0.0, 1.0}, {2, 0, 1.0, 3.0}},
                                    {{0, 3.0}});
  EXPECT_TRUE(has_violation(audit, "store-and-forward violated"));
}

TEST(SegmentAuditHops, RejectsWorkBackOnAFinishedHop) {
  const auto audit = audit_hand_log(
      "audit_hop_back", {{0.0, 2.0}},
      {{1, 0, 0.0, 2.0}, {2, 0, 2.0, 3.0}, {1, 0, 3.0, 3.5}}, {});
  EXPECT_TRUE(has_violation(audit, "burst off the job's current hop"));
}

TEST(SegmentAuditHops, RejectsHopStartedBeforeItsData) {
  const auto audit = audit_hand_log("audit_hop_data", {{0.0, 2.0}},
                                    {{1, 0, 0.0, 2.0}, {2, 0, 1.5, 3.5}},
                                    {{0, 3.5}});
  EXPECT_TRUE(has_violation(audit, "hop started before its data arrived"));
}

TEST(SegmentAuditHops, RejectsDoneBeforeTheRequirement) {
  const auto audit = audit_hand_log("audit_hop_done", {{0.0, 2.0}},
                                    {{1, 0, 0.0, 2.0}, {2, 0, 2.0, 3.0}},
                                    {{0, 3.0}});
  EXPECT_TRUE(has_violation(audit, "done before the requirement was met"));
}
