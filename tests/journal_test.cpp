// The durable journal (util/fs.hpp): one appender, one reader, one
// torn-record rule, exercised on each of its four users — the sweep
// checkpoint, the segment manifest, the guard log and the quarantine log.
// Every user gets the same four cases: a torn tail, a healed fragment in
// mid-file, a `<site>:torn-write` followed by another append, and ENOSPC
// failing loudly.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "treesched/core/tree_builders.hpp"
#include "treesched/exec/snapshot_store.hpp"
#include "treesched/exec/stream_runner.hpp"
#include "treesched/exec/sweep.hpp"
#include "treesched/guard/guard_log.hpp"
#include "treesched/sim/runlog_segments.hpp"
#include "treesched/util/failpoint.hpp"
#include "treesched/util/fs.hpp"

using namespace treesched;
namespace fs = std::filesystem;

namespace {

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

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

std::vector<std::string> lines_of(const std::string& bytes) {
  std::vector<std::string> out;
  std::istringstream is(bytes);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

util::Journal must_read(const std::string& path) {
  const std::optional<util::Journal> j = util::read_journal(path);
  EXPECT_TRUE(j.has_value()) << path;
  return j.value_or(util::Journal{});
}

class JournalTest : public ::testing::Test {
 protected:
  void TearDown() override { util::disarm_failpoints(); }
};

// ------------------------------------------------------------- the rule

TEST_F(JournalTest, ReaderDropsTornTailAndMarkedFragmentsOnly) {
  const std::string path = fresh_dir("journal_rule") + "/j.log";
  spit(path, std::string("a\nfrag") + util::kTornMarker +
                 "\nnot a record but unmarked\n\nb\ntail-without-newline");
  const util::Journal j = must_read(path);
  ASSERT_EQ(j.records.size(), 4u);
  EXPECT_EQ(j.records[0].text, "a");
  EXPECT_EQ(j.records[0].line, 1u);
  EXPECT_EQ(j.records[1].text, "not a record but unmarked");
  EXPECT_EQ(j.records[1].line, 3u);
  EXPECT_EQ(j.records[2].text, "");
  EXPECT_EQ(j.records[3].text, "b");
  EXPECT_EQ(j.records[3].line, 5u);
  EXPECT_EQ(j.torn,
            (std::vector<std::string>{"frag", "tail-without-newline"}));

  EXPECT_FALSE(util::read_journal(path + ".absent").has_value());
}

TEST_F(JournalTest, AppenderHealsWithTheMarkerAndRefusesMarkedRecords) {
  const std::string path = fresh_dir("journal_heal") + "/j.log";
  util::append_line_durable(path, "one");
  spit(path, "one\ntw");
  util::append_line_durable(path, "three");
  EXPECT_EQ(slurp(path), std::string("one\ntw") + util::kTornMarker +
                             "\nthree\n");
  const util::Journal j = must_read(path);
  ASSERT_EQ(j.records.size(), 2u);
  EXPECT_EQ(j.records[1].text, "three");
  EXPECT_EQ(j.records[1].line, 3u);
  EXPECT_EQ(j.torn, std::vector<std::string>{"tw"});

  EXPECT_THROW(util::append_line_durable(
                   path, std::string("x") + util::kTornMarker),
               std::runtime_error);
}

// ------------------------------------------------------ sweep checkpoint

exec::SweepSpec six_task_spec() {
  exec::SweepSpec spec;
  spec.policies = {"fault-greedy"};
  spec.trees = {"star-2x3"};
  spec.eps_grid = {0.5};
  spec.fault_rates = {0.0, 0.02};
  spec.seeds = 3;
  spec.base_seed = 5;
  spec.jobs = 30;
  spec.threads = 1;
  return spec;
}

struct SweepFixture {
  exec::SweepSpec spec;
  std::string baseline_json;
  std::vector<std::string> journal;  ///< header, fingerprint, 6 task lines
};

SweepFixture journaled_sweep(const std::string& name) {
  SweepFixture f;
  f.spec = six_task_spec();
  f.baseline_json = exec::sweep_json(exec::run_sweep(f.spec), false);
  f.spec.checkpoint = fresh_dir(name) + "/sweep.ckpt";
  exec::run_sweep(f.spec);
  f.journal = lines_of(slurp(f.spec.checkpoint));
  EXPECT_EQ(f.journal.size(), 2u + 6u);
  return f;
}

exec::SweepResult resume(const SweepFixture& f) {
  exec::SweepSpec spec = f.spec;
  spec.resume = true;
  return exec::run_sweep(spec);
}

TEST_F(JournalTest, CheckpointTornTailIsDroppedOnResume) {
  const SweepFixture f = journaled_sweep("journal_ckpt_tail");
  std::string bytes;
  for (std::size_t i = 0; i < 2 + 5; ++i) bytes += f.journal[i] + '\n';
  bytes += f.journal[7].substr(0, 12);  // torn sixth task
  spit(f.spec.checkpoint, bytes);
  const exec::SweepResult r = resume(f);
  EXPECT_EQ(r.resumed, 5u);
  EXPECT_EQ(exec::sweep_json(r, false), f.baseline_json);
}

// Regression: the resumed run used to append onto the unhealed torn tail,
// and every later --resume stopped at the spliced line (2 of 6 tasks).
TEST_F(JournalTest, CheckpointTornOnceThenResumedTwiceResumesEveryTask) {
  const SweepFixture f = journaled_sweep("journal_ckpt_twice");
  std::string bytes;
  for (std::size_t i = 0; i < 2 + 2; ++i) bytes += f.journal[i] + '\n';
  bytes += f.journal[4].substr(0, 12);  // torn third task
  spit(f.spec.checkpoint, bytes);

  const exec::SweepResult first = resume(f);
  EXPECT_EQ(first.resumed, 2u);
  EXPECT_EQ(exec::sweep_json(first, false), f.baseline_json);
  const exec::SweepResult second = resume(f);
  EXPECT_EQ(second.resumed, 6u);
  EXPECT_EQ(exec::sweep_json(second, false), f.baseline_json);
  // The healed fragment stays on disk, marked, between the old records and
  // the ones the first resume appended.
  EXPECT_EQ(must_read(f.spec.checkpoint).torn.size(), 1u);
}

TEST_F(JournalTest, CheckpointTornWriteThenAppendLosesOnlyThatTask) {
  SweepFixture f = journaled_sweep("journal_ckpt_fp");
  fs::remove(f.spec.checkpoint);
  {
    util::ScopedFailpoints armed("checkpoint.append:torn-write:2");
    const exec::SweepResult r = exec::run_sweep(f.spec);
    EXPECT_EQ(exec::sweep_json(r, false), f.baseline_json);
  }
  EXPECT_NE(slurp(f.spec.checkpoint).find(util::kTornMarker),
            std::string::npos);
  const exec::SweepResult r = resume(f);
  EXPECT_EQ(r.resumed, 5u);
  EXPECT_EQ(exec::sweep_json(r, false), f.baseline_json);
}

TEST_F(JournalTest, CheckpointUnmarkedCorruptLineIsRejected) {
  const SweepFixture f = journaled_sweep("journal_ckpt_corrupt");
  std::string bytes;
  for (std::size_t i = 0; i < f.journal.size(); ++i)
    bytes += (i == 3 ? std::string("task 1 garbage") : f.journal[i]) + '\n';
  spit(f.spec.checkpoint, bytes);
  EXPECT_THROW(resume(f), std::invalid_argument);
}

TEST_F(JournalTest, CheckpointEnospcFailsTheTaskLoudly) {
  exec::SweepSpec spec = six_task_spec();
  spec.checkpoint = fresh_dir("journal_ckpt_enospc") + "/sweep.ckpt";
  util::ScopedFailpoints armed("checkpoint.append:enospc:1");
  const exec::SweepResult r = exec::run_sweep(spec);
  EXPECT_EQ(r.tasks[0].status, exec::TaskStatus::kFailed);
  EXPECT_NE(r.tasks[0].error.find("No space left"), std::string::npos)
      << r.tasks[0].error;
  EXPECT_EQ(r.tasks[1].status, exec::TaskStatus::kOk);
}

// ------------------------------------------------------- segment manifest

std::shared_ptr<const Tree> stream_tree() {
  return std::make_shared<const Tree>(builders::fat_tree(2, 2, 2));
}

exec::StreamRunnerConfig stream_config(const std::string& dir) {
  exec::StreamRunnerConfig cfg;
  cfg.stream.seed = 0x5eed;
  cfg.stream.lambda = 0.35;
  cfg.total_jobs = 500;
  cfg.window = 128;
  cfg.segment_cap = 256;
  cfg.record_path = dir + "/manifest.log";
  return cfg;
}

exec::StreamRunnerResult run(const exec::StreamRunnerConfig& cfg) {
  return exec::run_stream(stream_tree(),
                          SpeedProfile::paper_identical(*stream_tree(), 0.5),
                          cfg);
}

std::string first_violation(const sim::SegmentAuditResult& a) {
  return a.violations.empty() ? "none" : a.violations.front().message;
}

TEST_F(JournalTest, ManifestTornTailIsDropped) {
  const auto cfg = stream_config(fresh_dir("journal_man_tail"));
  run(cfg);
  spit(cfg.record_path, slurp(cfg.record_path) + "segment 99 1");
  const auto audit = sim::audit_segments(cfg.record_path);
  EXPECT_TRUE(audit.ok) << first_violation(audit);
}

TEST_F(JournalTest, ManifestHealedFragmentInMidFileIsDropped) {
  const auto cfg = stream_config(fresh_dir("journal_man_mid"));
  const auto res = run(cfg);
  ASSERT_GT(res.segments_written, 2u);
  const std::vector<std::string> lines = lines_of(slurp(cfg.record_path));
  // Replay the manifest with a crash-torn copy of the segment-1 entry
  // ahead of the real one; the next append heals it.
  std::string head;
  std::size_t i = 0;
  for (; lines[i].rfind("segment 1 ", 0) != 0; ++i) head += lines[i] + '\n';
  spit(cfg.record_path, head + lines[i].substr(0, 14));
  for (; i < lines.size(); ++i)
    util::append_line_durable(cfg.record_path, lines[i]);
  EXPECT_EQ(must_read(cfg.record_path).torn.size(), 1u);
  const auto audit = sim::audit_segments(cfg.record_path);
  EXPECT_TRUE(audit.ok) << first_violation(audit);
  EXPECT_EQ(audit.segments, res.segments_written);
}

TEST_F(JournalTest, ManifestTornWriteThenAppendIsCaughtAsAChainGap) {
  const auto cfg = stream_config(fresh_dir("journal_man_fp"));
  {
    util::ScopedFailpoints armed("manifest.append:torn-write:1");
    run(cfg);
  }
  EXPECT_EQ(must_read(cfg.record_path).torn.size(), 1u);
  // The lost entry is a gap the audit must name, not a line it trips on.
  const auto audit = sim::audit_segments(cfg.record_path);
  EXPECT_FALSE(audit.ok);
  EXPECT_NE(first_violation(audit).find("segment 1 "), std::string::npos)
      << first_violation(audit);
}

TEST_F(JournalTest, ManifestUnmarkedCorruptLineIsRejected) {
  const auto cfg = stream_config(fresh_dir("journal_man_corrupt"));
  run(cfg);
  std::string bytes;
  for (const std::string& line : lines_of(slurp(cfg.record_path)))
    bytes += (line.rfind("segment 1 ", 0) == 0 ? "segment 1 x" : line) + '\n';
  spit(cfg.record_path, bytes);
  EXPECT_FALSE(sim::audit_segments(cfg.record_path).ok);
}

TEST_F(JournalTest, ManifestEnospcFailsTheRunLoudly) {
  const auto cfg = stream_config(fresh_dir("journal_man_enospc"));
  util::ScopedFailpoints armed("manifest.append:enospc:2");
  EXPECT_THROW(run(cfg), std::runtime_error);
}

// -------------------------------------------------------------- guard log

void write_clean_guard_log(const std::string& path) {
  guard::GuardLogWriter w(path);
  w.supervisor(0.0, "start pid 1");
  w.supervisor(1.0, "exit code 1");
}

TEST_F(JournalTest, GuardLogTornTailIsDroppedAndCounted) {
  const std::string path = fresh_dir("journal_guard_tail") + "/g.log";
  write_clean_guard_log(path);
  spit(path, slurp(path) + "guard 2.0 supervisor bac");
  const auto res = guard::audit_guard_log(path);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.supervisor_events, 2u);
  EXPECT_EQ(res.torn_records, 1u);
}

TEST_F(JournalTest, GuardLogHealedFragmentInMidFileIsDroppedAndCounted) {
  const std::string path = fresh_dir("journal_guard_mid") + "/g.log";
  write_clean_guard_log(path);
  spit(path, slurp(path) + "guard 2.0 watchdog log stal");
  guard::GuardLogWriter(path).supervisor(3.0, "done");
  const auto res = guard::audit_guard_log(path);
  for (const auto& v : res.violations)
    ADD_FAILURE() << "line " << v.line << ": " << v.message;
  EXPECT_EQ(res.supervisor_events, 3u);
  EXPECT_EQ(res.watchdog_events, 0u);
  EXPECT_EQ(res.torn_records, 1u);
}

// Regression: the appender healed the torn record into a line of its own,
// and the audit then failed the log ("malformed watchdog line").
TEST_F(JournalTest, GuardLogTornByFailpointThenAppendedToStillAudits) {
  const std::string path = fresh_dir("journal_guard_fp") + "/g.log";
  guard::GuardLogWriter w(path);
  guard::GovernorConfig gov;
  gov.arena_ceiling = 10;
  w.ceiling(gov, 1.0);
  {
    util::ScopedFailpoints armed("guard.append:torn-write:1");
    w.watchdog(2.0, "log", 1.5, 7);
  }
  w.watchdog(4.0, "log", 1.5, 7);
  w.supervisor(5.0, "done");
  const auto res = guard::audit_guard_log(path);
  for (const auto& v : res.violations)
    ADD_FAILURE() << "line " << v.line << ": " << v.message;
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.watchdog_events, 1u);
  EXPECT_EQ(res.torn_records, 1u);
}

TEST_F(JournalTest, GuardLogEnospcThrows) {
  const std::string path = fresh_dir("journal_guard_enospc") + "/g.log";
  guard::GuardLogWriter w(path);
  util::ScopedFailpoints armed("guard.append:enospc:1");
  EXPECT_THROW(w.supervisor(0.0, "start pid 1"), std::runtime_error);
  EXPECT_EQ(slurp(path), "treesched-guardlog-v1\n");
}

// --------------------------------------------------------- quarantine log

struct QuarantineFixture {
  exec::SnapshotStore store;

  explicit QuarantineFixture(const std::string& name)
      : store(fresh_dir(name) + "/snap", 3) {
    for (std::uint64_t p = 1; p <= 3; ++p)
      store.write(p, exec::encode_snapshot_envelope({{"n", "x\n"}}));
  }

  void quarantine(std::size_t newest_first, const std::string& why) {
    store.quarantine(store.generations()[newest_first], why);
  }
  std::string log() const { return store.quarantine_log_path(); }
};

TEST_F(JournalTest, QuarantineLogTornTailIsDropped) {
  QuarantineFixture q("journal_quar_tail");
  q.quarantine(0, "first damage");
  spit(q.log(), slurp(q.log()) + "quarantined gen 1 prog");
  const util::Journal j = must_read(q.log());
  ASSERT_EQ(j.records.size(), 1u);
  EXPECT_NE(j.records[0].text.find("first damage"), std::string::npos);
  EXPECT_EQ(j.torn.size(), 1u);
}

TEST_F(JournalTest, QuarantineLogHealedFragmentInMidFileIsDropped) {
  QuarantineFixture q("journal_quar_mid");
  q.quarantine(0, "first damage");
  spit(q.log(), slurp(q.log()) + "quarantined gen 1 prog");
  q.quarantine(1, "second damage");
  const util::Journal j = must_read(q.log());
  ASSERT_EQ(j.records.size(), 2u);
  EXPECT_NE(j.records[1].text.find("second damage"), std::string::npos);
  EXPECT_EQ(j.records[1].line, 3u);
  EXPECT_EQ(j.torn.size(), 1u);
}

TEST_F(JournalTest, QuarantineLogTornWriteThenAppend) {
  QuarantineFixture q("journal_quar_fp");
  {
    util::ScopedFailpoints armed("quarantine.append:torn-write:1");
    q.quarantine(0, "first damage");
  }
  q.quarantine(1, "second damage");
  const util::Journal j = must_read(q.log());
  ASSERT_EQ(j.records.size(), 1u);
  EXPECT_NE(j.records[0].text.find("second damage"), std::string::npos);
  EXPECT_EQ(j.torn.size(), 1u);
}

TEST_F(JournalTest, QuarantineLogEnospcWarnsButStillQuarantines) {
  QuarantineFixture q("journal_quar_enospc");
  const auto gen = q.store.generations()[0];
  util::ScopedFailpoints armed("quarantine.append:enospc:1");
  testing::internal::CaptureStderr();
  q.store.quarantine(gen, "damage");
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("cannot append to quarantine report"), std::string::npos)
      << err;
  EXPECT_TRUE(fs::exists(gen.path + ".quarantined"));
  EXPECT_FALSE(fs::exists(q.log()));
}

}  // namespace
