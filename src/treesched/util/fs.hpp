// Crash-safe file writes for results that must never be half-written.
//
// Sweep JSON, run logs, and fault plans are consumed by other tools (and by
// --resume); a process killed mid-write must leave either the complete old
// file or the complete new file, never a torn one. write_file_atomic writes
// to a sibling temporary, fsyncs it, renames it over the target — rename(2)
// on the same filesystem is atomic — and then fsyncs the parent directory
// so the new entry itself survives power loss.
//
// This is also a failpoint seam (site "fs.atomic", util/failpoint.hpp): the
// durability chaos tests inject ENOSPC, fsync failure, torn writes, and
// single-bit corruption here deterministically.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace treesched::util {

/// Atomically replaces `path` with `content` (tmp + fsync + rename + parent
/// directory fsync). Throws std::runtime_error with a one-line actionable
/// message on any I/O failure; the temporary is unlinked on every error
/// path.
void write_file_atomic(const std::string& path, const std::string& content);

// The durable journal: append_line_durable is the only way a record enters
// an append-only log (sweep checkpoint, segment manifest, guard log,
// quarantine log), and read_journal is the only way one comes back out.
// They share one torn-record rule:
//
//   * an unterminated last line is a torn tail (a crash or lying storage
//     stopped the write mid-record);
//   * before appending, the appender heals a torn tail by ending the
//     fragment with kTornMarker plus a newline, so the new record starts
//     clean and the fragment stays on disk for a post-mortem;
//   * the reader drops the torn tail and every marked fragment, wherever it
//     sits in the file, and hands them back separately;
//   * any other line, however malformed, is returned as a record: an
//     unmarked bad line in mid-file is corruption, and rejecting it is the
//     consumer's job.
//
// Untorn journals carry no marker, so their bytes do not depend on the rule.

/// Ends a healed torn fragment. No complete record may end with it.
inline constexpr const char* kTornMarker = " <torn>";

/// Crash-safe append of one record. `line` must contain no '\n' and must
/// not end with kTornMarker (std::runtime_error otherwise). The heal (when
/// the file ends in a torn tail), the record and its newline go to the
/// kernel in a SINGLE O_APPEND write(2), so concurrent appenders (supervisor
/// + child) never interleave mid-record and a crash can tear at most the
/// final line. The write is fsynced.
///
/// `failpoint_site` (nullable) names a failpoint seam evaluated per call:
/// enospc / fsync-fail throw std::runtime_error loudly; torn-write appends
/// only a newline-less prefix and SUCCEEDS silently (storage lied — exactly
/// the tail the next append must heal); bit-flip corrupts one bit silently.
void append_line_durable(const std::string& path, const std::string& line,
                         const char* failpoint_site = nullptr);

struct JournalRecord {
  std::size_t line = 0;  ///< 1-based line number in the file
  std::string text;      ///< the record, without its newline
};

struct Journal {
  std::vector<JournalRecord> records;  ///< complete records, in file order
  std::vector<std::string> torn;       ///< dropped fragments, marker removed
};

/// Reads a journal under the torn-record rule above. Returns nullopt when
/// the file cannot be opened; throws std::runtime_error on a read error.
std::optional<Journal> read_journal(const std::string& path);

}  // namespace treesched::util
