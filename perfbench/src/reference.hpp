// A fixed reference computation, timed next to every trial so throughput
// can be expressed in units of host speed at that moment.
//
// On a shared host the same trial can take 0.6 s or 0.9 s a minute apart:
// neighbours compete for memory bandwidth and caches. A memory-bound
// kernel timed right after a trial slows down with it, so the ratio of the
// two walls is steady where either wall alone is not. The kernel is this
// benchmark's own code (never the library's), so no change to the program
// under test moves it.
//
// The kernel runs in a child process forked before any thread exists, so
// its memory and allocations stay out of the workload's peak RSS and
// allocation counts.
#pragma once

#include <sys/types.h>

namespace perfbench {

class Reference {
 public:
  /// Forks the child. `threads` copies of the kernel run at once per
  /// measurement, matching the parallelism of the trials it is paired with.
  explicit Reference(int threads);
  /// Closes the request pipe and waits for the child to exit.
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  /// Runs the kernel once in the child; returns its wall time in seconds.
  double measure();

 private:
  pid_t child_ = -1;
  int request_ = -1;   ///< parent -> child: one byte per measurement
  int response_ = -1;  ///< child -> parent: the wall time as a double
};

}  // namespace perfbench
