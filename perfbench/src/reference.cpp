#include "reference.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

constexpr std::size_t kKernelDoubles = std::size_t{1} << 21;  // 16 MiB

/// Each thread copies the same seeded array and sorts its copy.
double run_kernel(const std::vector<double>& base, int threads) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int k = 0; k < threads; ++k)
    pool.emplace_back([&base] {
      std::vector<double> v = base;
      std::sort(v.begin(), v.end());
    });
  for (std::thread& t : pool) t.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

[[noreturn]] void child_loop(int request, int response, int threads) {
  try {
    std::mt19937_64 gen(0x5eed);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::vector<double> base(kKernelDoubles);
    for (double& x : base) x = u(gen);
    char b = 0;
    while (read(request, &b, 1) == 1) {
      const double t = run_kernel(base, threads);
      if (write(response, &t, sizeof t) != static_cast<ssize_t>(sizeof t))
        _exit(1);
    }
    _exit(0);
  } catch (...) {
    _exit(1);
  }
}

}  // namespace

Reference::Reference(int threads) {
  int req[2], resp[2];
  if (pipe(req) != 0) throw std::runtime_error("reference: pipe failed");
  if (pipe(resp) != 0) {
    close(req[0]);
    close(req[1]);
    throw std::runtime_error("reference: pipe failed");
  }
  std::fflush(nullptr);  // the child must not flush the parent's buffers
  child_ = fork();
  if (child_ < 0) {
    for (const int fd : {req[0], req[1], resp[0], resp[1]}) close(fd);
    throw std::runtime_error("reference: fork failed");
  }
  if (child_ == 0) {
    close(req[1]);
    close(resp[0]);
    child_loop(req[0], resp[1], threads);
  }
  close(req[0]);
  close(resp[1]);
  request_ = req[1];
  response_ = resp[0];
}

Reference::~Reference() {
  close(request_);  // EOF ends the child's loop
  close(response_);
  int status = 0;
  while (waitpid(child_, &status, 0) < 0 && errno == EINTR) {
  }
}

double Reference::measure() {
  const char b = 1;
  if (write(request_, &b, 1) != 1)
    throw std::runtime_error("reference: child not reachable");
  double t = 0.0;
  auto* p = reinterpret_cast<char*>(&t);
  std::size_t got = 0;
  while (got < sizeof t) {
    const ssize_t n = read(response_, p + got, sizeof t - got);
    if (n <= 0) throw std::runtime_error("reference: child died");
    got += static_cast<std::size_t>(n);
  }
  return t;
}

}  // namespace perfbench
