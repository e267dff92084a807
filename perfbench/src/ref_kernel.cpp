#include "ref_kernel.h"

#include <sched.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace perfbench {
namespace {

constexpr std::size_t kBytes = std::size_t{8} << 20;  // 2048 fresh pages
constexpr std::size_t kPage = 4096;

volatile unsigned char g_sink = 0;

// Maps 8 MiB, faults in every page and unmaps it.
void fault_in() {
  void* fresh = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (fresh == MAP_FAILED) return;
  auto* bytes = static_cast<unsigned char*>(fresh);
  for (std::size_t off = 0; off < kBytes; off += kPage) {
    bytes[off] = static_cast<unsigned char>(off >> 12);
  }
  g_sink = bytes[kBytes / 2];
  munmap(fresh, kBytes);
}

}  // namespace

double run_ref_kernel() {
  // An untimed first round leaves the page allocator in the same state for
  // the timed one whatever ran before.
  fault_in();
  const auto start = std::chrono::steady_clock::now();
  fault_in();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

RefKernelProcess::RefKernelProcess() {
  int request[2];
  int reply[2];
  if (pipe(request) != 0) return;
  if (pipe(reply) != 0) {
    close(request[0]);
    close(request[1]);
    return;
  }
  const pid_t pid = fork();
  if (pid == 0) {
    close(request[1]);
    close(reply[0]);
    const char ready = 'r';
    if (write(reply[1], &ready, 1) != 1) _exit(1);
    char command = 0;
    while (read(request[0], &command, 1) == 1) {
      const double seconds = run_ref_kernel();
      if (write(reply[1], &seconds, sizeof seconds) != sizeof seconds) break;
    }
    _exit(0);
  }
  close(request[0]);
  close(reply[1]);
  if (pid < 0) {
    close(request[1]);
    close(reply[0]);
    return;
  }
  pid_ = pid;
  to_helper_ = request[1];
  from_helper_ = reply[0];
  char ready = 0;
  if (read(from_helper_, &ready, 1) != 1) {
    close(to_helper_);
    close(from_helper_);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
}

RefKernelProcess::~RefKernelProcess() {
  if (pid_ < 0) return;
  close(to_helper_);  // EOF ends the helper's loop
  close(from_helper_);
  int status = 0;
  waitpid(pid_, &status, 0);
}

double RefKernelProcess::run() {
  const char command = 'k';
  double seconds = 0.0;
  if (pid_ >= 0 && write(to_helper_, &command, 1) == 1 &&
      read(from_helper_, &seconds, sizeof seconds) == sizeof seconds) {
    return seconds;
  }
  return run_ref_kernel();
}

bool RefKernelProcess::pin(int cpu) {
  if (pid_ < 0) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(pid_, sizeof one, &one) == 0;
}

}  // namespace perfbench
