// Fixed reference kernel for host-speed normalization.
//
// Host time on a shared machine drifts by tens of percent between runs,
// and on each CPU separately, as neighbours press on the caches and memory
// bandwidth the simulator's pointer-heavy work depends on.  The kernel
// faults in and unmaps a fixed 8 MiB (zeroing pages is bound by the same
// memory system); it runs in a helper process pinned to the measured CPU
// and is timed between ops.  Every host-time metric is scaled by
// (kRefNominalSeconds / kernel time)^kRefExponent, with the kernel time
// measured around it, so a slower host reads about the same.  Across runs
// on a shared 4-CPU host this cut the spread of a workload's host time
// 2-4-fold; kernels of dependent loads over L2-, L3- or DRAM-sized
// buffers, of memset, of hash-map and set-associative lookups, and of ALU
// work tracked the drift worse.
#pragma once

#include <cmath>

namespace perfbench {

// Median kernel time on an idle 4-CPU x86-64 host (Release build): one
// reference second is the time that host needs for one host second's work.
inline constexpr double kRefNominalSeconds = 4.5e-3;

// Under the same contention the simulator's host time rises more steeply
// than the kernel's.  Over ten runs of each workload, the exponent that
// gave wall_s the least run-to-run spread was 1.6 (latency_sweep), 1.7-1.8
// (bandwidth_sim, coherence_replay) and 2.0 (observed_sweep); 1.7 is within
// a tenth of the least spread on each.  (A regression of log op time on
// log kernel time reads about 1.3, biased low by the kernel's own noise.)
inline constexpr double kRefExponent = 1.7;

// Host seconds in reference seconds, given the kernel time measured
// around them.
inline double to_reference(double host_s, double kernel_s) {
  return host_s * std::pow(kRefNominalSeconds / kernel_s, kRefExponent);
}

// Runs the kernel once and returns its wall time in seconds.
double run_ref_kernel();

// Runs the kernel in a helper process forked at construction, so the memory
// state the measured library leaves behind in this process cannot change
// the kernel's time.  Requests are synchronous: nothing else runs while the
// kernel does.  The destructor stops the helper and waits for it.
class RefKernelProcess {
 public:
  RefKernelProcess();
  ~RefKernelProcess();
  RefKernelProcess(const RefKernelProcess&) = delete;
  RefKernelProcess& operator=(const RefKernelProcess&) = delete;

  // Kernel seconds; falls back to an in-process run if the helper is gone.
  double run();
  // Pins the helper to one CPU; false if there is no helper or it failed.
  bool pin(int cpu);

 private:
  int to_helper_ = -1;
  int from_helper_ = -1;
  int pid_ = -1;
};

}  // namespace perfbench
