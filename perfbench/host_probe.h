// Host fingerprint and a measured roofline: the FMA-throughput and STREAM-triad probes
// that the *_peak_frac metrics divide by, the kernel tiers the library dispatched to,
// CPU steal over a window, and the process's peak resident set.
#ifndef NEOCPU_PERFBENCH_HOST_PROBE_H_
#define NEOCPU_PERFBENCH_HOST_PROBE_H_

#include <cstdint>

#include "perfbench/bench.h"

namespace perfbench {

// Peak fp32 FMA throughput of `threads` threads running concurrently, in GFLOP/s
// (2 flops per lane per FMA), using the widest vector ISA the CPU reports. Run it
// while no thread pool of the process is alive: idle pool workers spin and yield, and
// take a share of the cores the probe is measuring. Probe threads unpin themselves.
double ProbeFmaGflops(int threads, double seconds);

// STREAM-style triad a[i] = b[i] + s * c[i] over three 64 MiB arrays, split across
// `threads`; best of `reps` passes, counting 3 streams of bytes per element (GB/s).
double ProbeStreamGbps(int threads, int reps);

// Cumulative CPU ticks from /proc/stat (all CPUs): total and steal. Zero when the
// file cannot be read.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

// Peak resident set of this process so far, in MB (getrusage).
double PeakRssMb();

// Writes nproc, CPU brand, the runtime kernel tiers and the steal share between
// `before` and now into the record's info section.
void RecordFingerprint(Record* record, const CpuTicks& before);

}  // namespace perfbench

#endif  // NEOCPU_PERFBENCH_HOST_PROBE_H_
