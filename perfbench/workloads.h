// The benchmark's workloads. Each runs in its own process, in one of three modes:
//   reference — computes the unoptimised graph's output for every pooled input with
//               Executor(&graph).Run (reference kernels, no passes) and saves them;
//   measure   — the untraced run: set-up, the timed window, end-to-end metrics;
//   trace     — the traced run: per-layer metrics from spans around public calls.
#ifndef NEOCPU_PERFBENCH_WORKLOADS_H_
#define NEOCPU_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/bench.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Params params;
  std::string reference_path;
};

// Exit codes: 0 ok; 1 an output check failed (the record is still printed).
int RunReference(const RunArgs& args);
int RunResnet(const RunArgs& args, bool traced);
int RunWire(const RunArgs& args, bool traced);

}  // namespace perfbench

#endif  // NEOCPU_PERFBENCH_WORKLOADS_H_
