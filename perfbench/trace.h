// Layer-by-layer tracing from outside the library: every span is taken around a call
// into a public entry point, so src/ carries no benchmark hooks.
//
//  * TimingEngine wraps a ThreadEngine and times each ParallelRun (a fork-join region)
//    and each task inside it: regions per run, time outside regions, join wait and
//    work-weighted imbalance.
//  * TracedRun replays Executor::Run's loop over a compiled model's executable graph,
//    calling ExecuteNodeInto / ExecuteNode per node in topological order on the same
//    planned arena offsets, and times each call.
#ifndef NEOCPU_PERFBENCH_TRACE_H_
#define NEOCPU_PERFBENCH_TRACE_H_

#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/core/compiler.h"
#include "src/runtime/thread_engine.h"

namespace perfbench {

struct EngineTotals {
  std::uint64_t regions = 0;
  double region_ms = 0.0;     // wall time inside ParallelRun calls
  double join_wait_ms = 0.0;  // per region: wall minus the mean task time
  double work_ms = 0.0;       // summed task time
  double weighted_imbalance = 0.0;  // sum over regions of (max/mean task) * region work
};

class TimingEngine final : public neocpu::ThreadEngine {
 public:
  explicit TimingEngine(neocpu::ThreadEngine* inner) : inner_(inner) {}

  void ParallelRun(int num_tasks, const std::function<void(int, int)>& fn) override;
  int NumWorkers() const override { return inner_->NumWorkers(); }
  const char* Name() const override { return inner_->Name(); }

  // Totals since the last call; resets them. Not thread-safe: one caller at a time.
  EngineTotals Take();

 private:
  neocpu::ThreadEngine* inner_;
  EngineTotals totals_;
  std::vector<double> task_ms_;
};

// Op families the per-layer metrics are reported by.
enum class Family {
  kConvDirect,
  kConvWinograd,
  kConvIm2col,
  kConvInt8,
  kLayoutTransform,
  kQdq,
  kGemm,
  kMha,
  kPool,
  kOther,
  kCount,
};
const char* FamilyName(Family family);
Family FamilyOf(const neocpu::Node& node);
// Useful arithmetic of one execution: 2 * MACs for conv (direct-equivalent, also for
// Winograd) and dense; 0 for every other op.
double NodeFlops(const neocpu::Graph& graph, const neocpu::Node& node);

struct TracedRunResult {
  std::vector<double> node_ms;  // per node id; 0 for inputs and constants
  double wall_ms = 0.0;         // whole replay
  double node_sum_ms = 0.0;     // sum of the timed node calls
  double bytes_moved = 0.0;     // sum over nodes of input + output tensor bytes
  neocpu::Tensor output;
};

// One traced inference. The model must be single-input single-output.
TracedRunResult TracedRun(const neocpu::CompiledModel& model, const neocpu::Tensor& input,
                          neocpu::ThreadEngine* engine);

}  // namespace perfbench

#endif  // NEOCPU_PERFBENCH_TRACE_H_
