#include "perfbench/trace.h"

#include <algorithm>
#include <optional>

#include "src/base/logging.h"
#include "src/core/op_dispatch.h"
#include "src/runtime/arena_pool.h"

namespace perfbench {

using neocpu::Node;
using neocpu::OpType;
using neocpu::Tensor;

void TimingEngine::ParallelRun(int num_tasks, const std::function<void(int, int)>& fn) {
  task_ms_.assign(static_cast<std::size_t>(num_tasks), 0.0);
  const Clock::time_point begin = Clock::now();
  inner_->ParallelRun(num_tasks, [&](int task, int n) {
    const Clock::time_point t0 = Clock::now();
    fn(task, n);
    task_ms_[static_cast<std::size_t>(task)] = MsBetween(t0, Clock::now());
  });
  const double wall = MsBetween(begin, Clock::now());
  double work = 0.0, slowest = 0.0;
  for (double t : task_ms_) {
    work += t;
    slowest = std::max(slowest, t);
  }
  const double mean = num_tasks > 0 ? work / num_tasks : 0.0;
  ++totals_.regions;
  totals_.region_ms += wall;
  totals_.work_ms += work;
  totals_.join_wait_ms += wall - mean;
  totals_.weighted_imbalance += mean > 0.0 ? slowest / mean * work : 0.0;
}

EngineTotals TimingEngine::Take() {
  const EngineTotals out = totals_;
  totals_ = EngineTotals{};
  return out;
}

const char* FamilyName(Family family) {
  switch (family) {
    case Family::kConvDirect: return "conv_direct";
    case Family::kConvWinograd: return "conv_winograd";
    case Family::kConvIm2col: return "conv_im2col";
    case Family::kConvInt8: return "conv_int8";
    case Family::kLayoutTransform: return "layout_transform";
    case Family::kQdq: return "qdq";
    case Family::kGemm: return "gemm";
    case Family::kMha: return "mha";
    case Family::kPool: return "pool";
    case Family::kOther: return "other";
    case Family::kCount: break;
  }
  return "?";
}

Family FamilyOf(const Node& node) {
  switch (node.type) {
    case OpType::kConv2d:
      switch (node.attrs.kernel) {
        case neocpu::ConvKernelKind::kWinograd: return Family::kConvWinograd;
        case neocpu::ConvKernelKind::kIm2col: return Family::kConvIm2col;
        case neocpu::ConvKernelKind::kNCHWcS8: return Family::kConvInt8;
        case neocpu::ConvKernelKind::kNCHWc:
        case neocpu::ConvKernelKind::kDirectNCHW: return Family::kConvDirect;
      }
      return Family::kConvDirect;
    case OpType::kLayoutTransform: return Family::kLayoutTransform;
    case OpType::kQuantize:
    case OpType::kDequantize: return Family::kQdq;
    case OpType::kDense: return Family::kGemm;
    case OpType::kMultiHeadAttention: return Family::kMha;
    case OpType::kMaxPool:
    case OpType::kAvgPool:
    case OpType::kGlobalAvgPool: return Family::kPool;
    default: return Family::kOther;
  }
}

double NodeFlops(const neocpu::Graph& graph, const Node& node) {
  if (node.type == OpType::kConv2d) {
    return 2.0 * node.attrs.conv.Macs();
  }
  if (node.type == OpType::kDense && node.out_dims.size() == 2) {
    // {m, k} x {k, n} -> {m, n}; k is the data input's row width.
    const std::vector<std::int64_t>& in = graph.node(node.inputs[0]).out_dims;
    return 2.0 * static_cast<double>(node.out_dims[0]) *
           static_cast<double>(node.out_dims[1]) * static_cast<double>(in.back());
  }
  return 0.0;
}

TracedRunResult TracedRun(const neocpu::CompiledModel& model, const Tensor& input,
                          neocpu::ThreadEngine* engine) {
  const neocpu::Graph& graph = model.graph();
  const neocpu::ExecutionPlan* plan =
      model.plan() != nullptr && model.plan()->UsesArena() ? model.plan().get() : nullptr;
  const std::size_t n = static_cast<std::size_t>(graph.num_nodes());

  std::vector<int> remaining(n, 0);
  for (int id = 0; id < graph.num_nodes(); ++id) {
    for (int in : graph.node(id).inputs) {
      ++remaining[static_cast<std::size_t>(in)];
    }
  }
  for (int out : graph.outputs()) {
    ++remaining[static_cast<std::size_t>(out)];
  }
  NEOCPU_CHECK_EQ(graph.outputs().size(), 1u) << "traced models are single-output";

  TracedRunResult result;
  result.node_ms.assign(n, 0.0);
  const Clock::time_point run_begin = Clock::now();
  std::optional<neocpu::ArenaLease> lease;
  float* arena = nullptr;
  if (plan != nullptr) {
    lease.emplace(nullptr, &neocpu::ArenaPool::Global(), plan->arena_bytes);
    arena = lease->data();
  }
  std::vector<Tensor> values(n);
  std::vector<Tensor> node_inputs;
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    const std::size_t uid = static_cast<std::size_t>(id);
    if (node.type == OpType::kInput) {
      values[uid] = input;
      continue;
    }
    if (node.type == OpType::kConstant) {
      values[uid] = node.payload;
      continue;
    }
    node_inputs.clear();
    for (int in : node.inputs) {
      node_inputs.push_back(values[static_cast<std::size_t>(in)]);
    }
    const neocpu::NodePlan* np = plan != nullptr ? &plan->nodes[uid] : nullptr;
    Clock::time_point t0;
    if (np != nullptr && np->placement == neocpu::BufferPlacement::kArena) {
      Tensor out = Tensor::FromExternal(arena + np->offset / sizeof(float), np->dims,
                                        np->layout, np->dtype);
      float* workspace =
          np->workspace_bytes > 0 ? arena + np->workspace_offset / sizeof(float) : nullptr;
      t0 = Clock::now();
      neocpu::ExecuteNodeInto(node, node_inputs, &out, workspace, np->workspace_bytes, engine);
      result.node_ms[uid] = MsBetween(t0, Clock::now());
      values[uid] = std::move(out);
    } else {
      t0 = Clock::now();
      values[uid] = neocpu::ExecuteNode(node, node_inputs, engine);
      result.node_ms[uid] = MsBetween(t0, Clock::now());
    }
    result.node_sum_ms += result.node_ms[uid];
    for (const Tensor& t : node_inputs) {
      result.bytes_moved += static_cast<double>(t.SizeBytes());
    }
    result.bytes_moved += static_cast<double>(values[uid].SizeBytes());
    for (int in : node.inputs) {
      if (--remaining[static_cast<std::size_t>(in)] == 0) {
        values[static_cast<std::size_t>(in)] = Tensor();
      }
    }
  }
  result.output = values[static_cast<std::size_t>(graph.outputs()[0])];
  result.wall_ms = MsBetween(run_begin, Clock::now());
  return result;
}

}  // namespace perfbench
