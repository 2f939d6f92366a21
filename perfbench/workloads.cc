#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "perfbench/host_probe.h"
#include "perfbench/loadgen.h"
#include "perfbench/trace.h"
#include "src/core/executor.h"
#include "src/core/memory_plan.h"
#include "src/core/presets.h"
#include "src/graph/passes/passes.h"
#include "src/models/model_zoo.h"
#include "src/runtime/thread_pool.h"
#include "src/serve/frontend/frontend_server.h"
#include "src/tuning/cost_model.h"

namespace perfbench {

using neocpu::CompiledModel;
using neocpu::CompileOptions;
using neocpu::Graph;
using neocpu::Tensor;

namespace {

// Layer-sum checks. A traced replay must reproduce the untraced run within
// kRunSumSlack of it plus kSpanCostMs for every span it takes (two clock reads and the
// bookkeeping around each node call and each fork-join region). The frontend's share
// of the wire p50 must agree with its independently measured single-connection cost
// within kFrontendSlackMs + kFrontendSlackFrac * wire p50.
constexpr double kRunSumSlack = 0.10;
constexpr double kSpanCostMs = 0.001;
constexpr double kFrontendSlackMs = 0.05;
constexpr double kFrontendSlackFrac = 0.25;

struct Setup {
  std::string model;
  std::vector<Tensor> inputs;
  Reference reference;
  OutputCheck check;
};

bool LoadSetup(const RunArgs& args, Setup* setup) {
  const Params& p = args.params;
  setup->model = p.Str("model");
  setup->inputs = MakeInputPool(neocpu::ModelInputDims(setup->model), p.Int("inputs"), args.seed);
  setup->check.tolerance = p.Num("tolerance");
  if (!setup->reference.Load(args.reference_path) ||
      setup->reference.outputs.size() != setup->inputs.size()) {
    std::fprintf(stderr, "reference outputs %s missing or stale\n", args.reference_path.c_str());
    return false;
  }
  return true;
}

void RecordParams(const RunArgs& args, Record* rec) {
  rec->Info("workload", args.workload);
  rec->InfoNum("seed", static_cast<double>(args.seed));
  rec->InfoNum("seconds", args.seconds);
  for (const auto& [key, value] : args.params.all()) {
    rec->Info("param." + key, value);
  }
}

// `engine` is the pool the model will run on. In analytic mode the compiler uses it
// only for the quantization calibration pass, which then runs on the workload's threads
// instead of serially: a serial 2 s pass made the int8 set-up follow the host's load
// (1.7-3.7 s) more than the program.
CompileOptions WorkloadCompileOptions(const Params& p, neocpu::ThreadEngine* engine = nullptr) {
  CompileOptions opts = neocpu::NeoCpuOptions(neocpu::Target::Host());
  opts.cost_mode = neocpu::CostMode::kAnalytic;
  opts.quantize = p.Int("quantize") != 0;
  opts.engine = engine;
  return opts;
}

// The median, over `windows` equal consecutive slices of `ms` (in send order), of each
// slice's `pct` percentile: one stall then moves one slice, not the tail. Also returns
// the smallest number of samples any slice has beyond its percentile.
double WindowedTail(const std::vector<double>& ms, double pct, int windows,
                    std::size_t* min_beyond) {
  std::vector<double> tails;
  *min_beyond = ms.size();
  for (int w = 0; w < windows; ++w) {
    const std::vector<double> slice(ms.begin() + static_cast<std::ptrdiff_t>(ms.size() * w / windows),
                                    ms.begin() + static_cast<std::ptrdiff_t>(ms.size() * (w + 1) / windows));
    tails.push_back(Percentile(slice, pct));
    *min_beyond = std::min(*min_beyond, SamplesBeyond(slice, pct));
  }
  return Median(tails);
}

// Median latency and the named windowed tail.
void RecordLatency(Record* rec, const std::string& prefix, const std::vector<double>& ms,
                   double tail_pct, int windows) {
  std::size_t min_beyond = 0;
  rec->Set(prefix + "latency_p50_ms", Median(ms), "ms");
  rec->Set(prefix + "latency_tail_ms", WindowedTail(ms, tail_pct, windows, &min_beyond), "ms");
  rec->InfoNum(prefix + "latency_tail_pct", tail_pct);
  rec->InfoNum(prefix + "latency_tail_windows", windows);
  rec->InfoNum(prefix + "latency_samples", static_cast<double>(ms.size()));
  rec->InfoNum(prefix + "latency_min_samples_beyond_tail_per_window",
               static_cast<double>(min_beyond));
}

void RecordHost(Record* rec, int width) {
  const double fma = ProbeFmaGflops(width, 0.3);
  rec->Set("host.fma_gflops", fma, "GFLOP/s");
  rec->InfoNum("host.fma_gflops_1thread", ProbeFmaGflops(1, 0.2));
  rec->InfoNum("host.fma_threads", width);
  rec->Set("host.stream_gbps", ProbeStreamGbps(width, 3), "GB/s");
}

// ---- set-up side layers: passes, calibration, search, planning ------------------------

void RecordCompileLayers(const Graph& graph, const CompileOptions& opts,
                         const CompiledModel& model, Record* rec) {
  Clock::time_point t0 = Clock::now();
  const Graph fused = neocpu::FuseOps(neocpu::SimplifyInference(graph));
  rec->Set("graph.passes_ms", MsBetween(t0, Clock::now()), "ms");

  double calibrate_ms = 0.0;
  if (opts.quantize) {
    // The compiler's default calibration: one deterministic synthetic batch through
    // the fused fp32 graph with a range observer, on the compile's engine.
    neocpu::Rng rng(7);
    const Tensor sample = Tensor::Random(fused.node(0).out_dims, rng, 0.0f, 1.0f,
                                         fused.node(0).out_dims.size() == 4
                                             ? neocpu::Layout::NCHW()
                                             : neocpu::Layout::Flat());
    t0 = Clock::now();
    neocpu::CalibrationObserver observer;
    neocpu::Executor exec(&fused, opts.engine);
    exec.SetObserver(&observer);
    exec.Run(sample);
    observer.Finalize(opts.calibration_policy);
    calibrate_ms = MsBetween(t0, Clock::now());
  }
  rec->Set("graph.calibrate_ms", calibrate_ms, "ms");

  const neocpu::CompileStats& s = model.stats();
  rec->Set("core.compile_s", s.compile_seconds, "s");
  rec->Set("tuning.local_search_s", s.tuning_seconds, "s");
  rec->Set("tuning.global_search_s", s.search_seconds, "s");
  rec->Set("graph.quantized_convs", s.num_quantized_convs, "count");
  rec->Set("graph.layout_transforms", s.num_layout_transforms, "count");
  rec->Set("core.arena_bytes", static_cast<double>(s.arena_bytes), "bytes");
  rec->InfoNum("graph.convs", s.num_convs);
  const double lookups = static_cast<double>(s.tuning_cache_hits + s.tuning_cache_misses);
  rec->Set("tuning.cache_hit_rate", lookups > 0 ? s.tuning_cache_hits / lookups : 0.0, "frac");

  std::vector<double> plan_ms;
  for (int i = 0; i < 5; ++i) {
    t0 = Clock::now();
    const neocpu::ExecutionPlan plan = neocpu::PlanMemory(model.graph());
    plan_ms.push_back(MsBetween(t0, Clock::now()));
  }
  rec->Set("core.plan_memory_ms", Median(plan_ms), "ms");
}

// ---- execution side layers: node calls, kernels, fork-join runtime --------------------

struct ExecutionTrace {
  std::vector<std::vector<double>> node_samples;  // [node id][traced run]
  std::vector<double> traced_wall_ms, node_sum_ms, untraced_ms;
  std::vector<double> regions, serial_ms, join_wait_ms, imbalance;
  double bytes_moved = 0.0;
  double allocs_per_run = 0.0;
  double max_rel_err = 0.0;
  std::uint64_t checked = 0, failed = 0;
};

// Alternates untraced Runs and traced replays for `seconds` (at least `min_runs` each),
// so both see the same machine state.
ExecutionTrace TraceExecution(const CompiledModel& model, const std::vector<Tensor>& inputs,
                              const Reference* reference, const OutputCheck& check,
                              neocpu::ThreadEngine* engine, double seconds, int min_runs) {
  TimingEngine timed(engine);
  ExecutionTrace t;
  t.node_samples.resize(static_cast<std::size_t>(model.graph().num_nodes()));
  for (int i = 0; i < 2; ++i) {  // warm arenas and caches on both paths
    model.Run(inputs[0], engine);
    TracedRun(model, inputs[0], &timed);
  }
  timed.Take();
  std::uint64_t allocs = 0;
  const Clock::time_point start = Clock::now();
  for (int i = 0; SecondsSince(start) < seconds || i < min_runs; ++i) {
    const Tensor& x = inputs[static_cast<std::size_t>(i) % inputs.size()];
    const std::uint64_t a0 = neocpu::TensorHeapAllocCount();
    Clock::time_point t0 = Clock::now();
    Tensor y = model.Run(x, engine);
    t.untraced_ms.push_back(MsBetween(t0, Clock::now()));
    allocs += neocpu::TensorHeapAllocCount() - a0;

    TracedRunResult r = TracedRun(model, x, &timed);
    const EngineTotals e = timed.Take();
    for (std::size_t n = 0; n < r.node_ms.size(); ++n) {
      t.node_samples[n].push_back(r.node_ms[n]);
    }
    t.traced_wall_ms.push_back(r.wall_ms);
    t.node_sum_ms.push_back(r.node_sum_ms);
    t.bytes_moved = r.bytes_moved;
    t.regions.push_back(static_cast<double>(e.regions));
    t.serial_ms.push_back(r.wall_ms - e.region_ms);
    t.join_wait_ms.push_back(e.join_wait_ms);
    t.imbalance.push_back(e.work_ms > 0.0 ? e.weighted_imbalance / e.work_ms : 1.0);
    if (reference != nullptr) {
      for (const Tensor* out : {&y, &r.output}) {
        double rel = 0.0;
        ++t.checked;
        if (!check.Pass(*out, reference->outputs[static_cast<std::size_t>(i) % inputs.size()],
                        &rel)) {
          ++t.failed;
        }
        t.max_rel_err = std::max(t.max_rel_err, rel);
      }
    }
  }
  t.allocs_per_run = static_cast<double>(allocs) / static_cast<double>(t.untraced_ms.size());
  return t;
}

void RecordExecutionLayers(const CompiledModel& model, const ExecutionTrace& t,
                           double fma_gflops, Record* rec) {
  const Graph& graph = model.graph();
  const std::size_t families = static_cast<std::size_t>(Family::kCount);
  std::vector<double> ms(families, 0.0), flops(families, 0.0);
  std::vector<double> predicted, measured, ratio;
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const neocpu::Node& node = graph.node(id);
    if (node.type == neocpu::OpType::kInput || node.type == neocpu::OpType::kConstant) {
      continue;
    }
    const double node_ms = Median(t.node_samples[static_cast<std::size_t>(id)]);
    const std::size_t f = static_cast<std::size_t>(FamilyOf(node));
    ms[f] += node_ms;
    flops[f] += NodeFlops(graph, node);
    if (node.IsConv()) {
      const double pred = neocpu::AnalyticConvMs(node.attrs.conv, node.attrs.schedule,
                                                 model.config().target);
      predicted.push_back(pred);
      measured.push_back(node_ms);
      if (pred > 0.0) {
        ratio.push_back(node_ms / pred);
      }
    }
  }
  auto rate = [&](Family f) {
    const std::size_t i = static_cast<std::size_t>(f);
    return ms[i] > 0.0 ? flops[i] / ms[i] / 1e6 : 0.0;  // flops per ms -> GFLOP/s
  };
  for (Family f : {Family::kConvDirect, Family::kConvWinograd, Family::kConvIm2col,
                   Family::kGemm}) {
    const std::string name = std::string("kernels.") + FamilyName(f);
    rec->Set(name + "_ms", ms[static_cast<std::size_t>(f)], "ms");
    rec->Set(name + "_gflops", rate(f), "GFLOP/s");
  }
  rec->Set("kernels.conv_int8_ms", ms[static_cast<std::size_t>(Family::kConvInt8)], "ms");
  rec->Set("kernels.conv_int8_gops", rate(Family::kConvInt8), "GOP/s");
  rec->Set("kernels.conv_direct_peak_frac", fma_gflops > 0 ? rate(Family::kConvDirect) / fma_gflops : 0.0, "frac");
  rec->Set("kernels.gemm_peak_frac", fma_gflops > 0 ? rate(Family::kGemm) / fma_gflops : 0.0, "frac");
  rec->Set("tensor.layout_transform_ms", ms[static_cast<std::size_t>(Family::kLayoutTransform)], "ms");
  rec->Set("kernels.qdq_ms", ms[static_cast<std::size_t>(Family::kQdq)], "ms");
  rec->Set("kernels.mha_ms", ms[static_cast<std::size_t>(Family::kMha)], "ms");
  rec->Set("kernels.pool_ms", ms[static_cast<std::size_t>(Family::kPool)], "ms");
  rec->Set("kernels.other_ms", ms[static_cast<std::size_t>(Family::kOther)], "ms");
  rec->Set("kernels.mb_moved", t.bytes_moved / 1e6, "MB");
  rec->Info("kernels.mb_moved_source", "computed from tensor sizes: inputs + output per node call");
  rec->Info("kernels.gflops_basis", "2*MACs of the direct convolution (also for Winograd) per measured node ms");

  rec->Set("tuning.cost_model_rank_corr", Spearman(predicted, measured), "rho");
  rec->Set("tuning.cost_model_ratio", Median(ratio), "ratio");
  rec->Info("tuning.cost_model_ratio_basis", "median over convs of measured ms / AnalyticConvMs (single-core model)");
  rec->InfoNum("tuning.cost_model_convs", static_cast<double>(predicted.size()));

  const double run_ms = Median(t.untraced_ms);
  const double node_sum = Median(t.node_sum_ms);
  const double traced_wall = Median(t.traced_wall_ms);
  rec->Set("core.run_ms", run_ms, "ms");
  rec->Set("core.dispatch_overhead_ms", run_ms - node_sum, "ms");
  rec->Set("core.heap_allocs_per_run", t.allocs_per_run, "count");
  rec->Set("runtime.parallel_regions", Median(t.regions), "count");
  rec->Set("runtime.serial_ms", Median(t.serial_ms), "ms");
  rec->Set("runtime.join_wait_ms", Median(t.join_wait_ms), "ms");
  rec->Set("runtime.imbalance", Median(t.imbalance), "ratio");
  rec->Set("obs.tracing_overhead_frac", traced_wall / run_ms - 1.0, "frac");
  rec->InfoNum("trace.runs", static_cast<double>(t.untraced_ms.size()));
  // Layer sum: the node calls plus the gaps between them, i.e. the replay's wall time,
  // must reproduce the untraced run.
  int spans = 0;
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const neocpu::OpType type = graph.node(id).type;
    spans += type != neocpu::OpType::kInput && type != neocpu::OpType::kConstant;
  }
  const double off_ms = std::fabs(traced_wall - run_ms);
  const double slack_ms = kRunSumSlack * run_ms + kSpanCostMs * (spans + Median(t.regions));
  rec->InfoNum("check.run_layer_sum_gap_ms", traced_wall - node_sum);
  rec->InfoNum("check.run_layer_sum_off_ms", off_ms);
  rec->InfoNum("check.run_layer_sum_slack_ms", slack_ms);
  rec->Info("check.run_layer_sum", off_ms <= slack_ms ? "pass" : "FAIL");
}

// Comma-separated values, for per-round and per-sample lists in the record.
std::string JoinNumbers(const std::vector<double>& v) {
  std::string out;
  for (double x : v) {
    if (!out.empty()) {
      out += ',';
    }
    out += std::to_string(x);
  }
  return out;
}

std::uint64_t LegSeed(std::uint64_t seed, std::uint64_t leg) {
  return seed * 1000003ull + leg * 7919ull + 17ull;
}

// ---- serving set-up ---------------------------------------------------------------

struct Serving {
  std::unique_ptr<neocpu::InferenceServer> server;
  std::unique_ptr<neocpu::FrontendServer> frontend;
};

neocpu::ServerOptions WireServerOptions(const Params& p) {
  neocpu::ServerOptions o;
  o.num_executors = p.Int("executors");
  o.total_workers = p.Int("total_workers");
  o.bind_threads = p.Int("bind_threads") != 0;
  o.background_retune = true;
  o.batching.max_batch_size = p.Int("max_batch");
  o.batching.max_delay_ms = p.Num("max_delay_ms");
  o.batching.queue_limit = static_cast<std::size_t>(p.Int("queue_limit"));
  return o;
}

// Graph build -> compile -> server and front end up -> every batch variant materialized
// and re-tuned -> a warm-up of a fixed number of requests over the socket, so that the
// set-up time is the program's and not a length the benchmark picks.
bool StartServing(const RunArgs& args, const Setup& setup, Serving* s, CompiledModel* model) {
  const Params& p = args.params;
  const Graph graph = neocpu::BuildModel(setup.model);
  *model = neocpu::Compile(graph, WorkloadCompileOptions(p));
  s->server = std::make_unique<neocpu::InferenceServer>(WireServerOptions(p));
  neocpu::ModelEntry* entry = s->server->RegisterModel(setup.model, *model);
  s->frontend = std::make_unique<neocpu::FrontendServer>(s->server.get());
  if (!s->frontend->Start()) {
    std::fprintf(stderr, "front end failed to start: %s\n", s->frontend->last_error().c_str());
    return false;
  }
  for (int b = 1; b <= p.Int("max_batch"); ++b) {
    entry->VariantFor(b);
  }
  s->server->WaitForRetunes();
  WireLoad warm(s->frontend->port(), setup.model, setup.inputs, setup.reference, setup.check,
                p.Int("connections"));
  if (!warm.Connect()) {
    return false;
  }
  const LegResult r =
      warm.ClosedLoopRequests(static_cast<std::uint64_t>(p.Int("warmup_requests")), 1);
  s->server->WaitForRetunes();
  return r.failed() == 0;
}

void StopServing(Serving* s) {
  if (s->frontend != nullptr) {
    s->frontend->Stop();
  }
  s->frontend.reset();
  s->server.reset();
}

void RecordLeg(Record* rec, const std::string& prefix, const LegResult& r) {
  rec->InfoNum(prefix + ".attempted", static_cast<double>(r.attempted));
  rec->InfoNum(prefix + ".failed", static_cast<double>(r.failed()));
  rec->InfoNum(prefix + ".offered_rps", r.OfferedRps());
  rec->InfoNum(prefix + ".achieved_rps", r.AchievedRps());
  rec->InfoNum(prefix + ".lateness_p99_ms", Percentile(r.lateness_ms, 99.0));
  rec->InfoNum(prefix + ".lateness_growth_ms", r.LatenessGrowthMs());
  rec->InfoNum(prefix + ".p50_ms", Median(r.latency_ms));
  rec->InfoNum(prefix + ".p99_ms", Percentile(r.latency_ms, 99.0));
}

}  // namespace

int RunReference(const RunArgs& args) {
  const std::string model = args.params.Str("model");
  const Graph graph = neocpu::BuildModel(model);
  const std::vector<Tensor> inputs =
      MakeInputPool(neocpu::ModelInputDims(model), args.params.Int("inputs"), args.seed);
  const int width = std::max(1u, std::thread::hardware_concurrency());
  neocpu::NeoThreadPool pool(width, /*bind_threads=*/false);
  const neocpu::Executor exec(&graph, &pool);
  Reference ref;
  for (const Tensor& x : inputs) {
    const Tensor y = exec.Run(x);
    ref.outputs.emplace_back(y.data(), y.data() + y.NumElements());
  }
  if (!ref.Save(args.reference_path)) {
    std::fprintf(stderr, "cannot write %s\n", args.reference_path.c_str());
    return 2;
  }
  return 0;
}

int RunResnet(const RunArgs& args, bool traced) {
  Setup setup;
  if (!LoadSetup(args, &setup)) {
    return 2;
  }
  const Params& p = args.params;
  const int width = p.Int("pool_width");
  Record rec;
  RecordParams(args, &rec);
  std::uint64_t attempted = 0, failed = 0;

  if (traced) {
    RecordHost(&rec, width);
    const CpuTicks ticks = ReadCpuTicks();
    const Graph graph = neocpu::BuildModel(setup.model);
    neocpu::NeoThreadPool pool(width);
    const CompileOptions opts = WorkloadCompileOptions(p, &pool);
    const CompiledModel model = neocpu::Compile(graph, opts);
    RecordCompileLayers(graph, opts, model, &rec);
    const ExecutionTrace t = TraceExecution(model, setup.inputs, &setup.reference, setup.check,
                                            &pool, args.seconds, 10);
    RecordExecutionLayers(model, t, rec.Get("host.fma_gflops"), &rec);
    rec.Set("check.output_rel_err", t.max_rel_err, "frac");
    RecordFingerprint(&rec, ticks);
    attempted = t.checked;
    failed = t.failed;
  } else {
    std::vector<double> setup_s;
    CompiledModel model;
    std::unique_ptr<neocpu::NeoThreadPool> pool;
    for (int r = 0; r < p.Int("setup_reps"); ++r) {
      model = CompiledModel();
      pool.reset();
      const Clock::time_point t0 = Clock::now();
      const Graph graph = neocpu::BuildModel(setup.model);
      pool = std::make_unique<neocpu::NeoThreadPool>(width);
      model = neocpu::Compile(graph, WorkloadCompileOptions(p, pool.get()));
      for (int w = 0; w < 2; ++w) {
        model.Run(setup.inputs[static_cast<std::size_t>(w) % setup.inputs.size()], pool.get());
      }
      setup_s.push_back(SecondsSince(t0));
    }
    rec.Set("setup_s", Median(setup_s), "s");
    rec.Info("setup_samples_s", JoinNumbers(setup_s));
    rec.InfoNum("graph.quantized_convs", model.stats().num_quantized_convs);

    const CpuTicks ticks = ReadCpuTicks();
    std::vector<double> latency;
    double max_rel = 0.0;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; SecondsSince(start) < args.seconds; ++i) {
      const std::size_t k = i % setup.inputs.size();
      const Clock::time_point t0 = Clock::now();
      const Tensor y = model.Run(setup.inputs[k], pool.get());
      latency.push_back(MsBetween(t0, Clock::now()));
      double rel = 0.0;
      ++attempted;
      failed += setup.check.Pass(y, setup.reference.outputs[k], &rel) ? 0 : 1;
      max_rel = std::max(max_rel, rel);
    }
    const double window_s = SecondsSince(start);
    rec.InfoNum("window_s", window_s);
    rec.Info("latency_samples_ms", JoinNumbers(latency));
    RecordFingerprint(&rec, ticks);
    rec.Set("peak_rss_mb", PeakRssMb(), "MB");
    const double tail = p.Num("tail_pct");
    RecordLatency(&rec, "", latency, tail, 1);
    // One caller back to back is this workload's only load level: the "hi" rows and
    // the rates describe that same closed loop.
    RecordLatency(&rec, "hi.", latency, tail, 1);
    rec.Set("capacity_rps", static_cast<double>(latency.size()) / window_s, "1/s");
    rec.Set("max_rate_rps", rec.Get("capacity_rps"), "1/s");
    rec.Set("check.output_rel_err", max_rel, "frac");
    pool.reset();
    RecordHost(&rec, width);
  }
  rec.Set("failed_frac", attempted > 0 ? static_cast<double>(failed) / attempted : 1.0, "frac");
  std::printf("%s\n", rec.ToJson(failed == 0, attempted, failed).c_str());
  return failed == 0 ? 0 : 1;
}

int RunWire(const RunArgs& args, bool traced) {
  Setup setup;
  if (!LoadSetup(args, &setup)) {
    return 2;
  }
  const Params& p = args.params;
  Record rec;
  RecordParams(args, &rec);
  const int conns = p.Int("connections");
  const int pool_size = static_cast<int>(setup.inputs.size());
  std::uint64_t attempted = 0, failed = 0;
  double max_rel = 0.0;
  auto tally = [&](const LegResult& r) {
    attempted += r.attempted;
    failed += r.failed();
    max_rel = std::max(max_rel, r.max_rel_err);
  };

  const int exec_width = std::max(1, p.Int("total_workers") / p.Int("executors"));
  if (traced) {
    RecordHost(&rec, exec_width);
  }
  std::vector<double> setup_s;
  Serving serving;
  CompiledModel model;
  for (int r = 0; r < (traced ? 1 : p.Int("setup_reps")); ++r) {
    StopServing(&serving);
    const Clock::time_point t0 = Clock::now();
    if (!StartServing(args, setup, &serving, &model)) {
      std::fprintf(stderr, "serving set-up failed\n");
      StopServing(&serving);
      return 2;
    }
    setup_s.push_back(SecondsSince(t0));
  }
  const CpuTicks ticks = ReadCpuTicks();
  neocpu::InferenceServer* server = serving.server.get();
  const int port = serving.frontend->port();
  const neocpu::ServerStats before = server->Stats();
  WireLoad load(port, setup.model, setup.inputs, setup.reference, setup.check, conns);
  if (!load.Connect()) {
    std::fprintf(stderr, "cannot connect to the front end\n");
    StopServing(&serving);
    return 2;
  }
  const double lo = p.Num("lo_rps"), hi = p.Num("hi_rps");
  bool generator_behind = false;
  auto behind = [&](const LegResult& r) {
    return r.LatenessGrowthMs() > p.Num("lateness_limit_ms");
  };

  if (!traced) {
    rec.Set("setup_s", Median(setup_s), "s");
    rec.Info("setup_samples_s", JoinNumbers(setup_s));
    // Interleaved rounds: each runs a lo segment, a hi segment, a closed-loop segment
    // and one probe of the rate ladder. Every metric is the best value over rounds
    // (lowest latency, highest capacity): interference from outside the process, such
    // as CPU steal on a shared host, only ever makes a round worse, so the best round
    // is the one that measured the program rather than its neighbours. A segment whose
    // generator fell further behind is not scored; the run is not scored when that
    // happens to half the segments of a rate or more.
    //
    // The ladder is bisected: a probe passes when its windowed tail (slices of 1000
    // samples, so each p99 has 10 beyond it) stays within the limit, no request fails
    // and the generator keeps up. For the same reason a rung passes when any of its
    // probes passes, and fails after `rung_attempts` failed probes run in different
    // rounds. Assumes passing is monotone in the rate; every probe is recorded.
    const int rounds = p.Int("rounds");
    const std::vector<double> ladder = p.NumList("ladder_rps");
    const double limit = p.Num("tail_limit_ms");
    const int attempts = p.Int("rung_attempts");
    int pass = -1, fail = static_cast<int>(ladder.size()), probes = 0;
    int rung = -1, rung_failures = 0;  // the rung being probed and its failed probes
    std::vector<double> lo_p50, lo_tail, hi_p50, hi_tail, capacity;
    std::size_t lo_beyond = SIZE_MAX, hi_beyond = SIZE_MAX;
    int lo_unscored = 0, hi_unscored = 0;
    auto segment = [&](const LegResult& r, double pct, std::vector<double>* p50,
                       std::vector<double>* tail, std::size_t* beyond, int* unscored) {
      tally(r);
      if (behind(r)) {
        ++*unscored;
        return;
      }
      p50->push_back(Median(r.latency_ms));
      tail->push_back(Percentile(r.latency_ms, pct));
      *beyond = std::min(*beyond, SamplesBeyond(r.latency_ms, pct));
    };
    for (int round = 0; round < rounds || fail - pass > 1; ++round) {
      const std::uint64_t leg = 100 * static_cast<std::uint64_t>(round);
      if (round < rounds) {
        const LegResult lo_seg = load.OpenLoop(
            PoissonSchedule(lo, p.Num("lo_s"), pool_size, LegSeed(args.seed, leg + 1)));
        segment(lo_seg, p.Num("tail_pct_lo"), &lo_p50, &lo_tail, &lo_beyond, &lo_unscored);
        const LegResult hi_seg = load.OpenLoop(
            PoissonSchedule(hi, p.Num("hi_s"), pool_size, LegSeed(args.seed, leg + 2)));
        segment(hi_seg, p.Num("tail_pct_hi"), &hi_p50, &hi_tail, &hi_beyond, &hi_unscored);
        const LegResult cap_seg = load.ClosedLoop(p.Num("capacity_s"), LegSeed(args.seed, leg + 3));
        tally(cap_seg);
        capacity.push_back(cap_seg.AchievedRps());
        if (round == 0) {
          RecordLeg(&rec, "leg.lo.round0", lo_seg);
          RecordLeg(&rec, "leg.hi.round0", hi_seg);
          RecordLeg(&rec, "leg.capacity.round0", cap_seg);
        }
      }
      if (fail - pass > 1) {
        if (rung < 0) {
          rung = (pass + fail) / 2;
          rung_failures = 0;
        }
        const int mid = rung;
        const LegResult r = load.OpenLoop(PoissonSchedule(
            ladder[static_cast<std::size_t>(mid)], p.Num("rung_s"), pool_size,
            LegSeed(args.seed, leg + 4)));
        tally(r);
        const std::string key = "ladder." + std::to_string(probes++);
        RecordLeg(&rec, key, r);
        rec.InfoNum(key + ".rate_rps", ladder[static_cast<std::size_t>(mid)]);
        std::size_t beyond = 0;
        const double tail = WindowedTail(r.latency_ms, p.Num("rung_tail_pct"),
                                         std::max<int>(1, static_cast<int>(r.latency_ms.size() / 1000)),
                                         &beyond);
        rec.InfoNum(key + ".tail_ms", tail);
        if (tail <= limit && r.failed() == 0 && !behind(r)) {
          pass = mid;
          rung = -1;
        } else if (++rung_failures == attempts) {
          fail = mid;
          rung = -1;
        }
      }
    }
    generator_behind = 2 * lo_unscored >= rounds || 2 * hi_unscored >= rounds;
    rec.Info("rounds.lo_p50_ms", JoinNumbers(lo_p50));
    rec.Info("rounds.lo_tail_ms", JoinNumbers(lo_tail));
    rec.Info("rounds.hi_p50_ms", JoinNumbers(hi_p50));
    rec.Info("rounds.hi_tail_ms", JoinNumbers(hi_tail));
    rec.Info("rounds.capacity_rps", JoinNumbers(capacity));
    rec.InfoNum("rounds.lo_unscored", lo_unscored);
    rec.InfoNum("rounds.hi_unscored", hi_unscored);
    auto best = [](const std::vector<double>& v, bool lowest) {
      return v.empty() ? 0.0 : (lowest ? *std::min_element(v.begin(), v.end())
                                       : *std::max_element(v.begin(), v.end()));
    };
    rec.Set("latency_p50_ms", best(lo_p50, true), "ms");
    rec.Set("latency_tail_ms", best(lo_tail, true), "ms");
    rec.Set("hi.latency_p50_ms", best(hi_p50, true), "ms");
    rec.Set("hi.latency_tail_ms", best(hi_tail, true), "ms");
    rec.Set("capacity_rps", best(capacity, false), "1/s");
    rec.InfoNum("latency_tail_pct", p.Num("tail_pct_lo"));
    rec.InfoNum("hi.latency_tail_pct", p.Num("tail_pct_hi"));
    rec.InfoNum("latency_min_samples_beyond_tail_per_round", static_cast<double>(lo_beyond));
    rec.InfoNum("hi.latency_min_samples_beyond_tail_per_round", static_cast<double>(hi_beyond));
    const double max_rate = pass >= 0 ? ladder[static_cast<std::size_t>(pass)] : 0.0;
    rec.Set("max_rate_rps", max_rate, "1/s");
    rec.InfoNum("ladder.probes", probes);
    const neocpu::ServerStats after = server->Stats();
    rec.Set("serve.retunes_in_window",
            static_cast<double>(after.retunes_started - before.retunes_started), "count");
    rec.Set("serve.shed_frac",
            static_cast<double>(after.requests_shed - before.requests_shed) /
                std::max<double>(1.0, static_cast<double>(after.submitted - before.submitted)),
            "frac");
    RecordFingerprint(&rec, ticks);
    rec.Set("peak_rss_mb", PeakRssMb(), "MB");
    rec.Set("check.output_rel_err", max_rel, "frac");
    StopServing(&serving);
    RecordHost(&rec, exec_width);
  } else {
    const Graph graph = neocpu::BuildModel(setup.model);
    const CompileOptions opts = WorkloadCompileOptions(p);
    RecordCompileLayers(graph, opts, model, &rec);
    rec.Set("tuning.cache_hit_rate", server->Stats().tuning_cache.HitRate(), "frac");

    // Kernel layers at batch 1 on one executor's width, plus execute time at the
    // largest batch the server forms.
    neocpu::NeoThreadPool pool(exec_width, /*bind_threads=*/false);
    const ExecutionTrace t = TraceExecution(model, setup.inputs, &setup.reference, setup.check,
                                            &pool, p.Num("trace_exec_s"), 200);
    RecordExecutionLayers(model, t, rec.Get("host.fma_gflops"), &rec);
    attempted += t.checked;
    failed += t.failed;
    max_rel = std::max(max_rel, t.max_rel_err);
    const double exec_b1 = Median(t.untraced_ms);
    CompiledModel bmax;
    const std::int64_t max_batch = p.Int("max_batch");
    NEOCPU_CHECK(neocpu::RetuneForBatch(model, max_batch, nullptr, &bmax));
    std::vector<std::int64_t> dims = neocpu::ModelInputDims(setup.model, max_batch);
    const std::vector<Tensor> batch_in = MakeInputPool(dims, 1, args.seed);
    std::vector<double> bmax_ms;
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point t0 = Clock::now();
      bmax.Run(batch_in[0], &pool);
      bmax_ms.push_back(MsBetween(t0, Clock::now()));
    }
    const double exec_bmax = Median(bmax_ms);
    rec.Set("core.execute_b1_ms", exec_b1, "ms");
    rec.Set("core.execute_bmax_ms", exec_bmax, "ms");

    // Codec cost per request, client and server side together.
    std::vector<double> enc_us, dec_us;
    for (int i = 0; i < 2000; ++i) {
      const Tensor& x = setup.inputs[static_cast<std::size_t>(i % pool_size)];
      const std::vector<float>& y = setup.reference.outputs[static_cast<std::size_t>(i % pool_size)];
      Tensor out = Tensor::Empty({1, static_cast<std::int64_t>(y.size())});
      std::copy(y.begin(), y.end(), out.data());
      Clock::time_point t0 = Clock::now();
      const std::vector<std::uint8_t> req =
          neocpu::EncodeRequestFrame({setup.model, neocpu::RequestLane::kLatency, x});
      const std::vector<std::uint8_t> res = neocpu::EncodeResultFrame(out);
      Clock::time_point t1 = Clock::now();
      neocpu::WireRequest req_back;
      neocpu::WireResponse res_back;
      const bool ok = neocpu::DecodeRequestBody(req.data() + 4, req.size() - 4, &req_back).ok() &&
                      neocpu::DecodeResponseBody(res.data() + 4, res.size() - 4, &res_back).ok();
      Clock::time_point t2 = Clock::now();
      NEOCPU_CHECK(ok) << "wire codec round trip failed";
      enc_us.push_back(MsBetween(t0, t1) * 1e3);
      dec_us.push_back(MsBetween(t1, t2) * 1e3);
    }
    rec.Set("frontend.encode_us", Median(enc_us), "us");
    rec.Set("frontend.decode_us", Median(dec_us), "us");

    // The same seeded lo schedule in process and over the socket.
    const Schedule lo_schedule =
        PoissonSchedule(lo, p.Num("trace_leg_s"), pool_size, LegSeed(args.seed, 1));
    const LegResult inproc_lo = InprocOpenLoop(server, setup.model, setup.inputs,
                                               setup.reference, setup.check, lo_schedule);
    const LegResult wire_lo = load.OpenLoop(lo_schedule);
    tally(inproc_lo);
    tally(wire_lo);
    generator_behind = behind(inproc_lo) || behind(wire_lo);
    RecordLeg(&rec, "leg.inproc_lo", inproc_lo);
    RecordLeg(&rec, "leg.wire_lo", wire_lo);
    RecordLatency(&rec, "serve.inproc.", inproc_lo.latency_ms, p.Num("tail_pct_lo"),
                  p.Int("trace_tail_windows"));
    const double wire_p50 = Median(wire_lo.latency_ms);
    const double inproc_p50 = Median(inproc_lo.latency_ms);
    rec.Set("frontend.overhead_p50_ms", wire_p50 - inproc_p50, "ms");
    rec.Set("loadgen.lateness_p99_ms", Percentile(wire_lo.lateness_ms, 99.0), "ms");
    rec.Set("loadgen.offered_rps", wire_lo.OfferedRps(), "1/s");

    // Independent frontend cost: one request at a time, over the socket and in process.
    WireLoad single(port, setup.model, setup.inputs, setup.reference, setup.check, 1);
    NEOCPU_CHECK(single.Connect());
    const LegResult wire_c1 = single.ClosedLoop(p.Num("c1_s"), LegSeed(args.seed, 4));
    tally(wire_c1);
    std::vector<double> inproc_c1;
    const Clock::time_point c1_start = Clock::now();
    for (int i = 0; SecondsSince(c1_start) < p.Num("c1_s"); ++i) {
      const std::size_t k = static_cast<std::size_t>(i % pool_size);
      const Clock::time_point t0 = Clock::now();
      neocpu::SubmitTicket ticket = server->TrySubmit(setup.model, setup.inputs[k]);
      ++attempted;
      double rel = 0.0;
      if (!ticket.ok() || !setup.check.Pass(ticket.result.get(), setup.reference.outputs[k], &rel)) {
        ++failed;
        continue;
      }
      inproc_c1.push_back(MsBetween(t0, Clock::now()));
    }
    const double c1_overhead = Median(wire_c1.latency_ms) - Median(inproc_c1);
    const double off = std::fabs(wire_p50 - (inproc_p50 + c1_overhead));
    const double slack = kFrontendSlackMs + kFrontendSlackFrac * wire_p50;
    rec.InfoNum("check.frontend_c1_overhead_ms", c1_overhead);
    rec.InfoNum("check.frontend_layer_sum_off_ms", off);
    rec.InfoNum("check.frontend_layer_sum_slack_ms", slack);
    rec.Info("check.frontend_layer_sum", off <= slack ? "pass" : "FAIL");

    // Queueing and batching under the hi rate, in process.
    const neocpu::ServerStats s0 = server->Stats();
    const std::uint64_t a0 = neocpu::TensorHeapAllocCount();
    const LegResult inproc_hi = InprocOpenLoop(
        server, setup.model, setup.inputs, setup.reference, setup.check,
        PoissonSchedule(hi, p.Num("trace_leg_s"), pool_size, LegSeed(args.seed, 2)));
    const std::uint64_t a1 = neocpu::TensorHeapAllocCount();
    const neocpu::ServerStats s1 = server->Stats();
    tally(inproc_hi);
    RecordLeg(&rec, "leg.inproc_hi", inproc_hi);
    const double runs = static_cast<double>(s1.batch_runs - s0.batch_runs);
    const double mean_batch = runs > 0 ? static_cast<double>(s1.completed - s0.completed) / runs : 0.0;
    // Execute time at the mean batch, interpolated between batch 1 and the max batch.
    const double exec_at_mean =
        exec_b1 + (exec_bmax - exec_b1) * (mean_batch - 1.0) / std::max<double>(1.0, max_batch - 1.0);
    rec.Set("serve.mean_batch_size", mean_batch, "count");
    rec.Set("serve.queue_wait_ms", Median(inproc_hi.latency_ms) - exec_at_mean, "ms");
    rec.Set("serve.heap_allocs_per_request",
            static_cast<double>(a1 - a0) / std::max<double>(1.0, static_cast<double>(inproc_hi.attempted)),
            "count");
    const neocpu::ServerStats after = server->Stats();
    rec.Set("serve.retunes_in_window",
            static_cast<double>(after.retunes_started - before.retunes_started), "count");
    rec.Set("serve.shed_frac",
            static_cast<double>(after.requests_shed - before.requests_shed) /
                std::max<double>(1.0, static_cast<double>(after.submitted - before.submitted)),
            "frac");
    rec.Set("check.output_rel_err", max_rel, "frac");
    RecordFingerprint(&rec, ticks);
    StopServing(&serving);
  }
  rec.Info("loadgen.generator_behind", generator_behind ? "yes" : "no");
  rec.Set("failed_frac", attempted > 0 ? static_cast<double>(failed) / attempted : 1.0, "frac");
  std::printf("%s\n", rec.ToJson(failed == 0, attempted, failed).c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace perfbench
