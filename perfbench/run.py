#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload resnet18-f32 --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The script builds perfbench_main from source into
.bench_build/perfbench (the library comes from the checkout's own CMakeLists.txt),
computes the reference outputs for the seeded input pool in a separate process, then
runs the workload in a fresh process:

  --trace 0  the untraced run: every end-to-end metric of BENCHMARK.json;
  --trace 1  the traced run: every per-layer metric (0 where the layer does no work on
             this workload; the record lists those as absent).

Every metric is printed as "name value unit"; the last line is the JSON result. The
full record (fingerprint, fixed parameters, self-checks, every leg) is written to
.bench_build/perfbench/records/. Exit status is 0 only when every output matched its
reference (else 1) and, in the traced run, every layer-sum self-check held (else 3,
with no result line); 2 when the run could not be made.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD, "perfbench_main")
# Every process a run starts after the build (the reference, the measured processes
# and a possible second measurement) must end within this many seconds of the build,
# so that a run ends within 180 s; one that would not is killed and the run fails.
RUN_BUDGET_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("not inside a neocpu checkout: %s has no CMakeLists.txt and src/" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    # The compiler's scratch files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_main", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)


def program_args(workload, spec, seed, seconds):
    args = ["--kind", spec["kind"], "--workload", workload, "--seed", str(seed),
            "--seconds", repr(float(seconds))]
    for key, value in sorted(spec["params"].items()):
        if key.endswith("_share"):
            key, value = key[: -len("_share")] + "_s", value * seconds
        elif isinstance(value, list):
            value = ",".join(str(v) for v in value)
        args += ["--set", "%s=%s" % (key, value)]
    return args


def behind(record):
    return record["info"].get("loadgen.generator_behind") == "yes"


def run_program(mode, args, ref, deadline):
    try:
        proc = subprocess.run([PROGRAM, "--mode", mode, "--ref", ref] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s run did not end within %d s of the build" % (mode, RUN_BUDGET_S))
    if mode == "reference":
        if proc.returncode != 0:
            fail("reference run failed (exit %d)" % proc.returncode)
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s run printed no record (exit %d)" % (mode, proc.returncode))
    return json.loads(lines[-1])


def percentile(values, q):
    """Nearest-rank percentile, the same rule as bench.cc."""
    v = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(v)))
    return v[min(rank, len(v)) - 1]


def merge(records, tail_pct):
    """One scored run from several processes that shared its window.

    Each process pays its own set-up and lands on its own physical pages; a resnet
    run's latency holds within a few percent inside one process but moves by up to
    10% from one process to the next, so a run pools the samples of several.
    """
    samples = [float(x) for r in records for x in r["info"]["latency_samples_ms"].split(",")]
    window_s = sum(r["info"]["window_s"] for r in records)
    merged = records[0]
    metrics, info = merged["metrics"], merged["info"]

    def median_of(name):
        return statistics.median(r["metrics"][name]["value"] for r in records)

    for name in ("peak_rss_mb", "host.fma_gflops", "host.stream_gbps"):
        metrics[name]["value"] = median_of(name)
    setups = [float(x) for r in records for x in r["info"]["setup_samples_s"].split(",")]
    metrics["setup_s"]["value"] = statistics.median(setups)
    info["setup_samples_s"] = ",".join("%.6f" % x for x in setups)
    for prefix in ("", "hi."):
        metrics[prefix + "latency_p50_ms"]["value"] = percentile(samples, 50)
        tail = percentile(samples, tail_pct)
        metrics[prefix + "latency_tail_ms"]["value"] = tail
        info[prefix + "latency_samples"] = len(samples)
        info[prefix + "latency_min_samples_beyond_tail_per_window"] = sum(x > tail for x in samples)
    for name in ("capacity_rps", "max_rate_rps"):
        metrics[name]["value"] = len(samples) / window_s
    metrics["check.output_rel_err"]["value"] = max(
        r["metrics"]["check.output_rel_err"]["value"] for r in records)
    merged["attempted"] = sum(r["attempted"] for r in records)
    merged["failed"] = sum(r["failed"] for r in records)
    merged["correct"] = all(r["correct"] for r in records)
    metrics["failed_frac"]["value"] = merged["failed"] / max(1, merged["attempted"])
    info["processes"] = len(records)
    info["window_s"] = window_s
    info["process_p50_ms"] = [percentile([float(x) for x in r["info"]["latency_samples_ms"].split(",")], 50)
                              for r in records]
    info["host.steal_frac"] = statistics.mean(r["info"]["host.steal_frac"] for r in records)
    info["latency_samples_ms"] = ",".join("%.6f" % x for x in samples)
    return merged


def measure(mode, workload, spec, seed, seconds, ref, deadline):
    """One run: `processes` fresh processes splitting the window (untraced), else one."""
    processes = spec.get("processes", 1) if mode == "measure" else 1
    args = program_args(workload, spec, seed, seconds / processes)
    records = [run_program(mode, args, ref, deadline) for _ in range(processes)]
    return records[0] if processes == 1 else merge(records, spec["params"]["tail_pct"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(bench_path) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        specs = json.load(f)
    if opts.workload not in specs or opts.workload.startswith("_"):
        fail("unknown workload %r" % opts.workload)
    spec = specs[opts.workload]

    build()
    os.makedirs(os.path.join(BUILD, "refs"), exist_ok=True)
    os.makedirs(os.path.join(BUILD, "records"), exist_ok=True)
    ref = os.path.join(BUILD, "refs", "%s-seed%d.ref" % (opts.workload, opts.seed))
    deadline = time.monotonic() + RUN_BUDGET_S
    run_program("reference", program_args(opts.workload, spec, opts.seed, opts.seconds), ref,
                deadline)

    mode = "trace" if opts.trace else "measure"
    record = measure(mode, opts.workload, spec, opts.seed, opts.seconds, ref, deadline)
    unscored = 0
    if behind(record):
        # A run whose load generator fell behind its schedule is flagged and not
        # scored; it is measured once more. Its outputs still count: every attempt of
        # both runs goes into the result's attempted, failed and correct.
        print("perfbench: load generator fell behind its schedule; run not scored, "
              "measuring again", file=sys.stderr)
        first, unscored = record, 1
        record = measure(mode, opts.workload, spec, opts.seed, opts.seconds, ref, deadline)
        record["attempted"] += first["attempted"]
        record["failed"] += first["failed"]
        record["correct"] = record["correct"] and first["correct"]
    record["info"]["runner.unscored_runs"] = unscored

    wanted = bench["per_layer"] if opts.trace else bench["end_to_end"]
    metrics, absent = {}, []
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            if not opts.trace:
                fail("end-to-end metric %s missing from the record" % m["name"])
            absent.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    record["info"]["absent_on_this_workload"] = absent

    record_path = os.path.join(BUILD, "records", "%s-seed%d-trace%d.json"
                               % (opts.workload, opts.seed, opts.trace))
    with open(record_path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)

    for name, m in sorted(record["metrics"].items()):
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    for name in absent:
        print("%-36s %14s (layer does no work on this workload)" % (name, "absent"))
    failed_checks = []
    for key, value in sorted(record["info"].items()):
        if key.startswith("check."):
            print("%-36s %14s" % (key, value))
            if value == "FAIL":
                failed_checks.append(key)
    print("record: %s" % os.path.relpath(record_path, ROOT))
    if not record["correct"]:
        print("perfbench: %d of %d outputs failed their check"
              % (record["failed"], record["attempted"]), file=sys.stderr)
    if behind(record):
        print("perfbench: load generator fell behind its schedule twice; run not scored",
              file=sys.stderr)
        return 1 if not record["correct"] else 2
    if failed_checks:
        # A traced run whose layers do not add up measured something else than the
        # program's layers: its per-layer metrics are not printed as a result.
        print("perfbench: layer-sum self-check failed: %s" % ", ".join(failed_checks),
              file=sys.stderr)
        return 1 if not record["correct"] else 3
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
