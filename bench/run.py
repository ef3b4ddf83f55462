"""Benchmark for graph-matern.

    python3 bench/run.py --workload cora_classify --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Run from the root of a checkout. The parent process generates the
workload's inputs from the seed into a work directory under bench/.work,
then runs the program in one fresh child process (worker.py) with BLAS
pinned to one thread through the OPENBLAS/OMP/MKL_NUM_THREADS environment
variables. The child times the CLI commands and library calls, checks every
output, and reports back; the parent prints each metric with its unit and,
as the last line, one JSON object with the keys correct, attempted, failed
and metrics.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
The error rate (failed over attempted operations) is printed on its own
line and carried by the attempted and failed keys, not as a metric: it is
0 on a correct run, and no metric may read 0.
With --trace 1 an untraced child runs first and a traced child second; the
metrics are the per-layer metrics of the traced child plus the tracing
overhead against the untraced one, and the spans are written to
bench/out/<workload>-seed<seed>-spans.json.

Without the package sources under src/ the benchmark exits with code 2 and
prints no result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cora_classify", "traffic_regression", "mesh_gmrf")
TIME_LIMIT_S = 170.0

# The end-to-end timings, in print order. What each one times on each
# workload is in bench/README.md; units and bounds are in BENCHMARK.json.
TIMINGS = ("setup_s", "command_s", "predict_s", "eigen_s")
# Units of the output-quality figures that the checks use.
QUALITY_UNITS = {"test_accuracy": "ratio", "held_out_accuracy": "ratio",
                 "accuracy_floor": "ratio", "test_mse": "y^2", "oracle_mse": "y^2",
                 "query_mse": "y^2", "query_variance": "y^2"}


def metric_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_child(workload, inputs, work, seed, seconds, trace, size, deadline) -> dict:
    """Run worker.py in a fresh process and return its result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    work.mkdir()
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--inputs", str(inputs), "--work", str(work), "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)), "--size", size]
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True) as child:
        try:
            _, err = child.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise BenchError(f"{workload}: child exceeded the time limit") from None
    if child.returncode != 0:
        raise BenchError(f"{workload}: child exited with {child.returncode}\n{err[-4000:]}")
    return json.loads((work / "result.json").read_text())


def timings(result) -> dict:
    """Median of each timing of one child result, plus its peak RSS."""
    values = {name: statistics.median(result["samples"][name]) for name in TIMINGS}
    values["peak_rss_mb"] = result["peak_rss_mb"]
    return values


def run_workload(workload, seed, seconds, trace, size, deadline) -> dict:
    """Generate inputs, run the child(ren), and return the printed result."""
    import worker

    scratch = BENCH / ".work" / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    inputs = scratch / "inputs"
    inputs.mkdir(parents=True)
    try:
        props = worker.generate(workload, seed, size, inputs)
        plain = run_child(workload, inputs, scratch / "plain", seed, seconds, False,
                          size, deadline)
        traced = (run_child(workload, inputs, scratch / "traced", seed, seconds, True,
                            size, deadline) if trace else None)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    results = [plain] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    e2e = timings(plain)
    e2e_units, layer_units = metric_units()
    print(f"== {workload}  seed {seed}  size {size}  trace {int(trace)}")
    print("inputs: " + json.dumps(props, sort_keys=True))
    print("env: " + json.dumps(plain["env"], sort_keys=True))
    for name in TIMINGS + ("peak_rss_mb",):
        count = len(plain["samples"].get(name, ())) or 1
        gated = "" if name in e2e_units else "  (printed only)"
        print(f"{name:<14} {e2e[name]:>12.6g} {e2e_units.get(name, 's'):<6} "
              f"n={count}{gated}")
    print(f"{'error_rate':<14} {len(failures) / attempted:>12.6g} ratio  "
          f"{len(failures)} failed of {attempted} operations")
    for key, value in plain["quality"].items():
        print(f"{key:<17} {value!r:>20} {QUALITY_UNITS[key]}")
    for failure in failures:
        print(f"FAILED {failure}")
    if traced:
        layer = dict(traced["per_layer"])
        layer["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced["samples"]["command_s"]) / e2e["command_s"] - 1.0)
        for name, unit in layer_units.items():
            print(f"{name:<32} {layer[name]:>12.6g} {unit}")
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        (out / f"{workload}-seed{seed}-spans.json").write_text(json.dumps(
            {"env": traced["env"], "inputs": props, "spans": traced["spans"]}))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in layer_units.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in e2e_units.items()}
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="graph-matern benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every step at toy sizes (smoke tests)")
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "graph_matern" / "__init__.py", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: {needed} not found", file=sys.stderr)
            return 2
    sys.path.insert(0, str(BENCH))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         args.size, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
