"""Benchmark harness for braidbu.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload (see workloads.py and README.md) in this process, one op at
a time, and prints one line per metric followed, as the last line, by a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` they are the per-layer ones, and the spans are written to
``perfbench/out/``.  Every end-to-end time is calibrated for the host's
speed (calibration.py).  Exits 1 when an op fails its output check and 2 when
the braidbu sources are missing.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import Meter, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh-interpreter setup probes: at least SETUP_PROBES of them, and more
# until they have taken SETUP_PROBE_S seconds, so that a setup of a fifth of a
# second gets as steady a median as a dearer one.
SETUP_PROBES = 9
SETUP_PROBE_S = 4.0


def load_workloads():
    """Import the workloads module with braidbu taken from this checkout's src."""
    if not (SRC / "braidbu" / "__init__.py").is_file():
        raise FileNotFoundError(f"braidbu sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import braidbu
    import workloads

    if Path(braidbu.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"braidbu imported from {braidbu.__file__}, not from {SRC}")
    return workloads


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def one_pass(workload, state, tracer=None):
    """Run the workload's ops once; returns the OpTimer that timed them.

    An untraced pass carries a calibration Meter; a traced one does not.
    """
    from workloads import OpTimer

    gc.collect()
    timer = OpTimer(tracer, None if tracer else Meter())
    workload.run_pass(state, timer)
    return timer


def measure(workload, state, seconds: float) -> list:
    """Whole untraced passes until the next one would end after ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(workload, state))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to the end of its setup."""
    argv = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", args.workload,
            "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    start = time.monotonic()
    out = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=120).stdout
    return float(out.decode().split()[-1]) - start


def calibrated_setups(args) -> tuple[list[float], list[float]]:
    """Setup times, each divided by its host speed factor; and the factors."""
    meter = Meter()
    raw: list[float] = []
    while len(raw) < SETUP_PROBES or sum(raw) < SETUP_PROBE_S:
        start = time.perf_counter()
        raw.append(probe_setup(args))
        meter.owe(start, raw[-1])
    factors = meter.factors()
    return [s / f for s, f in zip(raw, factors)], factors


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def end_to_end(args, workload) -> tuple[dict, list]:
    """The end-to-end metrics.  Every time is divided by its host speed factor.

    Every pass runs the same ops, so an op's latency is the median of its
    calibrated latencies over the passes, and the percentiles are taken over
    the ops of a pass.
    """
    setups, setup_factors = calibrated_setups(args)
    state = workload.setup(args.seed, args.smoke, in_process=False)
    passes = measure(workload, state, args.seconds)
    factors = [p.meter.factors() for p in passes]
    calibrated = [[d / f for d, f in zip(p.durations, fs)] for p, fs in zip(passes, factors)]
    op_latencies = [statistics.median(samples) for samples in zip(*calibrated)]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(c) for c in calibrated),
        "op_p50_s": statistics.median(op_latencies),
        "op_p90_s": percentile(op_latencies, 90),
        "peak_rss_mb": workload.peak_rss_mb(state),
    }
    all_factors = [f for fs in factors for f in fs]
    print(f"passes {len(passes)}, ops per pass {len(op_latencies)}, "
          f"latency samples {len(passes) * len(op_latencies)}, setup probes {len(setups)}")
    print(f"host speed factor: setup {statistics.median(setup_factors):.3f}, "
          f"ops {statistics.median(all_factors):.3f} ({min(all_factors):.3f}-{max(all_factors):.3f})")
    print(f"uncalibrated: wall_s {statistics.median(p.wall_s for p in passes):.6g} s")
    return metrics, passes


def per_layer(args, workload) -> tuple[dict, list]:
    from tracing import Tracer, install, layer_metrics

    tracer = Tracer()
    tracer.op_id = "setup"
    install(tracer)
    try:
        state = workload.setup(args.seed, args.smoke, in_process=True)
    finally:
        tracer.uninstall()
    untraced = measure(workload, state, args.seconds)
    tracer.top_level_s = 0.0
    install(tracer)
    try:
        traced = one_pass(workload, state, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_s"] = traced.wall_s - statistics.median(p.wall_s for p in untraced)
    metrics["trace.uncovered_share"] = 1 - tracer.top_level_s / traced.wall_s
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(str(spans_path))
    print(f"untraced passes {len(untraced)}, traced passes 1, {len(tracer.spans)} spans -> {spans_path}")
    print(f"{'layer entry point':32} {'calls':>9} {'self_s':>10}")
    for name in sorted(tracer.calls):
        print(f"{name:32} {tracer.calls[name]:9d} {tracer.self_s.get(name, 0.0):10.4f}")
    return metrics, untraced + [traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrink the workload to a few seconds")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        workloads = load_workloads()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    if args.probe:
        workload.setup(args.seed, args.smoke, in_process=False)
        print(time.monotonic(), flush=True)
        os._exit(0)  # skip interpreter teardown; the parent has its timestamp

    pin_to_one_cpu()  # the reference task must run on the CPU the ops run on
    kind = "per_layer" if args.trace else "end_to_end"
    units = declared_metrics(kind)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"
          + (" smoke" if args.smoke else ""))
    values, passes = (per_layer if args.trace else end_to_end)(args, workload)
    if set(values) != set(units):
        raise RuntimeError(f"harness metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for message in [m for p in passes for m in p.failures][:10]:
        print(f"FAILED {message}", file=sys.stderr)
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed}/{attempted} ops failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
