"""cliffint benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload exact_series --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; cliffint is imported from ``src/``.
Set-up (import, input generation from the seed, one warm-up op of each kind)
is repeated and timed each time.  With ``--trace 0`` the ops run in whole
cycles until ``--seconds`` have passed and at least 100 ops are done, with
no tracing, and every end-to-end metric is reported.  With ``--trace 1`` a
fixed number of cycles runs once plainly and once with spans around the
public functions of each module, and the per-layer metrics are reported.
Every op's output is checked against the benchmark's own oracles after
timing.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os

# pinned before anything imports numpy: one caller, one thread
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from speed import ReferenceClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_OPS = 100
MODULES = ("cli", "clifford", "polyalg", "pizzetti", "exterior", "geomint")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Failure:
    """Stands in for the output of an op that raised."""

    error: str


def fresh_api() -> types.SimpleNamespace:
    """Import cliffint from scratch, so every set-up pays for import and empty caches."""
    for name in [n for n in sys.modules if n == "cliffint" or n.startswith("cliffint.")]:
        del sys.modules[name]
    importlib.import_module("cliffint")
    return types.SimpleNamespace(**{m: importlib.import_module(f"cliffint.{m}") for m in MODULES})


def timed(wl, api, kind: str, op: dict):
    start = time.perf_counter()
    try:
        out = wl.run(api, kind, op)
    except Exception:  # an op that raises is a failed op; the run goes on
        out = Failure(traceback.format_exc(limit=4))
    return out, time.perf_counter() - start


def setup(wl, seed: int, seconds: int):
    """Import, generate every input from the seed, warm up; returns its time too."""
    start = time.perf_counter()
    api = fresh_api()
    ncycles = max(wl.trace_cycles, math.ceil(seconds * wl.pool_cycles_per_second))
    pool = [wl.cycle(random.Random(f"{wl.name}:{seed}:{c}")) for c in range(ncycles)]
    warm = wl.warmups(random.Random(f"{wl.name}:{seed}:warmup"))
    warm_done = [("warmup", kind, op, timed(wl, api, kind, op)[0]) for kind, op in warm]
    return time.perf_counter() - start, api, pool, warm_done


def check_all(wl, seed: int, done: list) -> tuple[int, dict]:
    """Check (label, kind, op, output) records; logs each failure with its seed and input."""
    refs: dict = {}
    errors: dict = {}
    failed = 0
    for label, kind, op, out in done:
        if isinstance(out, Failure):
            reason = out.error
        else:
            try:
                reason = wl.check(kind, op, out, refs, errors)
            except Exception:  # a malformed output is a failed check
                reason = traceback.format_exc(limit=4)
        if reason is not None:
            failed += 1
            print(f"FAILED workload={wl.name} seed={seed} cycle={label} kind={kind} "
                  f"input={op!r}: {reason}", file=sys.stderr)
    return failed, errors


def environment(args) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace,
            "threads": {k: os.environ[k] for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def measure(wl, api, pool: list, seconds: int):
    """Closed loop over whole cycles until `seconds` and MIN_OPS are both reached.

    Returns the clock holding every op's latency, and the (cycle, kind, op, output) records.
    """
    clock = ReferenceClock(wl.python_weight)
    done = []
    start = time.perf_counter()
    c = 0
    while True:
        for kind, op in pool[c % len(pool)]:
            out, dt = timed(wl, api, kind, op)
            clock.record(dt)
            done.append((c, kind, op, out))
        c += 1
        if time.perf_counter() - start >= seconds and len(done) >= MIN_OPS:
            return clock, done


def replay(wl, api, ops: list) -> tuple[list, float, float]:
    """Run ops once; returns outputs, raw busy seconds and busy seconds at reference speed."""
    clock = ReferenceClock(wl.python_weight)
    outs = []
    for kind, op in ops:
        out, dt = timed(wl, api, kind, op)
        clock.record(dt)
        outs.append(out)
    return outs, sum(clock.raw()), sum(clock.scaled())


def run_plain(wl, args, api, pool, setup_s: float, warm_done) -> dict:
    clock, done = measure(wl, api, pool, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, errors = check_all(wl, args.seed, done)
    warm_failed, _ = check_all(wl, args.seed, warm_done)
    attempted = len(done)
    latencies = clock.scaled()
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": attempted / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": rss_mb,
    }
    raw = clock.raw()
    print(f"# unscaled: ops_per_s {attempted / sum(raw):.6g}, latency_p50_ms "
          f"{statistics.median(raw) * 1e3:.6g}, latency_p90_ms "
          f"{statistics.quantiles(raw, n=10)[8] * 1e3:.6g}; mean slowness "
          f"{clock.mean_slowness():.4g} over the run")
    for key, value in sorted(errors.items()):
        print(f"# max {key} error {value:.6g} (checked against closed forms)")
    return {"correct": failed == 0 and warm_failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}


def layer_metrics(tracer, errors: dict, overhead: float, scale: float) -> dict:
    """Per-layer metrics by name: every span stat and counter, then the derived ones.

    Span times are multiplied by ``scale``, the traced pass's reference-speed factor.
    """
    out = {}
    for span, stats in tracer.stats.items():
        for stat, value in stats.items():
            if stat.endswith("_s"):
                out[f"{span}.{stat}"] = {"value": value * scale, "unit": "s"}
            else:
                unit = "B" if stat.startswith("bytes") else "count"
                out[f"{span}.{stat}"] = {"value": value, "unit": unit}
    cells = tracer.stats["geomint"]["grid_cells"]
    grid_s = scale * sum(tracer.stats[f"geomint.{f}"]["total_s"]
                         for f in ("integrate_implicit", "integrate_oriented", "cauchy_check"))
    points = tracer.stats["geomint.poly_on_points"]["points"]
    derived = {
        "geomint.poly_on_points.points_per_cell": (points / cells if cells else 0.0, "ratio"),
        "geomint.cells_per_s": (cells / grid_s if cells else 0.0, "1/s"),
        "geomint.quad_max_rel_err": (errors.get("quad", 0.0), "ratio"),
        "geomint.cauchy_max_residual": (errors.get("cauchy", 0.0), "ratio"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    out.update({k: {"value": v, "unit": u} for k, (v, u) in derived.items()})
    return out


def run_traced(wl, args, api, pool, warm_done) -> dict:
    """The same cycles plainly, then traced; checks the wrappers changed nothing."""
    ops = [item for c in range(wl.trace_cycles) for item in pool[c]]
    plain, _, plain_s = replay(wl, api, ops)

    tracer = tracing.Tracer()
    problems = []
    tracer.patch()
    try:
        problems += [f"unwrapped binding {b}" for b in tracer.stray_bindings(patched=True)]
        traced, traced_raw, traced_s = replay(wl, api, ops)
    finally:
        tracer.restore()
    problems += [f"wrapper left behind at {b}" for b in tracer.stray_bindings(patched=False)]
    if traced != plain:
        problems.append("traced outputs differ from untraced outputs")
    self_times = [st["self_s"] for st in tracer.stats.values() if "self_s" in st]
    if min(self_times) < 0 or sum(self_times) > traced_raw + 1e-6:
        problems.append(f"self times inconsistent: min {min(self_times)}, sum "
                        f"{sum(self_times)}, traced op time {traced_raw}")
    for problem in problems:
        print(f"TRACE SELF-CHECK FAILED: {problem}", file=sys.stderr)

    per_cycle = len(pool[0])
    done = [(i // per_cycle, kind, op, out) for i, ((kind, op), out) in enumerate(zip(ops, traced))]
    failed, errors = check_all(wl, args.seed, done)
    warm_failed, _ = check_all(wl, args.seed, warm_done)
    return {"correct": failed == 0 and warm_failed == 0 and not problems,
            "attempted": len(ops), "failed": failed,
            "metrics": layer_metrics(tracer, errors, traced_s / plain_s - 1.0,
                                     traced_s / traced_raw)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cliffint" / "__init__.py").is_file():
        print(f"error: no cliffint sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    clock = ReferenceClock(wl.python_weight)
    for _ in range(SETUP_REPEATS):
        seconds, api, pool, warm_done = setup(wl, args.seed, args.seconds)
        clock.record(seconds)
    if args.trace:
        result = run_traced(wl, args, api, pool, warm_done)
    else:
        result = run_plain(wl, args, api, pool, statistics.median(clock.scaled()), warm_done)

    print(json.dumps({"environment": environment(args)}))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
