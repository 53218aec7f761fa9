"""Self-test of the benchmark's own machinery.

    python3 bench/selftest.py          # from the root of a source checkout; about 3 minutes

Checks, for every workload:
- the seed: the same seed gives the same inputs, another seed gives other
  inputs with the same op-kind mix, and Monte Carlo and suite seeds follow
  the workload seed;
- the trace wrappers: every binding of a wrapped function is patched
  (including the names other modules and the package import) and restored,
  and two traced runs in separate processes report the same counts, with
  correct outputs, outputs equal to the untraced ones, and self times that
  are nonnegative and within the traced time (``run.py --trace 1`` sets
  ``correct`` false otherwise);
- ``BENCHMARK.json`` names exactly the workloads and the metrics, with
  their units, that ``run.py`` prints.
It also cross-checks two of the independent oracles against each other.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def check_seeds():
    for wl in WORKLOADS.values():
        first = wl.cycle(random.Random(f"{wl.name}:1:0"))
        again = wl.cycle(random.Random(f"{wl.name}:1:0"))
        other = wl.cycle(random.Random(f"{wl.name}:2:0"))
        expect(first == again, f"{wl.name}: the same seed gives the same inputs")
        expect(first != other, f"{wl.name}: another seed gives other inputs")
        expect(Counter(k for k, _ in first) == Counter(k for k, _ in other),
               f"{wl.name}: another seed keeps the op-kind mix")
        subseeds = [[op["seed"] for _, op in ops if "seed" in op] for ops in (first, other)]
        if subseeds[0]:
            expect(subseeds[0] != subseeds[1],
                   f"{wl.name}: Monte Carlo and suite seeds follow the workload seed")


def check_bindings():
    api = run.fresh_api()
    pkg = sys.modules["cliffint"]
    names = [(api.polyalg, "apply_diffop"), (api.pizzetti, "apply_diffop"), (pkg, "apply_diffop"),
             (api.cli, "gram_det"), (api.cli, "wedge_vectors"), (api.cli, "delta_pair"),
             (api.cli, "fischer_commute"), (api.cli, "stiefel2_explicit"),
             (api.cli, "check_dirac_psi_derivative"), (api.polyalg.VectorPoly, "__rmul__"),
             (api.geomint, "poly_on_points"), (pkg, "mc_stiefel_integral")]
    before = [getattr(holder, name) for holder, name in names]
    tracer = tracing.Tracer()
    tracer.patch()
    try:
        patched = [getattr(holder, name) is not orig for (holder, name), orig in zip(names, before)]
        expect(all(patched), "wrappers bind every name a wrapped function has")
        expect(not tracer.stray_bindings(patched=True), "no original left bound while patched")
    finally:
        tracer.restore()
    restored = [getattr(holder, name) is orig for (holder, name), orig in zip(names, before)]
    expect(all(restored), "originals restored")
    expect(not tracer.stray_bindings(patched=False), "no wrapper left bound after restore")


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json lists exactly the workloads")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in WORKLOADS:
        plain = run_bench(name, 0)
        expect(plain["correct"] and plain["failed"] == 0, f"{name}: plain run correct")
        expect({k: v["unit"] for k, v in plain["metrics"].items()} == e2e,
               f"{name}: plain run prints the end-to-end metrics of BENCHMARK.json")
        traced = [run_bench(name, 1) for _ in range(2)]
        expect(all(t["correct"] for t in traced), f"{name}: traced runs pass their self-checks")
        expect({k: v["unit"] for k, v in traced[0]["metrics"].items()} == layers,
               f"{name}: traced run prints the per-layer metrics of BENCHMARK.json")
        counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] in ("count", "B")}
                  for t in traced]
        expect(counts[0] == counts[1], f"{name}: counts repeat exactly across traced runs")
        calls = [k for k, v in counts[0].items() if k.endswith(".calls") and v]
        print(f"     {name}: nonzero calls in {len(calls)} spans: "
              + ", ".join(sorted({k.split('.')[0] for k in calls})))


def check_oracles():
    agree = True
    for m in range(2, 7):
        frame = oracles.FrameOracle(m)
        for exps in product(range(0, 9, 2), repeat=m):
            if sum(exps) <= 8:
                agree &= frame.integral({exps: Fraction(1)}, 1) == oracles.sphere_monomial(exps)
    expect(agree, "matching recursion at k = 1 equals the Gamma formula up to degree 8")


def main() -> int:
    check_seeds()
    check_oracles()
    check_bindings()
    check_runs()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
