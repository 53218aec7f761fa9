"""The three benchmark workloads: input generation, the call into cliffint, and the check.

A workload is a fixed *cycle* of op kinds and structural parameters
(dimension, degree, grid size), replayed with fresh seeded values on every
cycle and shuffled within it.  The seed picks exponents, coefficients,
coordinate permutations, rotations, radii, offsets and sub-seeds; it never
changes the mix or the structure, so two seeds load the program alike.
Runs stop at a cycle boundary, so every run sees the exact mix.

Each op carries only its generated inputs (polynomials as text, rational
matrices, numbers).  ``run`` calls the library through the module objects
in ``api`` at call time, so trace wrappers installed on those modules are
seen.  ``check`` compares the output with ``oracles``, which share no code
with cliffint, and returns ``None`` or the reason for the failure.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import oracles

BOX_HALF = Fraction(8, 5)  # every grid job runs on [-1.6, 1.6]^m
QUAD_REL_TOL = 1e-2
CAUCHY_RESIDUAL_TOL = 0.02
MC_SIGMAS = 5.0
MC_SAMPLES = 100_000


# -- text and value helpers -----------------------------------------------------


def _var(m: int, idx: int) -> str:
    j, i = divmod(idx, m)
    return f"x{j + 1}_{i + 1}"


def monomial_text(m: int, exps: tuple[int, ...]) -> str:
    factors = [_var(m, idx) if e == 1 else f"{_var(m, idx)}^{e}"
               for idx, e in enumerate(exps) if e]
    return "*".join(factors) or "1"


def random_monomial(rng: random.Random, m: int, k: int, deg: int) -> tuple[int, ...]:
    """Exponents of total degree deg.  Even degrees come in pairs that keep each
    coordinate's total even (so the integral is usually nonzero): a square of one
    variable, or the same coordinate in two different vectors."""
    exps = [0] * (m * k)
    for _ in range(deg // 2):
        i = rng.randrange(m)
        if k > 1 and rng.random() < 0.5:
            j1, j2 = rng.sample(range(k), 2)
            exps[j1 * m + i] += 1
            exps[j2 * m + i] += 1
        else:
            exps[rng.randrange(k) * m + i] += 2
    if deg % 2:
        exps[rng.randrange(m * k)] += 1
    return tuple(exps)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2])) * rng.choice([1, -1])


def _signed(first: bool, c: Fraction, name: str) -> str:
    mag = f"{abs(c)}*{name}" if abs(c) != 1 else name
    if first:
        return f"-{mag}" if c < 0 else mag
    return f" - {mag}" if c < 0 else f" + {mag}"


def _shift(name: str, c: Fraction) -> str:
    if not c:
        return name
    return f"({name} - {c})" if c > 0 else f"({name} + {-c})"


def _cayley(rng: random.Random, m: int) -> list[list[Fraction]]:
    """Rational orthogonal Q = (I - A)(I + A)^-1 from a seeded skew A."""
    a = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            v = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
            a[i][j], a[j][i] = v, -v
    eye = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    aug = [[eye[i][j] + a[i][j] for j in range(m)] + eye[i][:] for i in range(m)]
    for col in range(m):  # Gauss-Jordan; I + A is invertible for skew A
        piv = next(r for r in range(col, m) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = [row[m:] for row in aug]
    return [[sum((eye[i][t] - a[i][t]) * inv[t][j] for t in range(m))
             for j in range(m)] for i in range(m)]


def _exact_matches(value, ref: tuple[Fraction, int]) -> bool:
    q, h = ref
    return value.q == q and (q == 0 or value.h == h)


def _frame_ref(refs: dict, m: int, k: int, poly: dict) -> tuple[Fraction, int]:
    oracle = refs.setdefault(m, oracles.FrameOracle(m))
    return oracle.integral(poly, k)


class Workload:
    """Base: a cycle of ops, warm-up ops, and per-kind run and check."""

    name = ""
    why = ""
    pool_cycles_per_second = 1.0  # cycles generated per second of requested run
    trace_cycles = 1              # whole cycles replayed in a traced run
    python_weight = 1.0           # share of interpreter-bound work, for the speed probe

    def cycle(self, rng: random.Random) -> list[tuple[str, dict]]:
        raise NotImplementedError

    def warmups(self, rng: random.Random) -> list[tuple[str, dict]]:
        raise NotImplementedError

    def run(self, api, kind: str, op: dict):
        return getattr(self, f"run_{kind}")(api, op)

    def check(self, kind: str, op: dict, out, refs: dict, errors: dict) -> str | None:
        return getattr(self, f"check_{kind}")(op, out, refs, errors)


# -- exact_series -----------------------------------------------------------------

# Dense two-frame integrands: supports (flat variable indices) of the linear
# forms whose product is the integrand.  Fixed so that every seed has the same
# term counts (72 to 288 terms); the seed permutes coordinates, may swap the two
# vectors, and draws the coefficients.  The cheapest shape comes three times:
# with 11 dense ops in 100 the 90th latency percentile then falls inside its
# cluster, not on the edge between two shapes of different cost.
DENSE_SHAPES = [
    (5, [[4, 7, 8], [0, 7, 9], [0, 3, 7], [0, 1, 2]]),
    (5, [[4, 7, 8], [0, 7, 9], [0, 3, 7], [0, 1, 2]]),
    (5, [[4, 7, 8], [0, 7, 9], [0, 3, 7], [0, 1, 2]]),
    (4, [[3, 4, 5], [2, 4, 7], [0, 1, 2], [0, 1, 6], [1, 3, 5]]),
    (4, [[1, 3, 5], [0, 6, 7], [0, 3, 6], [0, 1, 2], [1, 2, 3]]),
    (5, [[6, 7, 9], [4, 8, 9], [1, 7, 8], [0, 2, 6], [1, 4, 9]]),
    (3, [[0, 2, 5], [1, 2, 3], [0, 2], [1, 2, 4], [1, 2, 4], [0, 3, 5]]),
    (3, [[0, 2], [0, 4], [0, 3, 5], [1, 2, 5], [1, 3, 5], [1, 3, 4]]),
    (4, [[0, 6, 7], [0, 3, 7], [0, 6], [1, 5, 7], [1, 3, 4], [0, 5]]),
    (5, [[0, 5, 8], [0, 7, 9], [4, 5, 6], [0, 6], [1, 7, 9], [2, 9]]),
    (5, [[5, 6, 9], [3, 5], [0, 7, 9], [2, 6, 7], [2, 4, 5], [0, 7, 9]]),
]


class ExactSeries(Workload):
    name = "exact_series"
    why = ("exact Pizzetti series on text integrands: differentiation kernels "
           "(laplacian, directional, apply_diffop) under the sphere and Stiefel drivers")
    pool_cycles_per_second = 1.5
    trace_cycles = 2

    # 58 two-frame monomials, 15 three-frame, 16 sphere, 11 dense two-frame.
    FRAME2 = [((3, 4, 5)[i % 3], 2 + i % 5) for i in range(58)]
    FRAME3 = [((4, 5)[i % 2], 2 + i % 3) for i in range(15)]
    SPHERE = [(2 + i % 5, (8, 6, 4, 2)[i % 4]) for i in range(16)]

    def _dense(self, rng: random.Random, m: int, supports: list[list[int]]) -> dict:
        perm = rng.sample(range(m), m)
        swap = rng.random() < 0.5
        forms = []
        for support in supports:
            form = []
            for idx in support:
                j, i = divmod(idx, m)
                form.append(((1 - j if swap else j) * m + perm[i], _rational(rng)))
            forms.append(form)
        text = "*".join("(" + "".join(_signed(t == 0, c, _var(m, idx))
                                      for t, (idx, c) in enumerate(form)) + ")"
                        for form in forms)
        return {"m": m, "k": 2, "text": text, "forms": forms}

    def _mono(self, rng: random.Random, m: int, k: int, deg: int) -> dict:
        exps = random_monomial(rng, m, k, deg)
        return {"m": m, "k": k, "text": monomial_text(m, exps), "exps": exps}

    def cycle(self, rng):
        ops = [("frame2", self._mono(rng, m, 2, d)) for m, d in self.FRAME2]
        ops += [("frame3", self._mono(rng, m, 3, d)) for m, d in self.FRAME3]
        ops += [("sphere", self._mono(rng, m, 1, d)) for m, d in self.SPHERE]
        ops += [("dense2", self._dense(rng, m, s)) for m, s in DENSE_SHAPES]
        rng.shuffle(ops)
        return ops

    def warmups(self, rng):
        # degree 6 in every dimension builds every two-frame symbol power the cycle uses
        ops = [("frame2", self._mono(rng, m, 2, 6)) for m in (3, 4, 5)]
        ops += [("frame3", self._mono(rng, m, 3, 4)) for m in (4, 5)]
        ops.append(("sphere", self._mono(rng, 4, 1, 8)))
        ops.append(("dense2", self._dense(rng, *DENSE_SHAPES[0])))
        return ops

    def run_frame2(self, api, op):
        p = api.cli.parse_poly(op["text"], op["m"], 2)
        return (api.pizzetti.stiefel_pizzetti_composed(p, op["m"], 2),
                api.pizzetti.stiefel2_explicit(p, op["m"]))

    run_dense2 = run_frame2

    def run_frame3(self, api, op):
        p = api.cli.parse_poly(op["text"], op["m"], 3)
        return api.pizzetti.stiefel_pizzetti_composed(p, op["m"], 3)

    def run_sphere(self, api, op):
        p = api.cli.parse_poly(op["text"], op["m"], 1)
        return api.pizzetti.sphere_pizzetti_detailed(p)

    def check_frame2(self, op, out, refs, errors):
        composed, explicit = out
        if composed != explicit:
            return f"composed {composed} != explicit {explicit}"
        if "forms" in op:
            poly = oracles.expand_linear_product(op["forms"], 2 * op["m"])
        else:
            poly = {op["exps"]: Fraction(1)}
        ref = _frame_ref(refs, op["m"], 2, poly)
        return None if _exact_matches(composed, ref) else f"{composed} != oracle {ref}"

    check_dense2 = check_frame2

    def check_frame3(self, op, out, refs, errors):
        ref = _frame_ref(refs, op["m"], 3, {op["exps"]: Fraction(1)})
        return None if _exact_matches(out, ref) else f"{out} != oracle {ref}"

    def check_sphere(self, op, out, refs, errors):
        ref = oracles.sphere_monomial(op["exps"])
        if out.terms_used < 1:
            return "no series terms used"
        return None if _exact_matches(out.value, ref) else f"{out.value} != oracle {ref}"


# -- surface_quadrature -------------------------------------------------------------


class SurfaceQuadrature(Workload):
    name = "surface_quadrature"
    why = ("mollified-delta grid quadrature on [-1.6,1.6]^m: the dense band sweep, "
           "poly_on_points on grids and the dense Clifford batch products")
    pool_cycles_per_second = 0.3
    trace_cycles = 1
    python_weight = 0.5

    # 40 jobs: 12 sphere areas, 10 circle lengths, 6 oriented, 8 Cauchy on the
    # circle, 4 classical Cauchy; the grid sizes give a spread of cell counts.
    # The 6 circle jobs at n = 160, the slowest kind, hold the 90th percentile
    # inside one cluster of latencies rather than on the edge between two.
    JOBS = ([("sphere", n) for n in (96, 128, 160) * 4]
            + [("circle", n) for n in (96, 128, 160, 160, 160) * 2]
            + [("oriented", n) for n in (96, 128, 160) * 2]
            + [("cauchy", n) for n in (96, 128, 160) * 2 + (96, 128)]
            + [("classical", n) for n in (201, 402) * 2])

    def _geometry(self, rng: random.Random, m: int) -> dict:
        # radius 0.95..1.15 and |offset| <= 0.1 keep the band (|phi| < eps + span/2,
        # eps = 6 h) well inside the box at every grid size used
        r = Fraction(rng.randint(950, 1150), 1000)
        c = [Fraction(rng.randint(-100, 100), 1000) for _ in range(m)]
        terms = " + ".join(f"{_shift(f'x1_{i + 1}', ci)}^2" for i, ci in enumerate(c))
        return {"m": m, "r": r, "c": c, "sphere": f"{terms} - {r * r}"}

    def _job(self, rng: random.Random, kind: str, n: int) -> dict:
        op = self._geometry(rng, 2 if kind == "classical" else 3)
        op["n"] = n
        if kind in ("circle", "oriented", "cauchy"):
            height = op["c"][2] + Fraction(rng.randint(-300, 300), 1000)
            op["plane"] = _shift("x1_3", height)
            op["rho"] = math.sqrt(op["r"] ** 2 - (height - op["c"][2]) ** 2)
        if kind == "cauchy":
            # the cut x1 = const stays within 0.25 of the circle's center (rho > 0.8)
            op["cut"] = _shift("x1_1", op["c"][0] + Fraction(rng.randint(-250, 250), 1000))
        return op

    def cycle(self, rng):
        ops = [(kind, self._job(rng, kind, n)) for kind, n in self.JOBS]
        rng.shuffle(ops)
        return ops

    def warmups(self, rng):
        return [(kind, self._job(rng, kind, 201 if kind == "classical" else 96))
                for kind in ("sphere", "circle", "oriented", "cauchy", "classical")]

    def _spec(self, api, op, phases: list[str]):
        m = op["m"]
        polys = [api.cli.parse_poly(t, m, 1) for t in phases]
        box = [(-float(BOX_HALF), float(BOX_HALF))] * m
        spec = api.geomint.ImplicitSurfaceSpec(m, polys, box)
        return spec, api.geomint.QuadratureConfig(n=op["n"])

    def run_sphere(self, api, op):
        spec, cfg = self._spec(api, op, [op["sphere"]])
        return api.geomint.integrate_implicit(1, spec, cfg)

    def run_circle(self, api, op):
        spec, cfg = self._spec(api, op, [op["sphere"], op["plane"]])
        return api.geomint.integrate_implicit(1, spec, cfg)

    def run_oriented(self, api, op):
        spec, cfg = self._spec(api, op, [op["sphere"], op["plane"]])
        f = api.cli.parse_poly("x1_1", 3, 1)
        return api.geomint.integrate_oriented(f, spec, cfg)

    def run_cauchy(self, api, op):
        spec, cfg = self._spec(api, op, [op["sphere"], op["plane"]])
        parse = api.cli.parse_poly
        return api.geomint.cauchy_check(parse("1", 3), parse("x1_2", 3), parse(op["cut"], 3),
                                        spec, cfg)

    def run_classical(self, api, op):
        spec, cfg = self._spec(api, op, [])
        parse = api.cli.parse_poly
        return api.geomint.cauchy_check(parse("1", 2), parse("x1_1", 2), parse(op["sphere"], 2),
                                        spec, cfg)

    @staticmethod
    def _rel(value: float, ref: float, errors: dict) -> str | None:
        err = abs(value - ref) / abs(ref)
        errors["quad"] = max(errors.get("quad", 0.0), err)
        if err < QUAD_REL_TOL:
            return None
        return f"value {value!r} vs closed form {ref!r}: rel err {err:.3g}"

    def check_sphere(self, op, out, refs, errors):
        return self._rel(out, oracles.sphere_area(float(op["r"])), errors)

    def check_circle(self, op, out, refs, errors):
        return self._rel(out, oracles.circle_length(op["rho"]), errors)

    def check_oriented(self, op, out, refs, errors):
        ref = oracles.circle_oriented_x1(op["rho"])
        stray = math.sqrt(sum(float(c) ** 2 for blade, c in out.terms.items() if blade != (1, 3)))
        if stray > QUAD_REL_TOL * ref:
            return f"off-plane blade components of size {stray:.3g}"
        return self._rel(float(out.terms.get((1, 3), 0.0)), ref, errors)

    @staticmethod
    def _residual(out, errors: dict) -> str | None:
        errors["cauchy"] = max(errors.get("cauchy", 0.0), out.residual)
        if not out.residual < CAUCHY_RESIDUAL_TOL:
            return f"residual {out.residual:.4g} >= {CAUCHY_RESIDUAL_TOL}"
        return None

    def check_cauchy(self, op, out, refs, errors):
        return self._residual(out, errors)

    def check_classical(self, op, out, refs, errors):
        # f = 1, g = x1 over the disk: the left side is the disk area on e1
        bad = self._residual(out, errors)
        area = math.pi * float(op["r"]) ** 2
        lhs = float(out.lhs.terms.get((1,), 0.0))
        if bad is None and abs(lhs - area) > QUAD_REL_TOL * area:
            bad = f"left side {lhs!r} vs disk area {area!r}"
        return bad


# -- verification ---------------------------------------------------------------------


class Verification(Workload):
    name = "verification"
    why = ("identity suites, exact rotation invariance and Monte Carlo: polynomial "
           "multiplication, clifford and exterior, and poly_on_points on random frames")
    pool_cycles_per_second = 2.0
    trace_cycles = 4
    python_weight = 0.75

    SUITES = ("clifford", "exterior", "series")
    # (k, m, degree) of the rotation checks; three rounds of 14 make 42.
    ROTATIONS = [(1, 3, 4), (2, 3, 4), (1, 4, 4), (2, 4, 2), (1, 5, 6), (2, 4, 4), (2, 5, 2),
                 (3, 5, 2), (1, 4, 6), (2, 3, 2), (2, 5, 4), (1, 5, 4), (2, 4, 3), (1, 3, 6)] * 3

    def _suite(self, rng, i: int) -> dict:
        return {"suite": self.SUITES[i % 3], "seed": rng.getrandbits(32)}

    def _rotation(self, rng, k: int, m: int, deg: int, q: list[list[Fraction]]) -> dict:
        exps = random_monomial(rng, m, k, deg)
        return {"m": m, "k": k, "text": monomial_text(m, exps), "exps": exps, "q": q}

    def _mc(self, rng, m: int) -> dict:
        exps = random_monomial(rng, m, 2, rng.choice([2, 4]))
        return {"m": m, "text": monomial_text(m, exps), "exps": exps, "seed": rng.getrandbits(32)}

    def cycle(self, rng):
        ops = [("suite", self._suite(rng, i)) for i in range(55)]
        rotations = {m: _cayley(rng, m) for m in (3, 4, 5)}  # one Q per dimension per cycle
        ops += [("rotation", self._rotation(rng, k, m, d, rotations[m]))
                for k, m, d in self.ROTATIONS]
        ops += [("mc", self._mc(rng, m)) for m in (3, 4, 3)]
        rng.shuffle(ops)
        return ops

    def warmups(self, rng):
        ops = [("suite", self._suite(rng, i)) for i in range(3)]
        q = _cayley(rng, 4)
        ops += [("rotation", self._rotation(rng, k, 4, 4, q)) for k in (1, 2)]
        ops.append(("mc", self._mc(rng, 3)))
        return ops

    def run_suite(self, api, op):
        return api.cli.run_suite(op["suite"], 1, op["seed"])

    def run_rotation(self, api, op):
        m, k = op["m"], op["k"]
        p = api.cli.parse_poly(op["text"], m, k)
        rotated = p.compose_linear(op["q"])
        if k == 1:
            return api.pizzetti.sphere_pizzetti(p), api.pizzetti.sphere_pizzetti(rotated)
        return (api.pizzetti.stiefel_pizzetti_composed(p, m, k),
                api.pizzetti.stiefel_pizzetti_composed(rotated, m, k))

    def run_mc(self, api, op):
        p = api.cli.parse_poly(op["text"], op["m"], 2)
        return api.geomint.mc_stiefel_integral(p, op["m"], 2, MC_SAMPLES, op["seed"])

    def check_suite(self, op, out, refs, errors):
        passed = sum(v[0] for v in out.values())
        failed = sum(v[1] for v in out.values())
        return None if failed == 0 and passed > 0 else f"{failed} failed, {passed} passed"

    def check_rotation(self, op, out, refs, errors):
        base, rotated = out
        if base != rotated:
            return f"value {base} changed to {rotated} under rotation"
        if op["k"] == 1:
            ref = oracles.sphere_monomial(op["exps"])
        else:
            ref = _frame_ref(refs, op["m"], op["k"], {op["exps"]: Fraction(1)})
        return None if _exact_matches(base, ref) else f"{base} != oracle {ref}"

    def check_mc(self, op, out, refs, errors):
        exact = oracles.exact_to_float(_frame_ref(refs, op["m"], 2, {op["exps"]: Fraction(1)}))
        if out.n_samples != MC_SAMPLES or not out.standard_error > 0:
            return f"bad estimate {out}"
        dev = abs(out.mean - exact) / out.standard_error
        return None if dev <= MC_SIGMAS else f"mean {out.mean!r} is {dev:.2f} sigma from {exact!r}"


WORKLOADS = {w.name: w for w in (ExactSeries(), SurfaceQuadrature(), Verification())}
