"""Command-line interface.

Subcommands:

- ``pizzetti sphere`` / ``pizzetti stiefel``: exact polynomial integrals.
- ``oracle mc``: Monte Carlo reference values over frames.
- ``integrate implicit`` / ``integrate oriented``: grid surface quadrature.
- ``verify identities`` / ``verify cauchy``: randomized identity suites and
  the boundary-value residual check.  Each is one table: ``_SUITES`` maps a
  suite name to its trial function, which makes one trial's random draws
  and returns {check: verdict}, and ``_CAUCHY_CASES`` maps a case name to
  the builder of its surface, cut and fields.  A new suite or case is a
  new row, and the row's name is a ``--suite`` or ``--case`` choice.

Polynomial text is read by ``polyalg.parse_poly`` and a parsed polynomial
printed as its ``repr``.  Results are emitted as a single JSON object on
stdout (optionally mirrored to ``--out``); logs go to stderr.  Exit
status: 0 on success, 1 when a computation fails or a verification does
not pass, 2 on usage or parse errors and on values JSON cannot carry.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import operator
import random
import sys
from fractions import Fraction
from functools import reduce

from .clifford import Multivector, dot, gram_det, wedge, wedge_vectors
from .exterior import (check_psi_blade_pairing, check_gradient_contraction, check_dirac_psi_derivative, check_gradient_blade_volume,
                       check_oriented_measure_product)
from .geomint import (BoundaryContactError, FloatRangeError, ImplicitSurfaceSpec,
                      IndependenceError, QuadratureConfig, TransversalityError,
                      cauchy_check, integrate_implicit, integrate_oriented,
                      mc_stiefel_integral)
from .pizzetti import (directional_power_closed_form, gauss_sum_check, sphere_pizzetti_detailed,
                       stiefel2_explicit, stiefel_pizzetti_composed)
from .polyalg import ExactScalar, ParseError, VectorPoly, delta_pair, fischer_commute, parse_poly

log = logging.getLogger("cliffint")


def _parse_box(text: str, m: int) -> list[tuple[float, float]]:
    parts = [p for p in text.split(";") if p.strip()]
    try:
        pairs = []
        for part in parts:
            lo, hi = part.split(",")
            pairs.append((float(lo), float(hi)))
    except ValueError as exc:
        raise ParseError(f"bad box {text!r}; use 'lo,hi;lo,hi;...'") from exc
    if len(pairs) == 1:
        pairs = pairs * m
    if len(pairs) != m:
        raise ParseError(f"box has {len(pairs)} extents, need {m}")
    return pairs


def _multivector_json(mv: Multivector) -> dict[str, float]:
    return {name or "1": float(coeff) for name, coeff in mv._named_terms()}


def _text(value) -> str:
    """``str(value)``; a number past Python's int-string limit is refused."""
    try:
        return str(value)
    except ValueError:
        raise ParseError("the output holds a number past Python's int-string limit") from None


def _exact_json(value: ExactScalar) -> dict:
    """The exact value's text and float; JSON has no infinity to carry an overflow."""
    try:
        number = value.to_float()
    except OverflowError:
        raise FloatRangeError("the exact value lies beyond the float range") from None
    return {"value": _text(value), "float": number}


# -- randomized identity suites ----------------------------------------------


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))


def _rand_multivector(rng: random.Random, m: int, max_terms: int = 4) -> Multivector:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        k = rng.randint(0, m)
        blade = tuple(sorted(rng.sample(range(1, m + 1), k)))
        terms[blade] = _rand_fraction(rng)
    return Multivector(m, terms)


def _rand_homogeneous(rng: random.Random, m: int, k: int) -> Multivector:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        blade = tuple(sorted(rng.sample(range(1, m + 1), k)))
        terms[blade] = _rand_fraction(rng)
    mv = Multivector(m, terms)
    return mv if mv.terms else Multivector.basis(m, tuple(range(1, k + 1)))


def _rand_vector(rng: random.Random, m: int) -> Multivector:
    return Multivector.from_vector([Fraction(rng.randint(-3, 3)) for _ in range(m)])


def _rand_poly(rng: random.Random, m: int, nvars: int = 1, deg: int = 2,
               terms: int = 3) -> VectorPoly:
    width = m * nvars
    acc = {}
    for _ in range(terms):
        key = [0] * width
        for _ in range(rng.randint(0, deg)):
            key[rng.randrange(width)] += 1
        acc[tuple(key)] = _rand_fraction(rng)
    p = VectorPoly(m, nvars, acc)
    return p if not p.is_zero() else VectorPoly.constant(m, 1, nvars)


def _rand_quadratic_phase(rng: random.Random, m: int) -> VectorPoly:
    """c + sum_i c_i x_i + sum_{i <= j} c_ij x_i x_j, the terms in the order drawn."""
    terms = {(0,) * m: rng.randint(-2, 2)}
    for i in range(m):
        ci = rng.randint(-2, 2)
        if ci:
            terms[tuple(int(t == i) for t in range(m))] = ci
        for j in range(i, m):
            cij = rng.randint(-1, 1)
            if cij:
                terms[tuple((t == i) + (t == j) for t in range(m))] = cij
    return VectorPoly(m, 1, terms)


def _directional_power_brute(j: int, k: int, m: int) -> VectorPoly:
    """<d/dx, y>^(2j) |x|^(2k+2j) by repeated differentiation."""
    p = VectorPoly.norm_squared_var(m, 1, 2) ** (k + j)
    weights = [VectorPoly.variable(m, 2, i, 2) for i in range(1, m + 1)]
    for _ in range(2 * j):
        p = p.directional(1, weights)
    return p


def _clifford_trial(rng: random.Random) -> dict[str, bool]:
    m = rng.randint(2, 4)
    a, b, c = (_rand_multivector(rng, m) for _ in range(3))
    checks = {"associativity": (a * b) * c == a * (b * c)}
    i, j = rng.randint(1, m), rng.randint(1, m)
    ei, ej = Multivector.basis(m, (i,)), Multivector.basis(m, (j,))
    checks["anticommutation"] = ei * ej + ej * ei == Multivector.scalar(m, -2 if i == j else 0)
    k = rng.randint(0, m)
    hom = _rand_homogeneous(rng, m, k)
    v = _rand_vector(rng, m)
    sign = -1 if k % 2 else 1
    half = Fraction(1, 2)
    if k >= 1:
        # the dot of a vector with a scalar s is v s, not the halved commutator,
        # which vanishes; vector_dot_grade checks that case
        commutator = v * hom - sign * (hom * v)
        lhs = Multivector(m, {bl: co * half for bl, co in commutator.terms.items()})
        checks["vector_dot_halved"] = dot(v, hom) == lhs
    checks["vector_dot_grade"] = dot(v, hom) == (v * hom).grade_project(abs(k - 1))
    lhs_w = Multivector(m, {bl: co * half for bl, co in (v * hom + sign * (hom * v)).terms.items()})
    checks["vector_wedge_halved"] = wedge(v, hom) == lhs_w
    checks["vector_wedge_grade"] = wedge(v, hom) == (v * hom).grade_project(k + 1)
    kk = rng.randint(1, m)
    vecs = [_rand_vector(rng, m) for _ in range(kk)]
    w = wedge_vectors(vecs)
    checks["wedge_grade_of_product"] = w == reduce(operator.mul, vecs).grade_project(kk)
    if kk >= 2:
        swapped = [vecs[1], vecs[0], *vecs[2:]]
        checks["wedge_antisymmetry"] = wedge_vectors(swapped) == -w
        checks["wedge_repeat_zero"] = wedge_vectors([vecs[0]] + vecs[:-1]).is_zero()
    vs = [_rand_vector(rng, m) for _ in range(kk)]
    checks["gram_equals_wedge_norm"] = gram_det(vs) == wedge_vectors(vs).norm_squared()
    return checks


def _exterior_trial(rng: random.Random) -> dict[str, bool]:
    m = rng.randint(2, 4)
    k = rng.randint(1, min(3, m))
    phases = [_rand_quadratic_phase(rng, m) for _ in range(k)]
    checks = {"oriented_measure_product": bool(check_oriented_measure_product(phases)),
              "gradient_blade_volume": bool(check_gradient_blade_volume(phases))}
    checks["dot_contraction"] = bool(check_gradient_contraction(phases[0], rng.randint(1, m)))
    checks["psi_blade_pairing"] = bool(check_psi_blade_pairing(m, rng.randint(0, min(3, m))))
    f = _rand_poly(rng, m, 1, 3, 4)
    checks["dirac_wedge_derivative"] = bool(
        check_dirac_psi_derivative(m, rng.randint(0, m - 1), f))
    return checks


def _series_trial(rng: random.Random) -> dict[str, bool]:
    m = rng.randint(2, 3)
    j, k = rng.randint(0, 2), rng.randint(0, 2)
    checks = {"inner_power_closed_form":
              _directional_power_brute(j, k, m) == directional_power_closed_form(j, k, m)}
    r = rng.randint(0, 3)
    l = rng.randint(r, 4)
    checks["gamma_summation"] = gauss_sum_check(r, l, rng.randint(0, 3), rng.randint(2, 5))
    mm = rng.randint(1, 3)
    rr = _rand_poly(rng, mm, 1, 3, 3)
    qq = _rand_poly(rng, mm, 1, 2, 2)
    pp = _rand_poly(rng, mm, 1, 3, 3)
    checks["delta_factor_commutation"] = (delta_pair(rr, qq * pp)
                                          == delta_pair(fischer_commute(rr, qq), pp))
    return checks


# suite name -> one trial: its draws from the suite's stream, then {check: verdict};
# the trials call the library through this module's names, which bench/tracing.py patches
_SUITES = {"clifford": _clifford_trial, "exterior": _exterior_trial, "series": _series_trial}


def run_suite(name: str, trials: int, seed: int) -> dict:
    """Run ``trials`` trials of the named identity suite; returns {check: [passed, failed]}.

    ``_SUITES`` maps the suite name to its trial function.  All trials draw
    from one ``random.Random(seed)`` stream in a fixed order, so a new
    check appends its draws at the end of its trial: then the checks
    before it draw what they drew before, in the first trial and so in
    every one-trial run.  A check that a trial's draws rule out (the wedge
    swaps for a single vector, the halved commutator for a scalar) is
    absent from that trial, not passed.
    """
    try:
        trial = _SUITES[name]
    except KeyError:
        raise ParseError(f"unknown suite {name!r}") from None
    rng = random.Random(seed)
    results: dict[str, list[int]] = {}
    for _ in range(trials):
        for check, ok in trial(rng).items():
            results.setdefault(check, [0, 0])[0 if ok else 1] += 1
    return results


# -- subcommand handlers -------------------------------------------------------


def _handle_pizzetti_sphere(args) -> tuple[dict, bool]:
    if args.m < 2:
        raise ParseError("need dimension m >= 2")
    poly = parse_poly(args.poly, args.m, 1)
    detail = sphere_pizzetti_detailed(poly)
    log.info("sphere integral in dimension %d, %d series terms", args.m, detail.terms_used)
    payload = {"command": "pizzetti sphere", "m": args.m,
               "poly": _text(poly), "terms_used": detail.terms_used}
    payload.update(_exact_json(detail.value))
    return payload, True


def _handle_pizzetti_stiefel(args) -> tuple[dict, bool]:
    if not 1 <= args.k <= args.m - 1:
        raise ParseError(f"need 1 <= k <= m - 1 = {args.m - 1}")
    if args.method == "explicit2" and args.k != 2:
        raise ParseError("--method explicit2 requires k = 2")
    poly = parse_poly(args.poly, args.m, args.k)
    if args.method == "explicit2":
        value = stiefel2_explicit(poly, args.m)
    else:
        value = stiefel_pizzetti_composed(poly, args.m, args.k)
    log.info("frame integral on %d-frames in R^%d via %s", args.k, args.m, args.method)
    payload = {"command": "pizzetti stiefel", "m": args.m, "k": args.k,
               "method": args.method, "poly": _text(poly)}
    payload.update(_exact_json(value))
    return payload, True


def _handle_oracle_mc(args) -> tuple[dict, bool]:
    if not 1 <= args.k <= args.m:
        raise ParseError(f"need 1 <= k <= m = {args.m}")
    if args.n_samples < 2:
        raise ParseError("need at least two samples")
    if args.seed < 0:
        raise ParseError("need a non-negative seed")
    poly = parse_poly(args.poly, args.m, args.k)
    est = mc_stiefel_integral(poly, args.m, args.k, args.n_samples, args.seed)
    log.info("Monte Carlo with %d samples, seed %d", est.n_samples, est.seed)
    payload = {"command": "oracle mc", "m": args.m, "k": args.k,
               "poly": _text(poly), "n_samples": est.n_samples,
               "seed": est.seed, "mean": est.mean,
               "standard_error": est.standard_error}
    return payload, True


def _checked_surface(m: int, phases: list, box,
                     args) -> tuple[ImplicitSurfaceSpec, QuadratureConfig, float]:
    """Surface, grid settings and resolved eps, with every invalid value a ParseError."""
    try:
        spec = ImplicitSurfaceSpec(m, phases, box)
        cfg = QuadratureConfig(n=args.n, eps=args.eps)
        eps = cfg.resolve_eps(spec.box)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return spec, cfg, eps


def _build_surface(args) -> tuple[ImplicitSurfaceSpec, QuadratureConfig, float]:
    # the phases are polynomials in R^m, which must exist before they parse
    if args.m < 1:
        raise ParseError("need dimension m >= 1")
    phase_texts = [p for p in args.phases.split(";") if p.strip()] if args.phases else []
    phases = [parse_poly(t, args.m, 1) for t in phase_texts]
    return _checked_surface(args.m, phases, _parse_box(args.box, args.m), args)


def _handle_integrate(args) -> tuple[dict, bool]:
    spec, cfg, eps = _build_surface(args)
    if spec.k < 1:
        raise ParseError("need at least one phase")
    f = parse_poly(args.f, args.m, 1)
    if args.subcommand == "implicit":
        value = integrate_implicit(f, spec, cfg)
    else:
        value = _multivector_json(integrate_oriented(f, spec, cfg))
    log.info("grid %d^%d, eps %.6g", cfg.n, args.m, eps)
    payload = {"command": f"integrate {args.subcommand}", "m": args.m, "k": spec.k,
               "n": cfg.n, "eps": eps, "value": value}
    return payload, True


def _handle_verify_identities(args) -> tuple[dict, bool]:
    if args.trials < 1:
        raise ParseError("need at least one trial")
    results = run_suite(args.suite, args.trials, args.seed)
    passed = sum(v[0] for v in results.values())
    failed = sum(v[1] for v in results.values())
    log.info("suite %s: %d passed, %d failed", args.suite, passed, failed)
    payload = {"command": "verify identities", "suite": args.suite,
               "trials": args.trials, "seed": args.seed,
               "passed": passed, "failed": failed,
               "checks": {k: {"passed": v[0], "failed": v[1]}
                          for k, v in sorted(results.items())}}
    return payload, failed == 0


# case name -> builder of (m, phases, phi, F, G), integrated over [-1.6, 1.6]^m
_CAUCHY_CASES = {
    # the half x1 <= 0 of the unit circle in the x1 x2 plane of R^3; F = 1, G = x2
    "circle": lambda: (3, [VectorPoly.norm_squared_var(3, 1) - 1, VectorPoly.variable(3, 1, 3)],
                       VectorPoly.variable(3, 1, 1), VectorPoly.constant(3, 1),
                       VectorPoly.variable(3, 1, 2)),
    # the unit disk |x|^2 - 1 <= 0 in R^2, with no phases; F = 1, G = x1
    "classical": lambda: (2, [], VectorPoly.norm_squared_var(2, 1) - 1,
                          VectorPoly.constant(2, 1), VectorPoly.variable(2, 1, 1)),
}


def _handle_verify_cauchy(args) -> tuple[dict, bool]:
    if not (math.isfinite(args.threshold) and args.threshold > 0):
        raise ParseError(f"need a finite positive threshold, got {args.threshold}")
    m, phases, phi, f_field, g_field = _CAUCHY_CASES[args.case]()
    spec, cfg, _ = _checked_surface(m, phases, [(-1.6, 1.6)] * m, args)
    result = cauchy_check(f_field, g_field, phi, spec, cfg)
    ok = result.residual < args.threshold
    log.info("case %s: residual %.4g (threshold %g)", args.case,
             result.residual, args.threshold)
    payload = {"command": "verify cauchy", "case": args.case, "n": cfg.n,
               "residual": result.residual, "threshold": args.threshold,
               "lhs": _multivector_json(result.lhs),
               "rhs": _multivector_json(result.rhs), "ok": ok}
    return payload, ok


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffint",
        description="Exact and numerical integration built on Clifford algebra")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="also write the JSON result to this file")
    common.add_argument("-q", "--quiet", action="store_true", help="suppress logs")
    sub = parser.add_subparsers(dest="command", required=True)

    pizzetti = sub.add_parser("pizzetti", help="exact polynomial integrals")
    psub = pizzetti.add_subparsers(dest="subcommand", required=True)
    sphere = psub.add_parser("sphere", parents=[common],
                             help="integral over the unit sphere")
    sphere.add_argument("--m", type=int, required=True, help="ambient dimension")
    sphere.add_argument("--poly", required=True, help="polynomial in x1_1..x1_m")
    sphere.set_defaults(handler=_handle_pizzetti_sphere)
    stiefel = psub.add_parser("stiefel", parents=[common],
                             help="integral over orthonormal k-frames")
    stiefel.add_argument("--m", type=int, required=True)
    stiefel.add_argument("--k", type=int, required=True)
    stiefel.add_argument("--poly", required=True,
                         help="polynomial in x1_1..xk_m; dot(xa,xb), normsq(xa) allowed")
    stiefel.add_argument("--method", choices=["composed", "explicit2"],
                         default="composed")
    stiefel.set_defaults(handler=_handle_pizzetti_stiefel)

    oracle = sub.add_parser("oracle", help="Monte Carlo reference values")
    osub = oracle.add_subparsers(dest="subcommand", required=True)
    mc = osub.add_parser("mc", parents=[common],
                        help="Haar Monte Carlo over orthonormal frames")
    mc.add_argument("--m", type=int, required=True)
    mc.add_argument("--k", type=int, required=True)
    mc.add_argument("--poly", required=True)
    mc.add_argument("--n-samples", type=int, default=100000, dest="n_samples")
    mc.add_argument("--seed", type=int, default=0)
    mc.set_defaults(handler=_handle_oracle_mc)

    integ = sub.add_parser("integrate", help="grid surface quadrature")
    isub = integ.add_subparsers(dest="subcommand", required=True)
    for name in ("implicit", "oriented"):
        p = isub.add_parser(name, parents=[common])
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--phases", required=True,
                       help="semicolon-separated phase polynomials")
        p.add_argument("--f", default="1", help="scalar integrand (default 1)")
        p.add_argument("--box", required=True,
                       help="'lo,hi' for all axes or 'lo,hi;lo,hi;...' per axis")
        p.add_argument("--n", type=int, default=201)
        p.add_argument("--eps", type=float, default=None)
        p.set_defaults(handler=_handle_integrate)

    verify = sub.add_parser("verify", help="identity suites and residual checks")
    vsub = verify.add_subparsers(dest="subcommand", required=True)
    ident = vsub.add_parser("identities", parents=[common])
    ident.add_argument("--suite", choices=sorted(_SUITES), required=True)
    ident.add_argument("--trials", type=int, default=20)
    ident.add_argument("--seed", type=int, default=0)
    ident.set_defaults(handler=_handle_verify_identities)
    cauchy = vsub.add_parser("cauchy", parents=[common])
    cauchy.add_argument("--case", choices=sorted(_CAUCHY_CASES), required=True)
    cauchy.add_argument("--n", type=int, default=201)
    cauchy.add_argument("--eps", type=float, default=None)
    cauchy.add_argument("--threshold", type=float, default=0.02)
    cauchy.set_defaults(handler=_handle_verify_cauchy)

    return parser


def run(argv: list[str]) -> int:
    """Parse arguments, run the requested command, return the exit status."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if not args.quiet:
        logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                            format="%(levelname)s %(message)s")
    try:
        payload, ok = args.handler(args)
    except (ParseError, FloatRangeError) as exc:
        # a polynomial beyond the float range is refused before any work
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IndependenceError, BoundaryContactError, TransversalityError,
            ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(payload, indent=2, sort_keys=True)
    # written before stdout, so a failed run prints no result, as on any error
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 1
    print(text)
    return 0 if ok else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
