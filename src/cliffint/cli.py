"""Command-line interface.

Subcommands:

- ``pizzetti sphere`` / ``pizzetti stiefel``: exact polynomial integrals.
- ``oracle mc``: Monte Carlo reference values over frames.
- ``integrate implicit`` / ``integrate oriented``: grid surface quadrature.
- ``verify identities`` / ``verify cauchy``: randomized identity suites and
  the boundary-value residual check.

Results are emitted as a single JSON object on stdout (optionally mirrored
to ``--out``); logs go to stderr.  Exit status: 0 on success, 1 when a
computation fails or a verification does not pass, 2 on usage or parse
errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import random
import re
import sys
from fractions import Fraction

from .clifford import (Multivector, Vector1, dot, grade_project, gram_det,
                       wedge, wedge_vectors)
from .exterior import (check_psi_blade_pairing, check_gradient_contraction, check_dirac_psi_derivative, check_gradient_blade_volume,
                       check_oriented_measure_product)
from .geomint import (BoundaryContactError, ImplicitSurfaceSpec,
                      IndependenceError, QuadratureConfig, TransversalityError,
                      cauchy_check, integrate_implicit, integrate_oriented,
                      mc_stiefel_integral)
from .pizzetti import (directional_power_closed_form, gauss_sum_check, sphere_pizzetti_detailed,
                       stiefel2_explicit, stiefel_pizzetti_composed)
from .polyalg import ExactScalar, VectorPoly, delta_pair, fischer_commute

log = logging.getLogger("cliffint")


class ParseError(Exception):
    """Malformed expression or malformed CLI value."""


# -- polynomial expression parsing -------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<rat>\d+(?:/\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)

_VAR_RE = re.compile(r"^x(\d+)_(\d+)$")
_VEC_RE = re.compile(r"^x(\d+)$")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        pos = match.end()
        kind = match.lastgroup
        if kind != "ws":
            tokens.append((kind, match.group()))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    """Recursive-descent parser for polynomial expressions.

    Grammar: sums and differences of terms; terms are products of factors;
    a factor is an optional chain of unary minuses applied to a power; a
    power is an atom optionally raised to a nonnegative integer literal.
    Atoms: rational literals, components xJ_I, dot(xA, xB), normsq(xJ),
    parenthesized expressions.
    """

    def __init__(self, tokens: list[tuple[str, str]], m: int, nvars: int):
        self.tokens = tokens
        self.idx = 0
        self.m = m
        self.nvars = nvars

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.idx]

    def advance(self) -> tuple[str, str]:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, value: str):
        kind, text = self.advance()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}")

    def parse(self) -> VectorPoly:
        out = self.expression()
        kind, text = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}")
        return out

    def expression(self) -> VectorPoly:
        out = self.term()
        while True:
            kind, text = self.peek()
            if text == "+":
                self.advance()
                out = out + self.term()
            elif text == "-":
                self.advance()
                out = out - self.term()
            else:
                return out

    def term(self) -> VectorPoly:
        out = self.factor()
        while self.peek()[1] == "*":
            self.advance()
            out = out * self.factor()
        return out

    def factor(self) -> VectorPoly:
        if self.peek()[1] == "-":
            self.advance()
            return -self.factor()
        return self.power()

    def power(self) -> VectorPoly:
        base = self.atom()
        if self.peek()[1] == "^":
            self.advance()
            kind, text = self.advance()
            if kind != "rat" or "/" in text:
                raise ParseError(f"exponent must be an integer literal, found {text!r}")
            return base ** int(text)
        return base

    def atom(self) -> VectorPoly:
        kind, text = self.advance()
        if kind == "rat":
            return VectorPoly.constant(self.m, Fraction(text), self.nvars)
        if text == "(":
            inner = self.expression()
            self.expect(")")
            return inner
        if kind == "name":
            if text == "dot":
                self.expect("(")
                ja = self.vector_name()
                self.expect(",")
                jb = self.vector_name()
                self.expect(")")
                return VectorPoly.dot_vars(self.m, self.nvars, ja, jb)
            if text == "normsq":
                self.expect("(")
                j = self.vector_name()
                self.expect(")")
                return VectorPoly.norm_squared_var(self.m, j, self.nvars)
            var = _VAR_RE.match(text)
            if var:
                j, i = int(var.group(1)), int(var.group(2))
                if not 1 <= j <= self.nvars:
                    raise ParseError(f"vector index {j} out of range 1..{self.nvars}")
                if not 1 <= i <= self.m:
                    raise ParseError(f"coordinate index {i} out of range 1..{self.m}")
                return VectorPoly.variable(self.m, j, i, self.nvars)
            raise ParseError(f"unknown name {text!r}")
        raise ParseError(f"unexpected token {text or 'end of input'!r}")

    def vector_name(self) -> int:
        kind, text = self.advance()
        match = _VEC_RE.match(text) if kind == "name" else None
        if not match:
            raise ParseError(f"expected a vector name like x1, found {text!r}")
        j = int(match.group(1))
        if not 1 <= j <= self.nvars:
            raise ParseError(f"vector index {j} out of range 1..{self.nvars}")
        return j


def parse_poly(text: str, m: int, nvars: int = 1) -> VectorPoly:
    """Parse a polynomial expression into a VectorPoly."""
    return _Parser(_tokenize(text), m, nvars).parse()


def render_poly(p: VectorPoly) -> str:
    """Canonical printable form; parse_poly inverts it."""
    return repr(p)


def parse_exact(text: str) -> ExactScalar:
    """Inverse of str(ExactScalar): accepts 'q', 'q * pi', 'q * pi^p', 'q * pi^(h/2)'."""
    text = text.strip()
    if "*" not in text:
        try:
            return ExactScalar(Fraction(text), 0)
        except ValueError as exc:
            raise ParseError(f"bad exact scalar {text!r}") from exc
    qpart, _, pipart = text.partition("*")
    try:
        q = Fraction(qpart.strip())
    except ValueError as exc:
        raise ParseError(f"bad rational part {qpart.strip()!r}") from exc
    pipart = pipart.strip()
    if pipart == "pi":
        return ExactScalar(q, 2)
    half = re.fullmatch(r"pi\^\((\d+)/2\)", pipart)
    if half:
        return ExactScalar(q, int(half.group(1)))
    whole = re.fullmatch(r"pi\^(\d+)", pipart)
    if whole:
        return ExactScalar(q, 2 * int(whole.group(1)))
    raise ParseError(f"bad pi part {pipart!r}")


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
    out = {}
    for blade in sorted(mv.terms, key=lambda b: (len(b), b)):
        name = "e" + "".join(str(j) for j in blade) if blade else "1"
        out[name] = float(mv.terms[blade])
    return out


def _exact_json(value: ExactScalar) -> dict:
    return {"value": str(value), "float": value.to_float()}


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


def _rand_vector(rng: random.Random, m: int) -> Vector1:
    return Vector1([Fraction(rng.randint(-3, 3)) for _ in range(m)])


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
    out = VectorPoly.constant(m, rng.randint(-2, 2))
    for i in range(1, m + 1):
        ci = rng.randint(-2, 2)
        if ci:
            out = out + VectorPoly.variable(m, 1, i) * ci
        for j in range(i, m + 1):
            cij = rng.randint(-1, 1)
            if cij:
                out = out + VectorPoly.variable(m, 1, i) * VectorPoly.variable(m, 1, j) * cij
    return out


def _tally(results: dict, name: str, ok: bool):
    slot = results.setdefault(name, [0, 0])
    slot[0 if ok else 1] += 1


def run_suite(name: str, trials: int, seed: int) -> dict:
    """Run one named identity suite; returns {check: [passed, failed]}."""
    rng = random.Random(seed)
    results: dict[str, list[int]] = {}
    if name == "clifford":
        for _ in range(trials):
            m = rng.randint(2, 4)
            a, b, c = (_rand_multivector(rng, m) for _ in range(3))
            _tally(results, "associativity", (a * b) * c == a * (b * c))
            i, j = rng.randint(1, m), rng.randint(1, m)
            ei, ej = Multivector.basis(m, (i,)), Multivector.basis(m, (j,))
            expected = Multivector.scalar(m, -2 if i == j else 0)
            _tally(results, "anticommutation", ei * ej + ej * ei == expected)
            k = rng.randint(0, m)
            hom = _rand_homogeneous(rng, m, k)
            v = _rand_vector(rng, m).to_multivector()
            sign = -1 if k % 2 else 1
            half = Fraction(1, 2)
            vd = dot(v, hom) if k >= 1 else Multivector(m, {})
            lhs = Multivector(m, {bl: co * half for bl, co in (v * hom - sign * (hom * v)).terms.items()})
            _tally(results, "vector_dot_halved",
                   (vd == lhs) if k >= 1 else lhs.is_zero())
            _tally(results, "vector_dot_grade",
                   dot(v, hom) == grade_project(v * hom, abs(k - 1)))
            lhs_w = Multivector(m, {bl: co * half for bl, co in (v * hom + sign * (hom * v)).terms.items()})
            _tally(results, "vector_wedge_halved", wedge(v, hom) == lhs_w)
            _tally(results, "vector_wedge_grade",
                   wedge(v, hom) == grade_project(v * hom, k + 1))
            kk = rng.randint(1, m)
            vecs = [_rand_vector(rng, m).to_multivector() for _ in range(kk)]
            w = wedge_vectors(vecs)
            _tally(results, "wedge_grade_of_product", w == grade_project(_product(vecs, m), kk))
            if kk >= 2:
                swapped = list(vecs)
                swapped[0], swapped[1] = swapped[1], swapped[0]
                _tally(results, "wedge_antisymmetry", wedge_vectors(swapped) == -w)
                _tally(results, "wedge_repeat_zero",
                       wedge_vectors([vecs[0]] + vecs[:-1]).is_zero())
            vs = [_rand_vector(rng, m) for _ in range(kk)]
            _tally(results, "gram_equals_wedge_norm",
                   gram_det(vs) == wedge_vectors([v.to_multivector() for v in vs]).norm_squared())
    elif name == "exterior":
        for _ in range(trials):
            m = rng.randint(2, 4)
            k = rng.randint(1, min(3, m))
            phases = [_rand_quadratic_phase(rng, m) for _ in range(k)]
            _tally(results, "oriented_measure_product", bool(check_oriented_measure_product(phases)))
            _tally(results, "gradient_blade_volume", bool(check_gradient_blade_volume(phases)))
            _tally(results, "dot_contraction", bool(check_gradient_contraction(phases[0], rng.randint(1, m))))
            _tally(results, "psi_blade_pairing", bool(check_psi_blade_pairing(m, rng.randint(0, min(3, m)))))
            f = _rand_poly(rng, m, 1, 3, 4)
            _tally(results, "dirac_wedge_derivative",
                   bool(check_dirac_psi_derivative(m, rng.randint(0, m - 1), f)))
    elif name == "series":
        for _ in range(trials):
            m = rng.randint(2, 3)
            j, k = rng.randint(0, 2), rng.randint(0, 2)
            _tally(results, "inner_power_closed_form",
                   _directional_power_brute(j, k, m) == directional_power_closed_form(j, k, m))
            r = rng.randint(0, 3)
            l = rng.randint(r, 4)
            _tally(results, "gamma_summation",
                   gauss_sum_check(r, l, rng.randint(0, 3), rng.randint(2, 5)))
            mm = rng.randint(1, 3)
            rr = _rand_poly(rng, mm, 1, 3, 3)
            qq = _rand_poly(rng, mm, 1, 2, 2)
            pp = _rand_poly(rng, mm, 1, 3, 3)
            _tally(results, "delta_factor_commutation",
                   delta_pair(rr, qq * pp) == delta_pair(fischer_commute(rr, qq), pp))
    else:
        raise ParseError(f"unknown suite {name!r}")
    return results


def _product(mvs, m: int) -> Multivector:
    out = Multivector.scalar(m, 1)
    for mv in mvs:
        out = out * mv
    return out


def _directional_power_brute(j: int, k: int, m: int) -> VectorPoly:
    """<d/dx, y>^(2j) |x|^(2k+2j) by repeated differentiation."""
    p = VectorPoly.norm_squared_var(m, 1, 2) ** (k + j)
    weights = [VectorPoly.variable(m, 2, i, 2) for i in range(1, m + 1)]
    for _ in range(2 * j):
        p = p.directional(1, weights)
    return p


# -- subcommand handlers -------------------------------------------------------


def _handle_pizzetti_sphere(args) -> tuple[dict, bool]:
    poly = parse_poly(args.poly, args.m, 1)
    detail = sphere_pizzetti_detailed(poly, args.extra_terms)
    log.info("sphere integral in dimension %d, %d series terms", args.m, detail.terms_used)
    payload = {"command": "pizzetti sphere", "m": args.m,
               "poly": render_poly(poly), "terms_used": detail.terms_used}
    payload.update(_exact_json(detail.value))
    return payload, True


def _handle_pizzetti_stiefel(args) -> tuple[dict, bool]:
    poly = parse_poly(args.poly, args.m, args.k)
    if args.method == "explicit2" and args.k != 2:
        raise ParseError("--method explicit2 requires k = 2")
    if args.method == "explicit2":
        value = stiefel2_explicit(poly, args.m, args.extra_terms)
    else:
        value = stiefel_pizzetti_composed(poly, args.m, args.k, args.extra_terms)
    log.info("frame integral on %d-frames in R^%d via %s", args.k, args.m, args.method)
    payload = {"command": "pizzetti stiefel", "m": args.m, "k": args.k,
               "method": args.method, "poly": render_poly(poly)}
    payload.update(_exact_json(value))
    return payload, True


def _handle_oracle_mc(args) -> tuple[dict, bool]:
    poly = parse_poly(args.poly, args.m, args.k)
    est = mc_stiefel_integral(poly, args.m, args.k, args.n_samples, args.seed)
    log.info("Monte Carlo with %d samples, seed %d", est.n_samples, est.seed)
    payload = {"command": "oracle mc", "m": args.m, "k": args.k,
               "poly": render_poly(poly), "n_samples": est.n_samples,
               "seed": est.seed, "mean": est.mean,
               "standard_error": est.standard_error}
    return payload, True


def _build_surface(args, nphases: int | None = None) -> tuple[ImplicitSurfaceSpec, QuadratureConfig]:
    phase_texts = [p for p in args.phases.split(";") if p.strip()] if args.phases else []
    if nphases is not None and len(phase_texts) != nphases:
        raise ParseError(f"expected {nphases} phases, found {len(phase_texts)}")
    phases = [parse_poly(t, args.m, 1) for t in phase_texts]
    box = _parse_box(args.box, args.m)
    try:
        spec = ImplicitSurfaceSpec(args.m, phases, box)
        cfg = QuadratureConfig(n=args.n, eps=args.eps)
        cfg.resolve_eps(spec.box)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return spec, cfg


def _handle_integrate_implicit(args) -> tuple[dict, bool]:
    spec, cfg = _build_surface(args)
    if spec.k < 1:
        raise ParseError("need at least one phase")
    f = parse_poly(args.f, args.m, 1)
    value = integrate_implicit(f, spec, cfg)
    log.info("grid %d^%d, eps %.6g", cfg.n, args.m, cfg.resolve_eps(spec.box))
    payload = {"command": "integrate implicit", "m": args.m, "k": spec.k,
               "n": cfg.n, "eps": cfg.resolve_eps(spec.box), "value": value}
    return payload, True


def _handle_integrate_oriented(args) -> tuple[dict, bool]:
    spec, cfg = _build_surface(args)
    if spec.k < 1:
        raise ParseError("need at least one phase")
    f = parse_poly(args.f, args.m, 1)
    value = integrate_oriented(f, spec, cfg)
    payload = {"command": "integrate oriented", "m": args.m, "k": spec.k,
               "n": cfg.n, "eps": cfg.resolve_eps(spec.box),
               "value": _multivector_json(value)}
    return payload, True


def _handle_verify_identities(args) -> tuple[dict, bool]:
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


_CAUCHY_CASES = {"circle", "classical"}


def _handle_verify_cauchy(args) -> tuple[dict, bool]:
    if args.case == "circle":
        m = 3
        phases = [VectorPoly.norm_squared_var(3, 1) - 1, VectorPoly.variable(3, 1, 3)]
        phi = VectorPoly.variable(3, 1, 1)
        f_field = VectorPoly.constant(3, 1)
        g_field = VectorPoly.variable(3, 1, 2)
        box = [(-1.6, 1.6)] * 3
    else:
        m = 2
        phases = []
        phi = VectorPoly.norm_squared_var(2, 1) - 1
        f_field = VectorPoly.constant(2, 1)
        g_field = VectorPoly.variable(2, 1, 1)
        box = [(-1.6, 1.6)] * 2
    spec = ImplicitSurfaceSpec(m, phases, box)
    try:
        cfg = QuadratureConfig(n=args.n, eps=args.eps)
        cfg.resolve_eps(spec.box)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
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
    sphere.add_argument("--extra-terms", type=int, default=0, dest="extra_terms")
    sphere.set_defaults(handler=_handle_pizzetti_sphere)
    stiefel = psub.add_parser("stiefel", parents=[common],
                             help="integral over orthonormal k-frames")
    stiefel.add_argument("--m", type=int, required=True)
    stiefel.add_argument("--k", type=int, required=True)
    stiefel.add_argument("--poly", required=True,
                         help="polynomial in x1_1..xk_m; dot(xa,xb), normsq(xa) allowed")
    stiefel.add_argument("--method", choices=["composed", "explicit2"],
                         default="composed")
    stiefel.add_argument("--extra-terms", type=int, default=0, dest="extra_terms")
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
    for name, handler in (("implicit", _handle_integrate_implicit),
                          ("oriented", _handle_integrate_oriented)):
        p = isub.add_parser(name, parents=[common])
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--phases", required=True,
                       help="semicolon-separated phase polynomials")
        p.add_argument("--f", default="1", help="scalar integrand (default 1)")
        p.add_argument("--box", required=True,
                       help="'lo,hi' for all axes or 'lo,hi;lo,hi;...' per axis")
        p.add_argument("--n", type=int, default=201)
        p.add_argument("--eps", type=float, default=None)
        p.set_defaults(handler=handler)

    verify = sub.add_parser("verify", help="identity suites and residual checks")
    vsub = verify.add_subparsers(dest="subcommand", required=True)
    ident = vsub.add_parser("identities", parents=[common])
    ident.add_argument("--suite", choices=["clifford", "exterior", "series"],
                       required=True)
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
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IndependenceError, BoundaryContactError, TransversalityError,
            ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0 if ok else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
