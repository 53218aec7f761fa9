"""Spans around the public functions of each cliffint module, from outside.

``Tracer.patch`` replaces every binding of each target function, in every
loaded ``cliffint`` module and in every class those modules define, with a
wrapper that times the call and updates counters; ``Tracer.restore`` puts
the originals back.  Spans are aggregated per name as they close (calls,
total time, self time, counters), which keeps memory flat however many
calls an op makes.  Self time is a span's duration minus the part of it
covered by child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_laplacian(stats, fn, args, kwargs, result):
    stats["terms_in"] += len(args[0].terms)


def _count_apply_diffop(stats, fn, args, kwargs, result):
    symbol = _bound(fn, args, kwargs)["symbol"] if kwargs else args[0]
    stats["symbol_terms"] += len(symbol.terms)
    stats["out_terms"] += len(result.terms)


def _count_mul(stats, fn, args, kwargs, result):
    a, b = args
    stats["term_pairs"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _input_terms(tracer):
    def count(stats, fn, args, kwargs, result):
        tracer.counter("pizzetti", "input_terms", len(args[0].terms))
    return count


def _count_sphere(tracer):
    inputs = _input_terms(tracer)

    def count(stats, fn, args, kwargs, result):
        stats["terms_used"] += result.terms_used
        inputs(stats, fn, args, kwargs, result)
    return count


def _grid_cells(tracer):
    def count(stats, fn, args, kwargs, result):
        bound = _bound(fn, args, kwargs)
        spec, cfg = bound["spec"], bound["cfg"]
        tracer.counter("geomint", "grid_cells", cfg.n ** spec.m)
    return count


def _count_poly_on_points(stats, fn, args, kwargs, result):
    p, pts = args
    stats["points"] += pts.shape[0]
    stats["monomial_evals"] += pts.shape[0] * len(p.terms)
    stats["bytes_in_computed"] += pts.nbytes


def _count_mc(stats, fn, args, kwargs, result):
    stats["samples"] += _bound(fn, args, kwargs)["n_samples"]


def targets(tracer) -> list[tuple[str, str, str | None, str, tuple[str, ...], object]]:
    """(span, module, owning class or None, attribute, counter names, counter) per target."""
    cp, pa, pz, cl, ex, gm = ("cliffint.cli", "cliffint.polyalg", "cliffint.pizzetti",
                              "cliffint.clifford", "cliffint.exterior", "cliffint.geomint")
    checks = ["check_oriented_measure_product", "check_psi_blade_pairing",
              "check_gradient_contraction", "check_gradient_blade_volume",
              "check_dirac_psi_derivative"]
    cells = _grid_cells(tracer)
    return [
        ("cli.parse_poly", cp, None, "parse_poly", (), None),
        ("cli.run_suite", cp, None, "run_suite", (), None),
        ("polyalg.laplacian", pa, "VectorPoly", "laplacian", ("terms_in",), _count_laplacian),
        ("polyalg.directional", pa, "VectorPoly", "directional", (), None),
        ("polyalg.apply_diffop", pa, None, "apply_diffop", ("symbol_terms", "out_terms"),
         _count_apply_diffop),
        ("polyalg.mul", pa, "VectorPoly", "__mul__", ("term_pairs",), _count_mul),
        ("polyalg.compose_linear", pa, "VectorPoly", "compose_linear", (), None),
        ("polyalg.delta_pair", pa, None, "delta_pair", (), None),
        ("polyalg.fischer_commute", pa, None, "fischer_commute", (), None),
        ("pizzetti.sphere_pizzetti_detailed", pz, None, "sphere_pizzetti_detailed",
         ("terms_used",), _count_sphere(tracer)),
        ("pizzetti.stiefel_pizzetti_composed", pz, None, "stiefel_pizzetti_composed", (),
         _input_terms(tracer)),
        ("pizzetti.stiefel2_explicit", pz, None, "stiefel2_explicit", (), _input_terms(tracer)),
        ("clifford.mul", cl, "Multivector", "__mul__", (), None),
        ("clifford.wedge_vectors", cl, None, "wedge_vectors", (), None),
        ("clifford.gram_det", cl, None, "gram_det", (), None),
        ("exterior.form_mul", ex, None, "form_mul", (), None),
        ("exterior.exterior_derivative", ex, None, "exterior_derivative", (), None),
        ("exterior.cliffordpoly_mul", ex, "CliffordPoly", "__mul__", (), None),
        *((f"exterior.{name}", ex, None, name, (), None) for name in checks),
        ("geomint.integrate_implicit", gm, None, "integrate_implicit", (), cells),
        ("geomint.integrate_oriented", gm, None, "integrate_oriented", (), cells),
        ("geomint.cauchy_check", gm, None, "cauchy_check", (), cells),
        ("geomint.poly_on_points", gm, None, "poly_on_points",
         ("points", "monomial_evals", "bytes_in_computed"), _count_poly_on_points),
        ("geomint.mc_stiefel_integral", gm, None, "mc_stiefel_integral", ("samples",),
         _count_mc),
    ]


def _holders() -> list:
    """Loaded cliffint modules and the classes they define."""
    mods = [mod for name, mod in sorted(sys.modules.items())
            if name == "cliffint" or name.startswith("cliffint.")]
    classes = {}
    for mod in mods:
        for val in vars(mod).values():
            if isinstance(val, type) and val.__module__.startswith("cliffint"):
                classes[id(val)] = val
    return mods + list(classes.values())


class Tracer:
    """Aggregated spans and counters for the wrapped cliffint functions."""

    def __init__(self):
        self.stats: dict[str, dict] = {"pizzetti": {"input_terms": 0},
                                       "geomint": {"grid_cells": 0}}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []  # (holder, name, original)
        self._wrapped: list[tuple[object, object]] = []  # (original, wrapper)

    def counter(self, group: str, name: str, amount: int):
        self.stats[group][name] += amount

    def _wrap(self, fn, stats: dict, count):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stats["calls"] += 1
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                count(stats, fn, args, kwargs, result)
            return result

        return traced

    def patch(self):
        """Wrap every binding of every target; the cliffint modules must be imported."""
        holders = _holders()
        for span, modname, owner, attr, counters, count in targets(self):
            home = sys.modules[modname]
            original = vars(getattr(home, owner) if owner else home)[attr]
            stats = {"calls": 0, "total_s": 0.0, "self_s": 0.0, **dict.fromkeys(counters, 0)}
            self.stats[span] = stats
            wrapper = self._wrap(original, stats, count)
            self._wrapped.append((original, wrapper))
            for holder in holders:
                for name, val in list(vars(holder).items()):
                    if val is original:
                        setattr(holder, name, wrapper)
                        self._patches.append((holder, name, original))

    def restore(self):
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    def stray_bindings(self, patched: bool) -> list[str]:
        """Bindings that are wrong: an original while patched, a wrapper after restore."""
        wanted = {id(pair[0 if patched else 1]) for pair in self._wrapped}
        return [f"{getattr(holder, '__name__', holder)}.{name}"
                for holder in _holders()
                for name, val in vars(holder).items() if id(val) in wanted]
