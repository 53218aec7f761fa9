"""Fuzzers for the float paths and the polynomial parser.

The scale fuzzer multiplies the phases of surfaces whose gradients are
independent on the surface by 10^e, e in [-400, 400], or the integrand or
the Cauchy fields on unscaled surfaces, and runs the grid quadrature and
the Cauchy check at n = 32.  Each run must end in a result
(exit 0), a verdict on the band (exit 1, boundary contact) or a refusal
(exit 2, a coefficient or a grid value beyond or below the float range),
with no traceback and no RuntimeWarning, and never in a diagnosis of
dependent gradients: that would be the float path reading its own overflow
or underflow as geometry.  The values are not asserted: eps is in phase
units, so a scaled phase changes the band, and with it the answer.
"""

import contextlib
import io
import warnings

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cliffint import (BoundaryContactError, FloatRangeError, ImplicitSurfaceSpec,
                      IndependenceError, QuadratureConfig, TransversalityError, VectorPoly,
                      cauchy_check)
from cliffint.cli import ParseError, parse_poly, run

SPHERE = "x1_1^2+x1_2^2+x1_3^2-1"
# family -> (command, m, phases, integrand), S in either standing for the
# scale; each surface's exact gradients are independent at every point of it
GRID_FAMILIES = {
    "sphere": ("implicit", 3, f"S*({SPHERE})", "1"),
    "circle": ("implicit", 3, f"S*({SPHERE});S*x1_3", "1"),
    "circle_one_scaled": ("implicit", 3, f"S*({SPHERE});x1_3", "1"),
    "torus": ("implicit", 3, "S*((x1_1^2+x1_2^2+x1_3^2+1/2)^2-9/4*(x1_1^2+x1_2^2))", "1"),
    "ellipsoid": ("implicit", 3, "S*(x1_1^2+4*x1_2^2+9/4*x1_3^2-1)", "x1_3^2"),
    "oriented": ("oriented", 2, "S*(x1_1^2+x1_2^2-1)", "x1_1"),
    "integrand": ("oriented", 3, f"{SPHERE};x1_3", "S*x1_1*x1_2^2"),
}
# family -> (m, phases, cut phi, F, G) of the Cauchy check: the unit disk,
# and the half x1 <= 0 of the unit circle in R^3, where grad phi = e1 is
# transversal to the circle wherever the cut meets it
CUT_FAMILIES = {
    "disk_cut": (2, "", "S*(x1_1^2+x1_2^2-1)", "1", "x1_1"),
    "circle_cut": (3, f"S*({SPHERE});S*x1_3", "S*x1_1", "1", "x1_2"),
    # the fields scaled, on unscaled surfaces and cuts
    "disk_fields": (2, "", "x1_1^2+x1_2^2-1", "S", "S*x1_1"),
    "circle_fields": (3, f"{SPHERE};x1_3", "x1_1", "S*(1+x1_1*x1_2)", "S*x1_2^2"),
}
FALSE_DIAGNOSES = ("numerically dependent", "not transversal")


def _scale(e: int) -> str:
    return f"10^{e}" if e >= 0 else f"(1/10)^{-e}"


def run_scaled(family: str, e: int) -> tuple[int, str]:
    """Exit code and error text of one family scaled by 10^e at n = 32, the
    Cauchy families' errors mapped to codes as the CLI maps them; a
    RuntimeWarning, or any other exception, propagates."""
    scale = _scale(e)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if family in GRID_FAMILIES:
            command, m, phases, f = GRID_FAMILIES[family]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run(["integrate", command, "--m", str(m), "--phases",
                            phases.replace("S", scale), "--f", f.replace("S", scale),
                            "--box=-1.6,1.6", "--n", "32", "-q"])
            return code, err.getvalue()
        m, phases, cut, f, g = CUT_FAMILIES[family]
        try:
            spec = ImplicitSurfaceSpec(m, [parse_poly(p, m) for p in
                                           phases.replace("S", scale).split(";") if p],
                                       ((-1.6, 1.6),) * m)
            f_field, g_field = (parse_poly(text.replace("S", scale), m) for text in (f, g))
            cauchy_check(f_field, g_field, parse_poly(cut.replace("S", scale), m), spec,
                         QuadratureConfig(n=32))
        except FloatRangeError as exc:
            return 2, str(exc)
        except (BoundaryContactError, IndependenceError, TransversalityError) as exc:
            return 1, str(exc)
        return 0, ""


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(sorted({**GRID_FAMILIES, **CUT_FAMILIES})), st.integers(-400, 400))
# gradients whose squares or Gram determinants underflow to 0 on the band
@example("sphere", -162)
@example("torus", -161)
@example("disk_cut", -161)
@example("circle", -81)
@example("circle_cut", -81)
# squared gradient lengths that overflow
@example("circle_one_scaled", 160)
@example("oriented", 160)
# fields whose products overflow, on a cell or only in the sum over the band
@example("disk_fields", 300)
@example("disk_fields", 154)
def test_scaled_phases_end_in_a_verdict_or_a_refusal(family, e):
    code, err = run_scaled(family, e)
    assert code in (0, 1, 2), (family, e, code, err)
    assert not any(text in err for text in FALSE_DIAGNOSES), (family, e, err)


TOKENS = ["x1_1", "x1_2", "x2_1", "x1_0", "x1", "x2", "x", "dot", "normsq", "(", ")", "+",
          "-", "*", "^", ",", "/", "0", "1", "3/4", "1/0", "9", "12", "99", " "]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=14))
def test_parse_poly_returns_a_polynomial_or_a_parse_error(tokens):
    # token strings over the grammar's alphabet, in one variable x1_1 (the
    # others are out of range); exponents have at most two digits, and one
    # power in at most 14 tokens bounds the nesting and the degree
    text = "".join(tokens)
    assume(text.count("^") <= 1)
    try:
        out = parse_poly(text, 1, 1)
    except ParseError:
        return
    assert isinstance(out, VectorPoly)
