import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliffint import geomint
from cliffint.cli import ParseError, parse_exact, parse_poly, run, run_suite

from oracles import bench_oracles, parse_tree_terms, parse_tree_text


def run_json(args, capsys):
    code = run(args + ["-q"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_pizzetti_sphere_round_trip(capsys):
    code, doc = run_json(["pizzetti", "sphere", "--m", "3",
                          "--poly", "x1_1^2"], capsys)
    assert code == 0
    assert doc["command"] == "pizzetti sphere"
    exact = parse_exact(doc["value"])
    assert exact.to_float() == pytest.approx(doc["float"], rel=1e-14)
    assert doc["float"] == pytest.approx(
        bench_oracles.exact_to_float(bench_oracles.sphere_monomial((2, 0, 0))), rel=1e-12)


@pytest.mark.parametrize("text", ["1/0", "1/0 * pi", "x", "2 * tau"])
def test_parse_exact_rejects_malformed_scalars(text):
    # a zero denominator has no value, like any other malformed literal
    with pytest.raises(ParseError):
        parse_exact(text)


def test_pizzetti_stiefel_methods_agree(capsys):
    args = ["pizzetti", "stiefel", "--m", "4", "--k", "2",
            "--poly", "x1_1^2*x2_2^2"]
    _, composed = run_json(args + ["--method", "composed"], capsys)
    _, explicit = run_json(args + ["--method", "explicit2"], capsys)
    assert composed["value"] == explicit["value"]
    assert composed["float"] == pytest.approx(explicit["float"], rel=1e-14)


def test_pizzetti_has_no_extra_terms_flag():
    # the series is finite, so there is no truncation to extend
    for cmd in (["sphere", "--m", "3", "--poly", "x1_1^2"],
                ["stiefel", "--m", "4", "--k", "2", "--poly", "x1_1^2*x2_2^2"]):
        assert run(["pizzetti"] + cmd + ["--extra-terms", "2", "-q"]) == 2


def test_oracle_mc_schema(capsys):
    code, doc = run_json(["oracle", "mc", "--m", "3", "--k", "1",
                          "--poly", "x1_1^2", "--n-samples", "2000",
                          "--seed", "3"], capsys)
    assert code == 0
    assert doc["n_samples"] == 2000 and doc["seed"] == 3
    exact = 4 * math.pi / 3
    assert abs(doc["mean"] - exact) < 6 * max(doc["standard_error"], 1e-12)


def test_integrate_implicit_sphere(capsys):
    code, doc = run_json(["integrate", "implicit", "--m", "3",
                          "--phases", "x1_1^2+x1_2^2+x1_3^2-1",
                          "--box=-1.6,1.6", "--n", "101"], capsys)
    assert code == 0
    assert doc["value"] == pytest.approx(4 * math.pi, rel=5e-3)


def test_integrate_oriented_circle(capsys):
    code, doc = run_json(["integrate", "oriented", "--m", "3",
                          "--phases", "x1_1^2+x1_2^2+x1_3^2-1;x1_3",
                          "--f", "x1_1", "--box=-1.6,1.6", "--n", "101"], capsys)
    assert code == 0
    assert doc["value"]["e13"] == pytest.approx(math.pi, rel=5e-3)


def test_verify_identities_all_green(capsys):
    code, doc = run_json(["verify", "identities", "--suite", "series",
                          "--trials", "5", "--seed", "7"], capsys)
    assert code == 0
    assert doc["failed"] == 0 and doc["passed"] > 0
    assert all(c["failed"] == 0 for c in doc["checks"].values())


# per-check [passed, failed] summed over seeds 0-149 at 3 trials each, and a
# digest of the per-seed tallies: both fix every suite's draws and their order
SUITE_TALLIES = {
    "clifford": ("266bfe581366f86d", {
        "anticommutation": [450, 0], "associativity": [450, 0],
        "gram_equals_wedge_norm": [450, 0], "vector_dot_grade": [450, 0],
        "vector_dot_halved": [336, 0], "vector_wedge_grade": [450, 0],
        "vector_wedge_halved": [450, 0], "wedge_antisymmetry": [288, 0],
        "wedge_grade_of_product": [450, 0], "wedge_repeat_zero": [288, 0]}),
    "exterior": ("20acde484670cce8", {
        "dirac_wedge_derivative": [450, 0], "dot_contraction": [450, 0],
        "gradient_blade_volume": [450, 0], "oriented_measure_product": [450, 0],
        "psi_blade_pairing": [450, 0]}),
    "series": ("8655b8f823f913bd", {
        "delta_factor_commutation": [450, 0], "gamma_summation": [450, 0],
        "inner_power_closed_form": [450, 0]}),
}


@pytest.mark.parametrize("suite", sorted(SUITE_TALLIES))
def test_suite_tallies_are_pinned(suite):
    digest, totals = SUITE_TALLIES[suite]
    per_seed = [sorted(run_suite(suite, 3, seed).items()) for seed in range(150)]
    summed = {}
    for tally in per_seed:
        for check, (passed, failed) in tally:
            slot = summed.setdefault(check, [0, 0])
            slot[0] += passed
            slot[1] += failed
    assert summed == totals
    assert hashlib.sha256(json.dumps(per_seed).encode()).hexdigest()[:16] == digest


def test_unknown_suite_is_a_parse_error():
    with pytest.raises(ParseError, match="bogus"):
        run_suite("bogus", 1, 0)


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_identities_needs_a_trial(trials, capsys):
    # no trial runs no check, so 0 failed out of 0 would be a vacuous pass
    assert run(["verify", "identities", "--suite", "series", f"--trials={trials}", "-q"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "trial" in captured.err


@pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-0.5"])
def test_verify_cauchy_needs_a_finite_positive_threshold(threshold, capsys):
    # NaN is not JSON, and no residual is below a threshold <= 0
    assert run(["verify", "cauchy", "--case", "classical", f"--threshold={threshold}", "-q"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "threshold" in captured.err


def test_verify_cauchy_circle(capsys):
    code, doc = run_json(["verify", "cauchy", "--case", "circle",
                          "--n", "101"], capsys)
    assert code == 0
    assert doc["ok"] and doc["residual"] < doc["threshold"]


def test_verify_cauchy_classical(capsys):
    code, doc = run_json(["verify", "cauchy", "--case", "classical"], capsys)
    assert code == 0
    assert doc["lhs"]["e1"] == pytest.approx(math.pi, rel=0.02)
    assert run(["verify", "cauchy", "--case", "classical", "--eps", "0", "-q"]) == 2


@pytest.mark.parametrize("kind", ["implicit", "oriented"])
@pytest.mark.parametrize("bad", [["--phases", ";"],
                                 ["--phases", "x1_1^2+x1_2^2-1", "--eps", "0"]])
def test_integrate_rejects_bad_surface(kind, bad, capsys):
    code = run(["integrate", kind, "--m", "2", "--box=-1.6,1.6", "--n", "32", *bad, "-q"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("box", ["-1.6,1.6;nan,1.6", "-1.6,1.6;-1.6,inf", "nan,nan"])
def test_integrate_rejects_non_finite_box(box, capsys):
    # a NaN extent off the first axis passes resolve_eps; it must not give 0.0
    code = run(["integrate", "implicit", "--m", "2", "--phases", "x1_1^2+x1_2^2-1",
                f"--box={box}", "--n", "64", "-q"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_out_file_round_trip(tmp_path, capsys):
    target = tmp_path / "res.json"
    code, doc = run_json(["pizzetti", "sphere", "--m", "2",
                          "--poly", "1", "--out", str(target)], capsys)
    assert code == 0
    assert json.loads(target.read_text()) == doc
    assert doc["float"] == pytest.approx(2 * math.pi, rel=1e-14)


def test_boundary_contact_exit_code(capsys):
    code = run(["integrate", "implicit", "--m", "2", "--phases", "x1_1",
                "--box=-1,1", "--n", "64", "-q"])
    assert code == 1
    err = capsys.readouterr().err
    assert "boundary" in err.lower()


def test_phase_beyond_float_range_on_the_grid_exit_code(capsys):
    # 10^307 x1^8 overflows on the box, and so does the mixed term
    # 10^307 x1^4 x2^4, which lies outside the per-axis tables: each is
    # refused once, naming the phase, with no numpy warning on the way
    for phase in ("10^307*x1_1^8+x1_2^2-1", "10^307*x1_1^4*x1_2^4+x1_1^2+x1_2^2-1"):
        code = run(["integrate", "implicit", "--m", "2", "--phases", phase,
                    "--box=-1.6,1.6", "--n", "64", "-q"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: phase 1 takes values beyond the float range on the grid"]


def test_gram_entry_beyond_float_range_exit_code(capsys):
    # every value and gradient of this circle is finite on the grid, but its
    # squared gradient length is not: one error line, no numpy warning
    code = run(["integrate", "implicit", "--m", "2", "--phases",
                "10^200*x1_1^2+10^200*x1_2^2-10^200", "--box=-1.6,1.6", "--n", "64", "-q"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: the gradient of phase 1 has a squared length beyond the float range on the grid"]


def test_gram_determinant_beyond_float_range_exit_code(capsys):
    # the circle in R^3 with both phases scaled by 10^100: every Gram entry
    # is finite on the grid, their products in the determinant are not; one
    # error line, no numpy warning, and no NaN value
    code = run(["integrate", "implicit", "--m", "3", "--phases",
                "10^100*(x1_1^2+x1_2^2+x1_3^2-1);10^100*x1_3", "--box=-1.6,1.6", "--n", "64",
                "-q"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: the gradients of phase 1 and phase 2 have a Gram determinant beyond the float "
        "range on the grid"]


def test_integrand_beyond_float_range_exit_code(capsys):
    # 10^308 x1^8 overflows on the box though its coefficient is a float:
    # refused before the sweep, with one error line, no numpy warning and
    # no infinite value
    code = run(["integrate", "implicit", "--m", "2", "--phases", "x1_1^2+x1_2^2-1",
                "--f", "10^308*x1_1^8", "--box=-1.6,1.6", "--n", "64", "-q"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the integrand takes values beyond the float range on the grid"]


def test_usage_error_exit_code(capsys):
    assert run(["pizzetti", "sphere", "--m", "3"]) == 2


@pytest.mark.parametrize("args", [
    ["pizzetti", "sphere", "--m", "1", "--poly", "x1_1^2"],
    ["pizzetti", "stiefel", "--m", "3", "--k", "3", "--poly", "1"],
    ["pizzetti", "stiefel", "--m", "3", "--k", "0", "--poly", "1"],
    ["pizzetti", "stiefel", "--m", "2", "--k", "2", "--poly", "1", "--method", "explicit2"],
    ["oracle", "mc", "--m", "3", "--k", "4", "--poly", "1"],
    ["oracle", "mc", "--m", "3", "--k", "2", "--poly", "1", "--n-samples", "1"],
    # the dimension is checked before the phases are parsed in it
    ["integrate", "implicit", "--m", "0", "--phases", "1", "--box=-1,1"],
    ["integrate", "implicit", "--m", "-1", "--phases", "1", "--box=-1,1"],
    # SeedSequence takes no negative entropy
    ["oracle", "mc", "--m", "3", "--k", "2", "--poly", "x1_1^2", "--n-samples", "100",
     "--seed", "-1"],
    # the choices are the rows of the suite and case tables
    ["verify", "identities", "--suite", "bogus"],
    ["verify", "cauchy", "--case", "bogus"],
])
def test_out_of_domain_arguments_are_usage_errors(args, capsys):
    assert run(args + ["-q"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err


@pytest.mark.parametrize("args", [
    ["integrate", "implicit", "--m", "3", "--phases", "x1_1^2+x1_2^2+x1_3^2-1",
     "--f", "10^400", "--box=-1.6,1.6", "--n", "32"],
    ["integrate", "implicit", "--m", "3", "--phases", "10^400*x1_1^2+x1_2^2+x1_3^2-1",
     "--box=-1.6,1.6", "--n", "32"],
    ["oracle", "mc", "--m", "3", "--k", "2", "--poly", "10^400*x1_1^2",
     "--n-samples", "100", "--seed", "1"],
], ids=["integrand", "phase", "mc"])
def test_coefficients_beyond_float_range_are_usage_errors(args, capsys):
    # exact paths take any rational; the float paths refuse it on entry
    assert run(args + ["-q"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "about 10^400, lies beyond the float range" in captured.err


def test_coefficients_below_float_range_are_usage_errors(capsys):
    # (1/10)^400 rounds to 0.0, so the float phase would vanish identically
    # and read as dependent gradients (exit 1); it is refused on entry
    assert run(["integrate", "implicit", "--m", "3",
                "--phases", "(1/10)^400*(x1_1^2+x1_2^2+x1_3^2-1)",
                "--box=-1.6,1.6", "--n", "32", "-q"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "about 10^-400, lies below the float range" in captured.err


def test_dependent_haar_draw_is_a_computation_failure(monkeypatch, capsys):
    # a Gaussian draw whose columns are dependent has no frame; the arguments
    # were valid, so this is exit 1, not a usage error
    class ZeroNormal:
        def standard_normal(self, shape):
            return np.zeros(shape)

    monkeypatch.setattr(geomint, "_partition_rng", lambda seed, partition: ZeroNormal())
    assert run(["oracle", "mc", "--m", "3", "--k", "2", "--poly", "1",
                "--n-samples", "10", "-q"]) == 1
    assert "dependent column" in capsys.readouterr().err


def test_bad_polynomial_reports_cleanly(capsys):
    code = run(["pizzetti", "sphere", "--m", "3", "--poly", "x9_9^", "-q"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("poly", ["(" * 300 + "x1_1^2" + ")" * 300, "-" * 2000, "1/0"],
                         ids=["300-parentheses", "2000-minus-signs", "zero-denominator"])
def test_poly_parse_failures_are_one_line_usage_errors(poly, capsys):
    # deep nesting exhausts the recursive-descent parser's stack, and 1/0 is
    # a literal with no value; neither may escape as a traceback
    assert run(["pizzetti", "sphere", "--m", "3", f"--poly={poly}", "-q"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_unwritable_out_file_is_a_one_line_failure(tmp_path, capsys):
    target = tmp_path / "missing" / "res.json"
    assert run(["pizzetti", "sphere", "--m", "2", "--poly", "1", "--out", str(target), "-q"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err
    assert not target.exists()


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "cliffint", "pizzetti",
                           "sphere", "--m", "3", "--poly", "1", "-q"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["float"] == pytest.approx(4 * math.pi)


def test_quiet_suppresses_logging():
    # subprocess keeps pytest's own logging handlers out of the picture
    base = [sys.executable, "-m", "cliffint", "pizzetti", "sphere",
            "--m", "3", "--poly", "1"]
    loud = subprocess.run(base, capture_output=True, text=True)
    assert loud.returncode == 0 and "INFO" in loud.stderr
    quiet = subprocess.run(base + ["-q"], capture_output=True, text=True)
    assert quiet.returncode == 0 and quiet.stderr == ""


@pytest.mark.parametrize("template", ["{}", "1/{}", "x1_{}", "x1_1^{}", "normsq(x{})"])
def test_literals_past_the_int_string_limit_are_parse_errors(template, capsys):
    # a rational, an index or an exponent longer than Python's 4300-digit
    # int-string limit is malformed input: exit 2 with one error line
    poly = template.format("9" * 5000)
    assert run(["pizzetti", "sphere", "--m", "3", "--poly", poly, "-q"]) == 2
    assert capsys.readouterr().err == "error: numeric literal of 5000 digits is too long\n"


# (text, m, nvars, the exact ParseError message)
_MALFORMED = [
    ("y1", 3, 1, "unknown name 'y1'"),
    ("x1_1 $ 2", 3, 1, "unexpected character '$' at position 5"),
    ("1.5", 3, 1, "unexpected character '.' at position 1"),
    ("x1_1 x1_2", 3, 1, "unexpected trailing input 'x1_2'"),
    ("x1_1)", 3, 1, "unexpected trailing input ')'"),
    ("x1_1^x1_2", 3, 1, "exponent must be an integer literal, found 'x1_2'"),
    ("x1_1^1/2", 3, 1, "exponent must be an integer literal, found '1/2'"),
    ("x1_1^-1", 3, 1, "exponent must be an integer literal, found '-'"),
    ("1/0", 3, 1, "zero denominator in '1/0'"),
    ("x1_1 + 2/0*x1_2", 3, 1, "zero denominator in '2/0'"),
    ("x2_1", 3, 1, "vector index 2 out of range 1..1"),
    ("x1_4", 3, 1, "coordinate index 4 out of range 1..3"),
    ("x1_0", 3, 1, "coordinate index 0 out of range 1..3"),
    ("(x1_1 + 1", 3, 1, "expected ')', found 'end of input'"),
    ("x1_1 +", 3, 1, "unexpected token 'end of input'"),
    ("* x1_1", 3, 1, "unexpected token '*'"),
    ("dot(x1)", 3, 2, "expected ',', found ')'"),
    ("dot(x1, 2)", 3, 2, "expected a vector name like x1, found '2'"),
    ("dot(x1,x3)", 3, 2, "vector index 3 out of range 1..2"),
    ("normsq(x1_1)", 3, 1, "expected a vector name like x1, found 'x1_1'"),
    ("(" * 300 + "x1_1^2" + ")" * 300, 3, 1, "expression is nested too deeply"),
    ("9" * 5000, 3, 1, "numeric literal of 5000 digits is too long"),
]


@pytest.mark.parametrize("text, m, nvars, message", _MALFORMED,
                         ids=[f"case{i}" for i in range(len(_MALFORMED))])
def test_malformed_polynomials_give_their_parse_error(text, m, nvars, message):
    with pytest.raises(ParseError) as info:
        parse_poly(text, m, nvars)
    assert str(info.value) == message


@st.composite
def expression_trees(draw):
    """(m, nvars, tree): a random expression tree over m-vectors x1..x_nvars,
    in the node format of ``oracles.parse_tree_terms``."""
    m, nvars = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    vec = st.integers(1, nvars)
    leaves = st.one_of(
        st.builds(lambda p, q: ("num", Fraction(p, q)), st.integers(0, 9),
                  st.sampled_from((1, 2, 3, 7))),
        st.builds(lambda j, i: ("var", j, i), vec, st.integers(1, m)),
        st.builds(lambda a, b: ("dot", a, b), vec, vec),
        st.builds(lambda j: ("normsq", j), vec))

    def composites(children):
        return st.one_of(
            st.builds(lambda t: ("neg", t), children),
            st.builds(lambda t, n: ("pow", t, n), children, st.integers(0, 3)),
            st.builds(lambda ts: ("mul", ts), st.lists(children, min_size=2, max_size=4)),
            st.builds(lambda t, rest: ("add", [(1, t), *rest]), children,
                      st.lists(st.tuples(st.sampled_from((1, -1)), children),
                               min_size=1, max_size=3)))

    return m, nvars, draw(st.recursive(leaves, composites, max_leaves=10))


@given(expression_trees())
# a sum that cancels x1_1 where it stands, then brings it back at the end
@example((2, 1, ("add", [(1, ("var", 1, 1)), (1, ("var", 1, 2)), (-1, ("var", 1, 1)),
                         (1, ("num", Fraction(1, 3))), (1, ("var", 1, 1))])))
# a power of a several-term base: the left fold of its copies
@example((2, 2, ("pow", ("add", [(1, ("var", 1, 1)), (-1, ("var", 2, 2)),
                                 (1, ("num", Fraction(1, 2)))]), 3)))
@settings(max_examples=300, deadline=None)
def test_parse_poly_matches_the_dict_reference(case):
    # the parsed polynomial's terms, in value and in order, against the tree
    # built on plain dicts with no polynomial arithmetic of the library
    m, nvars, tree = case
    got = parse_poly(parse_tree_text(tree), m, nvars)
    assert list(got.terms.items()) == list(parse_tree_terms(tree, m, nvars).items())
