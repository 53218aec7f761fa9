"""Reference values computed independently of the library internals.

The closed forms (the Gamma-half values, sphere monomials and Stiefel
volumes, as (q, h) pairs meaning q * pi^(h/2)), the Fraction polynomial
product ``poly_mul`` and ``FrameOracle``, the exact frame-moment recursion,
live in ``bench/oracles.py``, which shares no code with the library.  This
module loads that file as ``bench_oracles``, under its own name since both
modules are called ``oracles``.  What stays here is test-only: the
single-index kernel oracles, the parser's polynomials built from dicts
(term order included), the blade products, the dense grid sweeps
recomputed over every cell in plain numpy, the QR Haar sampler and the
Cayley rotations.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np

_spec = importlib.util.spec_from_file_location(
    "bench_oracles", Path(__file__).parents[1] / "bench" / "oracles.py")
bench_oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_oracles)


# -- dict-only reference kernels ---------------------------------------------
#
# Polynomials below are plain {exponent tuple: Fraction} dicts with the
# library's flat layout: vector j, coordinate i (both 1-based) at index
# (j-1)*m + (i-1).  Every operator is built from the single-index
# derivative, the slow way the library's fused kernels replace.


def _accumulate(out: dict, key: tuple, value) -> None:
    acc = out.get(key, 0) + value
    if acc:
        out[key] = acc
    else:
        out.pop(key, None)


def diff_terms(terms: dict, idx: int) -> dict:
    """d/dx_idx of a term dict."""
    out = {}
    for key, c in terms.items():
        if key[idx]:
            new = list(key)
            new[idx] -= 1
            _accumulate(out, tuple(new), c * key[idx])
    return out


def diffop_terms(symbol: dict, terms: dict) -> dict:
    """symbol(d/dx) applied to terms by repeated single-index derivatives."""
    out = {}
    for skey, sc in symbol.items():
        q = terms
        for idx, e in enumerate(skey):
            for _ in range(e):
                q = diff_terms(q, idx)
        for key, c in q.items():
            _accumulate(out, key, sc * c)
    return out


def reflect_terms(terms: dict) -> dict:
    """x -> -x: negate the odd-degree terms."""
    return {k: (-c if sum(k) % 2 else c) for k, c in terms.items()}


def directional_terms(terms: dict, m: int, j: int, l: int) -> dict:
    """<x_l, d/dx_j> = sum_i x_{l,i} d/dx_{j,i}."""
    out = {}
    for i in range(m):
        for key, c in diff_terms(terms, (j - 1) * m + i).items():
            new = list(key)
            new[(l - 1) * m + i] += 1
            _accumulate(out, tuple(new), c)
    return out


def laplacian_terms(terms: dict, m: int, j: int) -> dict:
    """Delta_{x_j}: d/dx_{j,i} applied twice, summed over i."""
    out = {}
    for i in range(m):
        idx = (j - 1) * m + i
        for key, c in diff_terms(diff_terms(terms, idx), idx).items():
            _accumulate(out, key, c)
    return out


def tangential_terms(terms: dict, m: int, j: int) -> dict:
    """Delta_{x_j} - sum_{l<j} <x_l, d/dx_j>^2, the square applied as two passes."""
    out = laplacian_terms(terms, m, j)
    for l in range(1, j):
        twice = directional_terms(directional_terms(terms, m, j, l), m, j, l)
        for key, c in twice.items():
            _accumulate(out, key, -c)
    return out


# -- the parser's polynomials, built from dicts ----------------------------------
#
# The order of a dict's terms is part of the reference: the float kernels sum
# terms in dict order.  A sum copies its left operand and adds the right one's
# terms in order, deleting a key whose sum cancels; a product runs the double
# loop over the left terms, then the right ones, keeps each key where it first
# appears and drops the zero sums at the end.


def product_terms(a: dict, b: dict) -> dict:
    """a * b by the double loop, in first-appearance order."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def power_terms(a: dict, n: int, width: int) -> dict:
    """a^n as 1 * a * ... * a, n factors a."""
    out = {(0,) * width: Fraction(1)}
    for _ in range(n):
        out = product_terms(out, a)
    return out


def parse_tree_terms(tree: tuple, m: int, nvars: int) -> dict:
    """The polynomial of an expression tree, as ``cliffint.cli.parse_poly``
    builds it from the tree's text, in value and in term order.

    Nodes: ("num", Fraction >= 0), ("var", j, i), ("dot", ja, jb),
    ("normsq", j), ("neg", t), ("pow", t, n), ("mul", [t, ...]) and
    ("add", [(sign, t), ...]) with signs +1 or -1, the first +1.
    """
    width = m * nvars

    def unit(*flat):
        key = [0] * width
        for idx in flat:
            key[idx] += 1
        return tuple(key)

    def build(node):
        kind = node[0]
        if kind == "num":
            return {(0,) * width: Fraction(node[1])} if node[1] else {}
        if kind == "var":
            return {unit((node[1] - 1) * m + node[2] - 1): Fraction(1)}
        if kind in ("dot", "normsq"):
            ja, jb = node[1], node[-1]
            return {unit((ja - 1) * m + i, (jb - 1) * m + i): Fraction(1) for i in range(m)}
        if kind == "neg":
            return {k: -c for k, c in build(node[1]).items()}
        if kind == "pow":
            return power_terms(build(node[1]), node[2], width)
        if kind == "mul":
            first, *rest = [build(t) for t in node[1]]
            for factor in rest:
                first = product_terms(first, factor)
            return first
        out = {}
        for sign, t in node[1]:
            for key, c in build(t).items():
                _accumulate(out, key, sign * c)
        return out

    return build(tree)


def parse_tree_text(tree: tuple) -> str:
    """The text of an expression tree (see ``parse_tree_terms``), with the
    parentheses its structure needs."""
    kind = tree[0]
    if kind == "num":
        return str(tree[1])
    if kind == "var":
        return f"x{tree[1]}_{tree[2]}"
    if kind == "dot":
        return f"dot(x{tree[1]},x{tree[2]})"
    if kind == "normsq":
        return f"normsq(x{tree[1]})"

    def wrapped(t, bare):
        text = parse_tree_text(t)
        return text if t[0] in bare else f"({text})"

    if kind == "neg":
        return "-" + wrapped(tree[1], ("num", "var", "dot", "normsq", "neg", "pow"))
    if kind == "pow":
        return wrapped(tree[1], ("num", "var", "dot", "normsq")) + f"^{tree[2]}"
    if kind == "mul":
        return "*".join(wrapped(t, ("num", "var", "dot", "normsq", "neg", "pow"))
                        for t in tree[1])
    text = ""
    for sign, t in tree[1]:
        term = wrapped(t, ("num", "var", "dot", "normsq", "neg", "pow", "mul"))
        text += term if not text else (" + " if sign > 0 else " - ") + term
    return text


# -- blade products ------------------------------------------------------------


def blade_product(a: tuple, b: tuple, square: int) -> tuple[int, tuple]:
    """Sign and blade of g_a g_b for generators with g_j g_j = square.

    Sorting the concatenation a + b (stable, so equal indices end up side by
    side without a swap) costs the sign of that permutation, (-1)^inversions;
    each repeated index then contracts to the scalar ``square``.  The blade
    left over is the symmetric difference.
    """
    seq = list(a) + list(b)
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    contractions = len(set(a) & set(b))
    sign = (-1) ** inversions * square ** contractions
    return sign, tuple(sorted(set(a) ^ set(b)))


# -- dense band sweep ------------------------------------------------------------
#
# Every cell of the midpoint grid, one slab of the first axis at a time, in
# plain numpy.  Polynomials are {exponent tuple: coefficient} dicts in the m
# coordinates of one vector; Clifford fields are {blade: polynomial dict}.


def poly_values(terms: dict, pts: np.ndarray) -> np.ndarray:
    """Values of a term dict at the rows of an (N, m) array."""
    out = np.zeros(pts.shape[0])
    for key, c in terms.items():
        term = np.full(pts.shape[0], float(c))
        for i, e in enumerate(key):
            term = term * pts[:, i] ** e
        out = out + term
    return out


def grid_slabs(box, n: int):
    """Yield (n^(m-1), m) arrays of cell midpoints lo + h (i + 1/2), one per slab."""
    axes = [lo + (hi - lo) / n * (np.arange(n) + 0.5) for lo, hi in box]
    rest = np.meshgrid(*axes[1:], indexing="ij")
    rest = np.column_stack([r.ravel() for r in rest]) if rest else np.empty((1, 0))
    for x0 in axes[0]:
        yield np.column_stack([np.full(rest.shape[0], x0), rest])


def bump_average(vals: np.ndarray, span: np.ndarray, eps: float) -> np.ndarray:
    """The cosine bump (1 + cos(pi t / eps)) / (2 eps) averaged over [v - s/2, v + s/2].

    Its antiderivative from -eps is (t + eps + eps/pi sin(pi t / eps)) / (2 eps)
    on [-eps, eps], 0 below and 1 above.  A span under 1e-9 eps takes the
    value at v instead.
    """
    def cdf(t):
        t = np.clip(t, -eps, eps)
        return (t + eps + eps / np.pi * np.sin(np.pi * t / eps)) / (2 * eps)

    point = (1 + np.cos(np.pi * np.clip(vals, -eps, eps) / eps)) / (2 * eps)
    wide = span > 1e-9 * eps
    s = np.where(wide, span, 1.0)
    return np.where(wide, (cdf(vals + s / 2) - cdf(vals - s / 2)) / s, point)


def bump_average_cos_sin(vals: np.ndarray, span: np.ndarray, eps: float) -> np.ndarray:
    """``bump_average`` as one cosine-sine product, the form the library's
    kernel takes before its half-angle tangents.

    With a and b the ends vals -+ span/2 clipped to [-eps, eps], in units
    of 2 eps / pi as A and B, the average is
    (B - A + cos(A + B) sin(B - A)) / (pi span).  A span under 1e-9 eps
    takes the value at v instead.
    """
    wide = span > 1e-9 * eps
    s = np.where(wide, span, 1.0)
    scale = np.pi / (2 * eps)
    lo = np.clip(scale * (vals - s / 2), -np.pi / 2, np.pi / 2)
    hi = np.clip(scale * (vals + s / 2), -np.pi / 2, np.pi / 2)
    average = (hi - lo + np.cos(lo + hi) * np.sin(hi - lo)) / (np.pi * s)
    point = (1 + np.cos(np.pi * np.clip(vals, -eps, eps) / eps)) / (2 * eps)
    return np.where(wide, average, point)


def bump_point(vals: np.ndarray, eps: float) -> np.ndarray:
    """The cosine bump (1 + cos(pi t / eps)) / (2 eps) at t = vals, 0 outside (-eps, eps)."""
    return np.where(np.abs(vals) < eps, (1 + np.cos(np.pi * vals / eps)) / (2 * eps), 0.0)


def dense_band(phases: list, box, n: int, eps: float):
    """Band cells of the phases over every grid cell.

    A cell is in the band when |phi_j| < eps + span_j / 2 for every phase,
    with span_j = sum_i h_i |d_i phi_j|.  Returns the band cell midpoints
    (N, m), the product of the span-averaged bumps (N,) and the gradients
    (N, k, m).  With no phases every cell is in the band with weight 1.
    """
    m = len(box)
    h = [(hi - lo) / n for lo, hi in box]
    grads = [[diff_terms(p, i) for i in range(m)] for p in phases]
    pts_out, weight_out, jac_out = [], [], []
    for pts in grid_slabs(box, n):
        keep = np.ones(pts.shape[0], dtype=bool)
        weight = np.ones(pts.shape[0])
        jac = np.zeros((pts.shape[0], len(phases), m))
        for j, (p, row) in enumerate(zip(phases, grads)):
            vals = poly_values(p, pts)
            for i in range(m):
                jac[:, j, i] = poly_values(row[i], pts)
            span = sum(h[i] * np.abs(jac[:, j, i]) for i in range(m))
            keep &= np.abs(vals) < eps + span / 2
            weight = weight * bump_average(vals, span, eps)
        pts_out.append(pts[keep])
        weight_out.append(weight[keep])
        jac_out.append(jac[keep])
    return np.concatenate(pts_out), np.concatenate(weight_out), np.concatenate(jac_out)


def blade_norms(jac: np.ndarray) -> np.ndarray:
    """|v_1 ^ .. ^ v_k| of the rows of (N, k, m) arrays, k = 1 or 2 (Lagrange identity)."""
    sq = (jac * jac).sum(axis=2)
    if jac.shape[1] == 1:
        return np.sqrt(sq[:, 0])
    cross = (jac[:, 0] * jac[:, 1]).sum(axis=1)
    return np.sqrt(np.maximum(sq[:, 0] * sq[:, 1] - cross * cross, 0.0))


def blade_minors(jac: np.ndarray) -> dict:
    """{blade: coefficient array} of v_1 ^ .. ^ v_k for rows of (N, k, m) arrays, k = 1 or 2."""
    m = jac.shape[2]
    if jac.shape[1] == 1:
        return {(a + 1,): jac[:, 0, a] for a in range(m)}
    return {(a + 1, b + 1): jac[:, 0, a] * jac[:, 1, b] - jac[:, 0, b] * jac[:, 1, a]
            for a in range(m) for b in range(a + 1, m)}


def _field_mul(x: dict, y: dict, square: int = -1) -> dict:
    """Clifford product (e_j^2 = -1) of {blade: array} fields; the wedge with square 0."""
    out = {}
    for ba, ca in x.items():
        for bb, cb in y.items():
            sign, blade = blade_product(ba, bb, square)
            if sign:
                out[blade] = out.get(blade, 0.0) + sign * ca * cb
    return out


def _field_values(field: dict, pts: np.ndarray) -> dict:
    return {blade: poly_values(p, pts) for blade, p in field.items()}


def tangential_dirac_frame_free(field: dict, phases: list, x, left: bool = True) -> dict:
    """The tangential Dirac operator as sum_i (P e_i) d_i F, with no frame.

    P = I - N^T (N N^T)^-1 N projects onto the tangent space, with the phase
    gradients as the rows of N.  ``field`` is {blade: term dict}, ``phases``
    a list of term dicts.  At one point x, an (m,) array, the result is
    {blade: float}; at the rows of an (N, m) array it is {blade: array}.
    With ``left`` false it is the right-acting sum_i d_i F (P e_i).
    """
    x = np.asarray(x, dtype=float)
    pts = x[None, :] if x.ndim == 1 else x
    m = pts.shape[1]
    grads = np.stack([np.stack([poly_values(diff_terms(p, i), pts) for i in range(m)], axis=1)
                      for p in phases], axis=1)
    proj = np.eye(m) - grads.transpose(0, 2, 1) @ np.linalg.solve(
        grads @ grads.transpose(0, 2, 1), grads)
    out = {}
    for i in range(m):
        tangent = {(j + 1,): proj[:, j, i] for j in range(m)}
        partial = _field_values({b: diff_terms(p, i) for b, p in field.items()}, pts)
        pair = (tangent, partial) if left else (partial, tangent)
        for blade, c in _field_mul(*pair).items():
            out[blade] = out.get(blade, 0.0) + c
    return {b: float(c[0]) for b, c in out.items()} if x.ndim == 1 else out


def _blade_of_rows(jac: np.ndarray) -> dict:
    """v_1 ^ .. ^ v_k of the rows of (N, k, m) arrays as {blade: array}, any k."""
    out = {(): np.ones(jac.shape[0])}
    for r in range(jac.shape[1]):
        row = {(j + 1,): jac[:, r, j] for j in range(jac.shape[2])}
        out = _field_mul(out, row, square=0)
    return out


def _cell_sums(weight: np.ndarray, field: dict, cellvol: float) -> dict:
    return {blade: cellvol * float((weight * c).sum()) for blade, c in field.items()}


def dense_cauchy(f_field: dict, g_field: dict, phi: dict, phases: list, box, n: int,
                 eps: float) -> tuple[dict, dict]:
    """Both sides of the boundary formula on the surface of k >= 1 phases, over every grid cell.

    Left: the band cells of the phases (``dense_band``), weighted by their
    bump product and the linearized share clip(1/2 - phi / span, 0, 1) of
    the cell in {phi < 0}, times (F d_T) W G + (-1)^k F W (d_T G), with
    W = grad phi_1 ^ .. ^ grad phi_k and d_T the frame-free tangential Dirac
    operator.  Right: the band cells of (phi, phi_1, .., phi_k), those of
    the left band with |phi| < eps + span / 2, weighted by one more bump
    average, times F (grad phi ^ W) G.  Both sums are times the cell
    volume; {blade: float}.
    """
    m = len(box)
    h = [(hi - lo) / n for lo, hi in box]
    cellvol = float(np.prod(h))
    sign = (-1) ** len(phases)
    pts, weight, jac = dense_band(phases, box, n, eps)
    phi_vals = poly_values(phi, pts)
    phi_grad = np.stack([poly_values(diff_terms(phi, i), pts) for i in range(m)], axis=1)
    span = np.abs(phi_grad) @ np.array(h)
    share = np.clip(0.5 - phi_vals / np.maximum(span, 1e-300), 0.0, 1.0)
    fv, gv = _field_values(f_field, pts), _field_values(g_field, pts)
    blade = _blade_of_rows(jac)
    f_dt = tangential_dirac_frame_free(f_field, phases, pts, left=False)
    dt_g = tangential_dirac_frame_free(g_field, phases, pts, left=True)
    integrand = _field_mul(_field_mul(f_dt, blade), gv)
    for b, c in _field_mul(_field_mul(fv, blade), dt_g).items():
        integrand[b] = integrand.get(b, 0.0) + sign * c
    lhs = _cell_sums(weight * share, integrand, cellvol)
    near = np.abs(phi_vals) < eps + span / 2
    cut = _blade_of_rows(np.concatenate([phi_grad[:, None, :], jac], axis=1)[near])
    integrand = _field_mul(_field_mul({b: c[near] for b, c in fv.items()}, cut),
                           {b: c[near] for b, c in gv.items()})
    rhs = _cell_sums((weight * bump_average(phi_vals, span, eps))[near], integrand, cellvol)
    return lhs, rhs


def dense_cauchy_classical(f_field: dict, g_field: dict, phi: dict, box, n: int,
                           eps: float) -> tuple[dict, dict]:
    """Both sides of the classical (k = 0) boundary formula over every grid cell.

    Left: the linearized share clip(1/2 - phi / span, 0, 1) of each cell in
    {phi < 0} times (F D) G + F (D G), with F D = sum_i (d_i F) e_i and
    D G = sum_i e_i (d_i G).  Right: the span-averaged bump of phi times
    F (grad phi) G.  Both sums are times the cell volume; {blade: float}.
    """
    m = len(box)
    h = [(hi - lo) / n for lo, hi in box]
    cellvol = float(np.prod(h))
    df = [{b: diff_terms(p, i) for b, p in f_field.items()} for i in range(m)]
    dg = [{b: diff_terms(p, i) for b, p in g_field.items()} for i in range(m)]
    dphi = [diff_terms(phi, i) for i in range(m)]
    lhs, rhs = {}, {}
    for pts in grid_slabs(box, n):
        fv, gv = _field_values(f_field, pts), _field_values(g_field, pts)
        vals = poly_values(phi, pts)
        grad = [poly_values(d, pts) for d in dphi]
        span = sum(h[i] * np.abs(grad[i]) for i in range(m))
        share = np.clip(0.5 - vals / np.maximum(span, 1e-300), 0.0, 1.0)
        integrand = {}
        for i in range(m):
            e_i = {(i + 1,): np.ones(pts.shape[0])}
            for part in (_field_mul(_field_mul(_field_values(df[i], pts), e_i), gv),
                         _field_mul(fv, _field_mul(e_i, _field_values(dg[i], pts)))):
                for blade, c in part.items():
                    integrand[blade] = integrand.get(blade, 0.0) + c
        for blade, c in integrand.items():
            lhs[blade] = lhs.get(blade, 0.0) + cellvol * float((share * c).sum())
        near = np.abs(vals) < eps + span / 2
        weight = np.where(near, bump_average(vals, span, eps), 0.0)
        grad_field = {(i + 1,): grad[i] for i in range(m)}
        for blade, c in _field_mul(_field_mul(fv, grad_field), gv).items():
            rhs[blade] = rhs.get(blade, 0.0) + cellvol * float((weight * c).sum())
    return lhs, rhs


# -- Haar frames -----------------------------------------------------------------


def haar_frames_qr(gauss: np.ndarray) -> np.ndarray:
    """Q factors of a stack of (m, k) Gaussian matrices, columns signed so R's diagonal is positive.

    The sign fix is what makes QR-sampled frames Haar (Mezzadri, "How to
    generate random matrices from the classical compact groups", Notices
    AMS 2007).
    """
    q, r = np.linalg.qr(gauss)
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


# -- Rational rotations ----------------------------------------------------------


def cayley_rotation(skew: list) -> list:
    """Rational orthogonal Q = (I + A)^-1 (I - A) of a skew-symmetric Fraction matrix A.

    Gauss-Jordan on [I + A | I - A] without pivoting: every leading block of
    I + A is the identity plus a skew block, so its pivots are positive.
    """
    m = len(skew)
    aug = [[int(i == j) + skew[i][j] for j in range(m)] + [int(i == j) - skew[i][j] for j in range(m)]
           for i in range(m)]
    for c in range(m):
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(m):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
    return [row[m:] for row in aug]
