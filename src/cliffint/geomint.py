"""Numerical geometric integration: delta-function surface quadrature,
Haar Monte Carlo over frames, and boundary-value identity checks.

A codimension-k surface is described implicitly by polynomial phases
phi_1, ..., phi_k; the surface measure is realized on a regular midpoint
grid by replacing each delta(phi_j) with a cosine-bump mollifier

    delta_eps(t) = (1 + cos(pi t / eps)) / (2 eps)   for |t| < eps,

so that a scalar surface integral becomes the grid sum of
delta_eps(phi_1) ... delta_eps(phi_k) * |grad phi_1 ^ ... ^ grad phi_k| * f,
and the oriented variant keeps the blade of gradients unnormalized.
Heaviside factors stay sharp.

Only a thin band of cells carries weight.  One cell rule (``_band_rule``)
decides it: a cell is in the band where |phi| < eps + span/2, with span
its linearized variation of phi, sum_i h_i |d_i phi|, and its factor is
the delta value.  A Heaviside cut H(-phi) multiplies in the linearized
fraction of the cell with phi < 0, clip(1/2 - phi/span, 0, 1)
(midpoint-sampling the jump leaves an O(h) alignment error), and drops
the cells where it is 0.  A cell's weight is the product of its factors,
and with no phases (k = 0) every cell is in the band.  The band sweep
finds the band by block culling (Snyder, SIGGRAPH 1992) with one rule: a
block of cells is dropped when a bound of some phase over the block (the
block extremes of its per-axis tables, below) shows that the cell rule
drops every cell of it.  The rule runs top down: a flat top grid of at
most _BATCH_CELLS blocks, then the 2^m halves of each kept block, a
bounded group of blocks at a time, down to leaf blocks of _BLOCK cells
per axis, halved while a leaf's cells times 2^m exceed _BATCH_CELLS.  The
cells of the kept leaves are evaluated in batches of at most _BATCH_CELLS
cells, each phase on the cells the earlier ones kept, so the culling
changes only the order of the cells, and no array of the sweep grows
with the grid.  The sweep is column-major: it holds cell indices and
coordinates as (m, N) arrays, one contiguous row per axis, and drops
cells by index with ``take`` along the cell axis.

The evaluation is separable: each phase, each gradient component and
each span is split once per sweep into per-axis tables over the n cell
midpoints and a remainder of mixed terms.  A candidate cell is carried as
its grid indices only, and pays m table lookups per value, plus the
remainder on its coordinates only when a phase has one.  A phase in one
coordinate (a plane) takes the cell rule once per sweep on its axis's n
entries, and a cell looks the outcome up.  The band cells go out in lazy
batches: their weights come with them, and boundary flags when some kept
top block of the culling touches a face of the box (every leaf lies in a
kept top block), but their coordinates, jacobian rows and Gram matrices
are built only when an integrand reads them.  The coordinates are the
axis midpoints themselves, so they do not depend on the tables.  Where
every gradient component is one table on its own axis (shifted spheres,
planes, axis-aligned quadrics), each Gram entry sums lookups in per-axis
product tables over the axes where neither component vanishes
identically, so integrating f = 1 reads neither coordinates nor jacobian.
One range check, before any cell is visited, bounds from the tables'
magnitudes every value, gradient, span and Gram entry a cell computes,
and at k >= 2 the Gram determinant: a bound beyond the float range, or a
squared gradient length or determinant below the least normal float,
refuses the sweep.  The culling bounds come from the same tables;
interval arithmetic on monomials remains for the remainders and for the
cut's value.  The cut keeps a term-by-term value, because its fraction
divides the value by the span, which would magnify the rounding of a
table sum, unless the cut is in one coordinate, whose table has the bits
of the term-by-term value.  The cut's gradient stays out of the jacobian.
The pointwise operators run on a one-cell band batch at their point, so
they take the sweep's range check, jacobian, Gram matrices and
independence test.

Every grid sum runs through one sweep object, which builds its grid,
tables, range check and culling once and sums each column of values
against the cell weights with one dot product.  The Cauchy-type check is
two sweeps on one set of tables: the band cut by the Heaviside of phi,
which also drops the blocks and cells where H(-phi) = 0, and the band of
(phi, phi_1, ..., phi_k), so it needs k < m.  Before either visits a
cell, the fields, their derivatives and the products the two sides form
with the blade of each sweep are bounded on the grid like an integrand.
Its Clifford-valued fields, blades and products take a column-sparse batched
form: a dict from blade, the index tuple that keys ``Multivector``, to one
column of coefficients over the points, holding only the blades the value
can carry.  A geometric product is vectorized
over the points and loops over the pairs of carried columns.  Its
tangential Dirac operator needs no tangent frame: it is
sum_i e_i (P_T d F)_i with the projector P_T = I - J^T (J J^T)^-1 J of the
phase jacobian J, and the product with each e_i relabels the columns
through the memoized blade product ``clifford._mul_blades``.  The
pointwise ``tangential_dirac`` is the same operator on one cell.
"""

from __future__ import annotations

import copy
import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .clifford import Multivector, _mul_blades, blades_of_grade
from .exterior import CliffordPoly
from .pizzetti import stiefel_volume
from .polyalg import VectorPoly


class IndependenceError(RuntimeError):
    """Phase gradients are numerically dependent at sampled surface points."""


class BoundaryContactError(RuntimeError):
    """A non-negligible share of the surface band lies in boundary cells."""


class TransversalityError(RuntimeError):
    """The boundary phase is not transversal to the surface."""


class FloatRangeError(ValueError):
    """A polynomial or an estimate lies beyond or below the range of floats."""


@dataclass(frozen=True)
class ImplicitSurfaceSpec:
    """Implicit surface: common zero set of polynomial phases inside a box.

    ``phases`` may be empty only for boundary-value checks whose surface is
    the full ambient domain; the quadrature entry points require k >= 1.
    """

    m: int
    phases: tuple[VectorPoly, ...]
    box: tuple[tuple[float, float], ...]

    def __init__(self, m: int, phases: Sequence[VectorPoly],
                 box: Sequence[Sequence[float]]):
        if m < 1:
            raise ValueError("need m >= 1")
        phases = tuple(phases)
        if len(phases) > m:
            raise ValueError("more phases than dimensions")
        for phi in phases:
            if phi.nvars != 1 or phi.m != m:
                raise ValueError("each phase must be a polynomial in one m-vector")
            _check_float_range(phi)
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        if len(box) != m:
            raise ValueError(f"box must have {m} extents")
        # an infinite or NaN end makes hi - lo non-finite
        if not all(math.isfinite(hi - lo) and lo < hi for lo, hi in box):
            raise ValueError("box extents must be finite with lo < hi")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "box", box)

    @property
    def k(self) -> int:
        return len(self.phases)


@dataclass(frozen=True)
class QuadratureConfig:
    """Grid quadrature settings.

    ``n`` is the number of cells per axis, an integer (any type with
    ``__index__``; it is stored as an int); ``eps`` the half-width of the
    cosine-bump mollifier (``None`` selects 6 times the largest cell
    spacing).  ``eps`` must exceed the spacing and stay below the smallest
    box extent.  The tolerances are module constants.
    """

    n: int = 201
    eps: float | None = None

    def __post_init__(self):
        try:
            n = operator.index(self.n)
        except TypeError:
            raise TypeError(f"n must be an integer number of cells per axis, "
                            f"got {self.n!r}") from None
        object.__setattr__(self, "n", n)
        if n < 16:
            raise ValueError("need at least 16 cells per axis")
        if self.eps is not None and self.eps <= 0:
            raise ValueError("eps must be positive")

    def resolve_eps(self, box: Sequence[Sequence[float]]) -> float:
        spacing = max((hi - lo) / self.n for lo, hi in box)
        extent = min(hi - lo for lo, hi in box)
        eps = 6.0 * spacing if self.eps is None else self.eps
        if not spacing < eps < extent:
            raise ValueError(
                f"eps {eps:g} must lie strictly between grid spacing {spacing:g} "
                f"and smallest box extent {extent:g}")
        return eps


@dataclass(frozen=True)
class Frame:
    """Orthonormal k-frame in R^m, columns of an (m, k) matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.matrix, dtype=float)
        if q.ndim != 2 or q.shape[0] < q.shape[1]:
            raise ValueError("frame must be an (m, k) matrix with k <= m")
        # a NaN entry would pass the orthonormality test: NaN > tol is False
        if not np.isfinite(q).all():
            raise ValueError("frame entries must be finite")
        gram = q.T @ q
        if np.max(np.abs(gram - np.eye(q.shape[1]))) > 1e-12:
            raise ValueError("columns are not orthonormal to 1e-12")
        object.__setattr__(self, "matrix", q)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def k(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo estimate of a Stiefel integral (volume-weighted)."""

    mean: float
    standard_error: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class CauchyResult:
    """Both sides of the boundary-value identity and their relative residual."""

    lhs: Multivector
    rhs: Multivector
    residual: float


# -- polynomial and field evaluation ----------------------------------------


def _check_float_range(p: VectorPoly) -> None:
    """Refuse a polynomial with a coefficient that has no float value.

    A coefficient has none when it overflows a float, or when it is nonzero
    and rounds to 0.0, which would turn a nonzero term into a zero one.  The
    float paths call this where a polynomial enters, before any grid or
    sampling work; raises FloatRangeError naming the first such term.
    """
    for key, coeff in p.terms.items():
        try:
            where = "below" if coeff and not float(coeff) else None
        except OverflowError:
            where = "beyond"
        if where:
            mono = p.monomial_text(key)
            name = f"the coefficient of {mono}" if mono else "the constant term"
            size = math.log10(abs(coeff.numerator)) - math.log10(coeff.denominator)
            raise FloatRangeError(f"{name}, about 10^{size:.0f}, lies {where} the float range")


def poly_on_points(p: VectorPoly, pts: np.ndarray) -> np.ndarray:
    """Evaluate a polynomial on an (N, m * nvars) array of flat points."""
    if pts.ndim != 2 or pts.shape[1] != p.m * p.nvars:
        raise ValueError(f"points must have {p.m * p.nvars} columns")
    out = np.zeros(pts.shape[0])
    for key, coeff in p.terms.items():
        # the first factor times the coefficient starts the term: the same
        # IEEE products as multiplying into a filled array, one array fewer
        c = float(coeff)
        term = None
        for idx, e in enumerate(key):
            if e:
                factor = pts[:, idx] if e == 1 else pts[:, idx] ** e
                if term is None:
                    term = factor * c
                else:
                    term *= factor
        out += c if term is None else term
    return out


def _as_integrand(f, m: int):
    """The integrand f, a number taken as the constant polynomial in one
    m-vector; a polynomial's coefficients (``_check_float_range``) and shape
    are checked, and a NaN or an infinity raises FloatRangeError."""
    if isinstance(f, float) and not math.isfinite(f):
        raise FloatRangeError(f"the integrand {f} is not a finite number")
    if isinstance(f, (int, float, Fraction)):
        f = VectorPoly.constant(m, f)
    if isinstance(f, VectorPoly):
        _check_float_range(f)
        if (f.m, f.nvars) != (m, 1):
            raise ValueError("the integrand must be a polynomial in one m-vector")
    return f


def _field_values(f, cells) -> np.ndarray:
    """Values of the integrand f, a polynomial or a callable, on a band
    batch (``_BandBatch``) or on an (N, m) array of points; a constant
    reads no coordinates (the bits of ``poly_on_points``: 0.0 plus it)."""
    if isinstance(f, VectorPoly) and f.degree() == 0:
        return np.full(len(cells), float(f.eval_zero()))
    pts = cells if isinstance(cells, np.ndarray) else cells.points
    if isinstance(f, VectorPoly):
        return poly_on_points(f, pts)
    if callable(f):
        vals = np.asarray(f(pts), dtype=float)
        if vals.shape != (pts.shape[0],):
            raise ValueError("callable integrand must return one value per point")
        return vals
    raise TypeError(f"cannot evaluate integrand of type {type(f)!r}")


def _delta_values(vals: np.ndarray, eps: float, span: np.ndarray) -> np.ndarray:
    """Mollified delta weight per grid cell.

    span is the linearized variation of the phase across the cell
    (sum of spacing_i * |d_i phi|).  The kernel is averaged in closed form
    over that variation; sampling the kernel only at the cell midpoint
    leaves an alignment error at the support edge that does not shrink
    while eps stays tied to the spacing.  With a and b the ends
    vals -+ span/2 clipped to [-eps, eps], the average is the difference of
    the kernel's antiderivatives at b and a over the span, as one product:
        (b - a + (2 eps / pi) cos(pi (a + b) / (2 eps)) sin(pi (b - a) / (2 eps)))
        / (2 eps span).
    In units of 4 eps / pi the ends are half angles u <= v in
    [-pi/4, pi/4], and by cos 2x = (1 - tan^2 x) / (1 + tan^2 x) and
    sin 2y = 2 tan y / (1 + tan^2 y), with t+ = tan(u + v) and
    t- = tan(v - u), the average reads
        2 (v - u + t- (1 - t+^2) / ((1 + t+^2) (1 + t-^2))) / (pi span).
    numpy runs float64 tan through its SIMD dispatch (AVX512 on x86), but
    float64 sin and cos through scalar libm, so two tangents cost less than
    one cosine and one sine there.  An angle sum at the edge, pi/2, gives a
    tangent of about 1.6e16, whose square, 2.7e32, stays far from overflow.
    Cells whose span is at most 1e-9 eps, where the average loses its
    digits, take the midpoint value (a cosine: they are rare, and it is
    exactly 0 at t = -+eps).
    """
    narrow = span <= 1e-9 * eps
    # the narrow cells' average is overwritten; the floor keeps it finite
    s = np.maximum(span, 1e-9 * eps)
    scale = math.pi / (4.0 * eps)
    edge = 0.25 * math.pi
    # each step writes over an array the rest no longer reads, or into the
    # numerator: five arrays for the whole formula, with the same operations
    # on the same operands
    mid = np.multiply(vals, scale)
    half = np.multiply(s, 0.5 * scale)
    lo = np.subtract(mid, half)
    np.clip(lo, -edge, edge, out=lo)
    hi = np.clip(np.add(mid, half, out=mid), -edge, edge, out=mid)
    out = np.subtract(hi, lo, out=half)
    tp = np.tan(np.add(lo, hi, out=lo), out=lo)
    tm = np.tan(out, out=hi)
    tp *= tp
    num = np.subtract(1.0, tp)
    num *= tm
    tp += 1.0
    tm *= tm
    tm += 1.0
    tp *= tm
    num /= tp
    out += num
    s *= 0.5 * math.pi
    out /= s
    if narrow.any():
        t = np.clip(vals[narrow], -eps, eps)
        out[narrow] = (1.0 + np.cos(np.pi * t / eps)) / (2.0 * eps)
    return out


# -- grid streaming ----------------------------------------------------------

# Cells per axis of a culling leaf, the smallest block the band sweep tests
# (halved while a leaf's cells times 2^m exceed the batch budget: 4 up to
# m = 4, 2 at m = 5 and 6, 1 from m = 7), and the most cells one batch of
# candidate points holds.  The budget is sized by measurement on the
# benchmark's surface_quadrature workload (2-core x86 host): 4096 cells ran
# 10 % fewer ops per second than 8192, and 16384 raised peak RSS by 3 %.
_BLOCK = 4
_BATCH_CELLS = 8192
# Fixed tolerances (the independence one is relative to gradient lengths)
# and the frames drawn per Monte Carlo stream.
_INDEPENDENCE_TOL = 1e-6
_BOUNDARY_TOL = 1e-4
_DET_TOL = 1e-6
_ON_SURFACE_TOL = 1e-8
_BLOCK_ORTHOGONAL_TOL = 1e-10
_MC_CHUNK = 20000


def _interval_bounds(p: VectorPoly, ranges) -> tuple[np.ndarray, np.ndarray]:
    """Enclosure (lo, hi) of p over each box of per-axis ranges.

    ``ranges`` holds one (lo, hi) pair of arrays per axis, and all of them
    broadcast together; the result has their broadcast shape, one entry per
    box.  A list of boxes passes 1-d arrays of one length; a product grid
    passes axis i's ends shaped to lie along dimension i.  Each monomial's
    range is the interval product of its exact per-axis power ranges, so
    their sum encloses p.  The enclosure is widened by 1e-12 times the
    bound on sum |c x^alpha|, far above the rounding of this bound and of
    a pointwise evaluation of p.
    """
    shape = np.broadcast_shapes(*(a.shape for a, _ in ranges))
    lo = np.zeros(shape)
    hi = np.zeros(shape)
    mag = np.zeros(shape)
    for key, coeff in p.terms.items():
        tlo = thi = float(coeff)
        for i, e in enumerate(key):
            if not e:
                continue
            a, b = ranges[i]
            pa, pb = a ** e, b ** e
            if e % 2:
                low, high = pa, pb
            else:
                low = np.where((a < 0) & (b > 0), 0.0, np.minimum(pa, pb))
                high = np.maximum(pa, pb)
            prods = (tlo * low, tlo * high, thi * low, thi * high)
            tlo = np.minimum(np.minimum(prods[0], prods[1]), np.minimum(prods[2], prods[3]))
            thi = np.maximum(np.maximum(prods[0], prods[1]), np.maximum(prods[2], prods[3]))
        lo += tlo
        hi += thi
        mag += np.maximum(np.abs(tlo), np.abs(thi))
    slack = 1e-12 * mag
    return lo - slack, hi + slack


def _may_reach_band(tests: list[_PhaseTables], eps: float, axes: list[np.ndarray],
                    index, size: int, cut: _PhaseTables | None) -> np.ndarray:
    """Which blocks of ``size`` cells per axis may hold band cells.

    ``tests`` are the phases' tables and ``cut`` the cut's, or None.
    ``index`` holds, per axis, the block indices along it as arrays that
    broadcast together (a product grid or a list of blocks); a block is
    clipped to the grid.  It is ruled out when, for some phase, the least
    |phi| its cells can take is at least eps + span/2 at the largest span
    they can take: the per-cell test |phi| < eps + span/2 then drops every
    cell of it.  The bounds come from the block extremes of the tables
    (``_AxisTables.bounds``) and enclose the very values the cells compute,
    so the test needs no slack, and no cell the per-cell test keeps is
    ruled out.  The cut also rules out a block where its value stays at or
    above half its largest span, floored at 1e-300 as in the cells: there
    every cell's Heaviside fraction 1/2 - phi/span is 0.  The cut's value
    is bounded by ``_interval_bounds``, since the cells evaluate it term by
    term; a cell with phi = span = 0 keeps the fraction 1/2.
    """
    ranges = None
    if cut is not None or any(test.needs_cols for test in tests):
        # the ends of each block's midpoints, for the remainders and the cut
        ranges = []
        for ax, b in zip(axes, index):
            start = b * size
            ranges.append((ax[start], ax[np.minimum(start + size, len(ax)) - 1]))
    alive = np.ones(np.broadcast_shapes(*(np.shape(b) for b in index)), dtype=bool)
    for test in tests:
        lo, hi = test.value.bounds(index, size, ranges)
        # the least |phi| over the block, <= 0 when the bounds straddle zero
        alive &= np.maximum(lo, -hi) < eps + 0.5 * test.span_bound(index, size, ranges)
    if cut is not None:
        lo = _interval_bounds(cut.phi, ranges)[0]
        alive &= lo < 0.5 * np.maximum(cut.span_bound(index, size, ranges), 1e-300)
    return alive


def _top_blocks(tests: list[_PhaseTables], eps: float, axes: list[np.ndarray], leaf: int,
                cut: _PhaseTables | None) -> tuple[np.ndarray, int]:
    """The top grid of ``_band_leaves``: its blocks that pass one
    ``_may_reach_band`` test, as (B, m) multi-indices, and their size, the
    smallest power-of-two multiple of ``leaf`` cells per axis that needs at
    most _BATCH_CELLS blocks."""
    m = len(axes)
    size = leaf
    while math.prod(-(-len(ax) // size) for ax in axes) > _BATCH_CELLS:
        size *= 2
    index = [np.arange(-(-len(ax) // size)).reshape([-1 if j == i else 1 for j in range(m)])
             for i, ax in enumerate(axes)]
    return np.argwhere(_may_reach_band(tests, eps, axes, index, size, cut)), size


def _band_leaves(tests: list[_PhaseTables], eps: float, axes: list[np.ndarray], leaf: int,
                 cut: _PhaseTables | None, top: tuple[np.ndarray, int]):
    """Yield (B, m) multi-indices of the blocks of ``leaf`` cells per axis
    that may hold band cells, by ``_may_reach_band`` on the phases' tables
    ``tests`` and the cut's tables ``cut`` (or None).

    The culling runs top down, from the kept blocks of the top grid and
    their size, ``top`` (``_top_blocks``).  Each kept block splits into its
    2^m half-size children, and the children of _BATCH_CELLS >> m parents
    at a time take the same test, depth first, down to ``leaf``.  The
    extremes of a table over a block bound those over its sub-blocks, so
    this keeps the leaves that pass the test on their own, and no array of
    the test holds more than max(_BATCH_CELLS, 2^m) blocks; every leaf lies
    in a kept top block.
    """
    m = len(axes)
    sizes = np.array([len(ax) for ax in axes])
    bits = np.indices((2,) * m).reshape(m, -1).T
    step = max(1, _BATCH_CELLS >> m)

    def descend(blocks: np.ndarray, size: int):
        if size == leaf:
            yield blocks
            return
        half = size // 2
        for first in range(0, len(blocks), step):
            children = (2 * blocks[first:first + step, None, :] + bits).reshape(-1, m)
            # a block clipped at the grid edge may have children wholly outside it
            children = children.take(np.flatnonzero((children * half < sizes).all(axis=1)), axis=0)
            alive = _may_reach_band(tests, eps, axes, children.T, half, cut)
            yield from descend(children.take(np.flatnonzero(alive), axis=0), half)

    yield from descend(*top)


def _gather(tables, idx: np.ndarray) -> np.ndarray | None:
    """sum_a T_a[idx[a]] over the (axis a, table T_a) pairs, in their order;
    None when there are none.  Over boolean tables the sum is the or."""
    out = None
    for a, table in tables:
        if out is None:
            out = table.take(idx[a])
        else:
            out += table.take(idx[a])
    return out


def _block_extremes(table: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Least and greatest entries of ``table`` over each block of ``size``
    consecutive entries, the last block clipped to the table."""
    starts = np.arange(0, len(table), size)
    return np.minimum.reduceat(table, starts), np.maximum.reduceat(table, starts)


def _sum_of_maxima(tables) -> float:
    """The greatest magnitudes of the tables summed in table order: a bound
    of every sum of one entry per table in that order, since rounding is
    monotone.  inf when such a sum may leave the float range; call it with
    float overflow silenced."""
    total = 0.0
    for _, table in tables:
        total = total + np.abs(table).max()
    return float(total)


def _term_bound(p: VectorPoly, axes: list[np.ndarray]) -> float:
    """sum |c| prod_i r_i^e_i over the terms of p, with r_i the greatest
    |x_i| over the axis midpoints, formed in ``poly_on_points``' order of
    terms and factors: rounding is monotone, so it bounds every term and
    partial sum that function forms on the grid's cells.  inf when one of
    them may leave the float range; call it with float overflow silenced."""
    reach = [np.abs(ax).max() for ax in axes]
    total = 0.0
    for key, coeff in p.terms.items():
        term = abs(float(coeff))
        for i, e in enumerate(key):
            if e:
                term = term * reach[i] ** e
        total = total + term
    return float(total)


class _AxisTables:
    """A polynomial in one m-vector, valued on grid cells from per-axis tables.

    Each term in one coordinate x_a joins the group of axis a; the constant
    term joins the group of the lowest such axis, or of axis ``home`` when
    there is none; the terms in two or more coordinates form the remainder.
    Each group is evaluated once, by ``poly_on_points``, on its axis's n
    cell midpoints.  On the cells of per-axis indices ``idx``, an (m, N)
    array, the value is sum_a T_a[idx[a]], summed in axis order, plus the
    remainder on the cells' coordinates.  A polynomial in at most one
    coordinate has one group in the order of its terms, so its values are
    the bits ``poly_on_points`` gives on the coordinates.  ``magnitude``
    bounds |values| on the grid: the lookup sums, plus the remainder on the
    coordinates; it is inf when they may leave the float range, or when a
    coefficient has no float value (its tables are then empty and unused).
    Build it with float overflow silenced.
    """

    def __init__(self, p: VectorPoly, axes: list[np.ndarray], home: int = 0):
        used = {key: [i for i, e in enumerate(key) if e] for key in p.terms}
        home = min((u[0] for u in used.values() if len(u) == 1), default=home)
        groups: dict[int, dict] = {}
        rest = {}
        for key, coeff in p.terms.items():
            if len(used[key]) > 1:
                rest[key] = coeff
            else:
                a = used[key][0] if used[key] else home
                groups.setdefault(a, {})[(key[a],)] = coeff
        self.rest = VectorPoly(p.m, 1, rest) if rest else None
        try:
            self.tables = [(a, poly_on_points(VectorPoly(1, 1, g), axes[a][:, None]))
                           for a, g in sorted(groups.items())]
            self.magnitude = _sum_of_maxima(self.tables)
            if self.rest is not None:
                self.magnitude = self.magnitude + _term_bound(self.rest, axes)
        except OverflowError:
            self.tables, self.magnitude = [], math.inf
        self._extremes: dict[int, list] = {}

    def values(self, idx: np.ndarray, cols: np.ndarray | None) -> np.ndarray:
        """Values on the cells ``idx``; ``cols``, their (m, N) coordinates, is
        read only when there is a remainder."""
        out = _gather(self.tables, idx)
        if self.rest is not None:
            rest = poly_on_points(self.rest, cols.T)
            out = rest if out is None else np.add(out, rest, out=out)
        return np.zeros(idx.shape[1]) if out is None else out

    def bounds(self, index, size: int, ranges) -> tuple:
        """Enclosure (lo, hi) of ``values`` on the cells of each block of
        ``size`` cells per axis, the blocks and ``ranges`` (their midpoint
        ends) given as in ``_may_reach_band``.

        The tabled part is the sum, in the lookup's axis order, of each
        table's least (greatest) entry over the block, taken once per size;
        rounding is monotone, so it encloses the looked-up sums exactly.
        The remainder adds its ``_interval_bounds`` over ``ranges``.
        """
        extremes = self._extremes.get(size)
        if extremes is None:
            extremes = self._extremes[size] = [(a, *_block_extremes(table, size))
                                               for a, table in self.tables]
        # 0 + x is x, so the sums start exact
        lo = hi = 0.0
        for a, least, greatest in extremes:
            lo = lo + least.take(index[a])
            hi = hi + greatest.take(index[a])
        if self.rest is not None:
            rest_lo, rest_hi = _interval_bounds(self.rest, ranges)
            lo, hi = lo + rest_lo, hi + rest_hi
        return lo, hi


class _PhaseTables:
    """A phase phi and its gradient components as ``_AxisTables``, with its span
    sum_i h_i |d_i phi| split the same way: the components in one table
    (d_i phi in x_i alone, or constant, as for shifted spheres and planes)
    add h_i |T| into a per-axis span table, and the others (two tables or a
    remainder) are evaluated per cell.  With every component in its own
    axis's table, the span has the bits of the sum over i in axis order.

    The tables and the bounds of ``_check_range`` are built with float
    overflow silenced, so that a phase too large for floats on the grid can
    be refused once, before any cell is visited: ``value.magnitude`` and
    each ``grad[i].magnitude`` (``_AxisTables``), ``span_magnitude``, the
    span's, and ``term_magnitude``, the ``_term_bound`` of the value as a
    cut's cells evaluate it, term by term.  ``axis`` is the one axis
    of every value and span table of a phase in one coordinate (planes, and
    phi(x_a) in general: no remainder, no span component evaluated per
    cell), whose cells the sweep tests by lookup (``_axis_lookup``); else
    None."""

    def __init__(self, phi: VectorPoly, axes: list[np.ndarray], spacings: list[float]):
        self.phi = phi
        with np.errstate(over="ignore", invalid="ignore"):
            self.value = _AxisTables(phi, axes)
            self.grad = [_AxisTables(phi.diff(1, i + 1), axes, i) for i in range(len(axes))]
            span: dict[int, np.ndarray] = {}
            self.span_cells = []
            for h, g in zip(spacings, self.grad):
                if g.rest is None and len(g.tables) == 1:
                    a, table = g.tables[0]
                    part = h * np.abs(table)
                    span[a] = part if a not in span else span[a] + part
                elif g.tables or g.rest is not None:
                    self.span_cells.append((h, g))
            self.span_tables = sorted(span.items())
            # the span's bound adds the other components in ``span``'s order
            self.span_magnitude = _sum_of_maxima(self.span_tables)
            for h, g in self.span_cells:
                self.span_magnitude = self.span_magnitude + h * g.magnitude
            self.term_magnitude = _term_bound(phi, axes)
        self._span_maxima: dict[int, list] = {}
        self.needs_cols = self.value.rest is not None or any(
            g.rest is not None for _, g in self.span_cells)
        used = {a for a, _ in (*self.value.tables, *self.span_tables)}
        self.axis = (used.pop() if len(used) == 1 and self.value.rest is None
                     and not self.span_cells else None)

    def span(self, idx: np.ndarray, cols: np.ndarray | None) -> np.ndarray:
        out = _gather(self.span_tables, idx)
        if out is None:
            out = np.zeros(idx.shape[1])
        for h, g in self.span_cells:
            out += h * np.abs(g.values(idx, cols))
        return out

    def span_bound(self, index, size: int, ranges) -> np.ndarray | float:
        """An upper bound of ``span`` on the cells of each block, from the
        block maxima of the span tables and the bounds of the other
        components (as ``_AxisTables.bounds``), summed in ``span``'s order."""
        maxima = self._span_maxima.get(size)
        if maxima is None:
            maxima = self._span_maxima[size] = [(a, _block_extremes(table, size)[1])
                                                for a, table in self.span_tables]
        hi = 0.0
        for a, greatest in maxima:
            hi = hi + greatest.take(index[a])
        for h, g in self.span_cells:
            lo, up = g.bounds(index, size, ranges)
            hi = hi + h * np.maximum(np.abs(lo), np.abs(up))
        return hi


def _band_rule(vals: np.ndarray, span: np.ndarray, eps: float,
               is_cut: bool) -> tuple[np.ndarray, np.ndarray]:
    """The band's cell rule on cells of phase values ``vals`` and spans
    ``span``: the indices of the cells it keeps and their weight factors.

    For a phase, a cell is kept where |phi| < eps + span/2, with its delta
    value (``_delta_values``) as the factor.  For the cut, the factor is the
    Heaviside fraction clip(1/2 - phi / max(span, 1e-300), 0, 1), and a cell
    is kept where it is nonzero.  A quotient that overflows (a large phi on
    a cell of span 0) is an infinity, which clips to the same 0 or 1 as a
    finite one, so the division runs with overflow silenced.
    """
    if is_cut:
        with np.errstate(over="ignore"):
            frac = np.clip(0.5 - vals / np.maximum(span, 1e-300), 0.0, 1.0)
        keep = np.flatnonzero(frac)
        return keep, frac.take(keep)
    keep = np.flatnonzero(np.abs(vals) < eps + 0.5 * span)
    return keep, _delta_values(vals.take(keep), eps, span.take(keep))


def _axis_lookup(test: _PhaseTables, eps: float, is_cut: bool) -> tuple[np.ndarray, np.ndarray]:
    """The per-cell test and weight factor of a phase in one coordinate, as
    tables over the n entries of its ``axis``: a cell takes the entries at
    its index on that axis.

    The cells' value and span are those entries themselves, so ``_band_rule``
    on the entries gives the very bits the cells would: the test is True and
    the factor set on the entries it keeps, False and 0 elsewhere.
    """
    vals = test.value.tables[0][1]
    span = test.span_tables[0][1] if test.span_tables else np.zeros(len(vals))
    keep, factor = _band_rule(vals, span, eps, is_cut)
    inside = np.zeros(len(vals), dtype=bool)
    inside[keep] = True
    weight = np.zeros(len(vals))
    weight[keep] = factor
    return inside, weight


def _check_range(tests: list[_PhaseTables], names: list[str], k: int) -> float:
    """Refuse, before any cell is visited, a sweep whose cells may compute a
    value beyond the float range, or a Gram matrix below it.

    ``tests`` are the sweep's tables, called by ``names``: k phases, whose
    gradients form the Gram matrices, then a cut.  The upper bounds are
    listed, and checked, in this order:
    - per test, its value, each gradient component and its span, by the
      magnitudes of ``_PhaseTables``, and for a cut its value term by term,
      as its cells evaluate it;
    - per pair b <= a of phases, the Gram entry, by
      sum_i mag(d_i phi_a) mag(d_i phi_b) summed in axis order as the
      entries are (rounding is monotone, so it holds on every cell);
    - at k >= 2, the determinant that ``_minors`` and ``_gram_det`` form, a
      sum of k! products of one entry per row, each at most the product of
      the diagonal entries (Cauchy-Schwarz): by k! times the product of the
      diagonal bounds, doubled for rounding.  That product also bounds the
      product of the squared lengths in the independence test.
    A bound that is not finite raises FloatRangeError, "... beyond the float
    range on the grid".  A diagonal or determinant bound below the least
    normal float raises "... below the float range on the grid": every
    cell's value is then subnormal or 0, and the independence test would
    read the lost digits as dependence.  A gradient whose magnitudes are
    all 0 is exactly 0 on every cell, in range, and dependent.

    Returns a bound of the blade norm |grad phi_1 ^ .. ^ grad phi_k| and of
    each blade component (a k x k minor of the jacobian) on every cell:
    2 k! prod_a sqrt(G_aa), G_aa the diagonal bounds.  A minor is a sum of
    k! products of one entry per row, an entry at most the root of its
    row's diagonal, doubled for rounding; and its square, (2 k!)^2 prod_a
    G_aa, is at least the determinant bound, whose root bounds the norm.
    """
    checks = []
    for j, (test, name) in enumerate(zip(tests, names)):
        for bound in (test.value.magnitude, *(g.magnitude for g in test.grad),
                      test.span_magnitude, *([test.term_magnitude] if j >= k else [])):
            checks.append((bound, 0.0, f"{name} takes values"))
    det, det_floor = 2.0 * math.factorial(k), sys.float_info.min
    blade = det
    for a, first in enumerate(tests[:k]):
        for b, second in enumerate(tests[:a + 1]):
            bound = 0.0
            for g, h in zip(second.grad, first.grad):
                bound = bound + g.magnitude * h.magnitude
            if b < a:
                checks.append((bound, 0.0, f"the gradients of {names[b]} and {names[a]} "
                                           f"have an inner product"))
        # the last pair is the diagonal one, b = a
        floor = sys.float_info.min if any(g.magnitude for g in first.grad) else 0.0
        checks.append((bound, floor, f"the gradient of {names[a]} has a squared length"))
        det *= bound
        blade *= math.sqrt(bound)
        det_floor = min(det_floor, floor)
    if k >= 2:
        listed = f"{', '.join(names[:k - 1])} and {names[k - 1]}"
        checks.append((det, det_floor, f"the gradients of {listed} have a Gram determinant"))
    for bound, floor, what in checks:
        if not math.isfinite(bound):
            raise FloatRangeError(f"{what} beyond the float range on the grid")
        if bound < floor:
            raise FloatRangeError(f"{what} below the float range on the grid")
    return blade


def _gram_tables(phases: list[_PhaseTables]) -> list | None:
    """Per-axis tables of the phases' Gram entries, when every gradient
    component d_i phi is one table on axis i or zero (shifted spheres,
    planes, axis-aligned quadrics); None otherwise.

    Returns (a, b, tables) for b <= a, with tables the pairs (i, T_ai T_bi)
    over the axes i, in order, where both components have a table: the
    other products are zeros (a plane's gradient has one nonzero
    component).  Such a component's value on a cell is its table's entry,
    so the sum of the looked-up products over those axes has the bits of
    the jacobian column products that ``_jacobian_gram`` sums over every
    axis, up to the sign of an exact zero.
    """
    rows = []
    for test in phases:
        row = {}
        for i, g in enumerate(test.grad):
            if g.rest is not None or any(a != i for a, _ in g.tables):
                return None
            if g.tables:
                row[i] = g.tables[0][1]
        rows.append(row)
    return [(a, b, [(i, np.multiply(x, rows[b][i])) for i, x in rows[a].items() if i in rows[b]])
            for a in range(len(rows)) for b in range(a + 1)]


def _coordinates(axes: list[np.ndarray], idx: np.ndarray) -> np.ndarray:
    """The (m, N) midpoint coordinates of the cells of grid indices ``idx``."""
    cols = np.empty(idx.shape)
    for i, ax in enumerate(axes):
        # every index is in range; "clip" lets take write straight into
        # out, where the default mode buffers it
        ax.take(idx[i], out=cols[i], mode="clip")
    return cols


class _BandBatch:
    """One batch of band cells of a ``_Sweep``.

    ``idx`` holds the cells' grid indices, an (m, N) array with one
    contiguous row per axis, ``weight`` their weights and ``bmask`` their
    boundary flags, None on every batch of a sweep whose kept top blocks
    hold no boundary cell.  The rest is built on first read and then
    cached, so that an integrand pays only for what it reads:
    - ``points``, the (N, m) coordinates, the axis midpoints themselves;
    - ``jac``, the (N, k, m) phase jacobian, from the gradient tables;
    - ``gram``, the Gram matrices (k, k, N) of the gradients and their
      determinants, after the independence test of ``_gram_det``: summed
      from the sweep's product tables when it has them (``_gram_tables``),
      which reads no jacobian, else from the jacobian columns.
    ``points`` and ``jac`` are transposed views of column-major buffers, so
    every per-axis column a caller reads is contiguous.
    """

    def __init__(self, sweep: _Sweep, idx: np.ndarray, weight: np.ndarray,
                 bmask: np.ndarray | None = None, cols: np.ndarray | None = None):
        self.idx, self.weight, self.bmask = idx, weight, bmask
        # the coordinates, when the sweep gathered them for a test
        self._cols = cols
        self._sweep = sweep

    def __len__(self) -> int:
        return self.idx.shape[1]

    @cached_property
    def points(self) -> np.ndarray:
        cols = _coordinates(self._sweep.axes, self.idx) if self._cols is None else self._cols
        return cols.T

    @cached_property
    def jac(self) -> np.ndarray:
        jcols = np.empty((len(self._sweep.phases), len(self._sweep.axes), len(self)))
        for j, test in enumerate(self._sweep.phases):
            for i, g in enumerate(test.grad):
                # only a remainder of mixed terms reads the coordinates
                jcols[j, i] = g.values(self.idx, None if g.rest is None else self.points.T)
        return jcols.transpose(2, 0, 1)

    @cached_property
    def gram(self) -> tuple[np.ndarray, np.ndarray]:
        if self._sweep.products is None:
            gram = _jacobian_gram(self.jac)
        else:
            k = len(self._sweep.phases)
            gram = np.empty((k, k, len(self)))
            for a, b, tables in self._sweep.products:
                entry = gram[a, b]
                if tables:
                    (i, first), *rest = tables
                    first.take(self.idx[i], out=entry, mode="clip")
                    for i, table in rest:
                        entry += table.take(self.idx[i])
                else:
                    entry[...] = 0.0
                gram[b, a] = entry
        return gram, _gram_det(gram)


class _Sweep:
    """One band sweep of the quadrature grid, its state built once.

    The constructor takes (spec, cfg, cut, f).  It resolves ``eps``, the
    mollifier half-width, the cell-midpoint ``axes``, the ``spacings`` and
    the cell volume ``cellvol``.  It builds the ``_PhaseTables`` of the
    phases, then of ``cut``, a polynomial phi, when one is given, and
    refuses, before any cell is visited, tables that may leave the float
    range (``_check_range``, whose bound of the blade norm it keeps as
    ``blade``), and a polynomial integrand ``f`` whose
    ``_term_bound`` on the grid, or that bound times the blade bound of
    ``_check_range``, is not finite (FloatRangeError, "the integrand ...
    beyond the float range on the grid"): they bound its values on the
    cells and their products with the blade norm and each blade component.
    It then builds the Gram product tables (``_gram_tables``), the one-axis
    lookups (``_axis_lookup``), the per-axis ``edges`` (the midpoints
    within one cell of a face of the box: a cell is a boundary cell where
    any of its axes flags it) and the kept ``top`` blocks of the culling
    (``_top_blocks``).  Given a point in place of cfg, the grid is the
    point's one cell, of spacing 0, with no band to find (``_point_batch``).
    ``cut_as_phase`` gives the sweep of (phi, phi_1, ..., phi_k) on the
    same geometry, edges and tables.

    ``batches()`` yields the band cells as ``_BandBatch`` batches of at
    most _BATCH_CELLS cells, each weighted by the product of its
    ``_band_rule`` factors: the cut's Heaviside fraction H(-phi) joins the
    weight, and the cells where it is 0 are dropped.  With no phases
    (k = 0) every cell is in the band.  A batch's Gram matrices raise
    IndependenceError when first read on dependent gradients.

    ``sum(integrand)``, through which every grid sum runs, sums the
    weights times ``integrand(cells)``, a dict of (N,) value columns, one
    per blade it can carry, over the batches; the integrand reads only
    what it needs of a batch (its points, jacobian or checked Gram
    matrices, each built on first read).  The weights, scaled in place by
    the cell volume, take one dot product per column.  The result maps
    each blade to its sum (empty when no cell is in the band).  Raises
    FloatRangeError when a sum lies beyond the float range (the range
    checks bound each cell's value, not the sum over the band), and
    BoundaryContactError when the boundary cells carry more than
    _BOUNDARY_TOL of the total magnitude.  A sweep whose batches carry no
    boundary mask holds no boundary cell and can raise none, so it sums no
    magnitudes at all.
    """

    def __init__(self, spec: ImplicitSurfaceSpec,
                 cfg: QuadratureConfig | np.ndarray | None = None,
                 cut: VectorPoly | None = None, f=None):
        k = spec.k
        if isinstance(cfg, np.ndarray):
            self.eps, self.axes, self.spacings = None, list(cfg[:, None]), [0.0] * spec.m
        else:
            cfg = cfg or QuadratureConfig()
            self.eps = cfg.resolve_eps(spec.box)
            self.spacings = [(hi - lo) / cfg.n for lo, hi in spec.box]
            self.axes = [lo + h * (np.arange(cfg.n) + 0.5)
                         for (lo, _), h in zip(spec.box, self.spacings)]
            self.edges = [(ax < lo + h) | (ax > hi - h)
                          for ax, (lo, hi), h in zip(self.axes, spec.box, self.spacings)]
        self.cellvol = math.prod(self.spacings)
        phases = spec.phases if cut is None else (*spec.phases, cut)
        tests = [_PhaseTables(phi, self.axes, self.spacings) for phi in phases]
        names = [f"phase {j + 1}" for j in range(k)] + ["the cut phi"]
        self.blade = _check_range(tests, names, k)
        with np.errstate(over="ignore"):
            values = _term_bound(f, self.axes) if isinstance(f, VectorPoly) else 0.0
        for bound, what in ((values, "takes values"),
                            (values * self.blade, "times the blade norm takes values")):
            if not math.isfinite(bound):
                raise FloatRangeError(f"the integrand {what} beyond the float range on the grid")
        self._build(tests, k)

    def cut_as_phase(self) -> _Sweep:
        """The sweep of (phi, phi_1, ..., phi_k), phi this sweep's cut, on
        this sweep's geometry, edges and tables, after their range check in
        that order."""
        right = copy.copy(self)
        tests = [self.cut, *self.phases]
        right.blade = _check_range(tests, ["the cut phi",
                                           *(f"phase {j + 1}" for j in range(self.k))], self.k + 1)
        right._build(tests, self.k + 1)
        return right

    def _build(self, tests: list[_PhaseTables], k: int) -> None:
        """The state of k phases' tables, then of a cut's when there is one."""
        self.tests, self.k, self.phases = tests, k, tests[:k]
        self.cut = tests[k] if len(tests) > k else None
        self.products = _gram_tables(self.phases)
        if self.eps is None:
            return  # a point has no band to find
        # per sweep, not per table: a cut of one sweep is a phase of another
        self.lookups = [None if test.axis is None else _axis_lookup(test, self.eps, j == k)
                        for j, test in enumerate(tests)]
        m = len(self.axes)
        self.leaf = _BLOCK
        while self.leaf > 1 and self.leaf ** m > _BATCH_CELLS >> m:
            self.leaf //= 2
        self.top = _top_blocks(self.phases, self.eps, self.axes, self.leaf, self.cut)
        # every leaf lies in a kept top block, so when none of those holds a
        # boundary cell, no batch of the sweep does
        top_edges = [np.logical_or.reduceat(e, np.arange(0, len(e), self.top[1]))
                     for e in self.edges]
        self.near_face = bool(_gather(enumerate(top_edges), self.top[0].T).any())

    def batches(self):
        m, k, eps, axes, leaf = len(self.axes), self.k, self.eps, self.axes, self.leaf
        groups = _band_leaves(self.phases, eps, axes, leaf, self.cut, self.top)
        sizes = np.array([len(ax) for ax in axes])[:, None]
        ragged = bool(np.any(sizes % leaf))
        # the cell offsets within a leaf, repeated for the most leaves in a batch
        per_leaf = leaf ** m
        per_batch = _BATCH_CELLS // per_leaf
        offsets = np.tile(np.indices((leaf,) * m).reshape(m, -1), per_batch)

        for subs in (g[s:s + per_batch] for g in groups for s in range(0, len(g), per_batch)):
            # leaf by leaf, the leaf's corner plus each offset: a repeat and one
            # flat add cost less than a broadcast add over rows of per_leaf cells
            idx = (subs.T * leaf).repeat(per_leaf, axis=1)
            idx += offsets[:, :idx.shape[1]]
            if ragged:
                # the last block along an axis may stick out of the grid
                idx = idx.take(np.flatnonzero((idx < sizes).all(axis=0)), axis=1)
            cols = None
            # the first factor starts the weight
            weight = None
            for j, (test, lookup) in enumerate(zip(self.tests, self.lookups)):
                if lookup is not None:
                    keep = np.flatnonzero(lookup[0].take(idx[test.axis]))
                else:
                    if cols is None and (test.needs_cols or j == k):
                        cols = _coordinates(axes, idx)
                    span = test.span(idx, cols)
                    vals = (test.value.values(idx, cols) if j < k
                            else poly_on_points(test.phi, cols.T))
                    keep, factor = _band_rule(vals, span, eps, j == k)
                if not len(keep):
                    break
                idx = idx.take(keep, axis=1)
                if cols is not None:
                    cols = cols.take(keep, axis=1)
                if lookup is not None:
                    factor = lookup[1].take(idx[test.axis])
                weight = factor if weight is None else weight.take(keep) * factor
            else:
                if weight is None:
                    weight = np.ones(idx.shape[1])
                bmask = _gather(enumerate(self.edges), idx) if self.near_face else None
                yield _BandBatch(self, idx, weight, bmask, cols)

    def sum(self, integrand: Callable[[_BandBatch], dict]) -> dict:
        totals: dict[tuple, float] = {}
        total_abs = boundary_abs = 0.0
        for cells in self.batches():
            weight = cells.weight
            weight *= self.cellvol
            bmask = cells.bmask
            if bmask is not None:
                edge = np.flatnonzero(bmask)
                edge_weight = weight.take(edge)
            # np.vdot is the BLAS dot product of @, with the same bits, but it
            # flags no overflow: a sum beyond the float range is an infinity,
            # refused below, where @ would also warn (an errstate per batch
            # cost 1.7 % of the benchmark's surface_quadrature op time on a
            # 2-core x86 host)
            for blade, col in integrand(cells).items():
                totals[blade] = totals.get(blade, 0.0) + float(np.vdot(col, weight))
                if bmask is not None:
                    mags = np.abs(col)
                    total_abs += float(np.vdot(mags, weight))
                    boundary_abs += float(np.vdot(mags.take(edge), edge_weight))
        if not all(map(math.isfinite, totals.values())):
            raise FloatRangeError("the integral lies beyond the float range")
        if boundary_abs > _BOUNDARY_TOL * total_abs:
            raise BoundaryContactError(
                f"surface band carries weight {boundary_abs:g} in boundary cells "
                f"(total magnitude {total_abs:g}); enlarge the box or rescale the "
                f"phases (eps is in phase units)")
        return totals


def _minors(rows: np.ndarray, cols) -> np.ndarray:
    """Determinants of the columns ``cols`` of each (k, m) matrix of a stack.

    k = 0 is the empty determinant 1, k = 1 the entry itself, k = 2 the
    closed form a d - b c and k = 3 the cofactor expansion along the first
    row; a LAPACK call per stack of matrices that small costs more than the
    products.  Four or more rows go to LAPACK.
    """
    if len(cols) == 0:
        return np.ones(rows.shape[0])
    if len(cols) == 1:
        return rows[:, 0, cols[0]]
    if len(cols) == 2:
        a, b = cols
        return rows[:, 0, a] * rows[:, 1, b] - rows[:, 0, b] * rows[:, 1, a]
    if len(cols) == 3:
        a, b, c = cols
        first = rows[:, 0]
        return (first[:, a] * _minors(rows[:, 1:], (b, c))
                - first[:, b] * _minors(rows[:, 1:], (a, c))
                + first[:, c] * _minors(rows[:, 1:], (a, b)))
    return np.linalg.det(rows[:, :, list(cols)])


def _jacobian_gram(jac: np.ndarray) -> np.ndarray:
    """Gram matrices (k, k, N) of the rows of an (N, k, m) jacobian.

    Each entry <grad phi_a, grad phi_b> is the sum over axes of products of
    jacobian columns, summed in place in axis order: on a band batch's
    column-major jacobian these are contiguous rows, where a batched matmul
    of k x m by m x k matrices costs far more.
    """
    n, k, m = jac.shape
    gram = np.empty((k, k, n))
    for a in range(k):
        for b in range(a + 1):
            # summed in place in axis order: the bits of sum() over the axes
            entry = np.multiply(jac[:, a, 0], jac[:, b, 0], out=gram[a, b])
            for i in range(1, m):
                entry += jac[:, a, i] * jac[:, b, i]
            gram[b, a] = entry
    return gram


def _gram_det(gram: np.ndarray) -> np.ndarray:
    """Determinants of a stack (k, k, N) of Gram matrices of gradients,
    after the independence test.

    The gradients count as dependent where the blade norm, the square root
    of the Gram determinant, is at most _INDEPENDENCE_TOL times the product
    of their lengths (scale-invariant; a zero gradient is dependent).  The
    test runs on the squares, det <= _INDEPENDENCE_TOL^2 prod_a G_aa, with
    no square root and the diagonal read as contiguous rows; at k = 1 it
    reads |grad phi|^2 <= 0.  A NaN determinant passes it, as it passes the
    test on the roots.
    """
    k = len(gram)
    det = _minors(gram.transpose(2, 0, 1), range(k))
    if np.any(det <= _INDEPENDENCE_TOL ** 2 * math.prod(gram[a, a] for a in range(k))):
        raise IndependenceError("phase gradients are numerically dependent at surface points")
    return det


def _projection_factors(cells: _BandBatch) -> tuple[np.ndarray, np.ndarray]:
    """The jacobian J (N, k, m) and the inverse Gram matrices (k, k, N) of
    a band batch, as the tangential projection reads them, with phase a's
    rows scaled by 2^-e_a.

    e_a is the binary exponent (``math.frexp``) of the largest gradient
    magnitude of phase a (``_AxisTables.magnitude``), so the scaled rows
    are at most 1 and the scaled Gram matrix S G S, S = diag(2^-e_a), has
    entries near 1 however the phases are scaled: G^-1 J d F no longer
    overflows for tiny gradients.  J^T G^-1 J does not change.  The range
    check keeps every 2^-e_a a float (the Gram diagonal bounds lie in the
    float range, so |e_a| stays near 512 or below), and a product by a
    power of 2 is exact unless it falls below the normal range: G's
    entries are multiplied by 2^-e_a and then by 2^-e_b, both steps exact
    for every scaled entry above 2^-510 (the scaled diagonal is near 1).
    The closed-form inverse for k <= 2, its determinant formed from the
    scaled entries as ``_gram_det`` forms it, then scales exactly too
    (LAPACK above), so the projection's bits change only where a value
    would have left the float range.  The independence test of the
    unscaled Gram matrices comes first and keeps every determinant
    positive.
    """
    gram = cells.gram[0]
    jac = cells.jac
    k = len(gram)
    e = [math.frexp(max((g.magnitude for g in test.grad), default=0.0))[1]
         for test in cells._sweep.phases]
    if any(e):
        rows = np.array([math.ldexp(1.0, -a) for a in e])
        jac = jac * rows[:, None]
        gram = gram * rows[:, None, None] * rows[None, :, None]
    if k <= 1:
        return jac, 1.0 / gram
    if k == 2:
        det = _minors(gram.transpose(2, 0, 1), range(2))
        return jac, np.array([[gram[1, 1], -gram[0, 1]], [-gram[1, 0], gram[0, 0]]]) / det
    return jac, np.linalg.inv(gram.transpose(2, 0, 1)).transpose(1, 2, 0)


# -- scalar and oriented quadrature ------------------------------------------


def integrate_implicit(f, spec: ImplicitSurfaceSpec,
                       cfg: QuadratureConfig | None = None) -> float:
    """Scalar surface integral of f over the implicit surface.

    Computes the grid sum of delta_eps(phi_1) .. delta_eps(phi_k) times the
    blade norm |grad phi_1 ^ .. ^ grad phi_k| times f.
    """
    if spec.k < 1:
        raise ValueError("need at least one phase")
    f = _as_integrand(f, spec.m)

    def density(cells):
        # the blade norm, the root of the Gram determinant
        return {(): _field_values(f, cells) * np.sqrt(cells.gram[1])}

    return _Sweep(spec, cfg, f=f).sum(density).get((), 0.0)


def integrate_oriented(f, spec: ImplicitSurfaceSpec,
                       cfg: QuadratureConfig | None = None) -> Multivector:
    """Oriented surface integral: the blade of gradients kept as a multivector.

    Returns the grade-k multivector with float coefficients
    sum over the band of delta-products * (grad phi_1 ^ .. ^ grad phi_k) * f.
    """
    if spec.k < 1:
        raise ValueError("need at least one phase")
    f = _as_integrand(f, spec.m)

    def density(cells):
        values = _field_values(f, cells)
        cells.gram  # the independence test
        return {blade: values * minor for blade, minor in _wedge_columns(cells.jac).items()}

    return Multivector(spec.m, _Sweep(spec, cfg, f=f).sum(density))


def phase_rescale_invariance(spec: ImplicitSurfaceSpec, alpha: Sequence[Sequence],
                             f=1, cfg: QuadratureConfig | None = None
                             ) -> tuple[float, float]:
    """Scalar integral before and after mixing phases by the matrix alpha.

    psi_l = sum_j alpha[l][j] phi_j; entries may be rationals or polynomials
    in the same vector variable.  |det alpha| must exceed _DET_TOL on the
    transformed band, which the mixed integrand checks cell by cell.
    """
    k = spec.k
    if k < 1:
        raise ValueError("need at least one phase")
    if len(alpha) != k or any(len(row) != k for row in alpha):
        raise ValueError("alpha must be k x k")
    entries = [[_as_poly(a, spec.m) for a in row] for row in alpha]
    psis = [sum((coeff * phi for coeff, phi in zip(row, spec.phases)), VectorPoly.zero(spec.m, 1))
            for row in entries]

    def checked_f(pts):
        mixing = np.array([[poly_on_points(a, pts) for a in row] for row in entries])
        if np.any(np.abs(_minors(mixing.transpose(2, 0, 1), range(k))) <= _DET_TOL):
            raise ValueError("phase-mixing determinant is numerically zero "
                             "on the surface band")
        return _field_values(f, pts)

    f = _as_integrand(f, spec.m)  # refused before any grid work
    plain = integrate_implicit(f, spec, cfg)
    return plain, integrate_implicit(checked_f, ImplicitSurfaceSpec(spec.m, psis, spec.box), cfg)


def _as_poly(value, m: int) -> VectorPoly:
    if isinstance(value, VectorPoly):
        if value.m != m or value.nvars != 1:
            raise ValueError("alpha entries must live in the surface variable")
        return value
    return VectorPoly.constant(m, Fraction(value))


# -- frames and tangential operators -----------------------------------------


def _point_batch(spec: ImplicitSurfaceSpec, point: Sequence[float]) -> _BandBatch:
    """The one cell of a ``_Sweep`` at the point, as a ``_BandBatch``: the
    band's range check covers its jacobian and Gram matrices.

    Needs k >= 1 and |phi| <= _ON_SURFACE_TOL at the point for every phase,
    tested first, so that a NaN point, or one where phi overflows, is not
    on the surface.
    """
    if spec.k < 1:
        raise ValueError("need at least one phase")
    x = np.asarray(point, dtype=float)
    if x.shape != (spec.m,):
        raise ValueError(f"point must have {spec.m} coordinates")
    for phi in spec.phases:
        # an overflow is an infinity, and inf - inf a NaN: both fail
        with np.errstate(over="ignore", invalid="ignore"):
            val = float(poly_on_points(phi, x[None, :])[0])
        # not <=, so that a NaN value fails too
        if not abs(val) <= _ON_SURFACE_TOL:
            raise ValueError(f"point is not on the surface: |phi| = {abs(val):g}")
    return _BandBatch(_Sweep(spec, x), np.zeros((spec.m, 1), dtype=np.intp), np.ones(1))


def tangent_normal_frames(spec: ImplicitSurfaceSpec, point: Sequence[float]
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal normal and tangent bases at a point of the surface.

    The gradients pass the band's range check and independence test;
    the complete QR factorization of the transposed phase jacobian then
    gives the bases: the normals span the phase gradients, the tangents
    their orthogonal complement.  Returns (normals, tangents) as row-vector
    arrays of shapes (k, m) and (m - k, m), orthonormal to 1e-10.  |phi| at
    the point must not exceed _ON_SURFACE_TOL.
    """
    cells = _point_batch(spec, point)
    cells.gram  # the independence test
    q = np.linalg.qr(cells.jac[0].T, mode="complete")[0]
    return q[:, :spec.k].T, q[:, spec.k:].T


def _as_cliffpoly(value, m: int) -> CliffordPoly:
    if isinstance(value, Multivector):
        value = CliffordPoly.from_multivector(value)
    field = CliffordPoly.zero(m)._coerce(value)  # ValueError unless in one m-vector
    if field is NotImplemented:
        raise TypeError(f"cannot interpret {type(value)!r} as a Clifford field")
    for poly in field.terms.values():
        _check_float_range(poly)
    return field


def tangential_dirac(field, spec: ImplicitSurfaceSpec,
                     point: Sequence[float]) -> Multivector:
    """Tangential Dirac operator sum_t eps_t <eps_t, d/dx> applied at a point.

    The sum runs over an orthonormal tangent basis, but the operator depends
    only on the tangent space: it is sum_i e_i (P_T d F)_i with the
    projector P_T = I - J^T (J J^T)^-1 J, J the phase gradients, so no
    basis is built.  It is the column-form operator of ``cauchy_check`` on
    a batch of one point, with the same independence test.
    """
    f = _as_cliffpoly(field, spec.m)
    cells = _point_batch(spec, point)
    partials = [_field_columns(f.diff(i), cells.points) for i in range(1, spec.m + 1)]
    out = _projected_dirac(*_projection_factors(cells), partials, left=True)
    return Multivector(spec.m, {blade: float(col[0]) for blade, col in out.items()})


# -- column-sparse Clifford batch algebra -------------------------------------


def _accumulate(out: dict, blade: tuple, col: np.ndarray, negate: bool = False) -> None:
    """out[blade] += col, or -= col when ``negate``.

    ``col`` must be an array made for this call: it may be negated in place
    and kept as the column itself.
    """
    acc = out.get(blade)
    if acc is None:
        out[blade] = np.negative(col, out=col) if negate else col
    elif negate:
        acc -= col
    else:
        acc += col


def _columns_mul(a: dict, b: dict) -> dict:
    """Geometric product of column-sparse batches.

    A batch is a dict from blade to an (N,) column of coefficients, one per
    point, holding only the blades it can carry; the product loops over the
    pairs of carried columns.
    """
    out: dict = {}
    for i, ca in a.items():
        for j, cb in b.items():
            sign, blade = _mul_blades(i, j, -1)
            _accumulate(out, blade, ca * cb, negate=sign < 0)
    return out


def _field_columns(f: CliffordPoly, pts: np.ndarray) -> dict:
    """Column-sparse values of a Clifford field at pts: one column per blade
    of the field, none for a zero field."""
    return {blade: poly_on_points(poly, pts) for blade, poly in f.terms.items()}


def _wedge_columns(jac: np.ndarray) -> dict:
    """Grade-k blade v_1 ^ ... ^ v_k from the rows of (N, k, m) arrays.

    The column of e_A is the minor of the columns in A; with k = 0 the
    blade is the scalar 1.
    """
    return {blade: _minors(jac, [j - 1 for j in blade])
            for blade in blades_of_grade(jac.shape[2], jac.shape[1])}


def _combination(pairs) -> dict:
    """sum of coeff * batch over the (coeff, batch) pairs, coeff an (N,) array."""
    out: dict = {}
    for coeff, batch in pairs:
        for blade, col in batch.items():
            _accumulate(out, blade, coeff * col)
    return out


def _projected_dirac(jac: np.ndarray, gram_inv: np.ndarray, partials: list,
                     left: bool) -> dict:
    """Tangential Dirac operator on a column-sparse batch, with no frame.

    ``jac`` (N, k, m) holds the phase gradients J, ``gram_inv`` (k, k, N)
    the inverses of G = J J^T, and ``partials`` the m partial derivatives
    d_i F as column-sparse batches (empty where one vanishes).  Scaling a
    row of J, and G to match, leaves the projection unchanged; the callers
    pass the rows scaled by ``_projection_factors``.  With
        A_i = d_i F - sum_a J_ai sum_b (G^-1)_ab sum_j J_bj d_j F,
    the derivative along the tangential projection of e_i, returns
    sum_i e_i A_i when ``left``, else sum_i A_i e_i; with k = 0 the
    projection is the identity.  The product with e_i relabels the columns
    of A_i through the memoized blade product.  Empty when every d_i F
    vanishes.
    """
    if not any(partials):
        return {}
    k = jac.shape[1]
    along = [_combination((jac[:, b, j], d) for j, d in enumerate(partials)) for b in range(k)]
    normal = [_combination((gram_inv[a, b], along[b]) for b in range(k)) for a in range(k)]
    out: dict = {}
    for i, d in enumerate(partials):
        a_i = {blade: col.copy() for blade, col in d.items()}
        for a in range(k):
            for blade, col in normal[a].items():
                _accumulate(a_i, blade, jac[:, a, i] * col, negate=True)
        e = (i + 1,)
        for blade, col in a_i.items():
            sign, target = _mul_blades(e, blade, -1) if left else _mul_blades(blade, e, -1)
            _accumulate(out, target, col, negate=sign < 0)
    return out


# -- Cauchy-type boundary-value check ----------------------------------------


def _field_bound(field: CliffordPoly, axes: list[np.ndarray]) -> float:
    """The sum over a Clifford field's blades of their ``_term_bound``s on
    the grid, inf when a coefficient has no float value; call it with float
    overflow silenced."""
    try:
        return float(sum(_term_bound(p, axes) for p in field.terms.values()))
    except OverflowError:
        return math.inf


def _check_field_range(f: CliffordPoly, g: CliffordPoly, df: list, dg: list,
                       left: _Sweep, right: _Sweep) -> None:
    """Refuse, before either Cauchy sweep visits a cell, fields whose values,
    or whose products with the blade W and each other, may leave the float
    range (FloatRangeError, "... beyond the float range on the grid").

    A field's bound (``_field_bound``) bounds each of its blade columns on
    every cell.  For fixed blades of one factor and of the product, the
    blade of the other factor is fixed, so a column of a geometric product
    is at most the first factor's bound times the greatest column of the
    second: every column the densities form is bounded by the product of
    the bounds of its factors, W's being the blade bound that
    ``_check_range`` returns for the side's sweep (its doubling covers the
    rounding).  The derivatives d_1 F, ..., d_m F are bounded by the sum D_F
    of their bounds; the tangential projection shortens the vector of
    partials of each blade, so each column of F d_par, a signed sum over i
    of one projected d_i F column each, is at most m D_F.  Every partial
    product of the densities is listed.
    """
    m = len(left.axes)
    with np.errstate(over="ignore"):
        f_b, g_b = _field_bound(f, left.axes), _field_bound(g, left.axes)
        df_b = sum(_field_bound(d, left.axes) for d in df)
        dg_b = sum(_field_bound(d, left.axes) for d in dg)
        checks = [(f_b, "the field F takes values"), (g_b, "the field G takes values"),
                  (df_b, "the derivatives of F take values"),
                  (dg_b, "the derivatives of G take values")]
        lb, rb = left.blade, right.blade
        checks += [(bound, "the left side's integrand takes values")
                   for bound in (m * df_b, m * df_b * lb, m * df_b * lb * g_b,
                                 m * dg_b, f_b * lb, f_b * lb * m * dg_b)]
        checks += [(bound, "the right side's integrand takes values")
                   for bound in (f_b * rb, f_b * rb * g_b)]
    for bound, what in checks:
        if not math.isfinite(bound):
            raise FloatRangeError(f"{what} beyond the float range on the grid")


def cauchy_check(f_field, g_field, phi: VectorPoly, spec: ImplicitSurfaceSpec,
                 cfg: QuadratureConfig | None = None) -> CauchyResult:
    """Compare both sides of the boundary-value identity on the surface.

    Left side: integral over the surface band restricted to {phi <= 0} of
        (F d_par) W G + (-1)^k F W (d_par G),
    where W is the blade of phase gradients and d_par the tangential Dirac
    operator.  Right side: integral over the band of (phi, phi_1, ..., phi_k),
    the surface cut by the mollified zero set of phi, of
        F (grad phi ^ W) G.
    With no phases (k = 0) the left side integrates over {phi <= 0} with
    d_par the full Dirac operator and W = 1, which is the classical case.
    The surface must have dimension m - k >= 1, so k < m.

    The left side is the band sum cut by the Heaviside of phi, which visits
    only the cells with H(-phi) > 0; the right side's sweep is the left
    one's with the cut as its first phase (``_Sweep.cut_as_phase``), on
    the same tables, and every float-range refusal of either, the fields'
    (``_check_field_range``) included, comes before the first visits a
    cell.  The Clifford fields, the blades and their products are
    column-sparse batches that carry only the blades they can hold, and
    each side runs on whole band batches.  The tangential Dirac
    operator is the frame-free projector form of
    ``tangential_dirac``, with the inverse Gram matrices of the phase
    gradients in closed form for k <= 2; it raises IndependenceError on the
    band's test, and a field whose derivatives all vanish (F = 1, say)
    drops its whole term.
    Returns both sides as multivectors and the relative residual
    |lhs - rhs| / max(|lhs|, |rhs|, 1).  Each side is checked for boundary
    contact like the quadratures, and the right side raises
    TransversalityError where (grad phi, grad phi_1, ..., grad phi_k) fail
    the band's scale-invariant independence test.
    """
    m, k = spec.m, spec.k
    if phi.nvars != 1 or phi.m != m:
        raise ValueError("phi must be a polynomial in one m-vector")
    if k >= m:
        raise ValueError(f"cauchy_check needs k < m phases, got k = {k} and m = {m}")
    f_cp = _as_cliffpoly(f_field, m)
    g_cp = _as_cliffpoly(g_field, m)
    df = [f_cp.diff(i) for i in range(1, m + 1)]
    dg = [g_cp.diff(i) for i in range(1, m + 1)]

    def left_density(cells):
        jac, gram_inv = _projection_factors(cells)
        # the blade W of the unscaled gradients
        wedge = _wedge_columns(cells.jac)
        out: dict = {}
        # a field whose derivatives all vanish drops its whole term
        f_right = _projected_dirac(jac, gram_inv, [_field_columns(d, cells.points) for d in df],
                                   left=False)
        if f_right:
            g_vals = _field_columns(g_cp, cells.points)
            out = _columns_mul(_columns_mul(f_right, wedge), g_vals)
        g_left = _projected_dirac(jac, gram_inv, [_field_columns(d, cells.points) for d in dg],
                                  left=True)
        if g_left:
            f_vals = _field_columns(f_cp, cells.points)
            for blade, col in _columns_mul(_columns_mul(f_vals, wedge), g_left).items():
                _accumulate(out, blade, col, negate=k % 2 == 1)
        return out

    def right_density(cells):
        # the jacobian rows are grad phi, grad phi_1, ..., grad phi_k
        try:
            cells.gram
        except IndependenceError as exc:
            raise TransversalityError(
                "grad phi is not transversal to the surface on its band") from exc
        blade = _wedge_columns(cells.jac)
        f_vals = _field_columns(f_cp, cells.points)
        g_vals = _field_columns(g_cp, cells.points)
        return _columns_mul(_columns_mul(f_vals, blade), g_vals)

    _check_float_range(phi)
    left = _Sweep(spec, cfg, phi)
    right = left.cut_as_phase()
    _check_field_range(f_cp, g_cp, df, dg, left, right)
    lhs = left.sum(left_density)
    rhs = right.sum(right_density)
    lhs_norm = math.hypot(*lhs.values())
    rhs_norm = math.hypot(*rhs.values())
    diff = math.hypot(*(lhs.get(b, 0.0) - rhs.get(b, 0.0) for b in lhs.keys() | rhs.keys()))
    residual = diff / max(lhs_norm, rhs_norm, 1.0)
    return CauchyResult(Multivector(m, lhs), Multivector(m, rhs), residual)


# -- Haar sampling and Monte Carlo -------------------------------------------


def _haar_frames(rng: np.random.Generator, m: int, k: int, count: int) -> np.ndarray:
    """``count`` Haar-distributed orthonormal k-frames in R^m, shape (count, m, k).

    Gram-Schmidt on the columns of standard Gaussian (m, k) matrices, all
    frames of the batch at once.  Each column is projected off the earlier
    ones twice (one pass leaves orthogonality errors up to 5e-10 at k = 3
    and 5; two leave rounding level) and then normalized.  That is the Q of
    the QR factorization with a positive R diagonal, up to rounding, which
    makes the distribution exactly Haar (Mezzadri, Notices AMS 2007).
    Raises ValueError when a drawn column lies in the span of the earlier
    ones, where the frame is undefined.

    The draw has shape (k, m, count), so rows[j, i] is coordinate i of
    column j over the batch, one contiguous row, and every inner product is
    a sum of row products; the result is a view of those rows.
    """
    rows = rng.standard_normal((k, m, count))
    for j, v in enumerate(rows):
        norm = length = np.sqrt((v * v).sum(axis=0))
        if j:
            for _ in range(2):
                coeffs = [(u * v).sum(axis=0) for u in rows[:j]]
                v -= sum(u * c for u, c in zip(rows[:j], coeffs))
            norm = np.sqrt((v * v).sum(axis=0))
        # an exactly dependent column keeps a residual of a few machine
        # epsilons of its length (2e-16 for a repeated one); a Gaussian
        # column comes this close to the span with probability about 1e-13
        # per draw at k = m, and far less below
        if np.any(norm <= 1e-13 * length):
            raise ValueError("Gaussian draw has a dependent column; its frame is undefined")
        v /= norm
    return rows.transpose(2, 1, 0)


def haar_sample_stiefel(m: int, k: int,
                        rng: np.random.Generator) -> Frame:
    """One Haar-distributed orthonormal k-frame in R^m."""
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= {m}")
    return Frame(_haar_frames(rng, m, k, 1)[0])


def _partition_rng(seed: int, partition: int) -> np.random.Generator:
    """The stream of one Monte Carlo partition: SFC64 seeded by the
    SeedSequence of (seed, partition), whose spawn keys give independent
    streams for any bit generator."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(partition,))
    return np.random.Generator(np.random.SFC64(ss))


def mc_stiefel_integral(p: VectorPoly, m: int, k: int, n_samples: int,
                        seed: int) -> MCEstimate:
    """Monte Carlo estimate of the integral of P over orthonormal k-frames.

    Samples are drawn in partitions of _MC_CHUNK with independent SFC64
    streams keyed by (seed, partition index) (``_partition_rng``), so
    results are reproducible for a given seed.  Partition sums are
    combined by count-weighted summation.  The estimate and its standard error are
    scaled by the manifold volume, matching the exact integrators.

    Frame entries lie in [-1, 1], so |P| <= sum |c_alpha| < 2^e.  The sums
    run over the values divided by 2^e, so the sum of squares cannot
    overflow, and the result is scaled back at the end; a power of two
    scales exactly, so the estimate is the plain one wherever that is
    finite.  Raises FloatRangeError for a coefficient or an estimate
    beyond the float range.
    """
    if p.nvars != k or p.m != m:
        raise ValueError("integrand must use exactly k vector variables of dimension m")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    _check_float_range(p)
    bound = sum(abs(c) for c in p.terms.values())
    e = bound.numerator.bit_length() - bound.denominator.bit_length() + 1
    vol = stiefel_volume(m, k).to_float()
    total = 0.0
    total_sq = 0.0
    done = 0
    partition = 0
    while done < n_samples:
        cnt = min(_MC_CHUNK, n_samples - done)
        q = _haar_frames(_partition_rng(seed, partition), m, k, cnt)
        pts = q.transpose(0, 2, 1).reshape(cnt, k * m)  # a view with contiguous columns
        vals = np.ldexp(poly_on_points(p, pts), -e)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += cnt
        partition += 1
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0) * n_samples / (n_samples - 1)
    stderr = math.sqrt(var / n_samples)
    try:
        return MCEstimate(math.ldexp(vol * mean, e), math.ldexp(vol * stderr, e),
                          n_samples, seed)
    except OverflowError:
        raise FloatRangeError("the Monte Carlo estimate lies beyond the float range") from None


# -- block-orthogonal basis identities ----------------------------------------


@dataclass(frozen=True)
class BlockOrthogonalResult:
    """Residuals of the three inverse-basis identities."""

    ok: bool
    dual_orthogonality: float
    determinant_split: float
    norm_product_first: float
    norm_product_second: float


def _wedge_norm_rows(rows: np.ndarray) -> float:
    gram = rows @ rows.T
    det = float(np.linalg.det(gram))
    return math.sqrt(max(det, 0.0))


def block_orthogonal_check(matrix: np.ndarray, k: int) -> BlockOrthogonalResult:
    """Check the duality identities for a block-orthogonal basis.

    ``matrix`` holds basis vectors in rows; rows 1..k must be orthogonal to
    rows k+1..m.  With w_j the columns of the inverse matrix, the checks
    are: dual vectors across the split stay orthogonal; |det| splits into
    the product of the two blade norms; and the blade norm of each block
    times the blade norm of its dual block equals one, each to within
    _BLOCK_ORTHOGONAL_TOL.
    """
    a = np.asarray(matrix, dtype=float)
    mdim = a.shape[0]
    if a.shape != (mdim, mdim):
        raise ValueError("matrix must be square")
    if not 1 <= k < mdim:
        raise ValueError("need 1 <= k < m")
    cross = a[:k] @ a[k:].T
    scale = np.abs(a[:k]) @ np.abs(a[k:]).T + 1e-300
    if np.max(np.abs(cross) / scale) > 1e-8:
        raise ValueError("rows are not block-orthogonal across the split")
    inv = np.linalg.inv(a)
    w_first = inv[:, :k]
    w_second = inv[:, k:]
    dual_cross = w_first.T @ w_second
    norms_f = np.linalg.norm(w_first, axis=0)
    norms_s = np.linalg.norm(w_second, axis=0)
    r1 = float(np.max(np.abs(dual_cross) / np.outer(norms_f, norms_s)))
    det = abs(float(np.linalg.det(a)))
    nv_first = _wedge_norm_rows(a[:k])
    nv_second = _wedge_norm_rows(a[k:])
    r2 = abs(det - nv_first * nv_second) / det
    r3 = abs(nv_first * _wedge_norm_rows(w_first.T) - 1.0)
    r4 = abs(nv_second * _wedge_norm_rows(w_second.T) - 1.0)
    ok = max(r1, r2, r3, r4) <= _BLOCK_ORTHOGONAL_TOL
    return BlockOrthogonalResult(ok, r1, r2, r3, r4)
