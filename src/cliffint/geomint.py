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

Only a thin band of cells, |phi| < eps + span/2, carries weight.  The band
sweep finds it by interval culling (Snyder, SIGGRAPH 1992) with one rule: a
block of cells is dropped when an interval bound of some phase (from
monomial ranges over the block) shows |phi| stays above that threshold.
The rule runs top down: a flat top grid of at most _BATCH_CELLS blocks,
then the 2^m halves of each kept block, a bounded group of blocks at a
time, down to small leaf blocks.  The cells of the kept leaves are
evaluated in batches of at most _BATCH_CELLS cells, so no array of the
sweep grows with the grid.  The evaluation is separable: each phase,
each gradient component and each span is split once per sweep into
per-axis tables over the n cell midpoints and a remainder of mixed terms.
A candidate cell pays m table lookups per value, and the remainder on its
coordinates only when a phase has one; only the band cells get
coordinates, jacobian rows and boundary flags.  The Heaviside cut of the
Cauchy check keeps a term-by-term value, because its cell fraction
divides the value by the span, which would magnify the rounding of a
table sum.

Every grid sum runs through one band-sum driver, which sums each column of
values against the cell weights with one dot product.  The Cauchy-type
check is two: the band cut by the Heaviside of phi, whose sweep also drops
the blocks and cells where H(-phi) = 0, and the band of (phi, phi_1, ...,
phi_k), so it needs k < m.  Its Clifford-valued fields, blades and products
take a column-sparse batched form: a dict from blade, the index tuple that
keys ``Multivector``, to one column of coefficients over the points, holding
only the blades the value can carry.  A geometric product is vectorized
over the points and loops over the pairs of carried columns.  Its
tangential Dirac operator needs no tangent frame: it is
sum_i e_i (P_T d F)_i with the projector P_T = I - J^T (J J^T)^-1 J of the
phase jacobian J, and the product with each e_i relabels the columns
through the memoized blade product ``clifford._mul_blades``.  The
pointwise ``tangential_dirac`` is the same operator on one point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
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
    """A polynomial or an estimate lies beyond the range of floats."""


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


def _field_values(f, pts: np.ndarray) -> np.ndarray:
    if isinstance(f, VectorPoly):
        return poly_on_points(f, pts)
    if callable(f):
        vals = np.asarray(f(pts), dtype=float)
        if vals.shape != (pts.shape[0],):
            raise ValueError("callable integrand must return one value per point")
        return vals
    if isinstance(f, (int, float, Fraction)):
        return np.full(pts.shape[0], float(f))
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
        / (2 eps span),
    evaluated with the ends in units of 2 eps / pi, where it reads
    (B - A + cos(A + B) sin(B - A)) / (pi span).  Cells whose span is at
    most 1e-9 eps, where the average loses its digits, take the midpoint
    value.
    """
    narrow = span <= 1e-9 * eps
    # the narrow cells' average is overwritten; the floor keeps it finite
    s = np.maximum(span, 1e-9 * eps)
    scale = math.pi / (2.0 * eps)
    edge = 0.5 * math.pi
    # each step writes over an array the rest no longer reads: four arrays
    # for the whole formula, with the same operations on the same operands
    mid = np.multiply(vals, scale)
    half = np.multiply(s, 0.5 * scale)
    lo = np.clip(np.subtract(mid, half), -edge, edge)
    hi = np.clip(np.add(mid, half, out=mid), -edge, edge, out=mid)
    out = np.subtract(hi, lo, out=half)
    cos = np.cos(np.add(lo, hi, out=lo), out=lo)
    cos *= np.sin(out, out=hi)
    out += cos
    s *= math.pi
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


def _grid_geometry(spec: ImplicitSurfaceSpec, cfg: QuadratureConfig):
    """(eps, cell-midpoint axes, spacings, cell volume) of the quadrature grid."""
    eps = cfg.resolve_eps(spec.box)
    axes = []
    spacings = []
    for lo, hi in spec.box:
        h = (hi - lo) / cfg.n
        axes.append(lo + h * (np.arange(cfg.n) + 0.5))
        spacings.append(h)
    cellvol = math.prod(spacings)
    return eps, axes, spacings, cellvol


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


def _half_spans(row, spacings: list[float], ranges, start) -> np.ndarray:
    """start + sum_i h_i max|d_i phi| / 2 over each box of ``ranges``: a bound
    on half the per-cell span of one phase, from the gradient row ``row``."""
    shape = np.broadcast_shapes(*(a.shape for a, _ in ranges))
    reach = np.full(shape, start)
    for h, dphi in zip(spacings, row):
        if dphi:
            glo, ghi = _interval_bounds(dphi, ranges)
            reach += 0.5 * h * np.maximum(np.abs(glo), np.abs(ghi))
    return reach


def _may_reach_band(spec: ImplicitSurfaceSpec, grads, eps: float, spacings: list[float],
                    axes: list[np.ndarray], index, size: int, cut) -> np.ndarray:
    """Which blocks of ``size`` cells per axis may hold band cells.

    ``index`` holds, per axis, the block indices along it as arrays that
    broadcast together (a product grid or a list of blocks, as in
    ``_interval_bounds``); a block is clipped to the grid.  It is ruled out
    when, for some phase, the enclosure of |phi| over its cell midpoints
    stays at or above eps + sum_i h_i max|d_i phi| / 2, the widest threshold
    of the per-cell test; no cell that test keeps is ruled out.  ``cut``,
    None or a (phi, gradient row) pair, also rules out a block where the enclosure
    of phi stays above sum_i h_i max|d_i phi| / 2: there every cell's
    Heaviside fraction is 0.  That test is strict, since a cell with
    phi = span = 0 keeps the fraction 1/2.
    """
    ranges = []
    for ax, b in zip(axes, index):
        start = b * size
        ranges.append((ax[start], ax[np.minimum(start + size, len(ax)) - 1]))
    alive = np.ones(np.broadcast_shapes(*(np.shape(b) for b in index)), dtype=bool)
    for phi, row in zip(spec.phases, grads):
        lo, hi = _interval_bounds(phi, ranges)
        reach = _half_spans(row, spacings, ranges, eps)
        # min |phi| over the block, <= 0 when the enclosure straddles zero;
        # the relative slack covers the rounding of the per-cell threshold
        alive &= np.maximum(lo, -hi) < reach * (1.0 + 1e-12)
    if cut is not None:
        lo = _interval_bounds(cut[0], ranges)[0]
        # the per-cell fraction divides by max(span, 1e-300): start there
        alive &= lo <= _half_spans(cut[1], spacings, ranges, 0.5e-300) * (1.0 + 1e-12)
    return alive


def _band_leaves(spec: ImplicitSurfaceSpec, grads, eps: float, spacings: list[float],
                 axes: list[np.ndarray], leaf: int, cut):
    """Yield (B, m) multi-indices of the blocks of ``leaf`` cells per axis
    that may hold band cells.

    The culling runs top down.  The top grid has the smallest power-of-two
    multiple of ``leaf`` cells per axis that needs at most _BATCH_CELLS
    blocks, and takes one ``_may_reach_band`` test.  Each surviving block
    splits into its 2^m half-size children, and the children of
    _BATCH_CELLS >> m parents at a time take the same test, depth first,
    down to ``leaf``.  An enclosure over a block holds the enclosures over
    its sub-blocks, so this keeps the leaves that pass the test on their
    own, and no array of the test holds more than max(_BATCH_CELLS, 2^m)
    blocks.
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
            alive = _may_reach_band(spec, grads, eps, spacings, axes, children.T, half, cut)
            yield from descend(children.take(np.flatnonzero(alive), axis=0), half)

    size = leaf
    while math.prod(-(-len(ax) // size) for ax in axes) > _BATCH_CELLS:
        size *= 2
    index = [np.arange(-(-len(ax) // size)).reshape([-1 if j == i else 1 for j in range(m)])
             for i, ax in enumerate(axes)]
    yield from descend(np.argwhere(_may_reach_band(spec, grads, eps, spacings, axes,
                                                   index, size, cut)), size)


def _edge_flags(spec: ImplicitSurfaceSpec, spacings: list[float],
                axes: list[np.ndarray]) -> list[np.ndarray]:
    """Per axis, which cell midpoints lie within one cell of a face of the
    box: a cell is a boundary cell where any of its axes flags it."""
    return [(ax < lo + h) | (ax > hi - h) for ax, (lo, hi), h in zip(axes, spec.box, spacings)]


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
    the bits ``poly_on_points`` gives on the coordinates.
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
        self.tables = [(a, poly_on_points(VectorPoly(1, 1, g), axes[a][:, None]))
                       for a, g in sorted(groups.items())]
        self.rest = VectorPoly(p.m, 1, rest) if rest else None

    def values(self, idx: np.ndarray, cols: np.ndarray | None) -> np.ndarray:
        """Values on the cells ``idx``; ``cols``, their (m, N) coordinates, is
        read only when there is a remainder."""
        out = _gather(self.tables, idx)
        if self.rest is not None:
            rest = poly_on_points(self.rest, cols.T)
            out = rest if out is None else np.add(out, rest, out=out)
        return np.zeros(idx.shape[1]) if out is None else out


class _PhaseTables:
    """A phase phi and its gradient ``row`` as ``_AxisTables``, with its span
    sum_i h_i |d_i phi| split the same way: the components in one table
    (d_i phi in x_i alone, or constant, as for shifted spheres and planes)
    add h_i |T| into a per-axis span table, and the others (two tables or a
    remainder) are evaluated per cell.  With every component in its own
    axis's table, the span has the bits of the sum over i in axis order."""

    def __init__(self, phi: VectorPoly, axes: list[np.ndarray], spacings: list[float]):
        m = len(axes)
        self.value = _AxisTables(phi, axes)
        self.row = [phi.diff(1, i + 1) for i in range(m)]
        self.grad = [_AxisTables(dphi, axes, i) for i, dphi in enumerate(self.row)]
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
        self.needs_cols = self.value.rest is not None or any(
            g.rest is not None for _, g in self.span_cells)

    def span(self, idx: np.ndarray, cols: np.ndarray | None) -> np.ndarray:
        out = _gather(self.span_tables, idx)
        if out is None:
            out = np.zeros(idx.shape[1])
        for h, g in self.span_cells:
            out += h * np.abs(g.values(idx, cols))
        return out


def _band_stream(spec: ImplicitSurfaceSpec, eps: float,
                 spacings: list[float], axes: list[np.ndarray], cut: VectorPoly | None = None):
    """Yield (points, weight, jacobian, boundary_mask) inside the band.

    The culling has one rule: a block of cells is kept only if an interval
    bound of every phase over it can reach the band.  ``_band_leaves``
    applies it top down, from a bounded top grid through the halvings of
    each kept block to leaves of _BLOCK cells per axis, halved while a
    leaf's cells times 2^m exceed _BATCH_CELLS.  The cells of the kept
    leaves go out in batches of at most _BATCH_CELLS candidates, built from
    leaf indices, so no array of the sweep grows with the grid.  Per batch,
    each phase is tested on the cells the earlier phases kept, and the
    dense test |phi| < eps + span/2 decides, so the culling changes only
    the order of the cells.  The weight is the product of the phases'
    delta values.  The gradient values that give the span are the rows of
    the jacobian, shape (N, k, m).

    Every phase and gradient component is split once per sweep into
    per-axis tables and a remainder of mixed terms (``_AxisTables``), so a
    candidate cell is carried as its (m,) grid indices only: its phase
    value and span are sums of m table lookups, plus the remainder on its
    coordinates when a phase has one.  Only the cells that pass every test
    get coordinates, jacobian rows (from the gradient tables) and boundary
    flags (from per-axis flag tables).  The coordinates are the axis
    midpoints themselves, so the points of a band cell do not depend on
    the tables.

    ``cut``, a polynomial phi, cuts the band by the sharp Heaviside H(-phi).
    A cell's weight then also carries the linearized fraction of the cell
    with phi < 0, clip(1/2 - phi / span, 0, 1) with span the cell's
    variation of phi (midpoint-sampling the jump itself leaves an O(h)
    alignment error), and the cells where it is 0 are dropped, as are the
    blocks where the interval bound shows it is 0 on every cell.  The cut's
    value is evaluated term by term on the coordinates: the fraction
    divides it by the span, which turns the table sum's rounding into an
    error of the weight far above the rounding of the weight itself.  Its
    span comes from the tables.  The cut's gradient stays out of the
    jacobian.  With no phases (k = 0) every cell is in the band with weight
    1, or its Heaviside fraction under a cut, and only a cut rules out
    blocks.

    The sweep is column-major: a batch holds its cell indices and
    coordinates as (m, N) arrays, one contiguous row per axis, and the
    phase gradients as one (k, m, N) array, and drops cells by index with
    ``take`` along the cell axis.  The points and jacobian go out as their
    transposed views, of shapes (N, m) and (N, k, m), so every per-axis
    column a caller reads is contiguous.
    """
    m, k = spec.m, spec.k
    phis = spec.phases if cut is None else (*spec.phases, cut)
    tests = [_PhaseTables(phi, axes, spacings) for phi in phis]
    grads = [test.row for test in tests[:k]]
    cut_test = None if cut is None else (cut, tests[k].row)
    edges = _edge_flags(spec, spacings, axes)
    leaf = _BLOCK
    while leaf > 1 and leaf ** m > _BATCH_CELLS >> m:
        leaf //= 2
    groups = _band_leaves(spec, grads, eps, spacings, axes, leaf, cut_test)
    sizes = np.array([len(ax) for ax in axes])[:, None]
    ragged = bool(np.any(sizes % leaf))
    # the cell offsets within a leaf, repeated for the most leaves in a batch
    per_leaf = leaf ** m
    per_batch = _BATCH_CELLS // per_leaf
    offsets = np.tile(np.indices((leaf,) * m).reshape(m, -1), per_batch)

    def coordinates(idx):
        cols = np.empty(idx.shape)
        for i, ax in enumerate(axes):
            # every index is in range; "clip" lets take write straight into
            # out, where the default mode buffers it
            ax.take(idx[i], out=cols[i], mode="clip")
        return cols

    for subs in (g[s:s + per_batch] for g in groups for s in range(0, len(g), per_batch)):
        # leaf by leaf, the leaf's corner plus each offset: a repeat and one
        # flat add cost less than a broadcast add over rows of per_leaf cells
        idx = (subs.T * leaf).repeat(per_leaf, axis=1)
        idx += offsets[:, :idx.shape[1]]
        if ragged:
            # the last block along an axis may stick out of the grid
            idx = idx.take(np.flatnonzero((idx < sizes).all(axis=0)), axis=1)
        cols = None
        # 1 times a factor is the factor, so the product starts exact
        weight = np.ones(idx.shape[1])
        for j, test in enumerate(tests):
            if cols is None and (test.needs_cols or j == k):
                cols = coordinates(idx)
            span = test.span(idx, cols)
            if j < k:
                vals = test.value.values(idx, cols)
                keep = np.flatnonzero(np.abs(vals) < eps + 0.5 * span)
            else:
                vals = poly_on_points(cut, cols.T)
                frac = np.clip(0.5 - vals / np.maximum(span, 1e-300), 0.0, 1.0)
                keep = np.flatnonzero(frac)
            if not len(keep):
                break
            idx = idx.take(keep, axis=1)
            if cols is not None:
                cols = cols.take(keep, axis=1)
            factor = (_delta_values(vals.take(keep), eps, span.take(keep)) if j < k
                      else frac.take(keep))
            weight = weight.take(keep) * factor
        else:
            if cols is None:
                cols = coordinates(idx)
            jcols = np.empty((k, m, idx.shape[1]))
            for j, test in enumerate(tests[:k]):
                for i, g in enumerate(test.grad):
                    jcols[j, i] = g.values(idx, cols)
            bmask = _gather(enumerate(edges), idx)
            yield cols.T, weight, jcols.transpose(2, 0, 1), bmask


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


def _checked_gram(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrices (k, k, N) of the gradient rows and their determinants.

    The gradients count as dependent where the blade norm, the square root
    of the Gram determinant, is at most _INDEPENDENCE_TOL times the product
    of their lengths (scale-invariant; a zero gradient is dependent).  The
    test runs on the squares, det <= _INDEPENDENCE_TOL^2 prod_a G_aa, with
    no square root; at k = 1 it reads |grad phi|^2 <= 0.  A NaN determinant
    passes it, as it passes the test on the roots.  Each
    Gram entry <grad phi_a, grad phi_b> is the sum over axes of products of
    jacobian columns: on the band sweep's column-major jacobian these are
    contiguous rows, where a batched matmul of k x m by m x k matrices
    costs far more.
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
    det = _minors(gram.transpose(2, 0, 1), range(k))
    if np.any(det <= _INDEPENDENCE_TOL ** 2 * np.prod(np.diagonal(gram), axis=1)):
        raise IndependenceError("phase gradients are numerically dependent at surface points")
    return gram, det


def _wedge_norms(jac: np.ndarray) -> np.ndarray:
    """Blade norms |grad phi_1 ^ .. ^ grad phi_k| per point.

    The square roots of the Gram determinants, positive once the
    independence test of ``_checked_gram`` passes.
    """
    return np.sqrt(_checked_gram(jac)[1])


def _inverse_gram(jac: np.ndarray) -> np.ndarray:
    """Inverses (k, k, N) of the Gram matrices of ``_checked_gram``.

    Closed forms for k <= 2, LAPACK above; the independence test keeps
    every determinant positive.
    """
    gram, det = _checked_gram(jac)
    k = len(gram)
    if k <= 1:
        return 1.0 / gram
    if k == 2:
        return np.array([[gram[1, 1], -gram[0, 1]], [-gram[1, 0], gram[0, 0]]]) / det
    return np.linalg.inv(gram.transpose(2, 0, 1)).transpose(1, 2, 0)


# -- scalar and oriented quadrature ------------------------------------------


def _band_sum(spec: ImplicitSurfaceSpec, cfg: QuadratureConfig | None,
              integrand: Callable[[np.ndarray, np.ndarray], dict],
              cut: VectorPoly | None = None) -> dict:
    """Grid sum over the surface band of weights * integrand.

    Every grid sum of the module runs through here.  ``integrand(pts, jac)``
    maps the (N, m) points and the (N, k, m) jacobian of a batch of band
    cells to a dict of (N,) value columns, one per blade it can carry; this
    driver applies the weights of ``_band_stream`` (the delta product, times
    the Heaviside fraction of ``cut`` when one is given) and the cell
    volume, with one dot product per column.  The result maps each blade to
    its sum (empty when no cell is in the band).  Raises
    BoundaryContactError when the boundary cells carry more than
    _BOUNDARY_TOL of the total magnitude.
    """
    cfg = cfg or QuadratureConfig()
    eps, axes, spacings, cellvol = _grid_geometry(spec, cfg)
    totals: dict[tuple, float] = {}
    total_abs = boundary_abs = 0.0
    for pts, weight, jac, bmask in _band_stream(spec, eps, spacings, axes, cut):
        weight = weight * cellvol
        edge = np.flatnonzero(bmask)
        edge_weight = weight.take(edge)
        for blade, col in integrand(pts, jac).items():
            totals[blade] = totals.get(blade, 0.0) + float(col @ weight)
            mags = np.abs(col)
            total_abs += float(mags @ weight)
            boundary_abs += float(mags.take(edge) @ edge_weight)
    if boundary_abs > _BOUNDARY_TOL * total_abs:
        raise BoundaryContactError(
            f"surface band carries weight {boundary_abs:g} in boundary cells "
            f"(total magnitude {total_abs:g}); enlarge the box or rescale the "
            f"phases (eps is in phase units)")
    return totals


def integrate_implicit(f, spec: ImplicitSurfaceSpec,
                       cfg: QuadratureConfig | None = None) -> float:
    """Scalar surface integral of f over the implicit surface.

    Computes the grid sum of delta_eps(phi_1) .. delta_eps(phi_k) times the
    blade norm |grad phi_1 ^ .. ^ grad phi_k| times f.
    """
    if spec.k < 1:
        raise ValueError("need at least one phase")
    if isinstance(f, VectorPoly):
        _check_float_range(f)

    def density(pts, jac):
        return {(): _field_values(f, pts) * _wedge_norms(jac)}

    return _band_sum(spec, cfg, density).get((), 0.0)


def integrate_oriented(f, spec: ImplicitSurfaceSpec,
                       cfg: QuadratureConfig | None = None) -> Multivector:
    """Oriented surface integral: the blade of gradients kept as a multivector.

    Returns the grade-k multivector with float coefficients
    sum over the band of delta-products * (grad phi_1 ^ .. ^ grad phi_k) * f.
    """
    if spec.k < 1:
        raise ValueError("need at least one phase")
    if isinstance(f, VectorPoly):
        _check_float_range(f)

    def density(pts, jac):
        values = _field_values(f, pts)
        _checked_gram(jac)
        return {blade: values * minor for blade, minor in _wedge_columns(jac).items()}

    return Multivector(spec.m, _band_sum(spec, cfg, density))


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

    plain = integrate_implicit(f, spec, cfg)  # first: it refuses f before any grid work
    return plain, integrate_implicit(checked_f, ImplicitSurfaceSpec(spec.m, psis, spec.box), cfg)


def _as_poly(value, m: int) -> VectorPoly:
    if isinstance(value, VectorPoly):
        if value.m != m or value.nvars != 1:
            raise ValueError("alpha entries must live in the surface variable")
        return value
    return VectorPoly.constant(m, Fraction(value))


# -- frames and tangential operators -----------------------------------------


def _surface_jacobian(spec: ImplicitSurfaceSpec, point: Sequence[float]
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The point as a (1, m) batch and the (1, k, m) phase jacobian there.

    Needs k >= 1 and |phi| <= _ON_SURFACE_TOL at the point for every phase.
    """
    if spec.k < 1:
        raise ValueError("need at least one phase")
    x = np.asarray(point, dtype=float)
    if x.shape != (spec.m,):
        raise ValueError(f"point must have {spec.m} coordinates")
    pt = x[None, :]
    for phi in spec.phases:
        val = float(poly_on_points(phi, pt)[0])
        # not <=, so that a NaN value fails too
        if not abs(val) <= _ON_SURFACE_TOL:
            raise ValueError(f"point is not on the surface: |phi| = {abs(val):g}")
    jac = [[poly_on_points(phi.diff(1, i), pt) for i in range(1, spec.m + 1)]
           for phi in spec.phases]
    return pt, np.array(jac).transpose(2, 0, 1)


def tangent_normal_frames(spec: ImplicitSurfaceSpec, point: Sequence[float]
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal normal and tangent bases at a point of the surface.

    The gradients pass the band's independence test (``_checked_gram``);
    the complete QR factorization of the transposed phase jacobian then
    gives the bases: the normals span the phase gradients, the tangents
    their orthogonal complement.  Returns (normals, tangents) as row-vector
    arrays of shapes (k, m) and (m - k, m), orthonormal to 1e-10.  |phi| at
    the point must not exceed _ON_SURFACE_TOL.
    """
    jac = _surface_jacobian(spec, point)[1]
    _checked_gram(jac)
    q = np.linalg.qr(jac[0].T, mode="complete")[0]
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
    pt, jac = _surface_jacobian(spec, point)
    partials = [_field_columns(f.diff(i), pt) for i in range(1, spec.m + 1)]
    out = _projected_dirac(jac, _inverse_gram(jac), partials, left=True)
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
    d_i F as column-sparse batches (empty where one vanishes).  With
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
    only the cells with H(-phi) > 0.  The Clifford fields, the blades and
    their products are column-sparse batches that carry only the blades
    they can hold, and each side runs on whole band batches.  The
    tangential Dirac operator is the frame-free projector form of
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

    def left_density(pts, jac):
        gram_inv = _inverse_gram(jac)
        wedge = _wedge_columns(jac)
        out: dict = {}
        # a field whose derivatives all vanish drops its whole term
        f_right = _projected_dirac(jac, gram_inv, [_field_columns(d, pts) for d in df],
                                   left=False)
        if f_right:
            g_vals = _field_columns(g_cp, pts)
            out = _columns_mul(_columns_mul(f_right, wedge), g_vals)
        g_left = _projected_dirac(jac, gram_inv, [_field_columns(d, pts) for d in dg],
                                  left=True)
        if g_left:
            f_vals = _field_columns(f_cp, pts)
            for blade, col in _columns_mul(_columns_mul(f_vals, wedge), g_left).items():
                _accumulate(out, blade, col, negate=k % 2 == 1)
        return out

    def right_density(pts, jac):
        # the jacobian rows are grad phi, grad phi_1, ..., grad phi_k
        try:
            _checked_gram(jac)
        except IndependenceError as exc:
            raise TransversalityError(
                "grad phi is not transversal to the surface on its band") from exc
        blade = _wedge_columns(jac)
        f_vals = _field_columns(f_cp, pts)
        g_vals = _field_columns(g_cp, pts)
        return _columns_mul(_columns_mul(f_vals, blade), g_vals)

    cut = ImplicitSurfaceSpec(m, (phi, *spec.phases), spec.box)  # checks phi
    lhs = _band_sum(spec, cfg, left_density, phi)
    rhs = _band_sum(cut, cfg, right_density)
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

    The draw is copied once into contiguous rows, rows[j, i] holding
    coordinate i of column j over the batch, so every inner product is a
    sum of row products; the result is a view of those rows.
    """
    rows = rng.standard_normal((count, m, k)).transpose(2, 1, 0).copy()
    for j, v in enumerate(rows):
        length = np.sqrt((v * v).sum(axis=0))
        for _ in range(2 if j else 0):
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
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(partition,))
    return np.random.Generator(np.random.Philox(ss))


def mc_stiefel_integral(p: VectorPoly, m: int, k: int, n_samples: int,
                        seed: int) -> MCEstimate:
    """Monte Carlo estimate of the integral of P over orthonormal k-frames.

    Samples are drawn in partitions of _MC_CHUNK with independent
    counter-based streams keyed by (seed, partition index), so results are
    reproducible for a given seed.  Partition sums are combined by
    count-weighted summation.  The estimate and its standard error are
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
