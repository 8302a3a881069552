"""Contour integration on products of circles plus exact residue extraction.

All closed-form probability formulas in this package reduce to integrals of
analytic integrands over products of circles.  The trapezoid rule on a
circle converges geometrically for such integrands (each doubling of the
nodes squares the error) and is exact for truncated Laurent series.
``product_integrate`` is the one driver: a single circle is a one-contour
``ContourProduct``.  It refines the grid axis by axis, reads the n-, n/2-
and n/4-point rules of every axis off one evaluation of the nested grid,
and stops on a geometric-rate estimate of the error of the returned sum,
guarded against rounding and aliasing; ``est_err`` is that estimate plus
the round-off level.  Every grid is exactly mirrored in the horizontal
line through its centre, so an integrand with f(z̄) = conj f(z) (real
coefficients, real centres) is evaluated on half of it:
``conjugate_symmetric=True`` takes the first axis's nodes 0..n/2 only,
counts the interior ones twice, returns the real part, and checks that the
two self-conjugate slices z_0 = c ± r sum to a real number within a margin
of their own round-off level.  Integrands see the tensor grid as an open
grid (``OpenGrid``, in the style of ``np.ix_``): one array per variable,
each varying along its own dimension, so a factor in one variable is
evaluated once per axis node and only the coupled parts run over every
node tuple; a ``PairProduct`` of factors in at most two variables each is
summed one variable at a time by matrix products.  A separate series-based
residue engine
handles integrands g of rational-times-exponential form exactly:
``residue_moments`` returns the moment table of g, the residue sums
M(e) = Σ_p Res_{z=p} g(z)·z^e for a range of e with their sizes Σ_p |Res|,
from one Taylor series per pole; ``laurent_residue`` (one pole, e = 0) is
read off it.  The routes' tables are small (pole orders 1 to 8), so their
cost is mostly fixed work per call.  A simple pole needs no series: its
residue is the value of the other factors, a product of scalars.  Longer
series are multiplied by ``np.convolve``: an interpreted O(order²) product
beats its fixed cost only up to about 3 terms, and at pole order 4,000
takes about a hundred times as long.  ``MultivariatePolynomial`` is the
one sparse polynomial product: the exact routes expand their couplings
into monomials with it.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import AccuracyError, ResourceLimitError, ValidationError, as_int

DEFAULT_START_NODES = 32
DEFAULT_MAX_NODES = 4096
DEFAULT_NODE_BUDGET = 2**26
DEFAULT_TOL = 1e-10
EVAL_CHUNK = 2**17
MIN_NODE_BUDGET = 64
RATE_SAFETY = 10.0  # S in the geometric-rate error estimate S·δ²/δ'
NOISE_MARGIN = 1e3  # δ' must exceed this many round-off levels
# round-off level per unit of Σ|f·w|: 2ε, as the nodes are rounded too and a
# high power amplifies their phase errors (the exact 128-node sum of z^31
# over the rounded unit-circle nodes is 1.7ε, not 0)
ROUNDOFF = 2.0 * float(np.finfo(float).eps)
SAME_POINT = 1e-12  # the residue engine takes points this close to be one point
ORDER_CAP = 4096  # the highest pole order the residue engine expands
# row j: the weight multiples of node j in the n-, n/2- and n/4-point rules,
# which depend on j mod 4 only
_RULE_ROWS = np.tile([[1.0, 2.0, 4.0], [1.0, 0.0, 0.0], [1.0, 2.0, 0.0], [1.0, 0.0, 0.0]],
                     (DEFAULT_MAX_NODES // 4, 1))
_RULE_ROWS.flags.writeable = False


def _roots(num: int) -> np.ndarray:
    """The num-th roots of unity e^(2πij/num), exactly mirrored: root
    num - j is the conjugate of root j, root 0 is 1 and root num/2 (num
    even) is -1."""
    unit = np.exp(2j * np.pi / num * np.arange(num // 2 + 1))
    unit[0] = 1.0
    if num % 2 == 0:
        unit[-1] = -1.0
    return np.concatenate((unit, unit[(num + 1) // 2 - 1:0:-1].conj()))


# every driver grid reads its roots off this one: the n-th roots of a power
# of two n are every (DEFAULT_MAX_NODES/n)-th entry, bit for bit
_ROOTS = _roots(DEFAULT_MAX_NODES)
_ROOTS.flags.writeable = False


@dataclass(frozen=True)
class ContourSpec:
    """A circle in the complex plane, traversed counterclockwise as an
    integration contour."""

    center: complex
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValidationError("contour radius must be positive")


@dataclass(frozen=True)
class ContourProduct:
    """Ordered tuple of circles, one per integration variable."""

    contours: tuple[ContourSpec, ...]

    @property
    def dim(self) -> int:
        return len(self.contours)


class OpenGrid(tuple):
    """One tensor block of a node grid, as the d axis arrays ``np.ix_`` gives.

    Entry k holds the block's nodes of variable k, shaped to vary along
    dimension k only, so any expression in the entries broadcasts to the
    block: a factor in one variable is computed once per axis node.
    ``shape`` and ``size`` are those of the flat (d, M) list of the block's
    M node tuples; a slice is again an OpenGrid.
    """

    def __getitem__(self, key):
        item = tuple.__getitem__(self, key)
        return OpenGrid(item) if isinstance(key, slice) else item

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), math.prod(np.broadcast_shapes(*(np.shape(a) for a in self)))

    @property
    def size(self) -> int:
        return math.prod(self.shape)


def spectral_rows(z, n: int):
    """The n rows of spectral parameters ``z`` and the map that shapes a result.

    An OpenGrid passes through and results keep their broadcast shape; an
    (n,) array (or a scalar, as (1,)) gives scalar rows and a complex
    result, an (n, M) array (M,) rows and an (M,) result.
    """
    if isinstance(z, OpenGrid):
        rows, finish = z, (lambda out: out)
    else:
        rows = np.atleast_1d(np.asarray(z, dtype=complex))
        shape = rows.shape[1:]
        finish = complex if not shape else (
            lambda out: np.broadcast_to(out, shape).astype(complex)
        )
    if len(rows) != n:
        raise ValidationError(f"need {n} rows of spectral parameters, got {len(rows)}")
    return rows, finish


def _blocks(shape):
    """Index slices of the tensor blocks of a grid of the given per-axis
    shape, in C order.

    Leading axes are taken one node at a time until the trailing ones fit
    in EVAL_CHUNK points; the next axis is cut into slabs that fill it.
    """
    lead = 0
    while math.prod(shape[lead + 1:]) > EVAL_CHUNK:
        lead += 1
    n = shape[lead]
    step = min(n, EVAL_CHUNK // math.prod(shape[lead + 1:]))
    tail = [slice(None)] * (len(shape) - 1 - lead)
    for head in itertools.product(*(range(m) for m in shape[:lead])):
        for start in range(0, n, step):
            yield [slice(i, i + 1) for i in head] + [slice(start, start + step)] + tail


def _axis_grid(c: ContourSpec, n: int, half: bool) -> tuple[np.ndarray, np.ndarray]:
    """The evaluated nodes of an n-node axis on ``c`` (n a power of two up
    to DEFAULT_MAX_NODES) and their (., 3) weights in the n-, n/2- and
    n/4-point trapezoid rules (the coarser rules use every 2nd and every
    4th node).  With ``half`` these are nodes 0..n/2 only: each interior
    node also stands for its mirror image n - j, so its weights count
    twice."""
    step = DEFAULT_MAX_NODES // n
    unit = _ROOTS[:DEFAULT_MAX_NODES // 2 + 1:step] if half else _ROOTS[::step]
    rules = _RULE_ROWS[:unit.size] * (c.radius / n)
    if half:
        rules[1:-1] *= 2.0
    return c.center + c.radius * unit, unit[:, None] * rules


class PairProduct:
    """An integrand's values on an OpenGrid block as the product of arrays of
    ``ndim`` dimensions, ``factors``, keyed by the axes each may vary along:
    (), (k,) or (i, j), i < j.  ``pp * x`` folds x into the factor of the
    axes it varies along, or, past two axes, is np.asarray(pp) * x."""

    def __init__(self, ndim: int, factors: dict):
        self.ndim, self.factors = ndim, factors

    def __mul__(self, x):
        shape = np.shape(x)
        axes = tuple(k for k, n in enumerate(shape, self.ndim - len(shape)) if n > 1)
        if len(axes) > 2:
            return np.asarray(self) * x
        return PairProduct(self.ndim, self.factors | {axes: self.factors.get(axes, 1.0) * x})

    def __array__(self, dtype=None, copy=None):
        # each factor joins the product at the highest axis it varies along
        order = sorted(self.factors.items(), key=lambda item: item[0][-1:])
        return np.asarray(math.prod((x for _, x in order), start=1.0), dtype=dtype)


def _matmul(a, b):
    """a @ b for 2-D a and b, halved along a's rows, then b's columns, into
    products of m·n·k < 2^16: OpenBLAS splits larger ones across threads,
    and a (512, 512) @ (512, 3) then took 8 ms, not 0.4 ms, on two cores."""
    (m, k), n = a.shape, b.shape[1]
    if m * k * n < 2**16:
        return a @ b
    if m > 1:
        return np.concatenate((_matmul(a[:m // 2], b), _matmul(a[m // 2:], b)))
    return np.concatenate((_matmul(a, b[:, :n // 2]), _matmul(a, b[:, n // 2:])), axis=1)


def _eliminate(hts, pairs):
    """R[x_0, (a_1, .., a_(d-1))] = Σ over x_1 .. x_(d-1) of prod_(k > 0)
    hts[k][a_k, x_k]·prod_(i < j) pairs[i, j][x_i, x_j]: the last variable
    in one product of hts[k] times its pair with x_0 against its other
    pairs, then each x_k, last in R, in one product with hts[k] once R
    carries its pairs.  No array spans all d variables."""
    sizes, d = [h.shape[1] for h in hts], len(hts)
    if d == 1:
        return np.ones((sizes[0], 1))
    n = sizes[-1]
    if d == 2:
        R = _matmul(hts[1], pairs[0, 1].T)
    else:  # G[a, x_0, x_(d-1)] against Q[x_1, .., x_(d-1)], the other pairs
        Q = pairs[1, d - 1].reshape((-1,) + (1,) * (d - 3) + (n,))
        for i in range(2, d - 1):
            Q = Q * pairs[i, d - 1].reshape((1,) * (i - 1) + (-1,) + (1,) * (d - 2 - i) + (n,))
        G = hts[-1][:, None, :] * pairs[0, d - 1]
        R = _matmul(G.reshape(-1, n), Q.reshape(-1, n).T)
    for k in range(d - 2, 0, -1):  # R[A, x_0, .., x_k], then R[a_k, A, x_0, .., x_(k-1)]
        R = R.reshape([-1] + sizes[:k + 1])
        for i in range(k):
            R = R * pairs[i, k].reshape((1,) * (i + 1) + (-1,) + (1,) * (k - 1 - i) + (sizes[k],))
        R = _matmul(R.reshape(-1, sizes[k]), hts[k].T).reshape(R.shape[:-1] + (-1,))
        R = R.transpose((k + 1,) + tuple(range(k + 1)))
    return R.reshape(-1, sizes[0]).T


def _pair_sums(pp: PairProduct, mats):
    """``_grid_sums`` of one block whose values are the PairProduct ``pp`` =
    prod_k g_k·prod_(i<j) P_ij (a constant joins g_0), from the eliminations
    R of the other variables against g_k·W_k and R' of |g|, |P| against
    ones, W_k = ``mats``: T = (g_0·W_0)ᵀ·R, row_sums g_0·R[:, 0], row_abs |g_0|·R'."""
    sizes, factors = [len(m) for m in mats], pp.factors
    singles = [factors[k,].reshape(-1) if (k,) in factors else np.ones(n)
               for k, n in enumerate(sizes)]
    pairs = {(i, j): factors[i, j].reshape(sizes[i], sizes[j]) if (i, j) in factors
             else np.ones((sizes[i], sizes[j]))
             for i, j in itertools.combinations(range(len(sizes)), 2)}
    if () in factors:
        singles[0] = singles[0] * np.reshape(factors[()], -1)
    hts, mags = [m.T * g for g, m in zip(singles, mats)], [np.abs(g) for g in singles]
    R = _eliminate(hts, pairs)
    R_abs = _eliminate([g[None] for g in mags], {key: np.abs(P) for key, P in pairs.items()})
    T = _matmul(hts[0], R).reshape([m.shape[1] for m in mats])
    return T, mags[0] * R_abs[:, 0], singles[0] * R[:, 0]


def _grid_sums(f, axes, mats):
    """Evaluate ``f`` on the tensor grid of the node arrays ``axes``, block
    by block, and return (T, row_abs, row_sums): T is the contraction of
    the values with the per-axis weight matrices ``mats`` (axis k of the
    values against the rows of mats[k], so T has one entry per choice of
    rule column on each axis); for each node of axis 0, row_abs is the sum
    of |f| over the nodes of the other axes and row_sums the sum of f
    times the other axes' first rule columns.  A block whose values come
    back as a PairProduct is summed by ``_pair_sums`` without forming it."""
    d = len(axes)
    T = 0.0
    row_abs = np.zeros(axes[0].size)
    row_sums = np.zeros(axes[0].size, dtype=complex)
    for block in _blocks([a.size for a in axes]):
        grid = OpenGrid(
            a[s].reshape((1,) * k + (-1,) + (1,) * (d - 1 - k))
            for k, (a, s) in enumerate(zip(axes, block))
        )
        vals = f(grid)
        if isinstance(vals, PairProduct):
            U, mags, sums = _pair_sums(vals, [m[s] for m, s in zip(mats, block)])
        else:
            vals = np.asarray(vals, dtype=complex)
            vals = vals.reshape((1,) * (d - vals.ndim) + vals.shape)
            mags = np.abs(vals).reshape(len(vals), -1).sum(axis=1)
            if vals.size < math.prod(z.size for z in grid):  # f is constant along an axis
                mags *= math.prod(z.size for z in grid[1:]) * len(vals) / vals.size
            # matmul, not einsum: einsum's three-column loop is 2-5x slower
            out = vals
            for k in range(d - 1, 0, -1):
                w = mats[k][block[k]]
                if out.shape[k] == 1 < len(w):  # f does not vary along axis k
                    w = w.sum(axis=0, keepdims=True)
                lead, tail = out.shape[:k], out.shape[k + 1:]
                if k == d - 1:
                    out = _matmul(out.reshape(-1, out.shape[k]), w).reshape(lead + (w.shape[1],))
                else:
                    out = (w.T @ out.reshape(lead + (out.shape[k], -1))).reshape(
                        lead + (w.shape[1],) + tail
                    )
            flat = out.reshape(len(out), -1)
            sums = flat[:, 0]
            w = mats[0][block[0]]
            if len(out) == 1 < len(w):
                w = w.sum(axis=0, keepdims=True)
            U = (w.T @ flat).reshape(w.shape[1:] + out.shape[1:])
        T = T + U
        row_abs[block[0]] += mags
        row_sums[block[0]] += sums
    return T, row_abs, row_sums


def _axis_error(line, floor: float, doubled: bool) -> float:
    """Error estimate of one axis from its rule sums ``line`` = (I, I with
    the axis halved, I with it quartered): S·δ²/δ' when the differences
    δ = |I - I_half| and δ' = |I_half - I_quarter| fall at a geometric rate
    above the round-off level, capped by δ once the axis has been doubled,
    and infinite otherwise."""
    delta, coarse = abs(line[0] - line[1]), abs(line[1] - line[2])
    err = math.inf
    if 0.0 < delta < coarse and coarse > NOISE_MARGIN * floor:
        err = RATE_SAFETY * delta * (delta / coarse)
    return min(err, delta) if doubled else err


def product_integrate(
    f,
    cp: ContourProduct,
    tol: float = DEFAULT_TOL,
    node_budget: int = DEFAULT_NODE_BUDGET,
    conjugate_symmetric: bool = False,
) -> tuple[complex, float]:
    """Tensor-product contour integral with nested per-axis node doubling.

    ``f`` receives one OpenGrid per block of at most EVAL_CHUNK node tuples
    and returns the integrand values as anything that broadcasts to the
    block, so factors in one variable cost O(n) per axis and only the
    coupled parts O(n^d), or as a PairProduct, summed without forming the
    block.  Axis k holds n_k nodes, from DEFAULT_START_NODES up to
    DEFAULT_MAX_NODES.  Each block is contracted with one (n_k, 3)
    weight matrix per axis, whose columns are the n_k-, n_k/2- and
    n_k/4-point trapezoid rules, so one evaluation of the grid gives all
    3^d rule sums.  With δ_k = |I - I(axis k halved)| and
    δ'_k = |I(k halved) - I(k quartered)|, axis k's error is
    e_k = RATE_SAFETY·δ_k²/δ'_k when 0 < δ_k < δ'_k and δ'_k exceeds
    NOISE_MARGIN round-off levels, at most δ_k once the axis has been
    doubled, and infinite otherwise; the round-off level is
    ROUNDOFF·Σ|f·w| over the grid.  ``(value, est_err)`` is returned once
    est_err = Σ_k e_k + round-off level, the estimated error of the
    returned value, is below ``tol``.  Until then each axis whose e_k is
    at least its share of ``tol`` is doubled by evaluating only its new odd
    nodes times the other axes' current nodes: no node is evaluated twice.

    ``conjugate_symmetric=True`` declares f(z̄) = conj f(z), as holds for
    an integrand with real coefficients; every centre must then be real
    (else ValidationError).  The grids are closed under conjugation (node
    n - j of an axis mirrors node j exactly), so the values on half of
    them fix every sum: axis 0 is evaluated on its nodes 0..n_0/2 only,
    a doubling of it on the first half of its new odd nodes, the interior
    nodes count twice in the rules and in Σ|f·w|, and each rule sum is the
    real part of that weighted contraction.  The end nodes z_0 = c ± r
    are their own mirror images, and the sum over the other axes of each
    such slice must be real: an imaginary part above NOISE_MARGIN times
    the slice's own round-off level raises AccuracyError ("integrand is
    not conjugate-symmetric").  Nodes per axis, the stopping rule and the
    round-off level are those of the full grid.

    ``node_budget`` caps the integrand evaluations (node tuples) this one
    call makes and must be at least 64.  Exceeding it or the node cap, or
    a round-off level at ``tol``, raises AccuracyError naming the nodes per
    axis, the evaluations made and the last value and est_err.
    """
    if node_budget < MIN_NODE_BUDGET:
        raise ValidationError(f"node budget must be at least {MIN_NODE_BUDGET}")
    if conjugate_symmetric and any(complex(c.center).imag for c in cp.contours):
        raise ValidationError("a conjugate-symmetric integrand needs real contour centres")
    d = cp.dim
    if d == 0:
        return complex(np.sum(f(OpenGrid()))), 0.0
    counts = [DEFAULT_START_NODES] * d
    axes, mats = map(list, zip(*(
        _axis_grid(c, n, conjugate_symmetric and k == 0)
        for k, (c, n) in enumerate(zip(cp.contours, counts))
    )))
    spent, value, est = 0, None, math.inf

    def fail(reason: str) -> AccuracyError:
        return AccuracyError(
            f"{reason}; nodes per axis {tuple(counts)}, {spent} evaluations, "
            f"last value {value} with est_err {est:.3g}"
        )

    def evaluate(axes, mats, ends: bool = True):
        """The rule sums and Σ|f| of the grid ``axes``; under the symmetry,
        axis 0 holds mirrored nodes, with its two self-conjugate end nodes
        when ``ends`` (a half grid) and without them (new odd nodes) when
        not."""
        nonlocal spent
        size = math.prod(a.size for a in axes)
        if spent + size > node_budget:
            raise fail(f"node budget {node_budget} exhausted before convergence "
                       f"at tol={tol}")
        spent += size
        T, row_abs, row_sums = _grid_sums(f, axes, mats)
        abs_sum = float(row_abs.sum())
        # NaN or inf at any node makes the sum of |f| non-finite
        if not math.isfinite(abs_sum):
            raise fail("integrand is non-finite on the contour product")
        if not conjugate_symmetric:
            return T, abs_sum
        if not ends:
            return T.real, 2.0 * abs_sum
        level = ROUNDOFF * math.prod(abs(m[0, 0]) for m in mats[1:])
        for j in (0, -1):
            if abs(row_sums[j].imag) > NOISE_MARGIN * level * row_abs[j]:
                raise fail(f"integrand is not conjugate-symmetric: the slice "
                           f"z_0 = {axes[0][j]:.6g} sums to {row_sums[j]:.3g}, "
                           f"imaginary part above {NOISE_MARGIN:g} times its "
                           f"round-off level {level * row_abs[j]:.3g}")
        return T.real, 2.0 * abs_sum - float(row_abs[0] + row_abs[-1])

    T, abs_sum = evaluate(axes, mats)
    while True:
        value = complex(T[(0,) * d])
        floor = ROUNDOFF * abs_sum * math.prod(c.radius / n for c, n in zip(cp.contours, counts))
        errs = [
            _axis_error(T[(0,) * k + (slice(None),) + (0,) * (d - 1 - k)].tolist(),
                        floor, counts[k] > DEFAULT_START_NODES)
            for k in range(d)
        ]
        est = sum(errs) + floor
        if est < tol:
            return value, est
        if floor >= tol:
            raise fail(f"round-off level {floor:.3g} is not below tol={tol}")
        share = min((tol - floor) / d, max(errs))
        for k in [k for k in range(d) if errs[k] >= share]:
            c, n = cp.contours[k], counts[k]
            if n >= DEFAULT_MAX_NODES:
                raise fail(f"contour quadrature did not reach tol={tol} "
                           f"within {DEFAULT_MAX_NODES} nodes per axis")
            # the doubled axis, whose odd rows are the nodes new to it
            fine, fine_mats = _axis_grid(c, 2 * n, conjugate_symmetric and k == 0)
            U, odd_abs = evaluate(
                axes[:k] + [fine[1::2]] + axes[k + 1:],
                mats[:k] + [fine_mats[1::2, :1]] + mats[k + 1:],
                ends=k > 0,
            )
            # rules n and n/2 of the axis become rules 2n/2 and 2n/4, and
            # rule 2n is half of rule n plus the new nodes' sum
            T = np.take(T, [0, 0, 1], axis=k)
            head = (slice(None),) * k + (0,)
            T[head] = 0.5 * T[head] + U[head]
            abs_sum += odd_abs
            counts[k] = 2 * n
            axes[k], mats[k] = fine, fine_mats


@dataclass(frozen=True)
class RationalExpDescriptor:
    """Description of the integrand exp(exp_coeff*(z - 1)) * prod (z-a)^e,
    whose residues the residue routes take.

    ``factors`` maps points to integer exponents; negative exponents are
    poles.  Points within SAME_POINT of each other are merged at
    construction.  Centring the exponential at 1 keeps it finite at the pole
    1 of the residue routes: e^((z-1)t) there is 1 for any t, where
    e^(-t) * e^(t z) is 0 * inf past t = 745.
    """

    exp_coeff: complex
    factors: tuple[tuple[complex, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", _merged(self.factors))


def _merged(factors) -> tuple[tuple[complex, int], ...]:
    """The (point, exponent) ``factors``, exponents through ``as_int``, with
    each point within SAME_POINT of an earlier one merged into it, and
    exponents that sum to 0 dropped."""
    merged: dict[complex, int] = {}
    for point, expo in factors:
        point = complex(point)
        for known in merged:
            if abs(known - point) < SAME_POINT:
                point = known
                break
        merged[point] = merged.get(point, 0) + as_int(expo, "factor exponents")
    return tuple((p, e) for p, e in merged.items() if e != 0)


def _binomial_series(shift: complex, exponent: int, length: int) -> list[complex]:
    """Coefficients of (x + shift)^exponent as a series in x, truncated.

    Exact for all exponents: positive exponents terminate, negative ones use
    the generalized binomial series (requires shift != 0).
    """
    coeffs = [0j] * length
    if shift == 0:
        if exponent < 0:
            raise ValidationError("pole collision: factor vanishes at expansion point")
        if exponent < length:
            coeffs[exponent] = 1.0 + 0.0j
        return coeffs
    top = length - 1 if exponent < 0 else min(exponent, length - 1)
    try:
        c = shift**exponent
    except OverflowError:
        raise AccuracyError(
            f"factor ({shift:.3g})^{exponent} overflows the float range"
        ) from None
    coeffs[0] = c
    for k in range(1, top + 1):
        c = c * (exponent - k + 1) / (k * shift)
        coeffs[k] = c
    return coeffs


def _distinct(points) -> list[complex]:
    """The points, each point within SAME_POINT of an earlier one dropped."""
    seen: list[complex] = []
    for p in points:
        p = complex(p)
        if not any(abs(p - s) < SAME_POINT for s in seen):
            seen.append(p)
    return seen


def residue_moments(
    descriptor: RationalExpDescriptor, points, lo: int, hi: int
) -> tuple[list[complex], list[float]]:
    """Moment table of a rational-times-exponential integrand g over the
    distinct ``points``: two lists whose entries e - lo, for e = lo..hi, are
    M(e) = Σ_p Res_{z=p} g(z)·z^e and S(e) = Σ_p |Res_{z=p} g(z)·z^e|.

    One Taylor series per pole p serves every e.  With x = z - p and b the
    pole order of g·z^lo at p, the residue is the coefficient of x^(b-1) in
    the product of the other factors, each expanded to length b.  At p = 0
    the power z^(e-lo) lowers b by e - lo, so the residue for e is
    coefficient b - 1 - (e - lo) of the same series; at p != 0 it is
    coefficient b - 1 of the series times (p + x)^(e-lo), and one step of
    that recursion, times (p + x), turns the top coefficients for e into
    those for e + 1.  The z^lo is merged into the factor at 0 as
    RationalExpDescriptor merges its points.  A pole order above ORDER_CAP (at
    the origin, that of g·z^lo) is refused with ResourceLimitError before
    any series is built.
    """
    factors = _merged(descriptor.factors + ((0.0, lo),)) if lo else descriptor.factors
    size = hi - lo + 1
    moments, sizes = [0j] * size, [0.0] * size
    for at in _distinct(points):
        order = 0
        rest = []
        for point, expo in factors:
            if abs(point - at) < SAME_POINT:
                order = -expo
            else:
                rest.append((point, expo))
        if order <= 0:
            continue
        if order > ORDER_CAP:
            raise ResourceLimitError(f"pole order {order} exceeds the cap {ORDER_CAP}")
        try:
            scale = cmath.exp(descriptor.exp_coeff * (at - 1.0))
        except OverflowError:
            scale = complex(math.inf, math.inf)  # non-finite: refused below
        if order == 1:  # a simple pole: the residue is the other factors' value
            for point, expo in rest:
                scale *= _binomial_series(at - point, expo, 1)[0]
            series = [scale]
        else:
            # exp(a x) = sum c_k x^k with c_k = c_{k-1} a / k: no a^k or k! to
            # overflow; e^(a(p-1)) comes last, so underflow times overflow is
            # NaN, not a silent 0
            series = [1.0 + 0.0j]
            for k in range(1, order):
                series.append(series[-1] * descriptor.exp_coeff / k)
            series = np.array([c * scale for c in series])
            for point, expo in rest:
                series = np.convolve(series, _binomial_series(at - point, expo, order))[:order]
            series = series.tolist()
        # top[i]: coefficient b - 1 - i of the series times (at + x)^(e-lo)
        top = series[:-size - 1:-1]
        if abs(at) < SAME_POINT:
            residues = top
        else:
            residues = [top[0]]
            for _ in range(size - 1):
                # the 0 past the end corrupts only entries no later e reads
                top = [at * a + b for a, b in zip(top, top[1:] + [0j])]
                residues.append(top[0])
        if not all(map(cmath.isfinite, residues)):
            raise AccuracyError(f"the Laurent series of g at the pole {at:.3g} "
                                "overflows the float range")
        for j, r in enumerate(residues):
            moments[j] += r
            sizes[j] += abs(r)
    return moments, sizes


def laurent_residue(descriptor: RationalExpDescriptor, at: complex) -> complex:
    """Residue of a rational-times-exponential integrand at one of its poles:
    the e = 0 entry of its one-point moment table (exact up to rounding).
    Pole orders above ORDER_CAP are refused."""
    return residue_moments(descriptor, (at,), 0, 0)[0][0]


class MultivariatePolynomial:
    """Sparse multivariate polynomial keyed by exponent tuples, the one
    polynomial product of the exact routes.

    Start from 1, multiply in linear forms ``sum c_k x_k`` and other
    polynomials, and read the monomials off ``items()``.  ``terms`` holds
    every key a product formed, in the order first formed, cancelled ones
    included, so a sum over it adds its terms in a fixed order; ``items()``
    leaves the cancelled ones out.  Integer coefficients stay exact ints.
    """

    def __init__(self, nvars: int):
        self.terms: dict[tuple[int, ...], complex] = {(0,) * nvars: 1}

    def multiply_linear(self, coeffs: dict[int, complex]):
        new: dict[tuple[int, ...], complex] = {}
        get, linear = new.get, list(coeffs.items())
        for expo, c in self.terms.items():
            for var, cv in linear:
                key = expo[:var] + (expo[var] + 1,) + expo[var + 1:]
                new[key] = get(key, 0) + c * cv
        self.terms = new
        return self

    def multiply_terms(self, other: dict):
        """Multiply by another exponent->coefficient map (exponents may be negative)."""
        new: dict[tuple[int, ...], complex] = {}
        get, add = new.get, operator.add
        for e1, c1 in self.terms.items():
            for e2, c2 in other.items():
                key = tuple(map(add, e1, e2))
                new[key] = get(key, 0) + c1 * c2
        self.terms = new
        return self

    def items(self) -> list[tuple[tuple[int, ...], complex]]:
        """The (exponents, coefficient) monomials whose coefficient is not 0."""
        return [(key, c) for key, c in self.terms.items() if c]
