"""Contour integration on products of circles plus exact residue extraction.

All closed-form probability formulas in this package reduce to integrals of
analytic integrands over products of circles.  The trapezoid rule on a
circle converges geometrically for such integrands and is exact for
truncated Laurent series, so node doubling with a two-iterate stopping rule
gives reliable error control.  ``product_integrate`` is the one driver: a
single circle is a one-contour ``ContourProduct``.  Integrands see the
tensor grid as an open grid (``OpenGrid``, in the style of ``np.ix_``): one
array per variable, each varying along its own dimension, so a factor in
one variable is evaluated once per axis node and only the coupled parts run
over every node tuple.  ``batched_det`` is the one determinant kernel on
such grids: a Leibniz sum over ``core.signed_permutations`` whose products
keep the entries' broadcast shape.  A separate series-based residue engine
(``laurent_residue``, at each distinct point by ``residue_terms``) handles
integrands of rational-times-exponential form exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import core  # core.signed_permutations: bench/tracing.py counts its terms
from .core import AccuracyError, ResourceLimitError, ValidationError

DEFAULT_START_NODES = 32
DEFAULT_MAX_NODES = 4096
DEFAULT_NODE_BUDGET = 2**26
EVAL_CHUNK = 2**17
MIN_NODE_BUDGET = 64


@dataclass(frozen=True)
class ContourSpec:
    """A circle in the complex plane used as an integration contour."""

    center: complex = 0.0
    radius: float = 1.0
    orientation: int = 1

    def __post_init__(self):
        if self.radius <= 0:
            raise ValidationError("contour radius must be positive")
        if self.orientation not in (1, -1):
            raise ValidationError("orientation must be +1 or -1")

    def points(self, num: int) -> np.ndarray:
        theta = 2.0 * np.pi * np.arange(num) / num
        return self.center + self.radius * np.exp(1j * theta)


@dataclass(frozen=True)
class ContourProduct:
    """Ordered list of circles (innermost first) with per-variable roles.

    Roles tag each variable as inner ('z') or outer ('u') type; the nesting
    contract requires every z-type radius to stay below every u-type radius
    when the circles share a common center.
    """

    contours: tuple[ContourSpec, ...]
    roles: tuple[str, ...] = ()

    def __post_init__(self):
        contours = tuple(self.contours)
        roles = tuple(self.roles) if self.roles else ("z",) * len(contours)
        if len(roles) != len(contours):
            raise ValidationError("one role per contour is required")
        if any(r not in ("z", "u") for r in roles):
            raise ValidationError("roles must be 'z' or 'u'")
        z_radii = [c.radius for c, r in zip(contours, roles) if r == "z"]
        u_radii = [c.radius for c, r in zip(contours, roles) if r == "u"]
        if z_radii and u_radii and max(z_radii) >= min(u_radii):
            raise ValidationError("z-type contours must nest inside u-type contours")
        object.__setattr__(self, "contours", contours)
        object.__setattr__(self, "roles", roles)

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


def batched_det(k: int, entry):
    """Determinant of the k x k matrix [entry(i, j)] by Leibniz expansion:
    sum over sigma in S_k of sgn(sigma) prod_i entry(i, sigma(i)).

    Each entry is computed once and no (..., k, k) array is filled, so a
    product keeps the broadcast shape of its factors (an OpenGrid block
    included).  1.0 when k = 0; k above the factorial cap is refused.
    """
    perms = core.signed_permutations(k)
    if k == 0:
        return 1.0
    rows = [[entry(i, j) for j in range(k)] for i in range(k)]
    total = 0.0
    for perm, sgn in perms:
        term = rows[0][perm[0]]
        for row, j in zip(rows[1:], perm[1:]):
            term = term * row[j]
        total = total + term if sgn > 0 else total - term
    return total


def _blocks(d: int, n: int):
    """Index slices of the tensor blocks of an n^d grid, in C order.

    Leading axes are taken one node at a time until the trailing ones fit
    in EVAL_CHUNK points; the next axis is cut into slabs that fill it.
    """
    lead = 0
    while n ** (d - 1 - lead) > EVAL_CHUNK:
        lead += 1
    step = min(n, EVAL_CHUNK // n ** (d - 1 - lead))
    tail = [slice(None)] * (d - 1 - lead)
    for head in itertools.product(range(n), repeat=lead):
        for start in range(0, n, step):
            yield [slice(i, i + 1) for i in head] + [slice(start, start + step)] + tail


def product_integrate(
    f,
    cp: ContourProduct,
    tol: float = 1e-10,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[complex, float]:
    """Tensor-product contour integral with per-dimension node doubling.

    ``f`` receives one OpenGrid per block of at most EVAL_CHUNK node tuples
    and returns the integrand values as anything that broadcasts to the
    block, so factors in one variable cost O(n) per level and only the
    coupled parts O(n^d).  The trapezoid weights stay per-axis vectors and
    the block sum is their contraction with the values.  Node counts per
    axis start at DEFAULT_START_NODES and double, up to DEFAULT_MAX_NODES,
    until two successive iterates differ by less than ``tol``; the result
    is ``(value, est_err)`` with est_err = |I_n - I_{n/2}|.  ``node_budget``
    caps the integrand evaluations (node tuples) summed over all levels of
    this one call and must be at least 64.  Exceeding the node budget or
    the doubling cap without convergence raises AccuracyError carrying the
    last two iterates.
    """
    if node_budget < MIN_NODE_BUDGET:
        raise ValidationError(f"node budget must be at least {MIN_NODE_BUDGET}")
    d = cp.dim
    if d == 0:
        return complex(np.sum(f(OpenGrid()))), 0.0
    orient = 1
    for c in cp.contours:
        orient *= c.orientation
    spent = 0
    prev = None
    value = None
    n = DEFAULT_START_NODES
    while n <= DEFAULT_MAX_NODES:
        total_nodes = n**d
        if spent + total_nodes > node_budget:
            raise AccuracyError(
                f"node budget {node_budget} exhausted before convergence; "
                f"last iterates: {prev} -> {value}"
            )
        axes = [c.points(n) for c in cp.contours]
        weights = [a - c.center for a, c in zip(axes, cp.contours)]
        spent += total_nodes
        acc = 0.0 + 0.0j
        for block in _blocks(d, n):
            grid = OpenGrid(
                a[s].reshape((1,) * k + (-1,) + (1,) * (d - 1 - k))
                for k, (a, s) in enumerate(zip(axes, block))
            )
            vals = np.asarray(f(grid), dtype=complex)
            if not np.all(np.isfinite(vals)):
                raise AccuracyError("integrand is non-finite on the contour product")
            vals = np.broadcast_to(vals, np.broadcast_shapes(*(a.shape for a in grid)))
            # einsum, not @: a multithreaded BLAS gemv stalls on a busy machine
            for w, s in zip(reversed(weights), reversed(block)):
                vals = np.einsum("...k,k->...", vals, w[s])
            acc += complex(vals)
        prev = value
        value = orient * complex(acc) / total_nodes
        if prev is not None:
            err = abs(value - prev)
            if err < tol:
                return value, err
        n *= 2
    raise AccuracyError(
        f"contour quadrature did not reach tol={tol}; "
        f"last iterates: {prev} -> {value}"
    )


@dataclass(frozen=True)
class RationalExpDescriptor:
    """Integrand of the form exp(exp_coeff*(z - 1)) * prod (z-a)^e.

    ``factors`` maps points to integer exponents; negative exponents are
    poles.  Repeated points are merged at construction.  Centring the
    exponential at 1 keeps it finite at the pole 1 of the residue routes:
    e^((z-1)t) there is 1 for any t, where e^(-t) * e^(t z) is 0 * inf
    past t = 745.
    """

    exp_coeff: complex = 0.0
    factors: tuple[tuple[complex, int], ...] = ()

    def __post_init__(self):
        merged: dict[complex, int] = {}
        for point, expo in self.factors:
            if expo != int(expo):
                raise ValidationError("factor exponents must be integers")
            point = complex(point)
            for known in merged:
                if abs(known - point) < 1e-12:
                    point = known
                    break
            merged[point] = merged.get(point, 0) + int(expo)
        object.__setattr__(
            self, "factors", tuple((p, e) for p, e in merged.items() if e != 0)
        )

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        out = np.exp(self.exp_coeff * (z - 1.0))
        for point, expo in self.factors:
            out = out * (z - point) ** expo
        return out


def _binomial_series(shift: complex, exponent: int, length: int) -> np.ndarray:
    """Coefficients of (x + shift)^exponent as a series in x, truncated.

    Exact for all exponents: positive exponents terminate, negative ones use
    the generalized binomial series (requires shift != 0).
    """
    coeffs = np.zeros(length, dtype=complex)
    if shift == 0:
        if exponent < 0:
            raise ValidationError("pole collision: factor vanishes at expansion point")
        if exponent < length:
            coeffs[exponent] = 1.0
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


def laurent_residue(
    descriptor: RationalExpDescriptor, at: complex, order_cap: int = 4096
) -> complex:
    """Residue of a rational-times-exponential integrand at one of its poles.

    The residue is the coefficient of x^(b-1) (x = z - pole, b = pole order)
    in the product of the remaining factors; every factor is expanded to
    length b, so the extraction is exact up to rounding.  Pole orders above
    ``order_cap`` are refused.
    """
    at = complex(at)
    order = 0
    rest = []
    for point, expo in descriptor.factors:
        if abs(point - at) < 1e-12:
            if expo >= 0:
                return 0.0 + 0.0j
            order = -expo
            if order > order_cap:
                raise ResourceLimitError(
                    f"pole order {order} exceeds the cap {order_cap}"
                )
        else:
            rest.append((point, expo))
    if order == 0:
        return 0.0 + 0.0j
    # exp(a x) = sum c_k x^k with c_k = c_{k-1} a / k: no a^k or k! to overflow
    coeffs = [1.0 + 0.0j]
    for k in range(1, order):
        coeffs.append(coeffs[-1] * descriptor.exp_coeff / k)
    series = np.array(coeffs) * np.exp(descriptor.exp_coeff * (at - 1.0))
    for point, expo in rest:
        series = np.convolve(series, _binomial_series(at - point, expo, order))[:order]
    return complex(series[order - 1])


def residue_terms(descriptor: RationalExpDescriptor, points) -> list[complex]:
    """Residues at the given points, each point within 1e-12 of another
    counted once."""
    seen: list[complex] = []
    for p in points:
        p = complex(p)
        if not any(abs(p - s) < 1e-12 for s in seen):
            seen.append(p)
    return [laurent_residue(descriptor, p) for p in seen]


class MultivariatePolynomial:
    """Sparse multivariate polynomial keyed by exponent tuples.

    Supports only what the residue route needs: start from 1, multiply in
    linear forms ``sum c_k x_k`` and other polynomials, and iterate monomials.
    """

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], complex] = {(0,) * nvars: 1.0 + 0.0j}

    def multiply_linear(self, coeffs: dict[int, complex]):
        new: dict[tuple[int, ...], complex] = {}
        for expo, c in self.terms.items():
            for var, cv in coeffs.items():
                if cv == 0:
                    continue
                key = tuple(
                    e + 1 if k == var else e for k, e in enumerate(expo)
                )
                new[key] = new.get(key, 0.0) + c * cv
        self.terms = {k: v for k, v in new.items() if v != 0}
        return self

    def multiply_terms(self, other: dict):
        """Multiply by another exponent->coefficient map (exponents may be negative)."""
        new: dict[tuple[int, ...], complex] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                new[key] = new.get(key, 0.0) + c1 * c2
        self.terms = {k: v for k, v in new.items() if v != 0}
        return self

    def items(self):
        return self.terms.items()


def vandermonde_squared_poly(nvars: int, k: int | None = None) -> MultivariatePolynomial:
    """Expansion of prod_{i != j} (x_j - x_i) over the first k of nvars
    variables (all of them by default) into monomials."""
    k = nvars if k is None else k
    poly = MultivariatePolynomial(nvars)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            poly.multiply_linear({j: 1.0, i: -1.0})
    return poly
