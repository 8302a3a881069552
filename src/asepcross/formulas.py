"""Closed-form transition and crossing probability evaluators.

Three families of formulas live here: the two-species TASEP Green's
function (a nested double permutation sum under an (n+m)-fold contour
integral around the origin), the multi-species ASEP formulas built on the
vertex-model partition functions (integrals around 1), and the cumulative
wall-crossing formulas (integrals around the origin, or in inverted
variables around {0, 1, 1-rho} where the integrand becomes rational times
an exponential and residues are extracted exactly).

Every probability-valued result is checked for a vanishing imaginary part
and clamped within [0, 1] only inside a small tolerance band; anything
further out raises AccuracyError.  It is returned as a ``Result``: a float
that also carries ``est_err`` and ``method``.  Every quadrature evaluator
goes through ``_integrate`` (dimension cap, contour product, trapezoid
driver, prefactor), takes its convergence tolerance ``tol`` and its
per-integral evaluation cap ``node_budget`` as arguments (``GreenQuery``
fields for the Green's function) and reports |prefactor|·|I_n - I_{n/2}|,
the difference of its last two node-doubling iterates, as ``est_err``.
Every residue evaluator goes through ``_residues`` (one-variable residue
sums multiplied over the monomials of a polynomial, whose determinant
factors ``_det_poly`` expands) and reports method 'laurent' with ROUNDING
times the summed size of the terms that cancel as est_err, except
``schutz_determinant``, whose entries are Poisson series (est_err 0.0);
structural zeros (an infeasible wall, t = 0 in ``gamma_wall``) report 0.0
with method 'exact'.  A NaN is refused like any other value outside
[0, 1].  Negative ``t`` or ``q`` is refused with ValidationError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AccuracyError,
    BlockSignatureVector,
    ParticleConfig,
    ResourceLimitError,
    ValidationError,
    signed_permutations,
)
from .quadrature import (
    DEFAULT_NODE_BUDGET,
    ContourProduct,
    ContourSpec,
    MultivariatePolynomial,
    OpenGrid,
    RationalExpDescriptor,
    batched_det,
    laurent_residue,  # not called here; bench/tracing.py patches formulas.laurent_residue
    product_integrate,
    residue_terms,
    spectral_rows,
    vandermonde_squared_poly,
)
from .vertex import f_mu, sfF_lambda, xi_mu

Z_RADIUS = 0.45
U_RADIUS = 0.80
W_RADIUS = 0.55
DIMENSION_BUDGET = 5
IMAG_TOL = 1e-9
NEG_TOL = 1e-9
ROUNDING = 4 * float(np.finfo(float).eps)  # per unit size of a residue sum's terms


@dataclass(frozen=True)
class GreenQuery:
    """Transition probability query for the two-species TASEP."""

    initial: ParticleConfig
    final: ParticleConfig
    t: float
    method: str = "auto"  # auto | laurent | quadrature
    tol: float = 1e-10
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        _check_rates(self.t)
        if self.method not in ("auto", "laurent", "quadrature"):
            raise ValidationError("method must be auto, laurent or quadrature")
        if self.initial.n != self.final.n or self.initial.m != self.final.m:
            raise ValidationError("initial and final configs must share (n, m)")


@dataclass(frozen=True)
class CrossingQuery:
    """Total-crossing query between block signature vectors."""

    initial: BlockSignatureVector
    final: BlockSignatureVector
    q: float
    t: float

    def __post_init__(self):
        if self.initial.orientation != "initial":
            raise ValidationError("initial vector must be initial-oriented")
        if self.final.orientation != "final" and self.final.r > 1:
            raise ValidationError("final vector must be final-oriented")
        if self.initial.sizes != self.final.sizes:
            raise ValidationError("block sizes must match")
        _check_rates(self.t, self.q)


@dataclass(frozen=True)
class WallQuery:
    """Cumulative wall-crossing query: type 1 in [s1, s2), type 2 beyond s2."""

    s1: int
    s2: int
    rho: float
    n: int
    m: int
    t: float

    def __post_init__(self):
        if not 0 <= self.m <= self.n or self.n < 1:
            raise ValidationError("need 0 <= m <= n with n >= 1")
        if not 0 < self.rho <= 1:
            raise ValidationError("rho must lie in (0, 1]")
        _check_rates(self.t)

    @property
    def feasible(self) -> bool:
        return self.s2 - self.s1 >= self.n - self.m


class Result(float):
    """A probability that says how it was computed.

    It is a float, so arithmetic and comparisons see the value alone;
    ``est_err`` is the error the route measured and ``method`` names the
    route: 'quadrature', 'laurent' (residues) or 'exact' (a structural zero).
    """

    __slots__ = ("est_err", "method")

    def __new__(cls, value: float, est_err: float, method: str):
        self = float.__new__(cls, value)
        self.est_err = est_err
        self.method = method
        return self

    def __reduce__(self):
        return Result, (float(self), self.est_err, self.method)


def _finalize_probability(value: complex, est_err: float = 0.0,
                          method: str = "laurent") -> Result:
    if not abs(value.imag) <= IMAG_TOL:
        raise AccuracyError(
            f"probability has imaginary part {value.imag:.3e} above tolerance"
        )
    v = value.real
    if not -NEG_TOL <= v <= 1.0 + NEG_TOL:  # NaN fails here too
        raise AccuracyError(f"value {v!r} lies outside [0, 1] beyond tolerance")
    return Result(min(max(v, 0.0), 1.0), est_err, method)


def _integrate(integrand, contours, tol, node_budget, scale=1.0, roles=()) -> Result:
    """scale times the integral of ``integrand`` over the product of
    ``contours``, with |scale|·|I_n - I_{n/2}| as its error; more than
    DIMENSION_BUDGET variables are refused before any evaluation."""
    if len(contours) > DIMENSION_BUDGET:
        raise ResourceLimitError(
            f"{len(contours)} integration variables exceed the budget {DIMENSION_BUDGET}"
        )
    value, err = product_integrate(
        integrand, ContourProduct(contours, roles), tol=tol, node_budget=node_budget
    )
    return _finalize_probability(scale * value, abs(scale) * err, "quadrature")


def _check_rates(t: float, q: float = 0.0) -> None:
    if t < 0:
        raise ValidationError("t must be >= 0")
    if q < 0:
        raise ValidationError("q must be >= 0")


def _strict(values, name: str, decreasing: bool = False) -> list[int]:
    """``values`` as ints, refused unless strictly increasing (or decreasing)."""
    values = [int(x) for x in values]
    sign = -1 if decreasing else 1
    if any(sign * (b - a) <= 0 for a, b in zip(values, values[1:])):
        order = "decreasing" if decreasing else "increasing"
        raise ValidationError(f"{name} must be strictly {order}")
    return values


def _origin_contours(m: int, k: int, outer: float = W_RADIUS) -> tuple[ContourSpec, ...]:
    """m circles of radius Z_RADIUS about the origin, then k of radius ``outer``."""
    return (ContourSpec(0.0, Z_RADIUS),) * m + (ContourSpec(0.0, outer),) * k


def _around_one_contours(radii) -> tuple[ContourSpec, ...]:
    """Clockwise circles about 1, one per radius."""
    return tuple(ContourSpec(1.0, r, orientation=-1) for r in radii)


def _block_slices(sizes) -> list[slice]:
    """The integration variables each colour block owns, in block order."""
    return [slice(end - size, end) for size, end in zip(sizes, itertools.accumulate(sizes))]


def _spread_radii(n: int, lo: float, hi: float) -> list[float]:
    if n == 1:
        return [0.5 * (lo + hi)]
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def eigenfunction_P(nu, p, t, z, u):
    """Generator eigenfunction: the double permutation sum over S_n x S_m.

    ``z`` holds n rows and ``u`` m rows of spectral points: (n,) or (n, M)
    arrays, or OpenGrid rows.  The factors common to every permutation term
    (the time factor among them, in which the spectral points enter
    symmetrically) are applied once outside the permutation sums.
    """
    nu = [int(x) for x in nu]
    p = [int(x) for x in p]
    n, m = len(nu), len(p)
    Z, finish = spectral_rows(z, n)
    U, _ = spectral_rows(u, m)
    if m and not isinstance(Z, OpenGrid) and U.shape[1:] != Z.shape[1:]:
        raise ValidationError("z and u must share their node dimension")
    c = [sum(1 for pi in p if pi >= j) for j in range(1, n + 1)]
    pref = 1.0
    for i in range(n):
        pref = pref * (np.exp((1.0 / Z[i] - 1.0) * t) * (1.0 - Z[i]) ** (i + 1))
    for a in range(m):
        pref = pref * (1.0 - U[a]) ** (a + 1)
    single = [[(1.0 - Z[k]) ** (-(i + 1) - c[i]) * Z[k] ** nu[i] for i in range(n)]
              for k in range(n)]
    total = 0.0
    for perm, sgn in signed_permutations(n):
        term = sgn
        for i in range(n):
            term = term * single[perm[i]][i]
        if m:
            term = term * u_sum_determinant(p, U, [Z[k] for k in perm])
        total = total + term
    return finish(total * pref)


def u_sum_determinant(p, U, Zp):
    """The antisymmetrized u-sum of ``eigenfunction_P`` for one ordering Zp
    of the z: det[(1 - U_a)^-(i+1) prod_{l < p_i - 1} (U_a - Zp_l)] over
    i, a < m, by ``batched_det``."""
    m = len(p)
    uz = []  # uz[a][e] = prod_{l < e} (U_a - Zp_l)
    for a in range(m):
        prods = [1.0]
        for l in range(max(p) - 1):
            prods.append(prods[-1] * (U[a] - Zp[l]))
        uz.append(prods)
    return batched_det(m, lambda i, a: (1.0 - U[a]) ** (-(i + 1)) * uz[a][p[i] - 1])


def two_tasep_green(query: GreenQuery) -> Result:
    """Transition probability of the two-species TASEP.

    When the type-2 particles initially occupy indices 1..m, the outer
    integrals reduce to residues at u_i = z_i (the remaining apparent poles
    cancel after symmetrization), which cuts the integral dimension from
    n + m to n; otherwise the full tensor quadrature runs with the u-circles
    enclosing the z-circles.  A single free particle is the n = 1 Schütz
    determinant, a Poisson probability.
    """
    ini, fin = query.initial, query.final
    n, m = ini.n, ini.m
    mu, nu = ini.positions, fin.positions
    p0, p = ini.type2_indices, fin.type2_indices
    t = query.t
    method = query.method
    if method == "auto":
        method = "laurent" if (n == 1 and m == 0) else "quadrature"
    if method == "laurent":
        if not (n == 1 and m == 0):
            raise ValidationError(
                "laurent evaluation applies to the single-particle case only"
            )
        return schutz_determinant(mu, nu, t)
    if all(p0[i] == i + 1 for i in range(m)):
        contours = tuple(ContourSpec(0.0, r) for r in _spread_radii(n, 0.30, 0.60))
        roles = ()

        def integrand(Z):
            out = 1.0
            for i in range(n):
                out = out * (Z[i] ** (-mu[i] - 1) * (1.0 - Z[i]) ** (m - min(i, m)))
            for a in range(m):
                for j in range(a):
                    out = out / (Z[a] - Z[j])
            return out * eigenfunction_P(nu, p, t, Z, Z[:m])
    else:
        contours = _origin_contours(n, m, U_RADIUS)
        roles = ("z",) * n + ("u",) * m

        def integrand(ZU):
            Z, U = ZU[:n], ZU[n:]
            out = 1.0
            for i in range(n):
                below = sum(1 for x in p0 if x <= i)
                out = out * (Z[i] ** (-mu[i] - 1) * (1.0 - Z[i]) ** (m - below))
            for a in range(m):
                for j in range(p0[a]):
                    out = out / (U[a] - Z[j])
            return out * eigenfunction_P(nu, p, t, Z, U)

    return _integrate(integrand, contours, query.tol, query.node_budget, roles=roles)


def _poisson_series_entry(a: int, x: int, t: float) -> float:
    """Residue at the origin of (1-z)^a z^(x-1) e^((1/z - 1)t).

    The series sum_j (-1)^j C(a, j) e^(-t) t^(x+j) / (x+j)! runs until its
    terms are negligible; each Poisson weight is formed in log space, so
    large t and long jumps neither overflow nor stop early.
    """
    if x < 0 and a >= 0 and x + a < 0:
        return 0.0
    log_t = math.log(t) if t > 0 else -math.inf
    j = max(0, -x)
    coeff = 1.0  # (-1)^j C(a, j)
    for i in range(1, j + 1):
        coeff *= (i - 1 - a) / i
    total = 0.0
    stop = max(t, 1.0) + 20
    while True:
        k = x + j
        term = coeff * (math.exp(k * log_t - t - math.lgamma(k + 1)) if k else math.exp(-t))
        total += term
        j += 1
        if a >= 0 and j > a:
            break
        coeff *= (j - 1 - a) / j
        if k + 1 > stop and abs(term) < 1e-18 * (abs(total) + 1e-300):
            break
    return total


def schutz_determinant(mu, nu, t: float) -> Result:
    """Single-species TASEP Green's function as an n x n determinant.

    Entry (k, i) is the one-dimensional residue integral with winding
    exponent k - i and displacement nu_i - mu_k, evaluated by series.  At
    n = 1 it is the free particle's Poisson probability.
    """
    _check_rates(t)
    mu = [int(x) for x in mu]
    nu = [int(x) for x in nu]
    n = len(mu)
    mat = [[_poisson_series_entry(k - i, nu[i] - mu[k], t) for i in range(n)]
           for k in range(n)]
    return _finalize_probability(complex(np.linalg.det(np.array(mat).reshape(n, n))))


def two_tasep_crossing(mu, nu, m: int, t: float, tol: float = 1e-10,
                       node_budget: int = DEFAULT_NODE_BUDGET) -> Result:
    """Total-crossing transition probability of the two-species TASEP.

    ``mu`` holds the initial positions with the m type-2 particles first
    (leftmost); ``nu`` the final positions with the type-2 particles last.
    The two determinant blocks couple only through prod (w_j - z_i).
    """
    _check_rates(t)
    mu, nu = _strict(mu, "mu"), _strict(nu, "nu")
    k = len(mu) - m

    def integrand(ZW):
        Z, W = ZW[:m], ZW[m:]
        out = 1.0
        for i in range(m):
            out = out * (np.exp((1.0 / Z[i] - 1.0) * t) / (1.0 - Z[i]) ** k)
        for i in range(k):
            out = out * np.exp((1.0 / W[i] - 1.0) * t)
        for i in range(m):
            for j in range(k):
                out = out * (W[j] - Z[i])
        out = out * batched_det(
            m, lambda i, j: Z[i] ** (nu[k + j] - mu[i] - 1) * (1.0 - Z[i]) ** (i - j)
        )
        return out * batched_det(
            k, lambda i, j: W[i] ** (nu[j] - mu[m + i] - 1) * (1.0 - W[i]) ** (i - j)
        )

    return _integrate(integrand, _origin_contours(m, k), tol, node_budget)


def _around_one_radii(q: float, n: int) -> list[float]:
    bounds = [0.25, abs(1.0 - q) / (1.0 + q)]
    if q > 0:
        bounds.append(abs(1.0 - 1.0 / q))
    rmax = 0.9 * min(bounds)
    if rmax <= 0:
        raise ValidationError("no valid contour radius around 1 for this q")
    return _spread_radii(n, 0.7 * rmax, rmax)


def _around_one(Z, q, t, powers, scale=None):
    """The factors shared by the integrands around 1: for each variable z_j,
    exp((1-q)^2 z_j t / ((1-z_j)(1-q z_j))) ((1-q z_j)/(1-z_j))^powers[j]
    / ((1-z_j)(1-q z_j)), times scale[j] if given, and for each pair i < j
    (z_j - z_i)/(z_j - q z_i)."""
    out = 1.0
    for j, z in enumerate(Z):
        out = out * (np.exp((1.0 - q) ** 2 * z * t / ((1.0 - z) * (1.0 - q * z)))
                     * ((1.0 - q * z) / (1.0 - z)) ** powers[j]
                     / ((1.0 - z) * (1.0 - q * z)) * (1.0 if scale is None else scale[j]))
    for i in range(len(Z)):
        for j in range(i + 1, len(Z)):
            out = out * ((Z[j] - Z[i]) / (Z[j] - q * Z[i]))
    return out


def r_asep_transition(mu, nu, q: float, t: float, tol: float = 1e-10,
                      node_budget: int = DEFAULT_NODE_BUDGET) -> Result:
    """Rainbow multi-species ASEP transition probability (all colours distinct).

    ``mu`` must be strictly decreasing; ``nu`` strict but unordered.  The
    integrand carries the vertex partition function evaluated at reflected
    arguments; all contours are one small clockwise circle around 1.  At
    q = 0 the partition function degenerates and only fully reversed final
    orders are supported (where the factorized limit applies).
    """
    _check_rates(t, q)
    mu = _strict(mu, "mu", decreasing=True)
    nu = [int(x) for x in nu]
    n = len(mu)
    if len(set(nu)) != n:
        raise ValidationError("nu must have pairwise distinct parts")
    if q == 1:
        raise ValidationError("the symmetric point q = 1 is not supported")
    if q == 0:
        _strict(nu, "at q = 0, nu")
        return rainbow_total_crossing(mu, nu, q, t, tol=tol, node_budget=node_budget)
    rq = q**-0.5

    def integrand(Z):
        out = _around_one(Z, q, t, mu, [(1.0 - q * z) / z for z in Z])
        return out * f_mu(nu, OpenGrid(rq / z for z in Z), q, rq)

    contours = _around_one_contours([min(0.2, abs(q - 1.0) / 3.0)] * n)
    return _integrate(integrand, contours, tol, node_budget, scale=(-rq) ** sum(nu))


def rainbow_total_crossing(mu, nu, q: float, t: float, tol: float = 1e-10,
                           node_budget: int = DEFAULT_NODE_BUDGET) -> Result:
    """Fully factorized total-crossing integral for n distinct colours.

    Requires mu strictly decreasing and nu strictly increasing.  The
    integrand depends on the data only through the differences mu_j - nu_j,
    which realizes the shift-invariance property exactly.
    """
    _check_rates(t, q)
    mu, nu = _strict(mu, "mu", decreasing=True), _strict(nu, "nu")
    if q == 1:
        raise ValidationError("the symmetric point q = 1 is not supported")
    n = len(mu)
    powers = [a - b for a, b in zip(mu, nu)]
    contours = _around_one_contours([min(0.2, abs(q - 1.0) / 3.0)] * n)
    return _integrate(lambda Z: _around_one(Z, q, t, powers), contours, tol, node_budget,
                      scale=(1.0 - q) ** n)


def block_crossing(query: CrossingQuery, tol: float = 1e-10,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> Result:
    """Total crossing of colour blocks in the multi-species ASEP.

    The integration variables split into blocks matching the signature
    blocks; each block contributes its own symmetrized factor, so variables
    within a block ride on slightly different radii to stay clear of the
    apparent coincident-point poles of the permutation sum.
    """
    mu_vec, lam_vec = query.initial, query.final
    q, t, n = query.q, query.t, mu_vec.n
    blocks = list(zip(_block_slices(mu_vec.sizes), mu_vec.blocks, lam_vec.blocks))

    def integrand(Z):
        out = _around_one(Z, q, t, [0] * n)
        for b, block_mu, block_lam in blocks:
            out = out * (xi_mu(block_mu.parts, Z[b], q) * sfF_lambda(block_lam.parts, Z[b], q))
        return out

    return _integrate(integrand, _around_one_contours(_around_one_radii(q, n)), tol,
                      node_budget, scale=(1.0 - q) ** n)


def tasep_block_crossing(query: CrossingQuery, tol: float = 1e-10,
                         node_budget: int = DEFAULT_NODE_BUDGET) -> Result:
    """Block total crossing at q = 0: one determinant per colour block."""
    if query.q != 0:
        raise ValidationError("this evaluator requires q = 0")
    mu_vec, lam_vec = query.initial, query.final
    t, n = query.t, mu_vec.n
    slices = _block_slices(mu_vec.sizes)

    def integrand(Z):
        out = 1.0
        for j in range(n):
            out = out * np.exp(Z[j] * t / (1.0 - Z[j]))
        for k, a in enumerate(slices):
            for b in slices[k + 1:]:
                for i in range(a.start, a.stop):
                    for j in range(b.start, b.stop):
                        out = out * (Z[j] - Z[i])
        for a, block_mu, block_lam in zip(slices, mu_vec.blocks, lam_vec.blocks):
            zb, lam, mu = Z[a], block_lam.parts, block_mu.parts
            out = out * batched_det(
                len(mu),
                lambda i, j: zb[j] ** (i - j - a.start) * (1.0 - zb[j]) ** (lam[i] - mu[j] - 1),
            )
        return out

    return _integrate(integrand, _around_one_contours(_around_one_radii(0.0, n)), tol,
                      node_budget)


def cumulative_crossing_step(mu, m: int, s1: int, s2: int, t: float,
                             tol: float = 1e-10,
                             node_budget: int = DEFAULT_NODE_BUDGET) -> Result:
    """Cumulative crossing probability for deterministic initial positions.

    ``mu`` is the full sorted initial vector with the m type-2 particles
    first.  Returns an exact 0 when the wall gap cannot accommodate the
    type-1 block.
    """
    _check_rates(t)
    mu = _strict(mu, "mu")
    n = len(mu)
    k = n - m
    if s2 - s1 < k:
        return Result(0.0, 0.0, "exact")

    def integrand(ZW):
        Z, W = ZW[:m], ZW[m:]
        out = 1.0
        for i in range(m):
            out = out * (np.exp((1.0 / Z[i] - 1.0) * t) * Z[i] ** (s2 - 1 - mu[i])
                         / (1.0 - Z[i]) ** (n - i))
        for i in range(m):
            for j in range(i + 1, m):
                out = out * (Z[j] - Z[i])
        return out * _wall_w_part(Z, W, t, [s1 - 1 - x for x in mu[m:]], s2 - s1)

    return _integrate(integrand, _origin_contours(m, k), tol, node_budget)


def _wall_w_part(Z, W, t, powers, gap):
    """The w-variable factors of the wall integrands: for each w_i,
    exp((1/w_i - 1)t) w_i^powers[i] / (1-w_i)^(k-i), the couplings
    prod (w_j - z_i) and det[w_i^j - w_i^gap]."""
    k = len(W)
    out = 1.0
    for i in range(k):
        out = out * (np.exp((1.0 / W[i] - 1.0) * t) * W[i] ** powers[i]
                     / (1.0 - W[i]) ** (k - i))
    for i in range(len(Z)):
        for j in range(k):
            out = out * (W[j] - Z[i])
    return out * batched_det(k, lambda i, j: W[i] ** j - W[i] ** gap)


def _pole_variable(t: float, factors, points):
    """One variable of the inverted integrands, e^((z-1)t) prod (z-a)^e over
    ``factors``, with the points its residues are summed over."""
    return RationalExpDescriptor(t, factors), points


def _det_poly(nvars: int, k: int, entry, signed: bool = True) -> dict:
    """det[entry(i, j)] over i, j < k (the permanent if not ``signed``),
    expanded into one exponent -> coefficient map in nvars variables; each
    entry is such a map."""
    terms: dict[tuple[int, ...], complex] = {}
    for perm, sgn in signed_permutations(k):
        poly = MultivariatePolynomial(nvars)
        for i in range(k):
            poly.multiply_terms(entry(i, perm[i]))
        for key, cf in poly.items():
            terms[key] = terms.get(key, 0.0) + (sgn if signed else 1) * cf
    return {key: cf for key, cf in terms.items() if cf != 0}


def _residues(variables, terms: dict) -> tuple[complex, float]:
    """Sum over the monomials c x^e of ``terms`` of c times the product of
    one-variable residue sums, and the same sum over |c| and the absolute
    values of the single residues.

    Variable i is a (RationalExpDescriptor, points) pair; x_i^e shifts its
    power at 0 by e, and each residue sum is computed once per (i, e).  The
    second number is the size of the terms that cancel in the first, which
    sets its rounding error.
    """
    cache: dict[tuple[int, int], tuple[complex, float]] = {}

    def one(i: int, e: int) -> tuple[complex, float]:
        if (i, e) not in cache:
            desc, points = variables[i]
            if e:
                desc = RationalExpDescriptor(desc.exp_coeff, desc.factors + ((0j, e),))
            residues = residue_terms(desc, points)
            cache[i, e] = sum(residues, 0.0 + 0.0j), sum(map(abs, residues))
        return cache[i, e]

    total, size = 0.0 + 0.0j, 0.0
    for expo, cf in terms.items():
        term, term_size = complex(cf), abs(cf)
        for i, e in enumerate(expo):
            value, value_size = one(i, e)
            term *= value
            term_size *= value_size
        total += term
        size += term_size
    return total, size


def _residue_probability(scale: float, variables, terms: dict) -> Result:
    """scale times ``_residues``, with ROUNDING·|scale| times the size of
    its terms as the error."""
    value, size = _residues(variables, terms)
    return _finalize_probability(complex(scale * value), ROUNDING * abs(scale * size))


def cumulative_crossing_bernoulli(
    query: WallQuery, form: str = "inverted", tol: float = 1e-10,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Result:
    """Cumulative crossing with density-rho initial data for type 2.

    ``form='direct'`` integrates around the origin by quadrature;
    ``form='inverted'`` works in reflected variables where the integrand is
    rational-times-exponential and all residues are extracted exactly.  Both
    forms agree to quadrature accuracy.
    """
    if form not in ("direct", "inverted"):
        raise ValidationError("form must be 'direct' or 'inverted'")
    if not query.feasible:
        return Result(0.0, 0.0, "exact")
    n, m, rho, t = query.n, query.m, query.rho, query.t
    s1, s2 = query.s1, query.s2
    k = n - m
    if form == "direct":
        def integrand(ZW):
            Z, W = ZW[:m], ZW[m:]
            out = 1.0
            for i in range(m):
                out = out * (np.exp((1.0 / Z[i] - 1.0) * t) * Z[i] ** s2
                             / ((1.0 - Z[i]) ** n * (1.0 - (1.0 - rho) * Z[i])))
            for i in range(m):
                for j in range(m):
                    if i != j:
                        out = out * (Z[j] - Z[i])
            return out * _wall_w_part(Z, W, t, [s1 - 1 - i for i in range(k)], s2 - s1)

        return _integrate(integrand, _origin_contours(m, k), tol, node_budget,
                          scale=rho**m / math.factorial(m))
    # inverted form: variables z_i (m of them) then w_i (k of them)
    poly = vandermonde_squared_poly(n, m)
    for i in range(m):
        for j in range(k):
            poly.multiply_linear({i: 1.0, m + j: -1.0})
    if k:
        # det[w_i^(k-1-j) - w_i^beta]; beta < 0 on a feasible wall, so the
        # two monomials of an entry never coincide
        beta = k + s1 - s2 - 1

        def entry(i, j):
            mono = lambda e: (0,) * (m + i) + (e,) + (0,) * (k - 1 - i)
            return {mono(k - 1 - j): 1.0, mono(beta): -1.0}

        poly.multiply_terms(_det_poly(n, k, entry))
    z = _pole_variable(t, ((1.0, -n), (1.0 - rho, -1), (0.0, -s2 - m + 1)),
                       (0.0, 1.0, 1.0 - rho))
    w = [_pole_variable(t, ((1.0, i - k), (0.0, -s1 - m)), (0.0, 1.0)) for i in range(k)]
    return _residue_probability(rho**m / math.factorial(m), [z] * m + w, poly.terms)


def cumulative_crossing_one_wall(query: WallQuery, form: str = "collapsed") -> Result:
    """Cumulative crossing when the lower wall is irrelevant (s1 <= -m).

    ``form='collapsed'`` evaluates the (m+1)-fold residue integral in which
    the type-1 integrals have collapsed to a single variable;
    ``form='cauchy_binet'`` evaluates the equivalent determinant of
    one-dimensional integrals.  Both carry the overall sign (-1)^(m+1)
    that the successive residue evaluation of the type-1 block produces;
    the determinant form also carries (-1)^(m(m-1)/2), the sign of
    reversing the order of its m rows.  The collapse needs at least one
    type-1 particle, so n = m is refused; the signs are tested against
    cumulative_crossing_bernoulli for m up to 4.
    """
    if query.s1 > -query.m:
        raise ValidationError(
            "one-wall evaluator requires s1 <= -m; use the general form"
        )
    if query.n == query.m:
        raise ValidationError(
            "one-wall evaluator requires n > m; use cumulative_crossing_bernoulli"
        )
    if form not in ("collapsed", "cauchy_binet"):
        raise ValidationError("form must be 'collapsed' or 'cauchy_binet'")
    if not query.feasible:
        return Result(0.0, 0.0, "exact")
    n, m, rho, t = query.n, query.m, query.rho, query.t
    s2 = query.s2
    z = _pole_variable(t, ((1.0, -(m + 1)), (1.0 - rho, -1), (0.0, -s2 - m + 1)),
                       (0.0, 1.0, 1.0 - rho))
    w = _pole_variable(t, ((1.0, -1), (0.0, n - 2 * m - s2 - 1)), (0.0,))
    if form == "collapsed":
        poly = vandermonde_squared_poly(m + 1, m)
        for i in range(m):
            poly.multiply_linear({m: 1.0, i: -1.0})
        return _residue_probability((-1.0) ** (m + 1) * rho**m / math.factorial(m),
                                    [z] * m + [w], poly.terms)
    # Cauchy-Binet form: det(w A - B) of z-integrals, A_ij = h[i+j] and
    # B_ij = h[i+j+1] with h[p] the z-integral of z^p (a Hankel matrix), then
    # one w-integral
    h = [_residues([z], {(p,): 1.0}) for p in range(2 * m)]
    w_poly = _det_poly(1, m, lambda i, j: {(1,): h[i + j][0], (0,): -h[i + j + 1][0]})
    # the m factors h of a product and the w-residues each bring their
    # rounding: m + 1 times the w-integral of the permanent of the sizes of h
    h_size = lambda i, j: {(1,): h[i + j][1], (0,): h[i + j + 1][1]}
    size = (m + 1) * _residues([w], _det_poly(1, m, h_size, signed=False))[1]
    scale = (-1.0) ** (m + 1 + m * (m - 1) // 2) * rho**m
    value = scale * _residues([w], w_poly)[0]
    return _finalize_probability(complex(value), ROUNDING * abs(scale * size))


def gamma_wall(n: int, s: int, t: float, method: str = "laurent",
               tol: float = 1e-10) -> Result:
    """Probability that all n step-start particles (at 1..n) pass the wall s.

    The symmetrized n-fold integral is evaluated exactly by residues at
    {0, 1} after expanding the squared Vandermonde coupling, or by circle
    quadrature for cross-checking.  At t = 0 it is an exact 0.
    """
    if s <= n:
        raise ValidationError("gamma_wall requires s > n")
    if method not in ("laurent", "quadrature"):
        raise ValidationError("method must be 'laurent' or 'quadrature'")
    _check_rates(t)
    if t == 0:
        return Result(0.0, 0.0, "exact")
    if method == "laurent":
        z = _pole_variable(t, ((1.0, -n), (0.0, 1 - s)), (0.0, 1.0))
        return _residue_probability(1.0 / math.factorial(n), [z] * n,
                                    vandermonde_squared_poly(n).terms)

    def integrand(Z):
        out = 1.0
        for i in range(n):
            out = out * (np.exp((Z[i] - 1.0) * t) * Z[i] ** (1 - s) / (Z[i] - 1.0) ** n)
        for i in range(n):
            for j in range(n):
                if i != j:
                    out = out * (Z[j] - Z[i])
        return out

    return _integrate(integrand, (ContourSpec(0.5, 1.2),) * n, tol, DEFAULT_NODE_BUDGET,
                      scale=1.0 / math.factorial(n))
