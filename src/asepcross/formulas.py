"""Closed-form transition and crossing probability evaluators.

Three families of formulas live here: the two-species TASEP Green's
function (a double permutation sum under an (n+m)-fold integral around the
origin), the multi-species ASEP formulas built on the vertex-model
partition functions (integrals around 1), and the cumulative wall-crossing
formulas (integrals around the origin, or rational-times-exponential ones
in inverted variables whose residues at {0, 1, 1-rho} are exact).

Each probability is a ``Result``, a float that also carries ``est_err`` and
``method``.  Its imaginary part must vanish, and it is clamped to [0, 1]
only within a small band; anything further out, NaN included, raises
AccuracyError.  Each query and evaluator checks its fields on entry with
the rules of ``core`` and raises ValidationError; q = 1 is refused in
``_around_one_contours``.  At q = 0 every formula but the Bernoulli
``form='direct'`` is an exact sum of products of determinants of
one-variable residue moments (Schütz's series for one colour): method
'laurent', with ROUNDING times the size of the terms that cancel as
est_err.  The others go through ``_integrate`` (dimension cap, trapezoid
driver on half of each grid, as every integrand has real coefficients and
real contour centres) at a tolerance 1e-10 and node budget 2^26 no caller
can change, and report |prefactor| times the driver's est_err, above 1e-10
where |prefactor| > 1 (q^(-sum(nu)/2) at small q).  The formulas around 1
are stated on clockwise circles, integrated counterclockwise, and their
prefactors carry the sign (-1)^n.  Structural zeros (an infeasible wall,
t = 0 in ``gamma_wall``) are 0.0, method 'exact'.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import (
    AccuracyError,
    BlockSignatureVector,
    ParticleConfig,
    ResourceLimitError,
    ValidationError,
    as_int,
    bernoulli_data,
    check_rate,
    signed_permutations,
    strictly_ordered,
)
from .quadrature import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_TOL,
    ContourProduct,
    ContourSpec,
    MultivariatePolynomial,
    OpenGrid,
    PairProduct,
    RationalExpDescriptor,
    laurent_residue,  # not called here; bench/tracing.py patches formulas.laurent_residue
    product_integrate,
    residue_moments,
    spectral_rows,
)
from .vertex import f_mu, sfF_lambda, xi_mu

Z_RADIUS = 0.45
W_RADIUS = 0.55
DIMENSION_BUDGET = 4
# the smallest circle about 1 the evaluators around 1 accept: a smaller one
# collapses onto its pole at 1 in floating point
RADIUS_FLOOR = 1e-12
IMAG_TOL = 1e-9
NEG_TOL = 1e-9
ROUNDING = 4 * float(np.finfo(float).eps)  # per unit size of a residue sum's terms
# the most coupled variable pairs the moment determinants expand: 2^12 products
COUPLING_CAP = 12
LEIBNIZ_CAP = 10**6  # the most Leibniz terms one exact route sums: about 1 s


@dataclass(frozen=True)
class GreenQuery:
    """Transition probability query for the two-species TASEP."""

    initial: ParticleConfig
    final: ParticleConfig
    t: float

    def __post_init__(self):
        check_rate(self.t, "t")
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
        check_rate(self.t, "t")
        check_rate(self.q, "q")


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
        _, m, n = bernoulli_data(self.rho, self.m, self.n)
        check_rate(self.t, "t")
        object.__setattr__(self, "s1", as_int(self.s1, "s1"))
        object.__setattr__(self, "s2", as_int(self.s2, "s2"))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    @property
    def feasible(self) -> bool:
        """Whether [s1, s2) has room for the n - m type-1 particles; with
        none, the event does not involve s1 and every wall is feasible."""
        k = self.n - self.m
        return k == 0 or self.s2 - self.s1 >= k


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


def _finalize_probability(value: complex, est_err: float, method: str) -> Result:
    if not abs(value.imag) <= IMAG_TOL:
        raise AccuracyError(
            f"probability has imaginary part {value.imag:.3e} above tolerance"
        )
    v = value.real
    if not -NEG_TOL <= v <= 1.0 + NEG_TOL:  # NaN fails here too
        raise AccuracyError(f"value {v!r} lies outside [0, 1] beyond tolerance")
    return Result(0.0 if v <= 0.0 else min(v, 1.0), est_err, method)  # never -0.0


def _integrate(integrand, contours, scale) -> Result:
    """scale times the integral of ``integrand`` over the product of
    ``contours`` at the fixed DEFAULT_TOL and DEFAULT_NODE_BUDGET, with
    |scale| times the driver's est_err (the estimated error of the returned
    sum plus its round-off level) as its error; more than DIMENSION_BUDGET
    variables are refused before any evaluation.  The integrand must
    satisfy f(z̄) = conj f(z): the driver evaluates half of each grid."""
    if len(contours) > DIMENSION_BUDGET:
        raise ResourceLimitError(
            f"{len(contours)} integration variables exceed the budget {DIMENSION_BUDGET}"
        )
    value, err = product_integrate(integrand, ContourProduct(contours), tol=DEFAULT_TOL,
                                   node_budget=DEFAULT_NODE_BUDGET, conjugate_symmetric=True)
    return _finalize_probability(scale * value, abs(scale) * err, "quadrature")


def _origin_contours(m: int, k: int, outer: float) -> tuple[ContourSpec, ...]:
    """m circles of radius Z_RADIUS about the origin, then k of radius ``outer``."""
    return (ContourSpec(0.0, Z_RADIUS),) * m + (ContourSpec(0.0, outer),) * k


def _around_one_contours(q: float, radii) -> tuple[ContourSpec, ...]:
    """Circles about 1, one per radius, for the evaluators at q > 0: the
    symmetric point q = 1 is refused with ValidationError, and a radius
    below RADIUS_FLOOR, left by a q too close to 1, with AccuracyError."""
    if q == 1:
        raise ValidationError("the symmetric point q = 1 is not supported")
    if min(radii) < RADIUS_FLOOR:
        raise AccuracyError(f"contour radius {min(radii):.3g} about 1 at q={q!r} is "
                            f"below {RADIUS_FLOOR:g}: q is too close to 1")
    return tuple(ContourSpec(1.0, r) for r in radii)


def _block_slices(sizes) -> list[slice]:
    """The integration variables each colour block owns, in block order."""
    return [slice(end - size, end) for size, end in zip(sizes, itertools.accumulate(sizes))]


def eigenfunction_P(nu, p, t, z, u):
    """Generator eigenfunction: the double permutation sum over S_n x S_m.

    ``z`` holds n rows and ``u`` m rows of spectral points, each as
    ``spectral_rows`` takes them.  The factors common to every permutation
    term (the time factor among them, in which the spectral points enter
    symmetrically) are applied once outside the permutation sums.
    """
    nu = [as_int(x, "nu") for x in nu]
    p = [as_int(x, "p") for x in p]
    n, m = len(nu), len(p)
    Z, finish = spectral_rows(z, n)
    U, _ = spectral_rows(u, m)
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
    i, a < m, by ``_det_and_permanent``."""
    m = len(p)
    uz = []  # uz[a][e] = prod_{l < e} (U_a - Zp_l)
    for a in range(m):
        prods = [1.0]
        for l in range(max(p) - 1):
            prods.append(prods[-1] * (U[a] - Zp[l]))
        uz.append(prods)
    return _det_and_permanent(signed_permutations(m), [
        [((1.0 - U[a]) ** (-(i + 1)) * uz[a][p[i] - 1], 0.0) for a in range(m)]
        for i in range(m)])[0]


def two_tasep_green(query: GreenQuery) -> Result:
    """Transition probability of the two-species TASEP.

    One species is ``schutz_determinant``; the rest is Σ coefficient·det over
    ``_green_terms``, entry (k, l) the moment of z^(nu_l-mu_k-1) (1-z)^b
    e^((1/z-1)t), b its row's plus its column's power, from one
    ``residue_moments`` table per b.  est_err is ROUNDING·Σ |coefficient|
    times the permanent of the entries' sizes."""
    ini, fin = query.initial, query.final
    mu, nu, t, p0 = ini.positions, fin.positions, query.t, ini.type2_indices
    if not p0:
        return schutz_determinant(mu, nu, t)
    n, terms = len(mu), _green_terms(len(mu), p0, fin.type2_indices)
    # entry (k, l) reads the table of its power b of 1 - z at x^(mu_k+1-nu_l), x = 1/z
    lo, hi = mu[0] + 1 - nu[-1], mu[-1] + 1 - nu[0]
    tables = {b: list(zip(*residue_moments(*_variable(0, t, -lo, b, 0), 0, hi - lo)))
              for b in {r + c for key, _ in terms for r in key[:n] for c in key[n:]}}
    shifts = [[x + 1 - y - lo for y in nu] for x in mu]
    perms, total, size = signed_permutations(n), 0.0, 0.0
    for key, v in terms:
        det, per = _det_and_permanent(perms, [[tables[r + c][s] for c, s in zip(key[n:], row)]
                                              for r, row in zip(key, shifts)])
        total += v * det
        size += abs(v) * per
    return _laurent(1.0, total, size)


@functools.lru_cache(maxsize=64)
def _green_terms(n: int, p0: tuple[int, ...], p: tuple[int, ...]) -> tuple:
    """The (row powers + column powers, coefficient) determinants of
    ``two_tasep_green`` for type 2 at p0, then p, which alone fix them: cached.
    The u_a-circles enclose z_0 .. z_(P-1), P = p0[a], alone, so with
    (1-u_a)^(a+1) in column a of ``u_sum_determinant`` the u_a-integral of
    entry (i, a) is a divided difference (``_u_entry_terms``).  Expanding over
    τ in S_m leaves row powers A_k + r_k, A_k = m - #{a: p0_a <= k} + k + 1,
    and column powers B_l + c_l, B_l = -(l+1) - #{a: p_a > l}, k and l from 0.
    The τ choices with a bound on their terms, then n! per determinant, count
    against LEIBNIZ_CAP first."""
    m = len(p0)
    counts = [[sum(math.comb(p[i] - 1, j) * _divided_difference_terms(a - i + j, p0[a])
                   for j in range(p[i])) for a in range(m)] for i in range(m)]
    work = math.factorial(m) * (1 + math.prod(map(max, counts)))
    if work > LEIBNIZ_CAP:
        raise ResourceLimitError(f"{work} τ choices and terms exceed the cap {LEIBNIZ_CAP}")
    entries = [[_u_entry_terms(n, a - i, p0[a], p[i] - 1) for a in range(m)] for i in range(m)]
    start = tuple([m + k + 1 - bisect_right(p0, k) for k in range(n)]
                  + [bisect_right(p, l) - m - l - 1 for l in range(n)])
    terms: dict[tuple[int, ...], int] = {}
    for tau, sign in signed_permutations(m):
        poly = MultivariatePolynomial(2 * n).multiply_terms({start: sign})
        for i, a in enumerate(tau):
            poly.multiply_terms(entries[i][a])
        for key, v in poly.terms.items():  # cancelled keys too: the sum keeps its order
            terms[key] = terms.get(key, 0) + v
    terms = {key: v for key, v in terms.items() if v}
    work += len(terms) * math.factorial(n)
    if work > LEIBNIZ_CAP:
        raise ResourceLimitError(f"{work} terms and Leibniz terms exceed the cap {LEIBNIZ_CAP}")
    return tuple(terms.items())


def _divided_difference_terms(e: int, P: int) -> int:
    """The number of monomials h_(e-P+1) (e >= 0) or h_(-e-1) (e < 0) in P variables."""
    return math.comb(e, P - 1) if e >= 0 else math.comb(P - 2 - e, P - 1)


def _u_entry_terms(n: int, e: int, P: int, L: int) -> dict[tuple[int, ...], int]:
    """The divided difference of (1-u)^e prod_(l < L) (u - z_σ(l)) on z_0 ..
    z_(P-1) as a map r + c -> sign, r, c the powers of w_k = 1 - z_k in row
    k and of w_σ(l) in column l.  With u - z_σ(l) = w_σ(l) - w, each subset S
    of factors that give -w (column power 0) leaves w^d, d = e + |S|:
    (-1)^(P-1) h_(d-P+1)(w_0, ..) for d >= 0, prod_k w_k^-1 h_(-d-1)(1/w_0,
    ..) for d < 0.  Each S gives its own column powers, so no shift repeats."""
    out, pad_rows, pad_columns = {}, (0,) * (n - P), (0,) * (n - L)
    for columns in itertools.product((1, 0), repeat=L):
        d = e + L - sum(columns)
        if 0 <= d < P - 1:
            continue  # h of negative degree
        degree, sign, base, step = ((d - P + 1, (-1) ** (P - 1 + d - e), 0, 1) if d >= 0
                                    else (-d - 1, (-1) ** (d - e), -1, -1))
        columns += pad_columns
        for combo in itertools.combinations_with_replacement(range(P), degree):
            rows = tuple([base + step * combo.count(k) for k in range(P)])
            out[rows + pad_rows + columns] = sign
    return out


def _series_terms(x: int, t: float) -> float:
    """Terms ``_poisson_series_entry`` sums at displacement x: k = max(x, 0) to max(t, 1) + 20."""
    return max(t, 1.0) + 21 - max(x, 0)


def _poisson_series_entry(a: int, x: int, t: float) -> tuple[float, float]:
    """Residue at the origin of (1-z)^a z^(x-1) e^((1/z - 1)t), and its size:
    the series sum_j (-1)^j C(a, j) e^(-t) t^(x+j) / (x+j)! until its terms
    are negligible.  A Poisson weight is the last times t/k, or below 1e-250
    formed in log space, so large t and long jumps neither overflow nor stop
    early.  The size sums |term| times 1 + 2j + the last log-space exponent's
    spread, the rounding of that exponent and of two steps per j."""
    if x < 0 and a >= 0 and x + a < 0:
        return 0.0, 0.0
    log_t = math.log(t) if t > 0 else -math.inf
    j = max(0, -x)
    coeff = 1.0  # (-1)^j C(a, j)
    for i in range(1, j + 1):
        coeff *= (i - 1 - a) / i
    k = x + j
    weight = total = size = 0.0
    stop = k - 1 + _series_terms(x, t)
    while True:
        if weight > 1e-250:
            weight *= t / k
            factor += 2.0
        else:  # the exponent rounds by about ε(|k log t| + t + lgamma(k+1))
            rise, fall = (k * log_t if k else 0.0), t + math.lgamma(k + 1)
            weight = math.exp(rise - fall)
            factor = 1.0 + 2 * j + (abs(rise) + fall if weight else 0.0)
        term = coeff * weight
        total += term
        size += abs(term) * factor
        j += 1
        if a >= 0 and j > a:
            break
        coeff *= (j - 1 - a) / j
        if k + 1 > stop and abs(term) < 1e-18 * (abs(total) + 1e-300):
            break
        k += 1
    return total, size


def schutz_determinant(mu, nu, t: float) -> Result:
    """Single-species TASEP Green's function as an n x n determinant.

    Entry (k, i) is the one-dimensional residue integral with winding
    exponent k - i and displacement nu_i - mu_k, evaluated by series.  At
    n = 1 it is the free particle's Poisson probability.  est_err is
    ROUNDING times the permanent of the entries' sizes.  More than
    LEIBNIZ_CAP Leibniz terms and series terms are refused first.
    """
    check_rate(t, "t")
    mu, nu = strictly_ordered(mu, "mu"), strictly_ordered(nu, "nu")
    if len(nu) != len(mu):
        raise ValidationError("need len(nu) == len(mu)")
    n = len(mu)
    # n! Leibniz terms and the series terms of each entry with k < i
    work = math.factorial(n) + sum([max(_series_terms(y - x, t), 0) for k, x in enumerate(mu)
                                    for y in nu[k + 1:]])
    if work > LEIBNIZ_CAP:
        raise ResourceLimitError(f"{work:.0f} Leibniz terms and series terms exceed the "
                                 f"cap {LEIBNIZ_CAP}")
    det, per = _det_and_permanent(signed_permutations(n), [
        [_poisson_series_entry(k - i, nu[i] - mu[k], t) for i in range(n)] for k in range(n)])
    return _laurent(1.0, det, per)


def two_tasep_crossing(mu, nu, m: int, t: float) -> Result:
    """Total-crossing transition probability of the two-species TASEP.

    ``mu`` holds the initial positions with the m type-2 particles first
    (leftmost); ``nu`` the final positions with the type-2 particles last.
    It is the r = 2 total crossing of ``tasep_block_crossing``, the type-1
    block first, then the type-2 block; with one species (m = 0 or m = n)
    it is ``schutz_determinant``.
    """
    check_rate(t, "t")
    mu, nu, m = strictly_ordered(mu, "mu"), strictly_ordered(nu, "nu"), as_int(m, "m")
    if len(nu) != len(mu) or not 0 <= m <= len(mu):
        raise ValidationError("need len(nu) == len(mu) and 0 <= m <= len(mu)")
    k = len(mu) - m
    blocks = [(mu[m:][::-1], nu[:k][::-1]), (mu[:m][::-1], nu[k:][::-1])]
    return _tasep_blocks([b for b in blocks if b[0]] or blocks[:1], t)  # n = 0: one empty block


def _around_one(Z, q, t, powers, scale=None):
    """The factors shared by the integrands around 1, as a PairProduct the
    driver sums one variable at a time: for each z_j, exp((1-q)^2 z_j t /
    ((1-z_j)(1-q z_j))) ((1-q z_j)/(1-z_j))^powers[j] / ((1-z_j)(1-q z_j)),
    times scale[j] if given, and for each pair i < j (z_j - z_i)/(z_j - q z_i)."""
    factors, rate = {}, (1.0 - q) ** 2 * t
    for j, z in enumerate(Z):
        a, b = 1.0 - z, 1.0 - q * z
        ab = a * b
        factors[j,] = np.exp(rate * z / ab) * (b / a) ** powers[j] / ab
        if scale is not None:
            factors[j,] = factors[j,] * scale[j]
    for i in range(len(Z)):
        for j in range(i + 1, len(Z)):
            factors[i, j] = (Z[j] - Z[i]) / (Z[j] - q * Z[i])
    return PairProduct(len(Z), factors)


def r_asep_transition(mu, nu, q: float, t: float) -> Result:
    """Rainbow multi-species ASEP transition probability (all colours distinct).

    ``mu`` must be strictly decreasing; ``nu`` strict but unordered.  The
    integrand carries the vertex partition function evaluated at reflected
    arguments; all contours are one small circle around 1, clockwise in the
    formula, so the prefactor carries (-1)^n.  At
    q = 0 the partition function degenerates and only fully reversed final
    orders are supported (where the factorized limit applies).
    """
    check_rate(t, "t")
    check_rate(q, "q")
    mu = strictly_ordered(mu, "mu", decreasing=True)
    nu = [as_int(x, "nu") for x in nu]
    n = len(mu)
    if not n or len(set(nu)) != n:
        raise ValidationError("nu must have len(mu) >= 1 pairwise distinct parts")
    if q == 0:  # rainbow_total_crossing refuses a nu that is not increasing
        return rainbow_total_crossing(mu, nu, q, t)
    rq = q**-0.5

    def integrand(Z):
        out = _around_one(Z, q, t, mu, [(1.0 - q * z) / z for z in Z])
        return out * f_mu(nu, OpenGrid(rq / z for z in Z), q, rq)

    try:
        scale = (-1) ** n * (-rq) ** sum(nu)
    except OverflowError:
        raise AccuracyError(f"prefactor q^(-sum(nu)/2) overflows the float range "
                            f"at q={q:.3g}") from None
    contours = _around_one_contours(q, [min(0.2, abs(q - 1.0) / 3.0)] * n)
    return _integrate(integrand, contours, scale=scale)


def rainbow_total_crossing(mu, nu, q: float, t: float) -> Result:
    """Fully factorized total-crossing integral for n distinct colours.

    Requires mu strictly decreasing and nu strictly increasing.  The
    integrand depends on the data only through the differences mu_j - nu_j,
    which realizes the shift-invariance property exactly.  At q = 0 it is
    ``tasep_block_crossing`` with one colour per block.
    """
    check_rate(t, "t")
    check_rate(q, "q")
    mu, nu = strictly_ordered(mu, "mu", decreasing=True), strictly_ordered(nu, "nu")
    if not mu or len(nu) != len(mu):
        raise ValidationError("need len(nu) == len(mu) >= 1")
    if q == 0:
        return _tasep_blocks([((x,), (y,)) for x, y in zip(mu, nu)], t)
    n = len(mu)
    powers = [a - b for a, b in zip(mu, nu)]
    contours = _around_one_contours(q, [min(0.2, abs(q - 1.0) / 3.0)] * n)
    return _integrate(lambda Z: _around_one(Z, q, t, powers), contours, scale=(q - 1.0) ** n)


def block_crossing(query: CrossingQuery) -> Result:
    """Total crossing of colour blocks in the multi-species ASEP.

    The integration variables split into blocks matching the signature
    blocks; each block contributes its own symmetrized factor, so variables
    within a block ride on slightly different radii to stay clear of the
    apparent coincident-point poles of the permutation sum.  At q = 0 it is
    ``tasep_block_crossing``.
    """
    if query.q == 0:
        return tasep_block_crossing(query)
    mu_vec, lam_vec = query.initial, query.final
    q, t, n = query.q, query.t, mu_vec.n
    blocks = list(zip(_block_slices(mu_vec.sizes), mu_vec.blocks, lam_vec.blocks))
    rmax = 0.9 * min(0.25, abs(1.0 - q) / (1.0 + q), abs(1.0 - 1.0 / q))

    def integrand(Z):
        out = _around_one(Z, q, t, [0] * n)
        for b, block_mu, block_lam in blocks:
            out = out * (xi_mu(block_mu.parts, Z[b], q) * sfF_lambda(block_lam.parts, Z[b], q))
        return out

    lo, hi = 0.7 * rmax, rmax  # radii spread evenly over [lo, hi]
    radii = [0.5 * (lo + hi)] if n == 1 else [lo + (hi - lo) * k / (n - 1) for k in range(n)]
    return _integrate(integrand, _around_one_contours(q, radii), scale=(q - 1.0) ** n)


def tasep_block_crossing(query: CrossingQuery) -> Result:
    """Block total crossing at q = 0: one determinant per colour block."""
    if query.q != 0:
        raise ValidationError("this evaluator requires q = 0")
    return _tasep_blocks([(mu.parts, lam.parts) for mu, lam in
                          zip(query.initial.blocks, query.final.blocks)], query.t)


def _tasep_blocks(blocks, t: float) -> Result:
    """Total crossing at q = 0 of the colour ``blocks``, (initial parts,
    final parts) pairs, each decreasing, initial blocks rightmost first and
    final blocks leftmost first.  One block is ``schutz_determinant``.

    The integrand is e^(zt/(1-z)) per variable, det[z_j^(i-j-start)
    (1-z_j)^(lam_i-mu_j-1)] per block and prod (z_j - z_i) over the variables i
    of each block and j of each later one, on clockwise circles about 1, and
    ``_moment_determinants`` sums it exactly in y = 1/(1-z).
    """
    if len(blocks) == 1:
        return schutz_determinant(*(parts[::-1] for parts in blocks[0]), t)
    slices = _block_slices([len(mu) for mu, _ in blocks])
    n = slices[-1].stop
    pairs = [(j, i) for k, a in enumerate(slices) for b in slices[k + 1:]
             for i in range(a.start, a.stop) for j in range(b.start, b.stop)]
    rows = [[[(_variable(1, t, i - j - a.start, lam[i] - mu[j] - 1, n - len(mu)), 0, None)
              for i in range(len(mu))] for j in range(len(mu))]
            for a, (mu, lam) in zip(slices, blocks)]
    # (-1)^n for the clockwise circles, (-1)^n from the map to y
    return _moment_determinants(1.0, rows, _expand_pairs(n, pairs))


def cumulative_crossing_step(mu, m: int, s1: int, s2: int, t: float) -> Result:
    """Cumulative crossing probability for deterministic initial positions.

    ``mu`` is the full sorted initial vector with the m type-2 particles
    first.  Returns an exact 0 when the wall gap cannot accommodate the
    type-1 block; with no type-1 particles (m = n) the event does not
    involve s1, and no wall is infeasible.  On circles about the origin,
    the integrand is prod (w_j - z_i) times e^((1/z-1)t) z_i^(s2-1-mu_i)
    (1-z_i)^(i-n) and det[z_i^j] over m variables z_i, and e^((1/w-1)t)
    w_i^(s1-1-mu_(m+i)) (1-w_i)^(i-k) and det[w_i^j - w_i^(s2-s1)] over
    k = n - m variables w_i, summed exactly in x = 1/z by
    ``_moment_determinants``.
    """
    check_rate(t, "t")
    mu = strictly_ordered(mu, "mu")
    m, s1, s2 = as_int(m, "m"), as_int(s1, "s1"), as_int(s2, "s2")
    n = len(mu)
    if not 0 <= m <= n:
        raise ValidationError("need 0 <= m <= len(mu)")
    k = n - m
    if k and s2 - s1 < k:
        return Result(0.0, 0.0, "exact")
    z_block = [[(_variable(0, t, s2 - 1 - mu[i], i - n, k), -j, None) for j in range(m)]
               for i in range(m)]
    w_block = [[(_variable(0, t, s1 - 1 - mu[m + i], i - k, m), -j, s1 - s2)
                for j in range(k)] for i in range(k)]
    pairs = [(i, m + j) for i in range(m) for j in range(k)]  # prod (w_j - z_i)
    return _moment_determinants(1.0, [z_block, w_block], _expand_pairs(m + k, pairs))


def _variable(centre: int, t: float, e: int, b: int, pairs: int):
    """z^e (1-z)^b times e^((1/z-1)t) on a circle about 0 (centre 0), or times
    e^(zt/(1-z)) on one about 1 (centre 1), as the (RationalExpDescriptor,
    points) pair ``_moment_determinants`` reads: in x = 1/z its integral is
    the sum of the residues at x = 0, 1 of e^((x-1)t) x^(-e-b-2) (x-1)^b, in
    y = 1/(1-z) minus that of e^((y-1)t) y^(-e-b-2) (y-1)^e (the caller's
    scale carries the minus).  ``pairs`` more powers of 1/x (1/y) carry its
    share of the couplings, z_a - z_b = (x_b - x_a)/(x_a x_b) = (y_a - y_b)/(y_a y_b)."""
    factor = (1.0, e if centre else b)
    return RationalExpDescriptor(t, (factor, (0.0, -e - b - 2 - pairs))), (0.0, 1.0)


def _expand_pairs(nvars: int, pairs) -> dict:
    """The monomials of prod (x_a - x_b) over ``pairs`` (a, b) of nvars
    variables, as exponent tuple -> (coefficient, |coefficient|), without the
    ones that cancel; more than COUPLING_CAP pairs are refused first."""
    if len(pairs) > COUPLING_CAP:
        raise ResourceLimitError(f"{len(pairs)} coupled pairs exceed the cap {COUPLING_CAP}")
    poly = MultivariatePolynomial(nvars)
    for a, b in pairs:
        poly.multiply_linear({a: 1, b: -1})
    return {c: (v, abs(v)) for c, v in poly.items()}


def _det_and_permanent(perms, cells) -> tuple[complex, float]:
    """det of the values and permanent of the sizes of a square matrix of
    (value, size) ``cells``, in one Leibniz pass over ``signed_permutations``:
    the one determinant kernel.  Products and sums are formed out of place,
    so values on an OpenGrid block keep their broadcast shape and no k x k
    array is filled; (1.0, 1.0) for k = 0."""
    det, per = 0.0, 0.0
    for perm, sgn in perms:
        term, bound = sgn, 1.0
        for a, b in enumerate(perm):
            value, size = cells[a][b]
            term = term * value
            bound *= size
        det = det + term
        per += bound
    return det, per


def _moment(table, e: int, plus: int, minus: int | None) -> tuple[complex, float]:
    """One entry of ``_moment_determinants`` at the exponent e: (value, size)."""
    lo, moments, sizes = table
    a = e + plus - lo
    if minus is None:
        return moments[a], sizes[a]
    b = e + minus - lo
    return moments[a] - moments[b], sizes[a] + sizes[b]


def _moment_determinants(scale: float, blocks, terms: dict) -> Result:
    """scale·Σ_c v_c·prod_blocks det[M_ij(c_i)], the exact integral of
    Σ_c v_c x^c (``terms``: c -> (v_c, s_c)) times one determinant per block
    whose rows each depend on one variable; est_err is ROUNDING·|scale|·size,
    size = Σ_c s_c·prod_blocks per[S_ij(c_i)], which bounds every product
    the sum adds up, and an est_err of 1 or more is refused (AccuracyError).

    The rows of the ``blocks`` in order are the variables x_i.  An entry is
    (variable, plus, minus): a (RationalExpDescriptor, points) pair, whose
    moment table M, S (``residue_moments``) it reads at c_i + plus, less M at
    c_i + minus unless minus is None (the sizes add).  By multilinearity a
    monomial's integral is the product of its blocks' determinants, each
    computed once per exponent tuple of its block; more than LEIBNIZ_CAP
    Leibniz terms over all blocks are refused first (ResourceLimitError).
    """
    starts = list(itertools.accumulate(map(len, blocks), initial=0))
    leibniz = sum(len({c[s:s + len(b)] for c in terms}) * math.factorial(len(b))
                  for b, s in zip(blocks, starts))
    if leibniz > LEIBNIZ_CAP:
        raise ResourceLimitError(f"{leibniz} Leibniz terms exceed the cap {LEIBNIZ_CAP}")
    spans: dict = {}
    for i, row in enumerate(row for block in blocks for row in block):
        low, high = min(c[i] for c in terms), max(c[i] for c in terms)
        for variable, *offsets in row:
            offsets = [o for o in offsets if o is not None]
            lo, hi = spans.get(variable, (math.inf, -math.inf))
            spans[variable] = min(lo, low + min(offsets)), max(hi, high + max(offsets))
    tables = {v: (lo, *residue_moments(*v, lo, hi)) for v, (lo, hi) in spans.items()}
    parts = [(block, start, signed_permutations(len(block)), {})  # {exponents: (det, per)}
             for block, start in zip(blocks, starts)]
    total, size = 0.0 + 0.0j, 0.0
    for c, (v, s) in terms.items():
        det, per = 1.0, 1.0
        for block, start, perms, cache in parts:
            key = c[start:start + len(block)]
            if key not in cache:
                cache[key] = _det_and_permanent(perms, [
                    [_moment(tables[var], e, plus, minus) for var, plus, minus in row]
                    for row, e in zip(block, key)])
            det, per = det * cache[key][0], per * cache[key][1]
        total += v * det
        size += s * per
    return _laurent(scale, total, size)


def _laurent(scale: float, total, size: float) -> Result:
    """scale·total with est_err ROUNDING·|scale|·size, refused at 1 or more."""
    err = ROUNDING * abs(scale * size)
    if err >= 1.0:
        raise AccuracyError(f"residue terms of size {abs(scale * size):.3g} cancel: "
                            f"their rounding bound {err:.3g} spans all of [0, 1]")
    return _finalize_probability(complex(scale * total), err, "laurent")


def _andreief(scale: float, t: float, exponent: int, rho: float, s2: int, m: int, w=(),
              beta: int | None = None) -> Result:
    """The wall residue integral over m symmetric variables z_i and k = len(w)
    further variables w_j, by Andréief's identity.

    L_z maps z^p to the moment h_p, the residues at {0, 1, 1-rho} of
    e^((z-1)t) (z-1)^exponent z^(p-s2-m+1) / (z-1+rho).  Each of ``w`` is a
    (RationalExpDescriptor, points) pair, e^((z-1)t) prod (z-a)^e and its
    poles; L_w takes their residues (``_moment_determinants``, with the
    border det_k[w_i^(k-1-j) - w_i^beta], or 1 at k = 1 without ``beta``).  The
    integral (1/m!) L_z^m L_w[prod_{i != j} (z_j - z_i) prod_{i, j} (z_i - w_j)
    border(w)] equals (-1)^(m(m-1)/2) L_w[det_m[H_{a+b}(w)] border(w)], a, b < m:
    - prod_{i != j} (z_j - z_i) = (-1)^(m(m-1)/2) Δ(z)², Δ(z) = det[z_i^a];
    - prod_j (z - w_j) = Σ_r (-1)^r e_r(w) z^(k-r), e_r elementary symmetric;
    - Andréief, (1/m!) L_z^m[det[f_a(z_i)] det[g_b(z_i)]] = det[L_z(f_a g_b)]
      with f_a = z^a and g_b = z^b prod_j (z - w_j), gives the entries
      H_p(w) = Σ_r (-1)^r e_r(w) h_{p+k-r}.
    At k = 0 this is the Hankel determinant det[h_{a+b}].  Expanding each
    row of det_m[H] over the subsets T_a of the w's in e_r (multilinearity)
    leaves scalar determinants det[h_{a+b+k-|T_a|}] times (-1)^Σ|T_a| and the
    monomial prod_a w^(T_a); one determinant serves every choice with the
    same subset sizes, and its permanent of the sizes of h is their size.
    """
    k = len(w)
    # 2^(mk) row-subset choices, at most (k+1)^m determinants of m! terms
    leibniz = 2 ** (m * k) + (k + 1) ** m * math.factorial(m)
    if leibniz > LEIBNIZ_CAP:
        raise ResourceLimitError(f"{leibniz} row-subset choices and Leibniz terms exceed "
                                 f"the cap {LEIBNIZ_CAP}")
    z = RationalExpDescriptor(t, ((1.0, exponent), (1.0 - rho, -1), (0.0, -s2 - m + 1)))
    h, hs = residue_moments(z, (0.0, 1.0, 1.0 - rho), 0, 2 * m + k - 2) if m else ((), ())
    perms = signed_permutations(m)
    terms: dict[tuple[int, ...], tuple[complex, float]] = {}
    if m == 1:  # one row: its subset T is the monomial, its 1 x 1 det h[k - |T|]
        for row in itertools.product((0, 1), repeat=k):
            r = sum(row)
            terms[row] = (-h[k - r] if r % 2 else h[k - r], hs[k - r])
    else:
        dets: dict[tuple[int, ...], tuple[complex, float]] = {}
        for rows in itertools.product(itertools.product((0, 1), repeat=k), repeat=m):
            shift = tuple(k - sum(row) for row in rows)  # row a reads h[a + b + shift[a]]
            if shift not in dets:
                dets[shift] = _det_and_permanent(perms, [
                    [(h[a + b + shift[a]], hs[a + b + shift[a]]) for b in range(m)]
                    for a in range(m)])
            det, per = dets[shift]
            key = tuple(map(sum, zip(*rows, (0,) * k)))
            value, size = terms.get(key, (0.0, 0.0))
            terms[key] = (value + (-det if (m * k - sum(shift)) % 2 else det), size + per)
    border = [[(v, k - 1 - j, beta) for j in range(k)] for v in w]
    return _moment_determinants(scale * (-1) ** (m * (m - 1) // 2), [border] if w else [],
                                terms)


def cumulative_crossing_bernoulli(query: WallQuery, form: str = "inverted") -> Result:
    """Cumulative crossing with density-rho initial data for type 2.

    ``form='direct'`` integrates around the origin by quadrature;
    ``form='inverted'`` works in reflected variables where the integrand is
    rational-times-exponential and all residues are extracted exactly.  Both
    forms agree to quadrature accuracy.  An infeasible wall (fewer than
    n - m sites in [s1, s2); never at m = n) is an exact 0.
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
            w_part = 1.0
            for i in range(k):
                w_part = w_part * (np.exp((1.0 / W[i] - 1.0) * t) * W[i] ** (s1 - 1 - i)
                                   / (1.0 - W[i]) ** (k - i))
            for i in range(m):
                for j in range(k):
                    w_part = w_part * (W[j] - Z[i])
            det = _det_and_permanent(signed_permutations(k), [
                [(W[i] ** j - W[i] ** (s2 - s1), 0.0) for j in range(k)] for i in range(k)])[0]
            return out * (w_part * det)

        return _integrate(integrand, _origin_contours(m, k, W_RADIUS),
                          scale=rho**m / math.factorial(m))
    # inverted form: m symmetric variables z, then k variables w_i, coupled
    # by prod (z_i - w_j) and bordered by det[w_i^(k-1-j) - w_i^beta]
    w = [(RationalExpDescriptor(t, ((1.0, i - k), (0.0, -s1 - m))), (0.0, 1.0))
         for i in range(k)]
    return _andreief(rho**m, t, -n, rho, s2, m, w, k + s1 - s2 - 1)


def cumulative_crossing_one_wall(query: WallQuery) -> Result:
    """Cumulative crossing when the lower wall is irrelevant (s1 <= -m).

    The type-1 integrals collapse to one variable w, so the value is the
    (m+1)-fold residue integral
    (-1)^(m+1) rho^m/m! L_z^m L_w[prod_{i != j} (z_j - z_i) prod_i (w - z_i)],
    the sign (-1)^(m+1) coming from the successive residue evaluation of
    the type-1 block.  With prod_i (w - z_i) = (-1)^m prod_i (z_i - w) it is
    ``_andreief`` with k = 1 and scale -rho^m, i.e.
    -(-1)^(m(m-1)/2) rho^m L_w[det_m[h_{a+b+1} - w h_{a+b}]] over the
    moments h of z, one Andréief determinant (the collapsed and the
    Cauchy-Binet forms of the paper are this one determinant).  The collapse
    needs at least one type-1 particle, so n = m is refused; the value is
    tested against cumulative_crossing_bernoulli, within the two est_errs,
    for m up to 4.
    """
    if query.s1 > -query.m:
        raise ValidationError(
            "one-wall evaluator requires s1 <= -m; use the general form"
        )
    if query.n == query.m:
        raise ValidationError(
            "one-wall evaluator requires n > m; use cumulative_crossing_bernoulli"
        )
    if not query.feasible:
        return Result(0.0, 0.0, "exact")
    n, m, rho, t = query.n, query.m, query.rho, query.t
    s2 = query.s2
    w = (RationalExpDescriptor(t, ((1.0, -1), (0.0, n - 2 * m - s2 - 1))), (0.0,))
    return _andreief(-(rho**m), t, -(m + 1), rho, s2, m, [w])


def gamma_wall(n: int, s: int, t: float) -> Result:
    """Probability that all n step-start particles (at 1..n) pass the wall s.

    Shifted by -n, the particles fill 1-n..0, Bernoulli data at rho = 1: it
    is ``cumulative_crossing_bernoulli`` with m = n and s2 = s - n - 1, the
    Hankel determinant (-1)^(n(n-1)/2) det[h_{a+b}] of ``_andreief`` with
    k = 0, and ``cumulative_crossing_step(range(1, n + 1), n, s, s, t)``
    without Andréief's identity.  At t = 0 it is an exact 0.
    """
    n, s = as_int(n, "n"), as_int(s, "s")
    if s <= n:
        raise ValidationError("gamma_wall requires s > n")
    check_rate(t, "t")
    if t == 0:
        return Result(0.0, 0.0, "exact")
    return _andreief(1.0, t, -n, 1.0, s - n - 1, n)
