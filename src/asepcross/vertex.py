"""Coloured vertex weights, partition functions and their integral identities.

Paths of colours 1..n travel up-right (L weights) or up-left (M weights) on
a square grid; horizontal edges hold at most one path, vertical edges hold a
nonnegative occupation vector.  The partition functions f_mu and G_mu/nu
are contracted column by column (respectively row by row) over the
sparse set of reachable edge states, never by path enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, ValidationError, signed_permutations
from .quadrature import (
    ContourProduct,
    ContourSpec,
    OpenGrid,
    product_integrate,
    spectral_rows,
)

MIN_POINT_SEPARATION = 1e-8
WEIGHT_CHECK_TOTAL = 2  # stochastic_weights_check covers occupation totals up to this
SUM_TOL = 1e-12  # a stochastic weight family sums to 1 within this
CONTOUR_MARGIN = 0.05  # relative clearance of admissible circles from s and 1/s


def _as_state(vec) -> tuple[int, ...]:
    state = tuple(int(x) for x in vec)
    if any(x < 0 for x in state):
        raise ValidationError("colour occupation numbers must be nonnegative")
    return state


def _spectral_point(z, s):
    """``z`` as a complex scalar (a 0-d input included) or a complex array,
    refused at the pole s*z = 1.  A Python or NumPy scalar skips the array
    calls: the partition functions ask for one weight per vertex."""
    if isinstance(z, (complex, float, int)) or not np.ndim(z):
        z = complex(z)
        at_pole = abs(s * z - 1.0) < 1e-14
    else:
        z = np.asarray(z, dtype=complex)
        at_pole = np.any(np.abs(s * z - 1.0) < 1e-14)
    if at_pole:
        raise ConfigurationError("vertex weight has a pole at s*z = 1")
    return z


def _vertex(I, j, K, l, z, q, s, leftward):
    """The validated state ``I`` and spectral point ``z`` of one vertex, and
    whether it conserves paths (I + e_j = K + e_l); a leftward vertex
    refuses s = 0 or q = 0."""
    I = _as_state(I)
    K = _as_state(K)
    n = len(I)
    if len(K) != n or not (0 <= j <= n) or not (0 <= l <= n):
        raise ValidationError("inconsistent vertex state dimensions")
    if leftward and (s == 0 or q == 0):
        raise ConfigurationError("leftward weights require nonzero s and q")
    z = _spectral_point(z, s)
    lhs = list(I)
    if j >= 1:
        lhs[j - 1] += 1
    rhs = list(K)
    if l >= 1:
        rhs[l - 1] += 1
    return I, z, lhs == rhs


def weight_L(I, j, K, l, z, q, s):
    """Vertex weight for rightward travel; zero unless I + e_j = K + e_l.

    ``z`` may be a complex scalar or ndarray; ``q`` and ``s`` are scalars.
    With colours 1-based, sum(I[c:]) counts the paths of colours above c.
    """
    I, z, conserved = _vertex(I, j, K, l, z, q, s, False)
    if not conserved:
        return np.zeros_like(z) if isinstance(z, np.ndarray) else 0.0 + 0.0j
    denom = 1.0 - s * z
    if j == 0 and l == 0:
        num = 1.0 - s * z * q ** sum(I)
    elif j == l:
        num = (z - s * q ** I[j - 1]) * q ** sum(I[j:])
    elif j == 0:
        num = z * (1.0 - q ** I[l - 1]) * q ** sum(I[l:])
    elif l == 0:
        num = 1.0 - s * s * q ** sum(I)
    elif j < l:
        num = z * (1.0 - q ** I[l - 1]) * q ** sum(I[l:])
    else:
        num = s * (1.0 - q ** I[l - 1]) * q ** sum(I[l:])
    return num / denom


def weight_M(I, j, K, l, z, q, s):
    """Vertex weight for leftward travel.

    Equals (-s)^(1[j>=1] - 1[l>=1]) * weight_L at inverted (z, q, s); the
    table below is that substitution simplified, which stays finite at z = 0
    (the substitution form has a removable singularity there).
    """
    I, z, conserved = _vertex(I, j, K, l, z, q, s, True)
    if not conserved:
        return np.zeros_like(z) if isinstance(z, np.ndarray) else 0.0 + 0.0j
    qi = 1.0 / q
    denom = s * z - 1.0
    if j == 0 and l == 0:
        num = s * z - qi ** sum(I)
    elif j == l:
        num = (s - z * qi ** I[j - 1]) * qi ** sum(I[j:])
    elif j == 0:
        num = -(1.0 - qi ** I[l - 1]) * qi ** sum(I[l:])
    elif l == 0:
        num = -z * (s * s - qi ** sum(I))
    elif j < l:
        num = s * (1.0 - qi ** I[l - 1]) * qi ** sum(I[l:])
    else:
        num = z * (1.0 - qi ** I[l - 1]) * qi ** sum(I[l:])
    return num / denom


def out_states(I, j):
    """All (K, l) reachable from (I, j) under path conservation."""
    I = _as_state(I)
    total = list(I)
    if j >= 1:
        total[j - 1] += 1
    outs = [(tuple(total), 0)]
    for c in range(1, len(I) + 1):
        if total[c - 1] >= 1:
            K = list(total)
            K[c - 1] -= 1
            outs.append((tuple(K), c))
    return outs


@dataclass(frozen=True)
class StochasticityReport:
    family: str
    cases: int
    max_deviation: float
    min_weight: float

    @property
    def sums_ok(self) -> bool:
        return self.max_deviation < SUM_TOL

    @property
    def positive(self) -> bool:
        return self.min_weight >= 0.0


def stochastic_weights_check(
    n: int,
    z: complex,
    q: complex,
    s: complex,
    perturb: float = 1.0,
) -> tuple[StochasticityReport, StochasticityReport]:
    """Verify sum-to-unity of the gauged L and M weights over all out-states
    of every occupation vector of length n and total at most
    WEIGHT_CHECK_TOTAL.

    ``perturb`` scales the colour-preserving pass-through entry and exists as
    a negative control: any value != 1 must break the sums.
    """
    states = [I for I in itertools.product(range(WEIGHT_CHECK_TOTAL + 1), repeat=n)
              if sum(I) <= WEIGHT_CHECK_TOTAL]
    reports = []
    for family in ("L", "M"):
        max_dev = 0.0
        min_w = np.inf
        cases = 0
        for I in states:
            for j in range(n + 1):
                total = 0.0 + 0.0j
                for K, l in out_states(I, j):
                    if family == "L":
                        w = weight_L(I, j, K, l, z, q, s) * (-s) ** (1 if l >= 1 else 0)
                    else:
                        w = weight_M(I, j, K, l, z, q, s) * (-s) ** (
                            -1 if j >= 1 else 0
                        )
                    if perturb != 1.0 and j == l and j >= 1:
                        w = w * perturb
                    total += complex(w)
                    min_w = min(min_w, complex(w).real)
                cases += 1
                max_dev = max(max_dev, abs(total - 1.0))
        reports.append(
            StochasticityReport(family, cases, max_dev, float(min_w))
        )
    return tuple(reports)


def _exit_vector(parts, column):
    """Which of the paths ending at ``parts`` leave at ``column``."""
    return tuple(1 if p == column else 0 for p in parts)


def _f_mu_nonneg(mu, Z, q, s):
    """Partition function for nonnegative mu by column-transfer contraction.

    ``Z`` holds the n rows of spectral points.  A column's path weights are
    multiplied among themselves before they meet the incoming amplitude,
    paths that miss the column's exit vector stop at the top row, and each
    distinct vertex weight is computed once per call.
    """
    n = len(mu)
    weights = {}
    states = {tuple(range(1, n + 1)): 1.0}
    for column in range(max(mu) + 1 if mu else 0):
        target = _exit_vector(mu, column)
        new_states: dict[tuple[int, ...], np.ndarray] = {}
        for h, amp in states.items():
            # contract the n vertices of this column from bottom to top
            frontier = [((0,) * n, (), 1.0)]
            for row in range(n):
                nxt = []
                for v, labels, w in frontier:
                    for K, lout in out_states(v, h[row]):
                        if row == n - 1 and K != target:
                            continue
                        key = (row, v, h[row], K, lout)
                        if key not in weights:
                            weights[key] = weight_L(v, h[row], K, lout, Z[row], q, s)
                        nxt.append((K, labels + (lout,), w * weights[key]))
                frontier = nxt
            for _, labels, w in frontier:
                w = amp * w
                if labels in new_states:
                    new_states[labels] = new_states[labels] + w
                else:
                    new_states[labels] = w
        states = new_states
        if not states:
            return 0.0
    return states.get((0,) * n, 0.0)


def f_mu(mu, z, q, s):
    """Partition function f_mu(z_1..z_n; q, s), extended to integer parts.

    Negative parts are rebased through the stability relation: shifting all
    parts by k multiplies the value by prod_i ((z_i-s)/(1-s*z_i))^k.
    """
    mu = [int(x) for x in mu]
    n = len(mu)
    Z, finish = spectral_rows(z, n)
    shift = max(0, -min(mu)) if mu else 0
    val = _f_mu_nonneg([m + shift for m in mu], Z, q, s)
    if shift:
        ratio = 1.0
        for i in range(n):
            ratio = ratio * ((1.0 - s * Z[i]) / (Z[i] - s)) ** shift
        val = val * ratio
    return finish(val)


def G_mu_nu(mu, nu, ys, q, s):
    """Skew partition function G_mu/nu with leftward travel over len(ys) rows.

    Zero unless mu_i >= nu_i componentwise; an empty alphabet gives the
    Kronecker delta.
    """
    mu = [int(x) for x in mu]
    nu = [int(x) for x in nu]
    if len(mu) != len(nu):
        raise ValidationError("mu and nu must have equal length")
    ys = list(ys)
    if not ys:
        return 1.0 + 0.0j if mu == nu else 0.0 + 0.0j
    if any(a < b for a, b in zip(mu, nu)):
        return 0.0 + 0.0j
    n = len(mu)
    lo, hi = min(nu), max(mu)
    columns = list(range(lo, hi + 1))
    states = {tuple(_exit_vector(mu, c) for c in columns): 1.0 + 0.0j}
    for y in ys:
        new_states: dict[tuple, complex] = {}
        for state, amp in states.items():
            # sweep the row right to left; horizontal label enters as 0
            frontier = [(0, (), amp)]
            for idx in range(len(columns) - 1, -1, -1):
                I = state[idx]
                nxt = []
                for jin, tops, w in frontier:
                    for K, lout in out_states(I, jin):
                        wt = weight_M(I, jin, K, lout, y, q, s)
                        if wt == 0:
                            continue
                        nxt.append((lout, (K,) + tops, w * wt))
                frontier = nxt
            for lout, tops, w in frontier:
                if lout != 0:
                    continue
                key = tops
                new_states[key] = new_states.get(key, 0.0) + w
        states = new_states
    return states.get(tuple(_exit_vector(nu, c) for c in columns), 0.0 + 0.0j)


def _symmetrize(X, pair, ratio, lam):
    """Sum over sigma in S_n of prod_{i<j} pair(X_sigma(i), X_sigma(j)) *
    prod_i ratio[sigma(i)]^lam_i; coincident points are refused."""
    n = len(lam)
    for i in range(n):
        for j in range(i + 1, n):
            if np.min(np.abs(X[i] - X[j])) < MIN_POINT_SEPARATION:
                raise ConfigurationError(
                    "coincident spectral parameters in symmetrized sum; perturb them"
                )
    total = 0.0
    for perm, _ in signed_permutations(n):
        term = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                term = term * pair(X[perm[i]], X[perm[j]])
        for i in range(n):
            term = term * ratio[perm[i]] ** lam[i]
        total = total + term
    return total


def sfF_lambda(lam, u, q):
    """Permutation sum F_lambda over a strict signature (Hall-Littlewood type)."""
    lam = [int(x) for x in lam]
    if any(b >= a for a, b in zip(lam, lam[1:])):
        raise ValidationError("lambda must be strictly decreasing")
    U, finish = spectral_rows(u, len(lam))
    return finish(_symmetrize(U, lambda a, b: (b - q * a) / (b - a),
                              [(1.0 - x) / (1.0 - q * x) for x in U], lam))


def xi_mu(mu, u, q):
    """prod_j ((1 - q u_j)/(1 - u_j))^(mu_j)."""
    mu = [int(x) for x in mu]
    U, finish = spectral_rows(u, len(mu))
    out = 1.0
    for j, m in enumerate(mu):
        out = out * ((1.0 - q * U[j]) / (1.0 - U[j])) ** m
    return finish(out)


def admissible_contours(q, s, n: int, enclose=()):
    """Nested origin-centered circles admissible for (q, s).

    Each circle surrounds s (and every point in ``enclose``) and none
    surrounds 1/s, with a relative clearance of CONTOUR_MARGIN, and both
    C_i and q*C_i fit inside C_{i+1}.  Raises when no such radii exist for
    origin-centered circles.
    """
    s_abs = abs(s)
    if s_abs == 0:
        raise ConfigurationError("admissible contours need s != 0")
    q_abs = max(abs(q), 1.0)
    inner_floor = max([s_abs] + [abs(p) for p in enclose]) * (1.0 + CONTOUR_MARGIN)
    outer_cap = (1.0 / s_abs) * (1.0 - CONTOUR_MARGIN)
    radii = [max(2.0 * s_abs, inner_floor * 1.05)]
    growth = 1.25 * q_abs
    for _ in range(n - 1):
        radii.append(radii[-1] * growth)
    if radii[-1] >= outer_cap:
        if n == 1:
            radii = [0.5 * (inner_floor + outer_cap)]
        else:
            growth = (outer_cap / inner_floor) ** (1.0 / (n - 1))
            if growth <= q_abs * (1.0 + 1e-9):
                raise ConfigurationError(
                    f"no admissible origin-centered circles for q={q}, s={s}, n={n}"
                )
            radii = [inner_floor * growth**k for k in range(n)]
    if radii[0] <= inner_floor / (1.0 + CONTOUR_MARGIN) or radii[-1] > outer_cap + 1e-12:
        raise ConfigurationError(
            f"no admissible origin-centered circles for q={q}, s={s}, n={n}"
        )
    return [ContourSpec(center=0.0, radius=r) for r in radii]


def discrete_transition(mu, nu, ys, q, s):
    """Integral formula for the discrete-time transition weight.

    ``mu`` must be weakly decreasing.  Equals (-s)^(|nu|-|mu|) G_mu/nu(ys)
    and is cross-checked against the lattice contraction in the test suite.
    """
    mu = [int(x) for x in mu]
    nu = [int(x) for x in nu]
    n = len(mu)
    if any(b > a for a, b in zip(mu, mu[1:])):
        raise ValidationError("mu must be weakly decreasing")
    ys = list(ys)
    ell = len(ys)
    if ell == 0:
        return 1.0 if mu == nu else 0.0
    contours = admissible_contours(q, s, n, enclose=ys)

    def integrand(Z):
        out = 1.0
        for i in range(n):
            single = ((Z[i] - s) / (1.0 - s * Z[i])) ** mu[i] / (Z[i] * (1.0 - s * Z[i]))
            for yi in ys:
                single = single * ((Z[i] - q * yi) / (Z[i] - yi))
            out = out * single
        for i in range(n):
            for j in range(i + 1, n):
                out = out * ((Z[j] - Z[i]) / (Z[j] - q * Z[i]))
        return out * f_mu(nu, OpenGrid(1.0 / z for z in Z), q, s)

    value, _ = product_integrate(integrand, ContourProduct(tuple(contours)))
    weight_diff = sum(nu) - sum(mu)
    return complex((-s) ** weight_diff * q ** (-float(ell * n)) * value)
