"""Coloured vertex weights, partition functions and their integral identities.

Paths of colours 1..n travel up-right (L weights) or up-left (M weights) on
a square grid; horizontal edges hold at most one path, vertical edges hold a
nonnegative occupation vector.  The partition functions f_mu, g*_mu and
G_mu/nu are contracted column by column (respectively row by row) over the
sparse set of reachable edge states, never by path enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    ValidationError,
    FACTORIAL_CAP,
    inversions,
    signed_permutations,
)
from .quadrature import (
    ContourProduct,
    ContourSpec,
    OpenGrid,
    batched_det,
    product_integrate,
    spectral_rows,
)

MIN_POINT_SEPARATION = 1e-8


def _as_state(vec) -> tuple[int, ...]:
    state = tuple(int(x) for x in vec)
    if any(x < 0 for x in state):
        raise ValidationError("colour occupation numbers must be nonnegative")
    return state


def _tail_sum(I, start):
    # sum of I[start:], with colours 1-based: tail strictly above colour `start`
    return sum(I[start:])


def weight_L(I, j, K, l, z, q, s):
    """Vertex weight for rightward travel; zero unless I + e_j = K + e_l.

    ``z`` may be a complex scalar or ndarray; ``q`` and ``s`` are scalars.
    """
    I = _as_state(I)
    K = _as_state(K)
    n = len(I)
    if len(K) != n or not (0 <= j <= n) or not (0 <= l <= n):
        raise ValidationError("inconsistent vertex state dimensions")
    if np.any(np.abs(np.asarray(s) * np.asarray(z) - 1.0) < 1e-14):
        raise ConfigurationError("vertex weight has a pole at s*z = 1")
    lhs = list(I)
    if j >= 1:
        lhs[j - 1] += 1
    rhs = list(K)
    if l >= 1:
        rhs[l - 1] += 1
    zero = np.zeros_like(np.asarray(z, dtype=complex))
    if lhs != rhs:
        return zero if np.ndim(z) else 0.0 + 0.0j
    z = np.asarray(z, dtype=complex) if np.ndim(z) else complex(z)
    denom = 1.0 - s * z
    if j == 0 and l == 0:
        num = 1.0 - s * z * q ** _tail_sum(I, 0)
    elif j == l:
        num = (z - s * q ** I[j - 1]) * q ** _tail_sum(I, j)
    elif j == 0:
        num = z * (1.0 - q ** I[l - 1]) * q ** _tail_sum(I, l)
    elif l == 0:
        num = 1.0 - s * s * q ** _tail_sum(I, 0)
    elif j < l:
        num = z * (1.0 - q ** I[l - 1]) * q ** _tail_sum(I, l)
    else:
        num = s * (1.0 - q ** I[l - 1]) * q ** _tail_sum(I, l)
    return num / denom


def weight_M(I, j, K, l, z, q, s):
    """Vertex weight for leftward travel.

    Equals (-s)^(1[j>=1] - 1[l>=1]) * weight_L at inverted (z, q, s); the
    table below is that substitution simplified, which stays finite at z = 0
    (the substitution form has a removable singularity there).
    """
    I = _as_state(I)
    K = _as_state(K)
    n = len(I)
    if len(K) != n or not (0 <= j <= n) or not (0 <= l <= n):
        raise ValidationError("inconsistent vertex state dimensions")
    if s == 0 or q == 0:
        raise ConfigurationError("leftward weights require nonzero s and q")
    if np.any(np.abs(np.asarray(s) * np.asarray(z) - 1.0) < 1e-14):
        raise ConfigurationError("vertex weight has a pole at s*z = 1")
    lhs = list(I)
    if j >= 1:
        lhs[j - 1] += 1
    rhs = list(K)
    if l >= 1:
        rhs[l - 1] += 1
    zero = np.zeros_like(np.asarray(z, dtype=complex))
    if lhs != rhs:
        return zero if np.ndim(z) else 0.0 + 0.0j
    z = np.asarray(z, dtype=complex) if np.ndim(z) else complex(z)
    qi = 1.0 / q
    denom = s * z - 1.0
    if j == 0 and l == 0:
        num = s * z - qi ** _tail_sum(I, 0)
    elif j == l:
        num = (s - z * qi ** I[j - 1]) * qi ** _tail_sum(I, j)
    elif j == 0:
        num = -(1.0 - qi ** I[l - 1]) * qi ** _tail_sum(I, l)
    elif l == 0:
        num = -z * (s * s - qi ** _tail_sum(I, 0))
    elif j < l:
        num = s * (1.0 - qi ** I[l - 1]) * qi ** _tail_sum(I, l)
    else:
        num = z * (1.0 - qi ** I[l - 1]) * qi ** _tail_sum(I, l)
    return num / denom


def weight_M_stochastic(I, j, K, l, y, q):
    """Stochastic leftward weight: M at z = y/sqrt(q), s = 1/sqrt(q), gauged."""
    rq = q ** -0.5
    gauge = (-(q**0.5)) if j >= 1 else 1.0
    return gauge * weight_M(I, j, K, l, rq * y, q, rq)


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
    tol: float = 1e-12

    @property
    def sums_ok(self) -> bool:
        return self.max_deviation < self.tol

    @property
    def positive(self) -> bool:
        return self.min_weight >= 0.0


def stochastic_weights_check(
    n: int,
    z: complex,
    q: complex,
    s: complex,
    max_total: int = 2,
    perturb: float = 1.0,
) -> tuple[StochasticityReport, StochasticityReport]:
    """Verify sum-to-unity of the gauged L and M weights over all out-states.

    ``perturb`` scales the colour-preserving pass-through entry and exists as
    a negative control: any value != 1 must break the sums.
    """

    def states_upto(bound):
        # occupation vectors of length n with sum <= bound
        def rec(prefix, remaining, slots):
            if slots == 0:
                yield tuple(prefix)
                return
            for k in range(remaining + 1):
                yield from rec(prefix + [k], remaining - k, slots - 1)

        seen = set()
        for tot in range(bound + 1):
            for st in rec([], tot, n):
                if st not in seen:
                    seen.add(st)
                    yield st

    reports = []
    for family in ("L", "M"):
        max_dev = 0.0
        min_w = np.inf
        cases = 0
        for I in states_upto(max_total):
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


def _column_exit_vector(mu, column):
    return tuple(1 if m == column else 0 for m in mu)


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
        target = _column_exit_vector(mu, column)
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


def pochhammer(a, q, m: int):
    """(a; q)_m = prod_{k=1}^{m} (1 - a q^(k-1))."""
    out = 1.0 + 0.0j
    for k in range(m):
        out *= 1.0 - a * q**k
    return out


def g_star_mu(mu, z, q, s):
    """Dual function g*_mu, the orthogonality partner of f_mu."""
    mu = [int(x) for x in mu]
    n = len(mu)
    Z, finish = spectral_rows(z, n)
    mult: dict[int, int] = {}
    for m in mu:
        mult[m] = mult.get(m, 0) + 1
    poch = 1.0 + 0.0j
    for count in mult.values():
        poch *= pochhammer(s**-2, 1.0 / q, count)
    if abs(poch) < 1e-300:
        raise ConfigurationError("Pochhammer factor vanishes for these (q, s)")
    pref = q ** inversions(mu) / poch
    scale = 1.0
    for i in range(n):
        scale = scale * (-s * Z[i]) ** -1
    val = f_mu(mu[::-1], OpenGrid(1.0 / x for x in Z[::-1]), 1.0 / q, 1.0 / s)
    return finish(pref * scale * val)


def _boundary_vectors(parts, columns):
    return {c: tuple(1 if p == c else 0 for p in parts) for c in columns}


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
    bottom = _boundary_vectors(mu, columns)
    top = _boundary_vectors(nu, columns)
    state0 = tuple(bottom[c] for c in columns)
    states = {state0: 1.0 + 0.0j}
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
    target = tuple(top[c] for c in columns)
    return states.get(target, 0.0 + 0.0j)


def _symmetrize(X, pair, ratio, lam, cap):
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
    for perm, _ in signed_permutations(n, cap):
        term = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                term = term * pair(X[perm[i]], X[perm[j]])
        for i in range(n):
            term = term * ratio[perm[i]] ** lam[i]
        total = total + term
    return total


def F_lambda_sym(lam, z, q, s, cap: int = FACTORIAL_CAP):
    """Symmetric rational function F_lambda (weakly decreasing lambda)."""
    lam = [int(x) for x in lam]
    if any(b > a for a, b in zip(lam, lam[1:])):
        raise ValidationError("lambda must be weakly decreasing")
    n = len(lam)
    Z, finish = spectral_rows(z, n)
    mult: dict[int, int] = {}
    for m in lam:
        mult[m] = mult.get(m, 0) + 1
    pref = (1.0 - q) ** n
    for count in mult.values():
        pref *= pochhammer(s * s, q, count) / pochhammer(q, q, count)
    denom = 1.0
    for i in range(n):
        denom = denom * (1.0 - s * Z[i])
    total = _symmetrize(Z, lambda a, b: (a - q * b) / (a - b),
                        [(x - s) / (1.0 - s * x) for x in Z], lam, cap)
    return finish(pref / denom * total)


def sfF_lambda(lam, u, q, cap: int = FACTORIAL_CAP):
    """Permutation sum F_lambda over a strict signature (Hall-Littlewood type)."""
    lam = [int(x) for x in lam]
    if any(b >= a for a, b in zip(lam, lam[1:])):
        raise ValidationError("lambda must be strictly decreasing")
    U, finish = spectral_rows(u, len(lam))
    return finish(_symmetrize(U, lambda a, b: (b - q * a) / (b - a),
                              [(1.0 - x) / (1.0 - q * x) for x in U], lam, cap))


def sfF_lambda_det0(lam, u):
    """q = 0 determinant form of sfF_lambda, Vandermonde-normalized.  The
    determinant is a Leibniz sum, so len(lam) above the factorial cap is refused."""
    lam = [int(x) for x in lam]
    N = len(lam)
    U, finish = spectral_rows(u, N)
    dets = batched_det(N, lambda i, j: U[j] ** i * (1.0 - U[j]) ** lam[i])
    vand = 1.0
    for i in range(N):
        for j in range(i + 1, N):
            vand = vand * (U[j] - U[i])
    return finish(dets / vand)


def xi_mu(mu, u, q):
    """prod_j ((1 - q u_j)/(1 - u_j))^(mu_j)."""
    mu = [int(x) for x in mu]
    U, finish = spectral_rows(u, len(mu))
    out = 1.0
    for j, m in enumerate(mu):
        out = out * ((1.0 - q * U[j]) / (1.0 - U[j])) ** m
    return finish(out)


def admissible_contours(q, s, n: int, enclose=(), margin: float = 0.05):
    """Nested origin-centered circles admissible for (q, s).

    Each circle surrounds s (and every point in ``enclose``), none surrounds
    1/s, and both C_i and q*C_i fit inside C_{i+1}.  Raises when no such
    radii exist for origin-centered circles.
    """
    s_abs = abs(s)
    if s_abs == 0:
        raise ConfigurationError("admissible contours need s != 0")
    q_abs = max(abs(q), 1.0)
    inner_floor = max([s_abs] + [abs(p) for p in enclose]) * (1.0 + margin)
    outer_cap = (1.0 / s_abs) * (1.0 - margin)
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
    if radii[0] <= inner_floor / (1.0 + margin) or radii[-1] > outer_cap + 1e-12:
        raise ConfigurationError(
            f"no admissible origin-centered circles for q={q}, s={s}, n={n}"
        )
    return [ContourSpec(center=0.0, radius=r) for r in radii]


def orthogonality_check(mu, nu, q, s, radii=None, tol: float = 1e-8):
    """Evaluate the biorthogonality integral of f_nu against g*_mu.

    Returns the complex value of the n-fold contour integral, which equals 1
    when mu == nu and 0 otherwise.
    """
    mu = [int(x) for x in mu]
    nu = [int(x) for x in nu]
    n = len(mu)
    if len(nu) != n:
        raise ValidationError("mu and nu must have equal length")
    if radii is None:
        contours = admissible_contours(q, s, n)
    else:
        contours = [ContourSpec(center=0.0, radius=r) for r in radii]

    def integrand(Z):
        out = 1.0
        for i in range(n):
            out = out / Z[i]
            for j in range(i + 1, n):
                out = out * ((Z[j] - Z[i]) / (Z[j] - q * Z[i]))
        return out * (f_mu(nu, OpenGrid(1.0 / z for z in Z), q, s) * g_star_mu(mu, Z, q, s))

    value, _ = product_integrate(integrand, ContourProduct(tuple(contours)), tol=tol)
    return value


@dataclass(frozen=True)
class CauchyReport:
    lhs: complex
    rhs: complex
    tail_bound: float

    @property
    def within_bound(self) -> bool:
        return abs(self.lhs - self.rhs) <= self.tail_bound


def cauchy_check(nu, z, y, q, s, truncation: int = 20) -> CauchyReport:
    """Truncated Cauchy summation of f_kappa * G_kappa/nu against its product form.

    The kappa sum runs over the box nu_i <= kappa_i <= nu_i + truncation; the
    reported tail bound is a geometric estimate from the outermost shell.
    """
    nu = [int(x) for x in nu]
    n = len(nu)
    z = np.asarray(z, dtype=complex).reshape(-1)
    y = np.asarray(y, dtype=complex).reshape(-1)
    if z.size != n:
        raise ValidationError("need one z per component of nu")
    ratios = []
    for yi in y:
        for zj in z:
            ratios.append(
                abs((yi - s) / (1.0 - s * yi) * (zj - s) / (1.0 - s * zj))
            )
    r = max(ratios) if ratios else 0.0
    if r >= 1.0:
        raise ConfigurationError(
            "Cauchy summation does not converge for these parameters"
        )
    lhs = 0.0 + 0.0j
    shell_max = 0.0
    offsets = np.ndindex(*([truncation + 1] * n))
    for off in offsets:
        kappa = [nu[i] + off[i] for i in range(n)]
        term = f_mu(kappa, z, q, s) * G_mu_nu(kappa, nu, y, q, s)
        lhs += term
        if max(off) == truncation:
            shell_max = max(shell_max, abs(term))
    rhs = q ** (-float(len(y) * n))
    prod = 1.0 + 0.0j
    for yi in y:
        for zj in z:
            prod *= (1.0 - q * yi * zj) / (1.0 - yi * zj)
    rhs = rhs * prod * f_mu(nu, z, q, s)
    tail = 0.0
    if r > 0:
        geom = 0.0
        for j in range(1, 10000):
            inc = (truncation + 1 + j) ** max(n - 1, 0) * r**j
            geom += inc
            if inc < 1e-30:
                break
        tail = 4.0 * n * shell_max * geom
    # rounding floor: the terms themselves carry relative error
    tail += 1e-13 * (abs(lhs) + abs(rhs) + 1.0)
    return CauchyReport(lhs, complex(rhs), float(tail))


def discrete_transition(mu, nu, ys, q, s, tol: float = 1e-10):
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

    value, _ = product_integrate(integrand, ContourProduct(tuple(contours)), tol=tol)
    weight_diff = sum(nu) - sum(mu)
    return complex((-s) ** weight_diff * q ** (-float(ell * n)) * value)
