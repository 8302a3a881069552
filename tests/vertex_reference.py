"""Vertex-model identity checks and helpers that only the tests call.

The biorthogonality integral of f_mu against its dual g*_mu, the truncated
Cauchy summation of f_kappa * G_kappa/nu against its product form and the
symmetric rational function F_lambda check the identities the rainbow
formulas rest on; ``inversions`` and ``pochhammer`` serve g*_mu and
F_lambda, and ``default_window`` sizes the oracle tests' windows.  No
evaluator, CLI command or benchmark case calls any of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from asepcross.core import ConfigurationError, ResourceLimitError, ValidationError
from asepcross.quadrature import ContourProduct, OpenGrid, product_integrate, spectral_rows
from asepcross.vertex import G_mu_nu, _symmetrize, admissible_contours, f_mu

ORTHOGONALITY_TOL = 1e-8  # quadrature tolerance of orthogonality_check
CAUCHY_TERM_FLOOR = 1e-16  # cauchy_check sums kappa until r^T falls below this
CAUCHY_MAX_TERMS = 20_000  # the largest kappa box cauchy_check sums


def inversions(mu) -> int:
    """Number of pairs i < j with mu_i < mu_j (direct double loop)."""
    mu = list(mu)
    return sum(
        1
        for i in range(len(mu))
        for j in range(i + 1, len(mu))
        if mu[i] < mu[j]
    )


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


def F_lambda_sym(lam, z, q, s):
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
                        [(x - s) / (1.0 - s * x) for x in Z], lam)
    return finish(pref / denom * total)


def orthogonality_check(mu, nu, q, s):
    """Evaluate the biorthogonality integral of f_nu against g*_mu.

    Returns the complex value of the n-fold contour integral over the
    ``admissible_contours`` for (q, s), which equals 1 when mu == nu and 0
    otherwise, to the quadrature tolerance ORTHOGONALITY_TOL.
    """
    mu = [int(x) for x in mu]
    nu = [int(x) for x in nu]
    n = len(mu)
    if len(nu) != n:
        raise ValidationError("mu and nu must have equal length")
    contours = admissible_contours(q, s, n)

    def integrand(Z):
        out = 1.0
        for i in range(n):
            out = out / Z[i]
            for j in range(i + 1, n):
                out = out * ((Z[j] - Z[i]) / (Z[j] - q * Z[i]))
        return out * (f_mu(nu, OpenGrid(1.0 / z for z in Z), q, s) * g_star_mu(mu, Z, q, s))

    value, _ = product_integrate(integrand, ContourProduct(tuple(contours)),
                                 tol=ORTHOGONALITY_TOL)
    return value


@dataclass(frozen=True)
class CauchyReport:
    lhs: complex
    rhs: complex
    tail_bound: float

    @property
    def within_bound(self) -> bool:
        return abs(self.lhs - self.rhs) <= self.tail_bound


def cauchy_check(nu, z, y, q, s) -> CauchyReport:
    """Truncated Cauchy summation of f_kappa * G_kappa/nu against its product form.

    The terms decay like r^|kappa - nu|, r the largest |(y-s)/(1-sy) *
    (z-s)/(1-sz)| over the pairs of y and z, so the kappa sum runs over the
    box nu_i <= kappa_i <= nu_i + T with T = ceil(ln CAUCHY_TERM_FLOOR / ln r)
    (T = 0 when r = 0), where r^T is below CAUCHY_TERM_FLOOR.  A box of
    more than CAUCHY_MAX_TERMS kappa is refused with ResourceLimitError.
    The reported tail bound is a geometric estimate from the outermost shell.
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
    truncation = math.ceil(math.log(CAUCHY_TERM_FLOOR) / math.log(r)) if r > 0 else 0
    if (truncation + 1) ** n > CAUCHY_MAX_TERMS:
        raise ResourceLimitError(
            f"Cauchy summation needs {truncation + 1}^{n} terms at decay ratio {r:.3g}, "
            f"above the cap {CAUCHY_MAX_TERMS}"
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


def default_window(mu_positions, t, nu_positions=None, q: float = 0.0):
    """Window heuristic: right margin ceil(t + 4 sqrt t) + 2, left symmetric
    under the backhop rate.  Callers inspect the sink mass and widen."""
    spread = math.ceil(4.0 * math.sqrt(max((1.0 + q) * t, 0.0)))
    right_anchor = max(nu_positions) if nu_positions else max(mu_positions)
    lo = min(mu_positions) - math.ceil(q * t) - spread - 3
    hi = right_anchor + math.ceil(t) + spread + 3
    return (lo, hi)
