"""Runnable numerical checks of the algebraic mechanics behind the formulas.

Each check samples random spectral points on annuli that keep a safety
margin from every declared pole locus, evaluates both sides of one
identity, and reports the worst relative error (denominator max(1, |rhs|)).
The collection doubles as a self-test suite reachable from the CLI.  The
u-sum checks evaluate ``formulas.u_sum_determinant`` (looked up on the
module at each call), the u-sum of ``eigenfunction_P``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import formulas
from .core import ParticleConfig, ValidationError, as_int, as_seed, signed_permutations
from .formulas import GreenQuery, eigenfunction_P, two_tasep_green
from .quadrature import ContourProduct, ContourSpec, product_integrate

POLE_MARGIN = 0.05
TIME_STEP = 1e-3  # check_free_evolution's central-difference step h
PROBE_RADIUS = 0.02  # check_removable_poles' circle about each probed pole
INITIAL_SPAN = 2  # check_initial_condition's window: mu_i - 1 .. mu_i + this
NESTED_TRUNCATION = 400  # check_nested_geometric's window T per nesting level


@dataclass(frozen=True)
class IdentityReport:
    name: str
    samples: int
    max_rel_err: float
    threshold: float
    details: str = ""

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.threshold


def _rel_err(lhs, rhs) -> float:
    return float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))))


def _sample_points(rng, count, lo=0.25, hi=0.9, avoid=(1.0,)):
    """Random complex points on an annulus, min separation from poles/each other."""
    pts = []
    while len(pts) < count:
        r = rng.uniform(lo, hi)
        th = rng.uniform(0, 2 * math.pi)
        z = r * math.cos(th) + 1j * r * math.sin(th)
        if any(abs(z - a) < POLE_MARGIN for a in avoid):
            continue
        if any(abs(z - w) < POLE_MARGIN for w in pts):
            continue
        pts.append(z)
    return np.array(pts)


def check_free_evolution(nu, p, t, z, u) -> IdentityReport:
    """Central-difference time derivative against the lattice generator action.

    Requires well-separated coordinates; reports the error at step
    h = TIME_STEP and confirms second-order decay at h/2.
    """
    nu = [as_int(x, "nu") for x in nu]
    if any(b - a < 2 for a, b in zip(nu, nu[1:])):
        raise ValidationError("free evolution check needs nu_{i+1} - nu_i >= 2")
    n = len(nu)
    rhs = -n * eigenfunction_P(nu, p, t, z, u)
    for i in range(n):
        shifted = list(nu)
        shifted[i] -= 1
        rhs = rhs + eigenfunction_P(shifted, p, t, z, u)
    resids = []
    errs = []
    for step in (TIME_STEP, TIME_STEP / 2):
        lhs = (
            eigenfunction_P(nu, p, t + step, z, u)
            - eigenfunction_P(nu, p, t - step, z, u)
        ) / (2 * step)
        resids.append(lhs - rhs)
        errs.append(_rel_err(lhs, rhs))
    # second-order scheme: Richardson extrapolation cancels the O(h^2) term,
    # so a surviving residual signals a genuine identity violation
    extrapolated = (4.0 * resids[1] - resids[0]) / 3.0
    err = float(np.max(np.abs(extrapolated)) / max(1.0, np.max(np.abs(rhs))))
    order_ok = errs[1] < 0.4 * errs[0] or errs[0] < 1e-11
    return IdentityReport(
        "free_evolution",
        1,
        err if order_ok else float("inf"),
        threshold=1e-8,
        details=f"err(h)={errs[0]:.3e} err(h/2)={errs[1]:.3e}",
    )


def check_boundary_conditions(nu, l, p, z, u) -> IdentityReport:
    """One of the three contact relations at a coordinate collision.

    ``nu`` must satisfy nu[l] == nu[l-1] (1-based l selects the pair); the
    case is inferred from the membership pattern of l and l+1 in p.
    """
    nu, l = [as_int(x, "nu") for x in nu], as_int(l, "l")
    p = tuple(as_int(x, "p") for x in p)
    if nu[l] != nu[l - 1]:
        raise ValidationError("boundary check needs nu_{l+1} == nu_l")
    in_l = l in p
    in_l1 = (l + 1) in p
    base = eigenfunction_P(nu, p, 0.3, z, u)
    bumped = list(nu)
    bumped[l] += 1
    if in_l and not in_l1:
        case = "first"
        resid = base
        scale = 1.0
    elif not in_l and in_l1:
        case = "second"
        p_swapped = tuple(sorted(set(p) - {l + 1} | {l}))
        resid = (
            base
            - eigenfunction_P(bumped, p_swapped, 0.3, z, u)
            - eigenfunction_P(bumped, p, 0.3, z, u)
        )
        scale = max(1.0, float(np.max(np.abs(base))))
    else:
        case = "third"
        resid = base - eigenfunction_P(bumped, p, 0.3, z, u)
        scale = max(1.0, float(np.max(np.abs(base))))
    err = float(np.max(np.abs(resid))) / scale
    return IdentityReport(f"boundary_{case}", 1, err, threshold=1e-12)


def check_u_factorization(z, u, perm) -> IdentityReport:
    """Factorized form of the symmetrized u-sum when type 2 ends rightmost."""
    z = np.asarray(z, dtype=complex)
    u = np.asarray(u, dtype=complex)
    n, m = len(z), len(u)
    p = [n - m + j for j in range(1, m + 1)]
    zp = z[list(perm)]
    lhs = np.prod((1 - u) ** np.arange(1, m + 1)) * formulas.u_sum_determinant(p, u, zp)
    rhs = 1.0 + 0.0j
    for i in range(m):
        for j in range(n - m):
            rhs *= u[i] - zp[j]
    for i in range(m):
        for j in range(i + 1, m):
            rhs *= u[i] - u[j]
    for i in range(m):
        rhs /= (1 - u[i]) ** (m - (i + 1))
    for i in range(1, m):
        rhs *= (zp[n - m + i - 1] - 1) ** (m - i)
    return IdentityReport("u_factorization", 1, _rel_err(lhs, rhs), threshold=1e-10)


def _u_sum_with_poles(p, z, perm, u_values, substituted=0, identity_term=False):
    """Symmetrized u-part of the transition integrand at fixed z and perm.

    ``u_values`` is an (m, M) array.  The first ``substituted`` variables
    are taken to sit at their residue points u_i = z_i, so their consumed
    simple-pole factor is omitted.  ``identity_term`` keeps only the
    identity permutation's term of the sum, for the negative control.
    """
    z = np.asarray(z, dtype=complex)
    m = len(p)
    U = np.asarray(u_values, dtype=complex).reshape(m, -1)
    zp = z[list(perm)]
    if identity_term:  # its (1 - U_i) powers cancel
        out = 1.0
        for i in range(m):
            for j in range(p[i] - 1):
                out = out * (U[i] - zp[j])
    else:
        out = formulas.u_sum_determinant(p, U, zp)
        for i in range(m):
            out = out * (1 - U[i]) ** (i + 1)
    for i in range(m):
        for j in range(i + 1):
            if i < substituted and j == i:
                continue
            out = out / (U[i] - z[j])
    return out


def check_removable_poles(n, m, rng) -> IdentityReport:
    """Contour probes of the symmetrized integrand around each u_k = z_l.

    After taking residues u_i = z_i for i < k, the probe integral on the
    circle of radius PROBE_RADIUS around z_l (l < k) must vanish once the
    permutation sum is complete.  The negative control keeps a single
    permutation term on a configuration whose numerator does not vanish at
    the probed pole; its probe residue must be visibly nonzero.
    """
    z = _sample_points(rng, n, lo=0.3, hi=0.7)
    p = sorted(rng.choice(np.arange(1, n + 1), size=m, replace=False).tolist())
    perm = tuple(rng.permutation(n).tolist())
    worst = 0.0
    cases = 0

    def probe(pp, zz, pm, k, l, generic, identity_term=False):
        mm = len(pp)

        def with_probe(w):
            U = np.empty((mm, len(w)), dtype=complex)
            for i in range(mm):
                if i + 1 < k:
                    U[i] = zz[i]
                elif i + 1 == k:
                    U[i] = w
                else:
                    U[i] = generic[i]
            return _u_sum_with_poles(
                pp, zz, pm, U, substituted=k - 1, identity_term=identity_term
            )

        contour = ContourProduct((ContourSpec(complex(zz[l - 1]), PROBE_RADIUS),))
        return product_integrate(lambda W: with_probe(W[0]), contour)[0]

    for k in range(2, m + 1):
        for l in range(1, k):
            generic = _sample_points(rng, m, lo=0.75, hi=0.9, avoid=[1.0] + list(z))
            worst = max(worst, abs(probe(p, z, perm, k, l, generic)))
            cases += 1
    # control: p = (1, 2), first slot of perm not colour 1, so the probed
    # pole u_2 = z_1 survives in each single term and only the sum kills it
    ctrl_p = [1, 2]
    ctrl_perm = tuple([1, 0] + list(range(2, n)))
    ctrl_generic = _sample_points(rng, 2, lo=0.75, hi=0.9, avoid=[1.0] + list(z))
    single = probe(ctrl_p, z, ctrl_perm, 2, 1, ctrl_generic, identity_term=True)
    control_ok = abs(single) > 1e-8
    details = f"single-term control residue {abs(single):.3e}"
    if not control_ok:
        worst = float("inf")
    return IdentityReport(
        "removable_poles", cases, worst, threshold=1e-10, details=details
    )


def _nested_geometric_sum(z, s2, truncation) -> complex:
    """Truncated nested sum of z_1^nu_1 ... z_m^nu_m.

    The sum runs over s2 <= nu_1 < s2 + T and nu_l < nu_{l+1} <= nu_l + T
    (T = ``truncation``).  Its inner sums are evaluated from the last level
    outwards: g_l(x) = sum_{v=x}^{x+T-1} z_l^v g_{l+1}(v+1), with g_m = 1, on
    every x that level l can reach; each window sum is a difference of
    suffix sums, so a level costs O(m T) operations instead of T^(m-l).
    """
    z = np.asarray(z, dtype=complex)
    T = truncation
    g = np.ones(len(z) * (T - 1) + 1, dtype=complex)
    for level in range(len(z) - 1, -1, -1):
        h = z[level] ** np.arange(s2 + level, s2 + (level + 1) * T) * g
        suffix = np.append(np.cumsum(h[::-1])[::-1], 0.0)
        g = suffix[:-T] - suffix[T:]
    return complex(g[0])


def check_nested_geometric(z, s2) -> IdentityReport:
    """Nested geometric sum, truncated at T = NESTED_TRUNCATION, against its
    product form."""
    z = np.asarray(z, dtype=complex)
    m = len(z)
    for i in range(m):
        if abs(np.prod(z[i:])) >= 1.0:
            raise ValidationError("nested geometric sum diverges for these z")
    lhs = _nested_geometric_sum(z, s2, NESTED_TRUNCATION)
    rhs = 1.0 + 0.0j
    for i in range(m):
        rhs *= z[i] ** (s2 + i) / (1 - np.prod(z[i:]))
    return IdentityReport(
        "nested_geometric", 1, _rel_err(lhs, rhs), threshold=1e-10
    )


def check_symmetrization(z, s2, rho) -> IdentityReport:
    """Permutation-sum symmetrization identities behind the wall formulas.

    Checks the Vandermonde form, the wall-exponent form at ``s2`` and the
    variant weighted by the density ``rho``.
    """
    z = np.asarray(z, dtype=complex)
    m = len(z)
    vand = 1.0 + 0.0j
    for i in range(m):
        for j in range(i + 1, m):
            vand *= z[j] - z[i]
    suffix = lambda zs, i: 1 - np.prod(zs[i:])
    # per form: the factor of z_sigma(i), the denominator at step i, the
    # right side; prod_{i<j} (z_i - z_j) is (-1)^(m(m-1)/2) vand
    forms = [
        (lambda zi, i: zi**i * (1 - zi) ** (m - i), suffix, vand),
        (lambda zi, i: zi ** (s2 + i) / (1 - zi) ** (i + 1), suffix,
         vand * np.prod(z**s2 / (z - 1) ** (m + 1))),
        (lambda zi, i: ((1 - zi) / zi) ** (i + 1),
         lambda zs, i: 1 - (1 - rho) * np.prod(zs[:i + 1]),
         (-1) ** (m * (m - 1) // 2) * vand * np.prod((1 - z) / (z**m * (1 - (1 - rho) * z)))),
    ]
    worst = 0.0
    for factor, denom, rhs in forms:
        lhs = 0.0 + 0.0j
        for perm, sgn in signed_permutations(m):
            zs = z[list(perm)]
            term = complex(sgn)
            for i in range(m):
                term *= factor(zs[i], i)
                term /= denom(zs, i)
            lhs += term
        worst = max(worst, _rel_err(lhs, rhs))
    return IdentityReport("symmetrization", 1, worst, threshold=1e-10)


def check_initial_condition(mu_cfg: ParticleConfig) -> IdentityReport:
    """Green's function at t = 0 against the Kronecker delta over the window
    mu_i - 1 .. mu_i + INITIAL_SPAN of each particle."""
    n, m = mu_cfg.n, mu_cfg.m
    mu = mu_cfg.positions
    worst = 0.0
    count = 0
    lo = [x - 1 for x in mu]
    hi = [x + INITIAL_SPAN for x in mu]
    for pos in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        if any(b <= a for a, b in zip(pos, pos[1:])):
            continue
        for p in itertools.combinations(range(1, n + 1), m):
            nu_cfg = ParticleConfig.from_two_species(pos, p)
            expected = 1.0 if (pos == mu and p == mu_cfg.type2_indices) else 0.0
            worst = max(worst, abs(two_tasep_green(GreenQuery(mu_cfg, nu_cfg, 0.0)) - expected))
            count += 1
    return IdentityReport("initial_condition", count, worst, threshold=1e-8)


def _worst(reports) -> IdentityReport:
    """The report with the largest max_rel_err, the first one on a tie."""
    return max(reports, key=lambda rep: rep.max_rel_err)


def run_identity_suite(seed: int = 20240601, samples: int = 100) -> list[IdentityReport]:
    """Run every check at default sampling; the machine-checkable proof shadow.
    ``seed``, an integer in [0, 2**64), seeds the sampled points."""
    seed = as_seed(seed)
    samples = as_int(samples, "samples")
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    reports = [_worst(
        check_free_evolution([0, 2, 5], [2], 0.4, _sample_points(rng, 3, lo=0.3, hi=0.7),
                             _sample_points(rng, 1, lo=0.75, hi=0.9))
        for _ in range(max(1, samples // 20))
    )]

    boundary = []
    for _ in range(samples):
        z = _sample_points(rng, 3, lo=0.3, hi=0.7)
        for l, p in ((1, (1,)), (1, (2,)), (2, (1,)), (1, (1, 2))):
            u = _sample_points(rng, len(p), lo=0.75, hi=0.9)
            nu = [0, 0, 3] if l == 1 else [0, 2, 2]
            boundary.append(check_boundary_conditions(nu, l, p, z, u))
    for name in dict.fromkeys(rep.name for rep in boundary):
        reports.append(_worst(rep for rep in boundary if rep.name == name))

    factorization = []
    for _ in range(samples):
        n, m = 4, int(rng.integers(1, 4))
        z = _sample_points(rng, n, lo=0.3, hi=0.7)
        u = _sample_points(rng, m, lo=0.75, hi=0.9)
        factorization.append(check_u_factorization(z, u, tuple(rng.permutation(n).tolist())))
    reports.append(_worst(factorization))

    reports.append(_worst(check_removable_poles(4, m, rng) for m in (2, 3)))

    nested = []
    for _ in range(max(1, samples // 10)):
        m = int(rng.integers(1, 4))
        z = _sample_points(rng, m, lo=0.2, hi=0.65)
        nested.append(check_nested_geometric(z, int(rng.integers(-2, 4))))
    reports.append(_worst(nested))

    symmetrization = []
    for _ in range(samples):
        m = int(rng.integers(1, 4))
        z = _sample_points(rng, m, lo=0.25, hi=0.8)
        symmetrization.append(check_symmetrization(
            z, s2=int(rng.integers(0, 5)), rho=float(rng.uniform(0.2, 0.9))))
    reports.append(_worst(symmetrization))

    for positions, type2 in (((0, 1), (1,)), ((-1, 1), (2,))):
        reports.append(check_initial_condition(ParticleConfig.from_two_species(positions, type2)))
    return reports
