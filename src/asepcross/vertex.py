"""Coloured vertex weights, partition functions and their integral identities.

Paths of colours 1..n travel up-right (L weights) or up-left (M weights) on
a square grid; horizontal edges hold at most one path, vertical edges hold a
nonnegative occupation vector.  The partition functions f_mu (row by row
along a plan memoized per parts, or column by column for long
parts) and G_mu/nu (row by row) are contracted over the sparse set of
reachable edge states, never by path enumeration.  Every vertex weight is
(a + b*z)/(1 - s*z) or its leftward counterpart, from one coefficient table.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, ValidationError, as_int, signed_permutations, strictly_ordered
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
# f_mu: one move of the row sweep costs about as much as one vertex of the
# column sweep on this many grid points (measured on 17 x 32 x 32 grids)
ROW_MOVE_POINTS = 2**10


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


def _check_leftward(q, s):
    if s == 0 or q == 0:
        raise ConfigurationError("leftward weights require nonzero s and q")


def _coefficients(I, j, l, q, s):
    """The pair (a, b) of the rightward weight (a + b*z)/(1 - s*z) at a vertex
    that conserves paths (I + e_j = K + e_l); ``I`` is a tuple of occupation
    numbers.  With colours 1-based, sum(I[c:]) counts the paths of colours
    above c."""
    if l == 0:
        return (1.0, -s * q ** sum(I)) if j == 0 else (1.0 - s * s * q ** sum(I), 0.0)
    tail = q ** sum(I[l:])
    if j == l:
        return -s * q ** I[j - 1] * tail, tail
    c = (1.0 - q ** I[l - 1]) * tail
    return (s * c, 0.0) if j > l else (0.0, c)


def _weight_L(I, j, l, z, q, s):
    a, b = _coefficients(I, j, l, q, s)
    return (a + b * z) / (1.0 - s * z)


def _weight_M(I, j, l, z, q, s):
    """The leftward weight, (-s)^(1[j>=1] - 1[l>=1]) times the rightward one
    at (1/z, 1/q, 1/s): the L pair at (1/q, 1/s) swapped, which stays
    finite at z = 0."""
    b, a = _coefficients(I, j, l, 1.0 / q, 1.0 / s)
    return s * (-s) ** ((j >= 1) - (l >= 1)) * (a + b * z) / (s * z - 1.0)


def _out_states(I, j):
    """All (K, l) reachable from (I, j) under path conservation."""
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
    n = as_int(n, "n")
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    z = _spectral_point(z, s)
    _check_leftward(q, s)
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
                for _, l in _out_states(I, j):
                    if family == "L":
                        w = _weight_L(I, j, l, z, q, s) * (-s) ** (l >= 1)
                    else:
                        w = _weight_M(I, j, l, z, q, s) * (-s) ** -(j >= 1)
                    if perturb != 1.0 and j == l and j >= 1:
                        w = w * perturb
                    total += w
                    min_w = min(min_w, w.real)
                cases += 1
                max_dev = max(max_dev, abs(total - 1.0))
        reports.append(
            StochasticityReport(family, cases, max_dev, float(min_w))
        )
    return tuple(reports)


def _exit_vector(parts, column):
    """Which of the paths ending at ``parts`` leave at ``column``."""
    return tuple(1 if p == column else 0 for p in parts)


def _rows(Z, s):
    """Each row's spectral points and 1/(1 - s*z), refused at s*z = 1."""
    return [(z, 1.0 / (1.0 - s * z)) for z in (_spectral_point(z, s) for z in Z)]


def _f_mu_columns(mu, rows, q, s):
    """f_mu for nonnegative mu by column-transfer contraction.

    A column's path weights are multiplied among themselves before they meet
    the incoming amplitude, paths that miss the column's exit vector stop
    at the top row, and each distinct vertex weight is computed once.
    """
    n = len(mu)
    weights = {}
    states = {tuple(range(1, n + 1)): 1.0}
    for column in range(max(mu) + 1):
        target = _exit_vector(mu, column)
        new_states: dict[tuple[int, ...], np.ndarray] = {}
        for h, amp in states.items():
            # contract the n vertices of this column from bottom to top
            frontier = [((0,) * n, (), 1.0)]
            for row, (z, inv) in enumerate(rows):
                nxt = []
                for v, labels, w in frontier:
                    for K, lout in _out_states(v, h[row]):
                        if row == n - 1 and K != target:
                            continue
                        key = (row, v, h[row], lout)
                        if key not in weights:
                            a, b = _coefficients(v, h[row], lout, q, s)
                            weights[key] = (a + b * z) * inv
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


def _row_moves(pos, mu, top, ids):
    """The ways through row r = len(pos) of the f_mu lattice.

    Colour r + 1 enters from the left and colour c <= r from below at column
    pos[c - 1]; each colour c leaves upward at a column of at most mu_c
    (exactly mu_c on the ``top`` row).  Returns (new_pos, factors) pairs:
    ``factors`` names the row's non-empty vertices by their index in
    ``ids``, which maps ((I, j, l), count) to an index and grows as new
    ones turn up; a run of one colour over empty columns is one entry.
    """
    n = len(mu)
    below: dict[int, list[int]] = {}
    for c, x in enumerate(pos, start=1):
        below.setdefault(x, []).append(c)
    cols = sorted(below)
    occupation = [tuple(1 if c in below[x] else 0 for c in range(1, n + 1)) for x in cols]
    empty = (0,) * n
    moves = []

    def factor(key, count):
        return ids.setdefault((key, count), len(ids))

    def walk(k, x, j, placed, factors):
        # columns x..cols[k] - 1 are empty below; colour j (or none) rides in
        y = cols[k] if k < len(cols) else None
        if j:
            cap = mu[j - 1]
            last = cap if y is None else min(cap, y - 1)
            for e in (cap,) if top else range(x, last + 1):
                if x <= e <= last:  # j leaves upward at the empty column e
                    run = (factor((empty, j, j), e - x),) if e > x else ()
                    walk(k, e + 1, 0, placed + ((j, e),),
                         factors + run + (factor((empty, j, 0), 1),))
            if y is None or y > cap:
                return
            if y > x:
                factors = factors + (factor((empty, j, j), y - x),)
        elif y is None:
            new = [0] * (len(pos) + 1)
            for c, e in placed:
                new[c - 1] = e
            moves.append((tuple(new), factors))
            return
        here = below[y] + [j] if j else below[y]
        for l in [0] + here:
            if l and mu[l - 1] <= y:
                continue  # l could not leave upward right of y
            up = [c for c in here if c != l]
            if top and any(mu[c - 1] != y for c in up):
                continue
            walk(k + 1, y + 1, l, placed + tuple((c, y) for c in up),
                 factors + (factor((occupation[k], j, l), 1),))

    walk(0, 0, len(pos) + 1, (), ())
    return moves


def _row_plan(mu, cap):
    """Each row of the f_mu lattice from the bottom as (factor keys, moves),
    the moves (pos, new_pos, factors) indexing the keys; None if the moves
    number more than ``cap``.  One read-only plan per parts serves every cap
    at or above its move count; a build dropped at a cap is redone only for
    a larger one."""
    entry = _memo_row_plan(tuple(mu))
    if entry[0] is None and cap > entry[1]:
        entry[:] = _build_row_plan(tuple(mu), cap)
    return entry[0] if entry[1] <= cap else None


# parts -> [their plan, its move count] or [None, the largest cap a build dropped at]
_memo_row_plan = functools.lru_cache(maxsize=64)(lambda mu: [None, -1])


def _build_row_plan(mu, cap):
    """(plan, move count), or (None, cap) once the moves number more than ``cap``."""
    n = len(mu)
    # the states after row r < n - 1 put colour c <= r + 1 at any column up
    # to mu_c, and each is reached by at least one move
    if sum(math.prod(m + 1 for m in mu[:k]) for k in range(1, n)) > cap:
        return None, cap
    plan, states, count = [], [()], 0
    for r in range(n):
        ids: dict = {}
        moves = []
        for pos in states:
            for new_pos, factors in _row_moves(pos, mu, r == n - 1, ids):
                moves.append((pos, new_pos, factors))
            if count + len(moves) > cap:
                return None, cap
        count += len(moves)
        plan.append((list(ids), moves))
        states = list(dict.fromkeys(new_pos for _, new_pos, _ in moves))
    return plan, count


def _f_mu_by_rows(plan, rows, q, s):
    """f_mu by row-transfer contraction along ``plan``.

    Row r's weights vary with z_r only, so on an OpenGrid the amplitudes
    after row r span axes 0..r and only the top row meets the whole grid,
    in one matrix product of the states' amplitudes with their top-row
    weights.
    """
    if not plan:
        return 1.0
    amps = {(): 1.0}
    for r, ((z, inv), (keys, moves)) in enumerate(zip(rows, plan)):
        top = r == len(plan) - 1
        weights = []
        for (I, j, l), count in keys:
            a, b = _coefficients(I, j, l, q, s)
            w = (a + b * z) * inv
            weights.append(w if count == 1 else w ** count)
        new: dict[tuple[int, ...], np.ndarray] = {}
        for pos, new_pos, factors in moves:
            w = weights[factors[0]]
            for i in factors[1:]:
                w = w * weights[i]
            # the top row's weights stay apart, by incoming state
            k, w = (pos, w) if top else (new_pos, amps[pos] * w)
            new[k] = new[k] + w if k in new else w
        if not top:
            amps = new
    return _contract([amps[k] for k in new], list(new.values()))


def _contract(amps, tops):
    """sum_k amps[k] * tops[k]; one batched matrix product when the
    amplitudes are constant along the last axis and the top-row weights
    vary along it only (an OpenGrid), broadcasting otherwise.

    The product's rows are cut into equal pieces of m*n*k <= 2^15 + n*k,
    zero-padded: OpenBLAS splits complex products of m*n*k >= 2^16 across
    threads (with a second thread a (544, 16) @ (16, 32) product took 8 ms
    instead of 0.05 ms on a busy two-core host), and a one-row remainder
    would go through gemv, which rounds its row unlike its mirror image
    under conjugation.
    """
    if not amps:
        return 0.0
    shapes_a, shapes_t = {np.shape(a) for a in amps}, {np.shape(t) for t in tops}
    sa, st = shapes_a.pop(), shapes_t.pop()
    if (shapes_a or shapes_t or len(sa) != len(st) or len(sa) < 2 or sa[-1] != 1
            or math.prod(st) != st[-1]):
        total = 0.0
        for a, t in zip(amps, tops):
            total = total + a * t
        return total
    S, P, L = len(amps), math.prod(sa), st[-1]
    pieces = -(-P * S * L // 2**15)
    step = -(-P // pieces)
    A = np.zeros((S, pieces * step), dtype=complex)
    A[:, :P] = np.reshape(amps, (S, P))
    out = A.T.reshape(pieces, step, S) @ np.reshape(tops, (S, L))
    return out.reshape(-1, L)[:P].reshape(sa[:-1] + (L,))


def f_mu(mu, z, q, s):
    """Partition function f_mu(z_1..z_n; q, s), extended to integer parts.

    Row r of the lattice carries z_r, so on an OpenGrid a row-by-row sweep
    keeps the amplitudes after row r on axes 0..r and only the top row
    meets the whole grid.  Its moves grow with the product of the parts,
    while a column-by-column sweep meets the whole grid at each of the
    n * (max(mu) + 1) vertices: the rows are taken when their moves, counted
    before any weight is computed, number at most n * (max(mu) + 1) *
    points / ROW_MOVE_POINTS, else the columns.  Negative parts are rebased
    through the stability relation: shifting all parts by k multiplies the
    value by prod_i ((z_i-s)/(1-s*z_i))^k.  The row plans are memoized per
    rebased parts, so each is built once for all the caps of an integral's
    blocks, and repeated calls build none.
    """
    mu = [as_int(x, "mu") for x in mu]
    n = len(mu)
    Z, finish = spectral_rows(z, n)
    shift = max(0, -min(mu)) if mu else 0
    mu = [m + shift for m in mu]
    rows = _rows(Z, s)
    points = math.prod(np.broadcast_shapes(*(np.shape(z) for z, _ in rows)))
    cap = n * (max(mu, default=-1) + 1) * points // ROW_MOVE_POINTS
    plan = _row_plan(mu, cap)
    val = _f_mu_columns(mu, rows, q, s) if plan is None else _f_mu_by_rows(plan, rows, q, s)
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
    mu = [as_int(x, "mu") for x in mu]
    nu = [as_int(x, "nu") for x in nu]
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
    _check_leftward(q, s)
    states = {tuple(_exit_vector(mu, c) for c in columns): 1.0 + 0.0j}
    for y in ys:
        y = _spectral_point(y, s)
        weights = {}
        new_states: dict[tuple, complex] = {}
        for state, amp in states.items():
            # sweep the row right to left; horizontal label enters as 0
            frontier = [(0, (), amp)]
            for idx in range(len(columns) - 1, -1, -1):
                I = state[idx]
                nxt = []
                for jin, tops, w in frontier:
                    for K, lout in _out_states(I, jin):
                        key = (I, jin, lout)
                        if key not in weights:
                            weights[key] = _weight_M(I, jin, lout, y, q, s)
                        wt = weights[key]
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
    lam = strictly_ordered(lam, "lambda", decreasing=True)
    U, finish = spectral_rows(u, len(lam))
    return finish(_symmetrize(U, lambda a, b: (b - q * a) / (b - a),
                              [(1.0 - x) / (1.0 - q * x) for x in U], lam))


def xi_mu(mu, u, q):
    """prod_j ((1 - q u_j)/(1 - u_j))^(mu_j)."""
    mu = [as_int(x, "mu") for x in mu]
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
    mu = [as_int(x, "mu") for x in mu]
    nu = [as_int(x, "nu") for x in nu]
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
