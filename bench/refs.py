"""Independent reference values for the benchmark's checks.

Nothing here imports ``asepcross``.  Transition and event probabilities come
from this module's own finite-window master equation: the exclusion process
on a window of sites with an absorbing sink for every jump that would leave
it, assembled with ``scipy.sparse`` and solved with ``expm_multiply``.  Each
probability is returned with an error bound: the sink mass, plus for
Bernoulli initial data a bound on the initial mass left out of the window.
Single-particle cases use Poisson laws from ``scipy.stats``.

Model: a particle jumps right at rate 1 onto an empty site and left at rate
q; a particle of colour c immediately left of colour d swaps with it at rate
1 if c > d and at rate q if c < d.

Run as a script, it reads a JSON list of requests on stdin and prints a JSON
list of results, so that the benchmark computes its references in a process
of their own.
"""

from __future__ import annotations

import itertools
import json
import sys

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply
from scipy.stats import poisson

# probability left outside the window by the choice of its margins
WINDOW_TAIL = 1e-13


def _margin(rate_t: float) -> int:
    """Smallest k with P(Poisson(rate_t) >= k) below WINDOW_TAIL."""
    if rate_t <= 0:
        return 1
    k = 1
    while poisson.sf(k - 1, rate_t) >= WINDOW_TAIL:
        k += 1
    return k


class Window:
    """Generator of the process on sites lo..hi for one colour multiset."""

    def __init__(self, colours, lo: int, hi: int, q: float):
        self.lo, self.hi, self.q = lo, hi, q
        n = len(colours)
        orders = sorted(set(itertools.permutations(sorted(colours))))
        self.states = [
            (pos, order)
            for pos in itertools.combinations(range(lo, hi + 1), n)
            for order in orders
        ]
        self.index = {s: i for i, s in enumerate(self.states)}
        sink = len(self.states)
        rows, cols, rates = [], [], []
        for i, (pos, order) in enumerate(self.states):
            occupied = dict(zip(pos, order))
            for x, c in occupied.items():
                for y, rate in self._moves(occupied, x, c):
                    if rate == 0.0:
                        continue
                    rows.append(i)
                    rates.append(rate)
                    if y is None:
                        cols.append(sink)
                        continue
                    new = dict(occupied)
                    if y in occupied:  # swap with the right neighbour
                        new[x], new[y] = occupied[y], c
                    else:
                        del new[x]
                        new[y] = c
                    key = tuple(sorted(new))
                    cols.append(self.index[(key, tuple(new[k] for k in key))])
        size = sink + 1
        off = sp.csr_matrix((rates, (rows, cols)), shape=(size, size))
        out = np.asarray(off.sum(axis=1)).ravel()
        self.generator = (off - sp.diags(out)).tocsr()

    def _moves(self, occupied, x, c):
        right = x + 1
        if right in occupied:
            d = occupied[right]
            yield right, (1.0 if c > d else self.q if c < d else 0.0)
        else:
            yield (right if right <= self.hi else None), 1.0
        left = x - 1
        if left not in occupied:
            yield (left if left >= self.lo else None), self.q

    def evolve(self, weights: dict, t: float) -> np.ndarray:
        """Distribution at time t from {(positions, colours): mass}."""
        p0 = np.zeros(len(self.states) + 1)
        for state, w in weights.items():
            p0[self.index[state]] += w
        p = expm_multiply(self.generator.T * t, p0)
        return np.clip(p, 0.0, None)


def _initial_law(init, t):
    """(weights, window bounds, truncation bound) of an initial law."""
    if "config" in init:
        pos, col = (tuple(int(v) for v in x) for x in init["config"])
        return {(pos, col): 1.0}, min(pos), max(pos), 0.0
    rho, m, n, s2 = init["bernoulli"]
    # type 2 at the m rightmost occupied negative sites of an iid density-rho
    # field, type 1 at 0..n-m-1; a type-2 particle starting at -g needs
    # s2 + g jumps in time t, so starts left of -depth are dropped with a
    # bound on what they could contribute
    depth = _margin(t) - s2
    weights = {}
    for gaps in itertools.product(range(1, depth + 1), repeat=m):
        sites = np.cumsum(gaps)
        if sites[-1] > depth:
            continue
        w = rho**m * (1.0 - rho) ** (sum(gaps) - m)
        pos = tuple(sorted(-int(s) for s in sites)) + tuple(range(n - m))
        weights[(pos, (2,) * m + (1,) * (n - m))] = w
    truncation = poisson.sf(s2 + depth, t)
    return weights, -depth, n - m - 1, float(truncation)


def _event(kind, pos, col, args) -> bool:
    if kind == "target":
        return list(pos) == args[0] and list(col) == args[1]
    if kind == "wall":
        s1, s2 = args
        return all(
            (s1 <= x < s2) if c == 1 else x >= s2 for x, c in zip(pos, col)
        )
    if kind == "all_beyond":
        return all(x >= args[0] for x in pos)
    raise ValueError(f"unknown event kind {kind!r}")


def law(request) -> dict:
    """Probability of an event at time t, with an error bound."""
    q, t = request["q"], request["t"]
    weights, lo, hi, truncation = _initial_law(request["init"], t)
    colours = next(iter(weights))[1]
    window = Window(colours, lo - _margin(q * t), hi + _margin(t), q)
    p = window.evolve(weights, t)
    kind, *args = request["event"]
    value = sum(
        p[i] for i, (pos, col) in enumerate(window.states)
        if _event(kind, pos, col, args)
    )
    return {"value": float(value), "err": float(p[-1]) + truncation}


def row(request) -> dict:
    """Full distribution on a given window, keyed like the program's states."""
    pos, col = (tuple(int(v) for v in x) for x in request["config"])
    lo, hi = request["window"]
    window = Window(col, lo, hi, request["q"])
    p = window.evolve({(pos, col): 1.0}, request["t"])
    return {
        "states": [[list(s[0]), list(s[1])] for s in window.states],
        "probs": p[:-1].tolist(),
        "sink": float(p[-1]),
    }


def single_wall(request) -> float:
    """One type-2 particle at -g, P(g) = rho (1-rho)^(g-1): P(it reaches s2)."""
    rho, s2, t = request["rho"], request["s2"], request["t"]
    total, g = 0.0, 1
    while True:
        w = rho * (1.0 - rho) ** (g - 1)
        term = w * poisson.sf(s2 + g - 1, t)
        total += term
        if term < 1e-18 and g > 5:
            return float(total)
        g += 1


def compute(request):
    kind = request["kind"]
    if kind == "law":
        return law(request)
    if kind == "row":
        return row(request)
    if kind == "poisson_pmf":
        return float(poisson.pmf(request["k"], request["t"]))
    if kind == "single_wall":
        return single_wall(request)
    raise ValueError(f"unknown reference kind {kind!r}")


if __name__ == "__main__":
    json.dump([compute(r) for r in json.load(sys.stdin)], sys.stdout)
