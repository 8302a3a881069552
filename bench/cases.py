"""The three workloads' case lists and the check each output must pass.

A case is one operation of the library, repeated ``reps`` times per timed
sample so that sub-millisecond calls are timed over a few milliseconds.
Each case names its reference: a request to ``refs.py`` (the benchmark's own
master equation or a Poisson law), a closed form or property computed here,
or a cross-route value.  The seed draws every Monte Carlo seed, spectral
point and shift, and nothing that sets the cost of a case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from asepcross import formulas, identities, oracle, vertex
from asepcross.core import (
    BlockSignatureVector,
    ModelParams,
    ParticleConfig,
    StrictSignature,
)

QUAD_TOL = 1e-8   # quadrature routes: product_integrate converges to ~1e-10
EXACT_TOL = 1e-10  # residue and determinant routes
MC_SIGMAS = 4.0


@dataclass
class Case:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any, Any], str | None]  # (output, reference) -> failure
    ref: dict | None = None        # request to refs.py
    reference: Any = None          # filled in before timing
    prepare: Callable[[], Any] | None = None  # in-process reference route
    reps: int = 1
    same_as: list[tuple[str, float]] = field(default_factory=list)


def _close(tol):
    """Probability check against a refs.py value with its error bound."""

    def check(value, ref):
        bound = tol + ref["err"]
        if abs(value - ref["value"]) > bound:
            return f"{value!r} vs reference {ref['value']!r} (bound {bound:.1e})"
        return None

    return check


def _close_to(tol):
    def check(value, ref):
        if abs(value - ref) > tol:
            return f"{value!r} vs reference {ref!r} (tol {tol:.0e})"
        return None

    return check


def _passed(report, _ref):
    return None if report.passed else f"{report.name}: {report.max_rel_err:.2e}"


def _law(init, q, t, event):
    return {"kind": "law", "init": init, "q": q, "t": t, "event": event}


def _config(positions, colours):
    return {"config": [list(positions), list(colours)]}


def _target(positions, colours):
    return ["target", list(positions), list(colours)]


def _blocks(blocks, orientation):
    return BlockSignatureVector(
        tuple(StrictSignature(tuple(b)) for b in blocks), orientation
    )


def _green(positions, type2, final, final_type2, t):
    query = formulas.GreenQuery(
        ParticleConfig.from_two_species(positions, type2),
        ParticleConfig.from_two_species(final, final_type2),
        t,
    )
    return lambda: formulas.two_tasep_green(query)


def contour(rng) -> list[Case]:
    """Quadrature-evaluated formulas at 2 and 3 integration variables."""
    a4 = _law(_config((-1, 0, 1), (2, 1, 1)), 0.0, 1.0, _target((1, 2, 4), (1, 1, 2)))
    n2 = _law(_config((0, 1), (2, 1)), 0.0, 1.0, _target((1, 3), (1, 2)))
    rainbow3 = _law(_config((0, 1, 3), (3, 2, 1)), 0.5, 1.0, _target((0, 1, 3), (1, 2, 3)))
    r3 = _law(_config((0, 1, 2), (3, 2, 1)), 0.5, 1.0, _target((0, 1, 3), (3, 1, 2)))
    wall = _law({"bernoulli": [0.5, 1, 2, 2]}, 0.0, 2.0, ["wall", -3, 2])
    # shift one colour's start and end by the same d, keeping both orders
    mu, nu = (3, 1, 0), (0, 1, 3)
    shifts = [
        (i, d) for i in range(3) for d in (-3, -2, -1, 1, 2, 3)
        if all(a > b for a, b in zip(_shift(mu, i, d), _shift(mu, i, d)[1:]))
        and all(a < b for a, b in zip(_shift(nu, i, d), _shift(nu, i, d)[1:]))
    ]
    i, d = shifts[int(rng.integers(len(shifts)))]
    query_q0 = formulas.CrossingQuery(
        _blocks([[1, 0], [-1]], "initial"), _blocks([[2, 1], [4]], "final"), 0.0, 1.0
    )
    query_blocks = formulas.CrossingQuery(
        _blocks([[1, 0], [-1]], "initial"), _blocks([[2, 1], [3]], "final"), 0.5, 1.0
    )
    wall_query = formulas.WallQuery(s1=-3, s2=2, rho=0.5, n=2, m=1, t=2.0)
    check = _close(QUAD_TOL)
    return [
        Case("green_fast_n2m1", _green((0, 1), (1,), (1, 3), (2,), 1.0), check, n2),
        Case("green_fast_n3m1", _green((-1, 0, 1), (1,), (1, 2, 4), (3,), 1.0), check, a4),
        Case("green_n3m0", _green((-1, 0, 1), (), (1, 2, 4), (), 1.0), check,
             _law(_config((-1, 0, 1), (1, 1, 1)), 0.0, 1.0, _target((1, 2, 4), (1, 1, 1)))),
        Case("green_full_n2m1", _green((0, 1), (2,), (2, 3), (2,), 0.5), check,
             _law(_config((0, 1), (1, 2)), 0.0, 0.5, _target((2, 3), (1, 2)))),
        Case("two_tasep_crossing_n2",
             lambda: formulas.two_tasep_crossing((0, 1), (1, 3), 1, 1.0), check, n2,
             same_as=[("green_fast_n2m1", 1e-9)]),
        Case("two_tasep_crossing_n3",
             lambda: formulas.two_tasep_crossing((-1, 0, 1), (1, 2, 4), 1, 1.0), check, a4,
             same_as=[("green_fast_n3m1", 1e-9)]),
        Case("tasep_block_crossing_n3",
             lambda: formulas.tasep_block_crossing(query_q0), check, a4,
             same_as=[("two_tasep_crossing_n3", 1e-9)]),
        Case("rainbow_n2", lambda: formulas.rainbow_total_crossing((1, 0), (1, 2), 0.5, 1.0),
             check, _law(_config((0, 1), (2, 1)), 0.5, 1.0, _target((1, 2), (1, 2)))),
        Case("rainbow_n3", lambda: formulas.rainbow_total_crossing(mu, nu, 0.5, 1.0),
             check, rainbow3),
        Case(f"rainbow_n3_shift_c{i + 1}_{d:+d}",
             lambda: formulas.rainbow_total_crossing(
                 _shift(mu, i, d), _shift(nu, i, d), 0.5, 1.0),
             check, rainbow3, same_as=[("rainbow_n3", 1e-12)]),
        Case("r_asep_n2", lambda: formulas.r_asep_transition((1, 0), (0, 2), 0.5, 1.0),
             check, _law(_config((0, 1), (2, 1)), 0.5, 1.0, _target((0, 2), (1, 2)))),
        Case("r_asep_n3", lambda: formulas.r_asep_transition((2, 1, 0), (1, 3, 0), 0.5, 1.0),
             check, r3),
        Case("block_crossing_2+1", lambda: formulas.block_crossing(query_blocks), check,
             _law(_config((-1, 0, 1), (2, 1, 1)), 0.5, 1.0, _target((1, 2, 3), (1, 1, 2)))),
        Case("step_n2", lambda: formulas.cumulative_crossing_step((-1, 0), 1, -3, 2, 2.0),
             check, _law(_config((-1, 0), (2, 1)), 0.0, 2.0, ["wall", -3, 2])),
        Case("step_n3", lambda: formulas.cumulative_crossing_step((-2, -1, 0), 2, -3, 2, 1.0),
             check, _law(_config((-2, -1, 0), (2, 2, 1)), 0.0, 1.0, ["wall", -3, 2])),
        Case("bernoulli_direct_n2",
             lambda: formulas.cumulative_crossing_bernoulli(wall_query, form="direct"),
             check, wall),
    ]


def _shift(vec, i, d):
    return tuple(v + d if k == i else v for k, v in enumerate(vec))


def _points(rng, count, lo, hi):
    """Points on an annulus, pairwise and from 1 at least 0.05 apart."""
    pts: list[complex] = []
    while len(pts) < count:
        z = rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        if abs(z - 1) >= 0.05 and all(abs(z - w) >= 0.05 for w in pts):
            pts.append(complex(z))
    return np.array(pts)


def _f_mu_antidominant(delta, z, q, s):
    """Closed form of f_delta for weakly increasing delta."""
    out = 1.0 + 0.0j
    for _, group in itertools.groupby(delta):
        for k in range(len(list(group))):
            out *= 1 - s * s * q**k
    for zz, dd in zip(z, delta):
        out *= 1 / (1 - s * zz) * ((zz - s) / (1 - s * zz)) ** dd
    return out


def _sfF_q0(lam, u):
    """q = 0: det[u_j^i (1-u_j)^lam_i] / prod_{i<j} (u_j - u_i)."""
    n = len(lam)
    mat = np.array([[u[j] ** i * (1 - u[j]) ** lam[i] for j in range(n)] for i in range(n)])
    vand = np.prod([u[j] - u[i] for i in range(n) for j in range(i + 1, n)])
    return np.linalg.det(mat) / vand


def _stochastic(reports, _ref):
    worst = max(r.max_deviation for r in reports)
    return None if worst < 1e-12 else f"weights sum to 1 within {worst:.2e} only"


def exact(rng) -> list[Case]:
    """Residue, determinant and vertex routes that never call the quadrature."""
    W = formulas.WallQuery
    wall_n2 = _law({"bernoulli": [0.5, 1, 2, 2]}, 0.0, 2.0, ["wall", -3, 2])
    wall_n3m1 = _law({"bernoulli": [0.5, 1, 3, 2]}, 0.0, 2.0, ["wall", -3, 2])
    wall_n3m2 = _law({"bernoulli": [0.5, 2, 3, 2]}, 0.0, 2.0, ["wall", -5, 2])
    step3 = _law(_config((1, 2, 3), (1, 1, 1)), 0.0, 1.0, ["all_beyond", 4])
    step2 = _law(_config((1, 2), (1, 1)), 0.0, 1.0, ["all_beyond", 3])
    q, s = 2.0, 0.35
    y = float(rng.uniform(0.15, 0.25))
    z_f = rng.uniform(0.25, 0.65, 3) + 1j * rng.uniform(-0.2, 0.2, 3)
    u_f = _points(rng, 3, 0.1, 0.6)
    weights = (float(rng.uniform(0.05, 0.6)), float(rng.uniform(1.2, 3.0)),
               float(rng.uniform(0.15, 0.8)))
    # a fixed modulus: the cost of the nested sums' high powers depends on
    # it (they run into subnormal numbers), so only the phases are drawn
    z1, z2, z3 = (_points(rng, m, 0.5, 0.5) for m in (1, 2, 3))
    residue = _close(EXACT_TOL)
    return [
        Case("bernoulli_inverted_n2",
             lambda: formulas.cumulative_crossing_bernoulli(W(-3, 2, 0.5, 2, 1, 2.0)),
             residue, wall_n2, reps=10),
        Case("bernoulli_inverted_n3m2",
             lambda: formulas.cumulative_crossing_bernoulli(W(-5, 2, 0.5, 3, 2, 2.0)),
             residue, wall_n3m2, reps=5),
        Case("bernoulli_inverted_n1",
             lambda: formulas.cumulative_crossing_bernoulli(W(-2, 2, 0.5, 1, 1, 2.0)),
             _close_to(EXACT_TOL), {"kind": "single_wall", "rho": 0.5, "s2": 2, "t": 2.0},
             reps=40),
        Case("one_wall_collapsed_n2m1",
             lambda: formulas.cumulative_crossing_one_wall(W(-3, 2, 0.5, 2, 1, 2.0)),
             residue, wall_n2, reps=15),
        Case("one_wall_collapsed_n3m1",
             lambda: formulas.cumulative_crossing_one_wall(W(-3, 2, 0.5, 3, 1, 2.0)),
             residue, wall_n3m1, reps=15),
        Case("one_wall_collapsed_n3m2",
             lambda: formulas.cumulative_crossing_one_wall(W(-5, 2, 0.5, 3, 2, 2.0)),
             residue, wall_n3m2, reps=5),
        Case("gamma_wall_n2", lambda: formulas.gamma_wall(2, 3, 1.0), residue, step2, reps=15),
        Case("gamma_wall_n3", lambda: formulas.gamma_wall(3, 4, 1.0), residue, step3, reps=5),
        Case("green_laurent_n1",
             _green((0,), (), (3,), (), 1.0), _close_to(EXACT_TOL),
             {"kind": "poisson_pmf", "k": 3, "t": 1.0}, reps=80),
        Case("schutz_determinant_n3",
             lambda: formulas.schutz_determinant((-1, 0, 1), (1, 2, 4), 1.0), residue,
             _law(_config((-1, 0, 1), (1, 1, 1)), 0.0, 1.0, _target((1, 2, 4), (1, 1, 1))),
             reps=30),
        Case("G_mu_nu_2colour",
             lambda: (-s) ** (1 - 3) * vertex.G_mu_nu([2, 1], [1, 0], [y], q, s),
             _close_to(QUAD_TOL),
             prepare=lambda: vertex.discrete_transition([2, 1], [1, 0], [y], q, s),
             reps=10),
        Case("f_mu_scalar_n3", lambda: vertex.f_mu((0, 1, 3), z_f, q, s),
             _close_to(EXACT_TOL),
             prepare=lambda: _f_mu_antidominant((0, 1, 3), z_f, q, s), reps=3),
        Case("sfF_lambda_scalar_n3", lambda: vertex.sfF_lambda((3, 1, 0), u_f, 0.0),
             _close_to(EXACT_TOL), prepare=lambda: _sfF_q0((3, 1, 0), u_f), reps=15),
        Case("stochastic_weights_n2",
             lambda: vertex.stochastic_weights_check(2, *weights), _stochastic, reps=2),
        Case("nested_geometric_m1",
             lambda: identities.check_nested_geometric(z1, 2), _passed, reps=10),
        Case("nested_geometric_m2",
             lambda: identities.check_nested_geometric(z2, 2), _passed),
        Case("symmetrization_m3",
             lambda: identities.check_symmetrization(z3, 3, 0.5), _passed, reps=8),
    ]


def _monte_carlo():
    """Within MC_SIGMAS standard errors, and the same count on every rerun."""
    first = []

    def check(value, ref):
        estimate, stderr, successes = value
        if not first:
            first.append(successes)
        if successes != first[0]:
            return f"{successes} successes on a rerun of the same seed, first run {first[0]}"
        if abs(estimate - ref["value"]) > MC_SIGMAS * stderr + ref["err"]:
            return f"estimate {estimate} +- {stderr:.1e} vs exact {ref['value']}"
        return None

    return check


def _window(initial, window, q, t):
    def call():
        gen = oracle.build_window_generator(initial, window, ModelParams(q=q))
        return gen, oracle.transition_row(gen, initial, t)

    ref = {"kind": "row", "config": [list(initial.positions), list(initial.species)],
           "window": list(window), "q": q, "t": t}
    return call, ref


def _row(value, ref, tol=EXACT_TOL):
    gen, row = value
    if gen.size != len(ref["states"]):
        return f"{gen.size} states, reference window has {len(ref['states'])}"
    own = {(tuple(p), tuple(c)): v for (p, c), v in zip(ref["states"], ref["probs"])}
    worst = max(abs(row[i] - own[state]) for i, state in enumerate(gen.states))
    worst = max(worst, abs(row[-1] - ref["sink"]))
    return None if worst <= tol else f"row differs from the master equation by {worst:.2e}"


def oracle_cases(rng) -> list[Case]:
    """Gillespie sampling and window enumeration; no formula code runs."""
    samples = 4096
    wall_job = oracle.MonteCarloJob(
        q=0.0, horizon=2.0, samples=samples, seed=int(rng.integers(2**31)),
        bernoulli=(0.5, 1, 2), event=("wall", -3, 2),
    )
    three = ParticleConfig((0, 1, 2), (3, 2, 1))
    target_job = oracle.MonteCarloJob(
        q=0.5, horizon=1.0, samples=samples, seed=int(rng.integers(2**31)),
        initial=three, event=("target", (0, 1, 3), (3, 1, 2)),
    )
    small, small_ref = _window(ParticleConfig((0, 1), (2, 1)), (-4, 12), 0.0, 1.0)
    large, large_ref = _window(three, (-10, 12), 0.5, 1.0)
    return [
        Case("mc_wall_q0_n2", lambda: oracle.run_monte_carlo(wall_job), _monte_carlo(),
             _law({"bernoulli": [0.5, 1, 2, 2]}, 0.0, 2.0, ["wall", -3, 2])),
        Case("mc_target_q05_n3", lambda: oracle.run_monte_carlo(target_job), _monte_carlo(),
             _law(_config((0, 1, 2), (3, 2, 1)), 0.5, 1.0, _target((0, 1, 3), (3, 1, 2)))),
        Case("window_2p_q0", small, _row, small_ref, reps=4),
        Case("window_3colour_q05", large, _row, large_ref),
    ]


WORKLOADS = {"contour": contour, "exact": exact, "oracle": oracle_cases}


def build(workload: str, seed: int) -> list[Case]:
    return WORKLOADS[workload](np.random.default_rng(seed))
