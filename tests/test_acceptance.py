"""Acceptance criteria A1-A10: property- and oracle-based checks at desk
scale, each printed as one pass/fail line at its stated tolerance."""

import itertools
import json
import math
import time

import numpy as np
import pytest

from asepcross.cli import main as cli_main
from asepcross.core import ModelParams, ParticleConfig
from asepcross.formulas import (
    CrossingQuery,
    GreenQuery,
    WallQuery,
    block_crossing,
    cumulative_crossing_bernoulli,
    cumulative_crossing_one_wall,
    cumulative_crossing_step,
    gamma_wall,
    r_asep_transition,
    rainbow_total_crossing,
    tasep_block_crossing,
    two_tasep_green,
)
from asepcross.identities import run_identity_suite
from asepcross.oracle import (
    MonteCarloJob,
    build_window_generator,
    expm_transition,
    run_monte_carlo,
    transition_row,
)
from asepcross.vertex import f_mu, stochastic_weights_check
import residue_reference
from conftest import make_blocks
from vertex_reference import F_lambda_sym, cauchy_check, orthogonality_check


def _report(name: str, ok: bool, detail: str):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def test_a1_poisson_reduction():
    started = time.perf_counter()
    worst = 0.0
    for k in range(7):
        query = GreenQuery(
            ParticleConfig((0,), (1,)), ParticleConfig((k,), (1,)), 1.0
        )
        worst = max(worst, abs(two_tasep_green(query) - math.exp(-1) / math.factorial(k)))
    elapsed = time.perf_counter() - started
    _report(
        "A1", worst < 1e-10 and elapsed < 1.0,
        f"max abs dev {worst:.2e} (tol 1e-10), runtime {elapsed:.3f}s (< 1s)",
    )


def _window_states(window, n):
    sites = range(window[0], window[1] + 1)
    for pos in itertools.combinations(sites, n):
        for p in itertools.combinations(range(1, n + 1), 1):
            yield pos, p


@pytest.fixture(scope="module")
def green_vs_oracle_instance():
    ini = ParticleConfig.from_two_species((0, 1), (1,))
    window = (-4, 12)
    gen = build_window_generator(ini, window, ModelParams(q=0.0))
    row = transition_row(gen, ini, 1.0)
    formula = {}
    for pos, p in _window_states(window, 2):
        fin = ParticleConfig.from_two_species(pos, p)
        formula[(pos, p)] = two_tasep_green(GreenQuery(ini, fin, 1.0))
    return gen, row, formula


def test_a2_green_against_generator_exponential(green_vs_oracle_instance):
    started = time.perf_counter()
    gen, row, formula = green_vs_oracle_instance
    worst = 0.0
    compared = 0
    for (pos, p), value in formula.items():
        fin = ParticleConfig.from_two_species(pos, p)
        oracle = row[gen.state_of(fin)]
        if oracle < 1e-8:
            continue
        compared += 1
        worst = max(worst, abs(value - oracle))
    elapsed = time.perf_counter() - started
    _report(
        "A2", worst < 1e-6 and compared > 50 and elapsed < 120.0,
        f"{compared} states, max abs dev {worst:.2e} (tol 1e-6), "
        f"runtime {elapsed:.1f}s (< 120s)",
    )


def test_a3_stochasticity(green_vs_oracle_instance):
    _, _, formula = green_vs_oracle_instance
    total = sum(formula.values())
    _report("A3", abs(total - 1.0) < 1e-6, f"sum over window = {total:.9f} (tol 1e-6)")


def test_a4_crossing_consistency():
    started = time.perf_counter()
    mu, nu, t = (-1, 0, 1), (2, 3, 5), 3.0
    v_det = residue_reference.two_species_crossing(mu, nu, 1, t)
    query = CrossingQuery(
        make_blocks([[1, 0], [-1]], "initial"),
        make_blocks([[3, 2], [5]], "final"),
        0.0,
        t,
    )
    v_blocks = tasep_block_crossing(query)
    v_green = two_tasep_green(
        GreenQuery(
            ParticleConfig.from_two_species(mu, (1,)),
            ParticleConfig.from_two_species(nu, (3,)),
            t,
        )
    )
    worst = max(abs(v_det - v_blocks), abs(v_det - v_green), abs(v_blocks - v_green))
    elapsed = time.perf_counter() - started
    _report(
        "A4", worst < 1e-6 and elapsed < 300.0,
        f"values ({v_det:.9e}, {v_blocks:.9e}, {v_green:.9e}), "
        f"max pairwise dev {worst:.2e} (tol 1e-6), runtime {elapsed:.1f}s (< 300s)",
    )


def test_a5_backhopping_and_shift_invariance(rng):
    q, t = 0.5, 1.0
    ini = ParticleConfig((0, 1), (2, 1))
    gen = build_window_generator(ini, (-10, 12), ModelParams(q=q))
    row = transition_row(gen, ini, t)
    worst = 0.0
    compared = 0
    for idx, (pos, col) in enumerate(gen.states):
        oracle = row[idx]
        if oracle < 1e-6:
            continue
        nu = [None, None]
        for x, c in zip(pos, col):
            nu[c - 1] = x
        val = r_asep_transition([1, 0], nu, q, t)
        worst = max(worst, abs(val - oracle))
        compared += 1
    shift_dev = 0.0
    for _ in range(5):
        mu0 = sorted(rng.choice(np.arange(-4, 5), 2, replace=False).tolist(), reverse=True)
        nu0 = sorted(rng.choice(np.arange(-4, 5), 2, replace=False).tolist())
        base = rainbow_total_crossing(mu0, nu0, q, t)
        i = int(rng.integers(0, 2))
        lo_mu = mu0[i + 1] if i + 1 < 2 else -10**6
        hi_mu = mu0[i - 1] if i - 1 >= 0 else 10**6
        lo_nu = nu0[i - 1] if i - 1 >= 0 else -10**6
        hi_nu = nu0[i + 1] if i + 1 < 2 else 10**6
        deltas = [
            d
            for d in range(-3, 4)
            if d != 0
            and lo_mu < mu0[i] + d < hi_mu
            and lo_nu < nu0[i] + d < hi_nu
        ]
        if not deltas:
            continue
        d = int(rng.choice(deltas))
        mu1 = list(mu0)
        nu1 = list(nu0)
        mu1[i] += d
        nu1[i] += d
        shifted = rainbow_total_crossing(mu1, nu1, q, t)
        shift_dev = max(shift_dev, abs(shifted - base))
    _report(
        "A5", worst < 1e-6 and shift_dev < 1e-12 and compared >= 10,
        f"{compared} states vs oracle, max dev {worst:.2e} (tol 1e-6); "
        f"shift-invariance dev {shift_dev:.2e} (tol 1e-12)",
    )


def test_a6_block_formula_degenerations():
    q, t = 0.4, 1.0
    query_r1 = CrossingQuery(
        make_blocks([[1, 0]], "initial"), make_blocks([[3, 2]], "final"), q, t
    )
    a = block_crossing(query_r1)
    ini = ParticleConfig((0, 1), (1, 1))
    gen = build_window_generator(ini, (-10, 12), ModelParams(q=q))
    oracle, _ = expm_transition(gen, ini, ParticleConfig((2, 3), (1, 1)), t)
    dev_r1 = abs(a - oracle)
    query_q0 = CrossingQuery(
        make_blocks([[1, 0], [-1]], "initial"),
        make_blocks([[3, 2], [4]], "final"),
        0.0,
        t,
    )
    c = block_crossing(query_q0)
    d = tasep_block_crossing(query_q0)
    dev_q0 = abs(c - d)
    _report(
        "A6", dev_r1 < 1e-10 and dev_r1 <= a.est_err and dev_q0 < 1e-10,
        f"r=1 dev from window oracle {dev_r1:.2e} (est_err {a.est_err:.2e}), "
        f"q=0 dev {dev_q0:.2e} (tol 1e-10)",
    )


def test_a7_vertex_layer(rng):
    # sum-to-unity at 20 random parameter points
    sum_dev = 0.0
    for _ in range(20):
        z = float(rng.uniform(0.05, 0.6))
        q = float(rng.uniform(1.2, 3.0))
        s = float(rng.uniform(0.15, 0.8))
        for n in (1, 2):
            rep_l, rep_m = stochastic_weights_check(n, z, q, s)
            sum_dev = max(sum_dev, rep_l.max_deviation, rep_m.max_deviation)
    # factorization / stability / symmetrization at 100 random points
    ident_dev = 0.0
    for _ in range(100):
        q = complex(rng.uniform(1.2, 2.5), rng.uniform(-0.3, 0.3))
        s = complex(rng.uniform(0.15, 0.5), rng.uniform(-0.1, 0.1))
        n = int(rng.integers(1, 4))
        z = rng.uniform(0.25, 0.65, n) + 1j * rng.uniform(-0.2, 0.2, n)
        delta = sorted(rng.integers(0, 4, n).tolist())
        lhs = f_mu(delta, z, q, s)
        mult = {}
        for x in delta:
            mult[x] = mult.get(x, 0) + 1
        rhs = 1.0 + 0.0j
        for cnt in mult.values():
            for k in range(cnt):
                rhs *= 1 - s * s * q**k
        for zz, dd in zip(z, delta):
            rhs *= 1 / (1 - s * zz) * ((zz - s) / (1 - s * zz)) ** dd
        ident_dev = max(ident_dev, abs(lhs - rhs) / max(1.0, abs(rhs)))
        # stability under a random uniform shift
        k = int(rng.integers(1, 4))
        lhs2 = f_mu([x + k for x in delta], z, q, s)
        rhs2 = lhs
        for zz in z:
            rhs2 = rhs2 * ((zz - s) / (1 - s * zz)) ** k
        ident_dev = max(ident_dev, abs(lhs2 - rhs2) / max(1.0, abs(rhs2)))
        if n >= 2:
            # block factorization with two strictly separated blocks
            mu_blocks = [0, 2] if n == 2 else [1, 0, 3]
            split = 1 if n == 2 else 2
            mu_lo, mu_hi = mu_blocks[:split], mu_blocks[split:]
            if max(mu_lo) < min(mu_hi):
                lhs3 = f_mu(mu_blocks, z, q, s)
                rhs3 = f_mu(mu_lo, z[:split], q, s) * f_mu(mu_hi, z[split:], q, s)
                ident_dev = max(ident_dev, abs(lhs3 - rhs3) / max(1.0, abs(rhs3)))
        lam = sorted(rng.integers(0, 3, n).tolist(), reverse=True)
        if sum(lam) <= 4:
            lhs4 = F_lambda_sym(lam, z, q, s)
            rhs4 = sum(
                f_mu(mu, z, q, s) for mu in set(itertools.permutations(lam))
            )
            ident_dev = max(ident_dev, abs(lhs4 - rhs4) / max(1.0, abs(rhs4)))
    # orthogonality
    orth_dev = 0.0
    for mu, nu in (([0], [0]), ([0], [1]), ([2], [2]),
                   ([1, 0], [1, 0]), ([1, 0], [2, 0]), ([2, 1], [2, 1])):
        val = orthogonality_check(mu, nu, 2.0, 0.1)
        orth_dev = max(orth_dev, abs(val - (1.0 if mu == nu else 0.0)))
    # truncated Cauchy identity within its reported tail bound
    cauchy_ok = True
    rep1 = cauchy_check([0], [0.55], [0.5], 2.0, 0.6)
    rep2 = cauchy_check([1, 0], [0.55, 0.62], [0.5], 2.0, 0.6)
    cauchy_ok = rep1.within_bound and rep2.within_bound
    ok = sum_dev < 1e-12 and ident_dev < 1e-10 and orth_dev < 1e-6 and cauchy_ok
    _report(
        "A7", ok,
        f"sum-to-unity dev {sum_dev:.2e} (tol 1e-12); identity dev {ident_dev:.2e} "
        f"(tol 1e-10); orthogonality dev {orth_dev:.2e} (tol 1e-6); "
        f"Cauchy within bound: {cauchy_ok}",
    )


def test_a8_identity_suite_with_negative_control():
    reports = run_identity_suite(samples=100)
    all_pass = all(r.passed for r in reports)
    rep_l, _ = stochastic_weights_check(2, 0.35, 2.2, 0.4, perturb=1.01)
    control_fails = not rep_l.sums_ok
    worst = max(r.max_rel_err for r in reports)
    _report(
        "A8", all_pass and control_fails,
        f"{len(reports)} checks pass (worst err {worst:.2e}); "
        f"perturbed weights break sum-to-unity: {control_fails}",
    )


def test_a9_cumulative_crossing():
    query = WallQuery(s1=-3, s2=2, rho=0.5, n=2, m=1, t=2.0)
    direct = cumulative_crossing_bernoulli(query, form="direct")
    inverted = cumulative_crossing_bernoulli(query, form="inverted")
    one_wall = cumulative_crossing_one_wall(query)
    form_dev = max(abs(direct - inverted), abs(inverted - one_wall))
    within_est = abs(inverted - one_wall) <= inverted.est_err + one_wall.est_err
    job = MonteCarloJob(
        q=0.0, horizon=2.0, samples=1_000_000, seed=2024,
        bernoulli=(0.5, 1, 2), event=("wall", -3, 2),
    )
    est, err, _ = run_monte_carlo(job)
    mc_ok = abs(est - inverted) <= 3 * err
    step_query = WallQuery(s1=-3, s2=2, rho=1.0, n=2, m=1, t=2.0)
    rho1 = cumulative_crossing_bernoulli(step_query, form="inverted")
    step = cumulative_crossing_step((-1, 0), 1, -3, 2, 2.0)
    rho_dev = abs(rho1 - step)
    # two-species step crossing as a difference of single-species wall
    # crossings, after aligning the two initial-position conventions
    n, s2, t = 2, 2, 2.0
    gamma_dev = abs(rho1 - (gamma_wall(n - 1, s2 + n, t) - gamma_wall(n, s2 + n, t)))
    ok = form_dev < 1e-9 and within_est and mc_ok and rho_dev < 1e-9 and gamma_dev < 1e-8
    _report(
        "A9", ok,
        f"three routes agree to {form_dev:.2e} (tol 1e-9), one-wall against "
        f"inverted within their est_errs: {within_est}; MC {est:.6f}+-{err:.1e} vs "
        f"{inverted:.6f} within 3 stderr: {mc_ok}; rho->1 dev {rho_dev:.2e} "
        f"(tol 1e-9); wall-splitting dev {gamma_dev:.2e} (tol 1e-8)",
    )


def test_a10_reproducibility(capsys, tmp_path):
    payload = (
        '{"task":"estimate_wall","rho":0.5,"n":2,"m":1,"s1":-3,"s2":2,'
        '"t":2.0,"samples":30000}'
    )
    records = []
    for threads in (1, 2, 8):
        code = cli_main(
            ["simulate", "--json", payload, "--seed", "11", "--threads", str(threads)]
        )
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        rec = json.loads(line)
        rec.pop("wall_ms")  # timing is the one volatile field
        records.append(json.dumps(rec, sort_keys=True))
    ok = records[0] == records[1] == records[2]
    _report("A10", ok, f"records identical across 1/2/8 threads: {ok}")
