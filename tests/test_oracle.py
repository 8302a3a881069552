import math
import time

import numpy as np
import pytest
from scipy.stats import poisson

from asepcross.core import (
    ModelParams,
    ParticleConfig,
    ResourceLimitError,
    ValidationError,
)
from asepcross.oracle import (
    CHUNK,
    MonteCarloJob,
    build_window_generator,
    default_window,
    expm_transition,
    run_monte_carlo,
    simulate_sample,
    transition_row,
    _chunk_uniforms,
    _event_holds,
    _row_uniforms,
)

GOLDEN_2TASEP = 0.06766764161830637  # mu=(0,1) p0={1} -> nu=(1,2) p={2}, t=1


def _job(positions, species, q, t, seed=7, samples=1, event=()):
    return MonteCarloJob(
        q=q, horizon=t, samples=samples, seed=seed,
        initial=ParticleConfig(tuple(positions), tuple(species)), event=event,
    )


def _bernoulli_job(rho, m, n, seed, samples=1, event=(), t=0.0):
    return MonteCarloJob(q=0.0, horizon=t, samples=samples, seed=seed,
                         bernoulli=(rho, m, n), event=event)


class TestGillespie:
    def test_zero_horizon_returns_initial(self):
        job = _job((3,), (1,), 0.0, 0.0)
        assert simulate_sample(job) == job.initial

    def test_single_particle_poisson_mean(self):
        job = _job((0,), (1,), 0.0, 1.0, seed=11)
        runs = 100_000
        total = 0
        for i in range(runs):
            total += simulate_sample(job, i).positions[0]
        mean = total / runs
        assert abs(mean - 1.0) < 0.01

    def test_blocked_pair_holding_time(self):
        # only the right particle can move; no move by t has mass e^{-t}
        job = _job((0, 1), (1, 1), 0.0, 0.5, seed=3, samples=100_000,
                   event=("target", (0, 1), (1, 1)))
        stay, _, _ = run_monte_carlo(job)
        assert abs(stay - math.exp(-0.5)) < 0.005

    def test_colour_order_never_regresses_at_q0(self):
        # every swap moves a higher colour rightward past a lower one
        job = _job((0, 1, 2), (2, 1, 2), 0.0, 2.0, seed=5)
        for i in range(200):
            events = []
            final = simulate_sample(job, i, events)
            assert final.species == (events[-1][3] if events else job.initial.species)
            for t, kind, k, species_after in events:
                if kind == 1:  # swap of (k, k+1); labels recorded post-swap
                    assert species_after[k] < species_after[k + 1]

    @pytest.mark.parametrize("chunk", [0, 3])
    def test_single_row_draw_equals_chunk_row(self, chunk):
        full = _chunk_uniforms(5, chunk, CHUNK)
        for row in (0, 1, 7, 500, 1023):
            assert np.array_equal(_row_uniforms(5, chunk, row), full[row])

    def test_backhopping_moves_left(self):
        job = _job((0,), (1,), 2.0, 4.0, seed=9)
        seen_left = any(simulate_sample(job, i).positions[0] < 0 for i in range(50))
        assert seen_left


class TestEstimators:
    def test_target_equals_initial_at_t0(self):
        job = _job((0, 2), (1, 2), 0.0, 0.0, samples=200,
                   event=("target", (0, 2), (1, 2)))
        est, err, _ = run_monte_carlo(job)
        assert est == 1.0 and err == 0.0

    def test_single_particle_poisson_pmf(self):
        job = _job((0,), (1,), 0.0, 1.0, seed=21, samples=100_000,
                   event=("target", (1,), (1,)))
        est, err, _ = run_monte_carlo(job)
        assert abs(est - math.exp(-1)) <= 3 * err

    def test_needs_enough_samples(self):
        with pytest.raises(ValidationError):
            _job((0,), (1,), 0.0, 1.0, samples=0, event=("target", (0,), (1,)))

    def test_thread_count_does_not_change_counts(self):
        job = MonteCarloJob(
            q=0.0, horizon=1.0, samples=5000, seed=13,
            initial=ParticleConfig((0,), (1,)),
            event=("target", (1,), (1,)),
        )
        a = run_monte_carlo(job, threads=1)
        b = run_monte_carlo(job, threads=2)
        assert a == b


class TestMonteCarloJob:
    @pytest.mark.parametrize("q, t", [(-0.5, 1.0), (0.0, -1.0), (0.0, math.inf)])
    def test_rate_and_horizon_checked(self, q, t):
        with pytest.raises(ValidationError):
            _job((0,), (1,), q, t)

    def test_exactly_one_initial_state(self):
        with pytest.raises(ValidationError):
            MonteCarloJob(q=0.0, horizon=1.0, samples=1, seed=0)
        with pytest.raises(ValidationError):
            MonteCarloJob(q=0.0, horizon=1.0, samples=1, seed=0,
                          initial=ParticleConfig((0,), (1,)), bernoulli=(0.5, 1, 1))

    def test_unknown_event_refused_at_construction(self):
        with pytest.raises(ValidationError, match="unknown event kind"):
            _job((0,), (1,), 0.0, 1.0, event=("all_beyond", 4))

    def test_run_needs_an_event(self):
        with pytest.raises(ValidationError):
            run_monte_carlo(_job((0,), (1,), 0.0, 1.0, samples=10))

    def test_negative_sample_index_refused(self):
        with pytest.raises(ValidationError):
            simulate_sample(_job((0,), (1,), 0.0, 1.0), -1)


# successes of 2,100 samples (three chunks, the last one partial) per seed,
# recorded before the jobs and samplers were merged; a change to the mapping
# from the Philox streams to samples changes them
GOLDEN_JOBS = {
    "target_q05_n3": lambda seed, samples: _job(
        (0, 1, 2), (3, 2, 1), 0.5, 0.5, seed=seed, samples=samples,
        event=("target", (0, 1, 2), (3, 2, 1))),
    "wall_q0": lambda seed, samples: _bernoulli_job(
        0.5, 1, 2, seed, samples, event=("wall", -3, 2), t=2.0),
    "wall_rho1": lambda seed, samples: _bernoulli_job(
        1.0, 1, 2, seed, samples, event=("wall", -3, 2), t=2.0),
}
GOLDEN_COUNTS = {
    "target_q05_n3": {1: 442, 2: 422, 3: 481},
    "wall_q0": {1: 381, 2: 365, 3: 372},
    "wall_rho1": {1: 571, 2: 589, 3: 583},
}


class TestGoldenCounts:
    @pytest.mark.parametrize("shape", sorted(GOLDEN_JOBS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_counts_unchanged(self, shape, seed):
        job = GOLDEN_JOBS[shape](seed, 2100)
        assert run_monte_carlo(job)[2] == GOLDEN_COUNTS[shape][seed]

    @pytest.mark.parametrize("shape", sorted(GOLDEN_JOBS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sample_is_the_counted_trajectory(self, shape, seed):
        # indices 1020..1030 straddle the first chunk boundary
        lo, hi = 1020, 1031
        counted = (run_monte_carlo(GOLDEN_JOBS[shape](seed, hi))[2]
                   - run_monte_carlo(GOLDEN_JOBS[shape](seed, lo))[2])
        job = GOLDEN_JOBS[shape](seed, hi)
        held = 0
        for i in range(lo, hi):
            final = simulate_sample(job, i)
            held += _event_holds(job.event, final.positions, final.species)
        assert held == counted


class TestWindowGenerator:
    def test_single_particle_structure(self):
        gen = build_window_generator(
            ParticleConfig((0,), (1,)), (0, 2), ModelParams(q=0.0)
        )
        assert gen.size == 3
        dense = gen.matrix.toarray()
        i0 = gen.state_of(ParticleConfig((0,), (1,)))
        i1 = gen.state_of(ParticleConfig((1,), (1,)))
        assert dense[i0, i1] == 1.0

    def test_distinguishable_pair_count(self):
        gen = build_window_generator(
            ParticleConfig((0, 1), (1, 2)), (0, 3), ModelParams(q=0.5)
        )
        assert gen.size == 12

    @pytest.mark.parametrize("q", [0.0, 0.5, 0.75])
    def test_row_sums_vanish_exactly_dyadic_rates(self, q):
        gen = build_window_generator(
            ParticleConfig((0, 1), (1, 2)), (0, 4), ModelParams(q=q)
        )
        sums = np.asarray(gen.matrix.sum(axis=1)).ravel()
        assert np.all(sums == 0.0)

    def test_row_sums_within_ulp_generic_rates(self):
        # 1 + 0.7 + 0.7 is not representable; conservation holds to one ulp
        gen = build_window_generator(
            ParticleConfig((0, 1), (1, 2)), (0, 4), ModelParams(q=0.7)
        )
        sums = np.asarray(gen.matrix.sum(axis=1)).ravel()
        assert np.abs(sums).max() <= 1e-15

    def test_state_cap(self):
        with pytest.raises(ResourceLimitError):
            build_window_generator(
                ParticleConfig(tuple(range(10)), (1,) * 10),
                (-40, 40),
                ModelParams(q=0.0),
                cap=1000,
            )

    def test_default_window_covers_drift(self):
        lo, hi = default_window((0, 1), 1.0)
        assert lo <= -5 and hi >= 8


class TestUniformization:
    def test_delta_at_t0(self):
        mu = ParticleConfig((0, 1), (1, 2))
        gen = build_window_generator(mu, (0, 3), ModelParams(q=0.5))
        val, sink = expm_transition(gen, mu, mu, 0.0)
        assert val == 1.0 and sink == 0.0

    def test_single_particle_poisson(self):
        mu = ParticleConfig((0,), (1,))
        gen = build_window_generator(mu, (0, 20), ModelParams(q=0.0))
        val, sink = expm_transition(gen, mu, ParticleConfig((3,), (1,)), 1.0)
        assert abs(val - math.exp(-1) / 6.0) < 1e-12
        assert sink < 1e-12

    def test_golden_two_species_value(self):
        mu = ParticleConfig.from_two_species((0, 1), (1,))
        gen = build_window_generator(mu, (-4, 12), ModelParams(q=0.0))
        nu = ParticleConfig.from_two_species((1, 2), (2,))
        val, sink = expm_transition(gen, mu, nu, 1.0)
        assert abs(val - GOLDEN_2TASEP) < 1e-12
        assert sink < 1e-8

    def test_row_mass_accounts_for_sink(self):
        mu = ParticleConfig((0, 1), (1, 2))
        gen = build_window_generator(mu, (-3, 6), ModelParams(q=0.5))
        row = transition_row(gen, mu, 1.2)
        assert abs(row.sum() - 1.0) < 1e-12
        assert row[-1] > 0  # sink mass is reported

    @pytest.mark.parametrize("t", [96.0, 128.0, 300.0, 600.0])
    def test_large_rate_time_terminates(self, t):
        # one particle at q = 0 jumps at rate 1, so lambda t = t
        mu = ParticleConfig((0,), (1,))
        hi = int(t + 10 * math.sqrt(t)) + 10
        gen = build_window_generator(mu, (0, hi), ModelParams(q=0.0))
        started = time.perf_counter()
        row = transition_row(gen, mu, t)
        assert time.perf_counter() - started < 1.0
        assert abs(row.sum() - 1.0) < 1e-13
        for k in (int(t) - 10, int(t), int(t) + 10):
            i = gen.state_of(ParticleConfig((k,), (1,)))
            assert abs(row[i] - poisson.pmf(k, t)) < 1e-13

    def test_negative_time_rejected(self):
        mu = ParticleConfig((0,), (1,))
        gen = build_window_generator(mu, (0, 3), ModelParams(q=0.0))
        with pytest.raises(ValidationError):
            transition_row(gen, mu, -1.0)


class TestGillespieAgainstUniformization:
    def test_twenty_random_small_instances(self, rng):
        samples = 4000
        for trial in range(20):
            n = int(rng.integers(1, 4))
            q = float(rng.choice([0.0, 0.5]))
            positions = tuple(sorted(rng.choice(np.arange(-3, 4), n, replace=False).tolist()))
            species = tuple(int(c) for c in rng.integers(1, 3, n))
            t = float(rng.uniform(0.3, 1.0))
            mu = ParticleConfig(positions, species)
            window = default_window(positions, t, q=q)
            gen = build_window_generator(mu, window, ModelParams(q=q))
            row = transition_row(gen, mu, t)
            assert row[-1] < 1e-6
            # draw a typical target from the exact distribution
            target_idx = int(rng.choice(len(row) - 1, p=row[:-1] / row[:-1].sum()))
            pos, spc = gen.states[target_idx]
            target = ParticleConfig(pos, spc)
            job = MonteCarloJob(
                q=q, horizon=t, samples=samples, seed=1000 + trial, initial=mu,
                event=("target", target.positions, target.species),
            )
            est, err, _ = run_monte_carlo(job)
            exact = row[target_idx]
            assert abs(est - exact) <= 3 * max(err, math.sqrt(exact / samples) * 0.1 + 1e-12)


class TestBernoulliSampler:
    def test_rho_one_is_deterministic(self):
        cfg = simulate_sample(_bernoulli_job(1.0, 3, 5, 42))
        assert cfg.positions == (-3, -2, -1, 0, 1)
        assert cfg.species == (2, 2, 2, 1, 1)

    def test_no_type2(self):
        cfg = simulate_sample(_bernoulli_job(0.5, 0, 3, 42))
        assert cfg.positions == (0, 1, 2)
        assert cfg.species == (1, 1, 1)

    def test_validation(self):
        for rho, m, n in ((0.0, 1, 2), (1.5, 1, 2), (-0.5, 1, 2), (0.5, 3, 2),
                          (0.5, -1, 2), (0.5, 0, 0)):
            with pytest.raises(ValidationError):
                _bernoulli_job(rho, m, n, 1, event=("wall", -3, 2))

    def test_rightmost_pair_weight(self):
        # P(mu = (-2, -1)) = rho^2 at rho = 0.5 -> 0.25
        draws = 100_000
        job = _bernoulli_job(0.5, 2, 2, 77, draws, event=("target", (-2, -1), (2, 2)))
        phat, err, _ = run_monte_carlo(job)
        assert abs(phat - 0.25) <= 3 * err

    def test_weight_formula_general_position(self):
        # P(mu) = rho^m (1-rho)^(-mu_1 - m); check mu = (-3, -1), rho = 0.4
        rho = 0.4
        expected = rho**2 * (1 - rho) ** (3 - 2)
        draws = 100_000
        job = _bernoulli_job(rho, 2, 2, 78, draws, event=("target", (-3, -1), (2, 2)))
        phat, _, _ = run_monte_carlo(job)
        err = math.sqrt(max(phat * (1 - phat), 1e-12) / draws)
        assert abs(phat - expected) <= 3.5 * err
