import collections
import concurrent.futures
import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import poisson

from asepcross import oracle
from asepcross.core import (
    ModelParams,
    ParticleConfig,
    ResourceLimitError,
    ValidationError,
)
from asepcross.oracle import (
    BATCH_CHUNKS,
    CHUNK,
    UNIFORMS_PER_SAMPLE,
    MonteCarloJob,
    build_window_generator,
    expm_transition,
    run_monte_carlo,
    simulate_sample,
    transition_row,
    _event_holds,
    _multiset_permutations,
    _row_uniforms,
    _simulate,
    _uniforms,
    _UniformStream,
)
from vertex_reference import default_window

GOLDEN_2TASEP = 0.06766764161830637  # mu=(0,1) p0={1} -> nu=(1,2) p={2}, t=1


def _chunk_uniforms(seed, chunk):
    """The uniforms of a whole chunk's words, one row per sample (looked up
    on the module, so a patched ``_chunk_words`` reaches them)."""
    return _uniforms(oracle._chunk_words(seed, chunk, CHUNK))


def _sample_events(job, index):
    """Sample ``index`` of ``job`` run by ``_simulate`` on the stream
    ``simulate_sample`` reads: its final state and its jumps, each
    (t, kind, k, species after)."""
    events = []
    chunk, row = divmod(index, CHUNK)
    draw = _UniformStream(_row_uniforms(job.seed, chunk, row), job.seed, index)
    positions, species = _simulate(job, draw, events)
    final = ParticleConfig(tuple(positions), tuple(species))
    assert final == simulate_sample(job, index)
    return final, events


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
            final, events = _sample_events(job, i)
            assert final.species == (events[-1][3] if events else job.initial.species)
            for t, kind, k, species_after in events:
                if kind == 1:  # swap of (k, k+1); labels recorded post-swap
                    assert species_after[k] < species_after[k + 1]

    @pytest.mark.parametrize("a, b, counter", [
        (5, 3, 0), (2**64 + 7, -1, 24), (oracle.GOLDEN ^ 11, 2**63, 2**70 + 5),
    ])
    def test_keyed_stream_is_numpys_keyed_philox(self, a, b, counter):
        # the streams skip the constructor's OS-entropy draw, not its output
        key = np.array([a & oracle.MASK64, b & oracle.MASK64], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(counter=counter, key=key)).random(40)
        assert np.array_equal(oracle._philox(a, b, counter).random(40), expected)

    @pytest.mark.parametrize("chunk", [0, 3])
    def test_single_row_draw_equals_chunk_row(self, chunk):
        full = _chunk_uniforms(5, chunk)
        for row in (0, 1, 7, 500, 1023):
            assert np.array_equal(_row_uniforms(5, chunk, row), full[row])

    @pytest.mark.parametrize("seed, chunk", [(0, 0), (5, 3), (2**40 + 1, 17), (-1, 2)])
    def test_word_map_is_generator_random(self, seed, chunk):
        # the uniforms of the raw words are Generator.random's, bit for bit
        expected = oracle._philox(seed, chunk, 0).random((CHUNK, UNIFORMS_PER_SAMPLE))
        full = _chunk_uniforms(seed, chunk)
        assert np.array_equal(full, expected)
        for row in (0, 1, CHUNK - 1):
            assert np.array_equal(_row_uniforms(seed, chunk, row), expected[row])

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
    @pytest.mark.parametrize("q, t", [(-0.5, 1.0), (0.0, -1.0), (0.0, math.inf),
                                      (math.inf, 1.0)])
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

    @pytest.mark.parametrize("event", [("target", (1, 0), (1, 1)),
                                       ("target", (0, 1), (1,)),
                                       ("target", (2**63,), (1,))])
    def test_target_event_must_be_a_state(self, event):
        with pytest.raises(ValidationError):
            _job((0, 1), (1, 1), 0.0, 1.0, event=event)

    @pytest.mark.parametrize("samples, bernoulli", [
        (2000.5, (0.5, 1, 2)), (True, (0.5, 1, 2)), (10, (0.5, 1.5, 2)), (10, (0.5, 1, True)),
    ], ids=["fractional_samples", "bool_samples", "fractional_m", "bool_n"])
    def test_non_integral_counts_refused(self, samples, bernoulli):
        with pytest.raises(ValidationError, match="must be integral"):
            MonteCarloJob(q=0.0, horizon=1.0, samples=samples, seed=0, bernoulli=bernoulli)

    def test_integral_float_counts_are_ints(self):
        job = MonteCarloJob(q=0.0, horizon=1.0, samples=2000.0, seed=0,
                            bernoulli=(0.5, 1.0, 2.0), event=("wall", -3, 2))
        assert job.samples == 2000 and job.bernoulli == (0.5, 1, 2)
        assert type(job.samples) is int and all(type(x) is int for x in job.bernoulli[1:])
        assert run_monte_carlo(job) == run_monte_carlo(
            MonteCarloJob(q=0.0, horizon=1.0, samples=2000, seed=0,
                          bernoulli=(0.5, 1, 2), event=("wall", -3, 2)))

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
        _assert_samples_are_counted(GOLDEN_JOBS[shape], seed, 1020, 1031)

    @pytest.mark.parametrize("shape", sorted(GOLDEN_JOBS))
    def test_sample_is_the_counted_trajectory_across_a_batch(self, shape):
        # indices 4090..4101 straddle the first batch boundary
        edge = BATCH_CHUNKS * CHUNK
        _assert_samples_are_counted(GOLDEN_JOBS[shape], 1, edge - 6, edge + 6)


def _assert_samples_are_counted(make_job, seed, lo, hi):
    """simulate_sample(job, i) holds the event for as many i in [lo, hi) as
    run_monte_carlo counts among them."""
    counted = run_monte_carlo(make_job(seed, hi))[2] - run_monte_carlo(make_job(seed, lo))[2]
    job = make_job(seed, hi)
    held = 0
    for i in range(lo, hi):
        final = simulate_sample(job, i)
        held += _event_holds(job.event, final.positions, final.species)
    assert held == counted


def _scalar_finals(job):
    """The final states of ``job``'s samples, each run alone by ``_simulate``
    on its own row of the chunk uniforms."""
    finals = []
    for chunk in range(-(-job.samples // CHUNK)):
        buf = _chunk_uniforms(job.seed, chunk)
        for row in range(min(CHUNK, job.samples - chunk * CHUNK)):
            draw = _UniformStream(buf[row], job.seed, chunk * CHUNK + row)
            finals.append(_simulate(job, draw))
    return finals


def _scalar_successes(job):
    """The event count of ``job`` over ``_scalar_finals``."""
    return sum(_event_holds(job.event, *final) for final in _scalar_finals(job))


def _patch_words(monkeypatch, uniforms):
    """Make every chunk draw put the uniform u in the given rows and column
    of its words, for each (rows, column, u) of ``uniforms``: the lockstep
    and the scalar path both read them."""
    original = oracle._chunk_words

    def patched(seed, chunk_index, rows):
        words = original(seed, chunk_index, rows)
        for picked, column, u in uniforms:
            words[picked, column] = np.uint64(round(u * 2**53)) << np.uint64(11)
        return words

    monkeypatch.setattr(oracle, "_chunk_words", patched)


def _count_scalar_runs(monkeypatch):
    """Count the rows that ``_run_chunks`` hands to the scalar ``_simulate``."""
    runs = []

    def counted(job, draw, events=None):
        runs.append(draw.index)
        return _simulate(job, draw, events)

    monkeypatch.setattr(oracle, "_simulate", counted)
    return runs


# 1,030 samples: one full chunk and a partial one of 6 rows
BATCHED_JOBS = dict(
    GOLDEN_JOBS,
    target_q03_n3=lambda seed, samples: _job(
        (0, 1, 2), (2, 1, 2), 0.3, 1.0, seed=seed, samples=samples,
        event=("target", (0, 1, 3), (1, 2, 2))),
)


def _long_horizon_job(seed, samples, bernoulli=False):
    # about 56 jumps per sample: most rows run past their 96 uniforms; the
    # Bernoulli gap shifts the steps by one column, so those rows run out
    # between a clock uniform and its move uniform
    if bernoulli:
        return MonteCarloJob(q=1.0, horizon=14.0, samples=samples, seed=seed,
                             bernoulli=(0.5, 1, 2), event=("wall", -3, 2))
    return _job((0, 2), (1, 2), 1.0, 14.0, seed=seed, samples=samples,
                event=("wall", -2, 4))


class TestBatchedCounts:
    @pytest.mark.parametrize("shape", sorted(BATCHED_JOBS))
    def test_counts_equal_the_scalar_path(self, shape):
        for seed in range(20):
            job = BATCHED_JOBS[shape](seed, 1030)
            assert run_monte_carlo(job)[2] == _scalar_successes(job), seed

    @pytest.mark.parametrize("samples", [4 * CHUNK + 6, 9 * CHUNK])
    @pytest.mark.parametrize("shape", ["wall_q0", "target_q03_n3"])
    def test_counts_across_batches_equal_the_scalar_path(self, shape, samples):
        # two batches with a partial last chunk, and three with a lone chunk
        job = BATCHED_JOBS[shape](2, samples)
        assert run_monte_carlo(job)[2] == _scalar_successes(job)

    @pytest.mark.parametrize("bernoulli", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_long_horizon_counts_equal_the_scalar_path(self, seed, bernoulli):
        job = _long_horizon_job(seed, 1030, bernoulli)
        assert run_monte_carlo(job)[2] == _scalar_successes(job)

    def test_long_horizon_uses_the_scalar_fallback(self, monkeypatch):
        runs = _count_scalar_runs(monkeypatch)
        run_monte_carlo(_long_horizon_job(1, 1030))
        assert len(runs) > 700

    def test_retried_rows_keep_their_sample_index(self, monkeypatch):
        # the second batch starts at sample 4 * CHUNK: a row it hands back
        # must draw its overflow uniforms under its own sample index
        job = _long_horizon_job(1, BATCH_CHUNKS * CHUNK + 6)
        runs = _count_scalar_runs(monkeypatch)
        run_monte_carlo(job)
        assert len(set(runs)) == len(runs) and set(runs) <= set(range(job.samples))
        assert any(i >= BATCH_CHUNKS * CHUNK for i in runs)

    def test_zero_and_integer_gap_uniforms_fall_back(self, monkeypatch):
        # u == 0 makes the scalar path draw again: in a Bernoulli gap
        # (column 0) and in a clock draw (columns 1 and 2); u = 1/4 at
        # rho = 1/2 puts log(u) / log(1 - rho) on the integer 2, where the
        # rounding of the logarithm decides the gap
        _patch_words(monkeypatch, [(slice(None, None, 7), 0, 0.0), (slice(3, None, 7), 0, 0.25),
                                   (slice(1, None, 5), 1, 0.0), (slice(2, None, 9), 2, 0.0)])
        for shape in ("wall_q0", "target_q03_n3"):
            job = BATCHED_JOBS[shape](4, 1030)
            assert run_monte_carlo(job)[2] == _scalar_successes(job)
        runs = _count_scalar_runs(monkeypatch)
        run_monte_carlo(BATCHED_JOBS["wall_q0"](4, 1030))
        assert {i for i in range(1030) if i % CHUNK % 7 in (0, 3)} <= set(runs)

    def test_clock_tie_with_the_horizon_falls_back(self, monkeypatch):
        # a horizon equal to the time of sample 0's first jump: the scalar
        # comparison t > horizon decides that row
        probe = _job((0, 1, 2), (2, 1, 2), 0.3, 5.0, seed=8)
        horizon = _sample_events(probe, 0)[1][0][0]
        job = _job((0, 1, 2), (2, 1, 2), 0.3, horizon, seed=8, samples=40,
                   event=("target", (0, 1, 2), (2, 1, 2)))
        runs = _count_scalar_runs(monkeypatch)
        assert run_monte_carlo(job)[2] == _scalar_successes(job)
        assert 0 in runs

    def test_positions_near_the_int64_limit_fall_back(self, monkeypatch):
        top = 2**63 - 10
        job = _job((top - 1, top), (1, 2), 0.5, 2.0, seed=6, samples=50,
                   event=("target", (top - 1, top + 1), (1, 2)))
        runs = _count_scalar_runs(monkeypatch)
        assert run_monte_carlo(job)[2] == _scalar_successes(job) > 0
        assert len(runs) == 50

    def test_two_workers_give_the_same_counts(self):
        for samples in (2100, 9 * CHUNK):
            job = BATCHED_JOBS["wall_q0"](5, samples)
            assert run_monte_carlo(job, threads=1) == run_monte_carlo(job, threads=2)

    @pytest.mark.parametrize("threads, cores, workers", [
        (1000, 8, [3]),  # no more workers than the job's 3 chunks
        (1000, 2, [2]),  # nor than cores
        (1000, None, []),  # an unknown core count runs inline
        (2, 8, [2]),
    ])
    def test_worker_count_is_bounded(self, monkeypatch, threads, cores, workers):
        # a pool starts all its workers at once, so none is started here:
        # the stand-in pool records its size and runs each batch inline
        started = []
        job = BATCHED_JOBS["wall_q0"](5, 2100)
        serial = run_monte_carlo(job, threads=1)
        monkeypatch.setattr(oracle, "ProcessPoolExecutor", _inline_pool(started))
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: cores)
        assert run_monte_carlo(job, threads=threads) == serial
        assert started == workers

    @pytest.mark.parametrize("threads, firsts, pools", [
        (1, [0, 4, 8], []),  # inline: BATCH_CHUNKS chunks per lockstep
        (2, [0, 4, 8], [2]),  # an even share, 5 chunks, exceeds BATCH_CHUNKS
        (4, [0, 3, 6, 9], [4]),  # an even share of 10 chunks over 4 workers is 3
        (8, [0, 2, 4, 6, 8], [5]),  # no idle workers: one per batch
    ])
    def test_lockstep_rows_are_bounded(self, monkeypatch, threads, firsts, pools):
        # 10 chunks, the last one partial; each batch runs inline
        job = BATCHED_JOBS["wall_q0"](5, 9 * CHUNK + 6)
        serial = run_monte_carlo(job, threads=1)
        batches, started = [], []
        run_chunks = oracle._run_chunks

        def recorded(job, first_chunk, count):
            batches.append((first_chunk, count))
            return run_chunks(job, first_chunk, count)

        monkeypatch.setattr(oracle, "_run_chunks", recorded)
        monkeypatch.setattr(oracle, "ProcessPoolExecutor", _inline_pool(started))
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 8)
        assert run_monte_carlo(job, threads=threads) == serial
        assert started == pools
        assert [first for first, _ in batches] == firsts
        assert max(count for _, count in batches) <= BATCH_CHUNKS * CHUNK
        ends = [first * CHUNK + count for first, count in batches]
        assert ends == [first * CHUNK for first in firsts[1:]] + [job.samples]


def _drawn_job(index):
    """A seeded job of 1 to 6 particles: colours 1 and 2 with repeats (so
    blocked pairs of equal colours), q in {0, 0.3, 1, 1.7}, a fixed state
    or Bernoulli data with rho < 1 or rho = 1, and a horizon of about 64
    jumps (past the 48 steps of 96 uniforms) in a third of the jobs."""
    rng = np.random.default_rng([31, index])
    n = int(rng.integers(1, 7))
    q = float(rng.choice([0.0, 0.3, 1.0, 1.7]))
    horizon = float(rng.choice([0.5, 2.0, 64.0 / (n * (1.0 + q))]))
    if index % 2:
        source = {"bernoulli": (float(rng.choice([0.4, 1.0])), int(rng.integers(n + 1)), n)}
    else:
        positions = np.sort(rng.choice(np.arange(-3, 5), n, replace=False))
        source = {"initial": ParticleConfig(tuple(positions.tolist()),
                                            tuple(rng.integers(1, 3, n).tolist()))}
    return MonteCarloJob(q=q, horizon=horizon, samples=int(rng.integers(150, 400)),
                         seed=int(rng.integers(2**31)), **source)


class TestTableLockstep:
    @pytest.mark.parametrize("index", range(16))
    def test_drawn_jobs_count_as_the_scalar_path(self, index):
        # the count of each of the eight commonest final states
        job = _drawn_job(index)
        finals = collections.Counter((tuple(p), tuple(s)) for p, s in _scalar_finals(job))
        for final, held in finals.most_common(8):
            event = ("target",) + final
            assert run_monte_carlo(dataclasses.replace(job, event=event))[2] == held, final

    def test_twelve_particles_count_as_the_scalar_path(self):
        # three table blocks: the running sums are carried across two of
        # them; colour 3 is outside the wall event, so the event holds for
        # some of the samples at each s from 4 to 13
        job = _job((0, 1, 2, 4, 5, 7, 8, 9, 10, 12, 13, 14),
                   (3, 1, 3, 3, 1, 3, 3, 3, 2, 3, 3, 2), 0.3, 1.5, seed=12, samples=300)
        finals = _scalar_finals(job)
        for s in range(4, 14):
            event = ("wall", -5, s)
            held = sum(_event_holds(event, *final) for final in finals)
            assert run_monte_carlo(dataclasses.replace(job, event=event))[2] == held, s

    def test_zero_move_and_clock_uniforms_fall_back(self, monkeypatch):
        # x = 0 would pick slot 0, the equal-colour pair's swap at rate 0,
        # and a clock uniform of 0 makes the scalar path draw again
        _patch_words(monkeypatch, [(slice(None, None, 5), 1, 0.0), (slice(2, None, 5), 0, 0.0)])
        job = _job((0, 1, 2), (2, 2, 1), 0.3, 2.0, seed=3, samples=1030,
                   event=("wall", 0, 3))
        assert run_monte_carlo(job)[2] == _scalar_successes(job)
        runs = _count_scalar_runs(monkeypatch)
        run_monte_carlo(job)
        assert {i for i in range(1030) if i % CHUNK % 5 in (0, 2)} <= set(runs)


def _inline_pool(started):
    """A stand-in for ProcessPoolExecutor that appends its size to ``started``
    and runs each submitted call inline."""

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    return InlinePool


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
            )

    def test_default_window_covers_drift(self):
        lo, hi = default_window((0, 1), 1.0)
        assert lo <= -5 and hi >= 8


def _reference_window(particles, window, q):
    """The per-state loop that built window generators before the array
    builder: (states, index, CSR matrix)."""
    a, b = window
    n = particles.n
    colour_orders = list(_multiset_permutations(particles.species))
    states = []
    index = {}
    for pos in itertools.combinations(range(a, b + 1), n):
        for spc in colour_orders:
            index[(pos, spc)] = len(states)
            states.append((pos, spc))
    D = len(states)
    sink = D
    rows, cols, vals = [], [], []

    def add(i, j, rate):
        rows.append(i)
        cols.append(j)
        vals.append(rate)

    for i, (pos, spc) in enumerate(states):
        pos_l = list(pos)
        spc_l = list(spc)
        occupied = set(pos)
        for k in range(n):
            if pos_l[k] + 1 not in occupied:
                if pos_l[k] + 1 > b:
                    add(i, sink, 1.0)
                else:
                    new_pos = tuple(sorted(pos_l[:k] + [pos_l[k] + 1] + pos_l[k + 1:]))
                    add(i, index[(new_pos, tuple(spc_l))], 1.0)
            elif k + 1 < n and pos_l[k + 1] == pos_l[k] + 1:
                cl, cr = spc_l[k], spc_l[k + 1]
                swapped = tuple(spc_l[:k] + [cr, cl] + spc_l[k + 2:])
                if cl > cr:
                    add(i, index[(pos, swapped)], 1.0)
                elif cl < cr and q > 0.0:
                    add(i, index[(pos, swapped)], q)
            if q > 0.0 and pos_l[k] - 1 not in occupied:
                if pos_l[k] - 1 < a:
                    add(i, sink, q)
                else:
                    new_pos = tuple(sorted(pos_l[:k] + [pos_l[k] - 1] + pos_l[k + 1:]))
                    add(i, index[(new_pos, tuple(spc_l))], q)
    off_diag = sp.coo_matrix(
        (vals, (rows, cols)), shape=(D + 1, D + 1), dtype=float
    ).tocsr()
    diag = -np.asarray(off_diag.sum(axis=1)).ravel()
    matrix = (off_diag + sp.diags(diag, format="csr")).tocsr()
    for _ in range(8):
        resid = np.asarray(matrix.sum(axis=1)).ravel()
        bad = np.nonzero(resid)[0]
        if bad.size == 0:
            break
        for i in bad:
            target = diag[i] - resid[i]
            if target == diag[i]:
                target = np.nextafter(diag[i], diag[i] - resid[i] * 1e6)
            diag[i] = target
        matrix = (off_diag + sp.diags(diag, format="csr")).tocsr()
    return tuple(states), index, matrix


WINDOW_GRID = [
    # (colours, window): the particles start on both window edges, so the
    # enumerated states include every exit to the sink
    ((1,), (0, 3)),
    ((1, 1), (0, 4)),
    ((2, 1), (-2, 3)),
    ((1, 2, 2), (0, 5)),
    ((3, 2, 1), (-1, 4)),
    ((1, 1, 1), (0, 4)),
    ((2, 1, 2, 1), (0, 6)),
    ((1, 3, 2, 3), (-1, 5)),
]


class TestWindowBuilderEqualsReference:
    @pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 0.7, 1.7])
    @pytest.mark.parametrize("colours, window", WINDOW_GRID)
    def test_bit_identical(self, colours, window, q):
        n = len(colours)
        particles = ParticleConfig((window[0],) + tuple(range(window[1] - n + 2, window[1] + 1)),
                                   colours)
        gen = build_window_generator(particles, window, ModelParams(q=q))
        states, index, matrix = _reference_window(particles, window, q)
        assert gen.states == states
        assert dict(zip(gen.states, range(gen.size))) == index
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(gen.matrix, part), getattr(matrix, part))

    def test_generic_rate_fix_up_bit_identical(self):
        # q = 0.3: most row sums need the ulp fix-up
        particles = ParticleConfig((0, 1, 2), (2, 1, 1))
        gen = build_window_generator(particles, (-6, 9), ModelParams(q=0.3))
        states, _, matrix = _reference_window(particles, (-6, 9), 0.3)
        assert gen.states == states
        assert np.array_equal(gen.matrix.diagonal(), matrix.diagonal())
        assert (gen.matrix != matrix).nnz == 0

    @pytest.mark.parametrize("colours, window", [
        ((1,) * 40, (0, 41)),  # 3**40 position-set keys
        ((3, 2) + (1,) * 38, (0, 39)),  # 3**40 colour-order keys
    ])
    def test_keys_past_int64(self, colours, window):
        particles = ParticleConfig(tuple(range(40)), colours)
        gen = build_window_generator(particles, window, ModelParams(q=0.5))
        states, index, matrix = _reference_window(particles, window, 0.5)
        assert gen.states == states
        assert dict(zip(gen.states, range(gen.size))) == index
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(gen.matrix, part), getattr(matrix, part))


def _reference_row(matrix, start, t):
    """Uniformization as it was before the transposed matrix was formed
    once: the Poisson series of (I + Q/lam) applied through P.T.dot."""
    D = matrix.shape[0] - 1
    v = np.zeros(D + 1)
    v[start] = 1.0
    lam = float((-matrix.diagonal()).max())
    P = sp.eye(D + 1, format="csr") + matrix / lam
    lt = lam * t
    weight = math.exp(-lt)
    out = weight * v
    k = 0
    while k + 1 <= lt or weight * lt / (k + 1) / (1.0 - lt / (k + 2)) > 1e-15:
        k += 1
        v = P.T.dot(v)
        weight *= lt / k
        out += weight * v
    return out


STATE_OF_GRID = WINDOW_GRID + [
    ((1,) * 40, (0, 41)),  # the windows of test_keys_past_int64
    ((3, 2) + (1,) * 38, (0, 39)),
]


class TestLazyWindowStates:
    @pytest.mark.parametrize("colours, window", STATE_OF_GRID)
    def test_state_of_is_the_enumeration_index(self, colours, window):
        particles = ParticleConfig(tuple(range(window[0], window[0] + len(colours))), colours)
        gen = build_window_generator(particles, window, ModelParams(q=0.5))
        assert gen.size == len(gen.states)
        for i, state in enumerate(gen.states):
            assert gen.state_of(ParticleConfig(*state)) == i

    @pytest.mark.parametrize("positions, colours", [
        ((-3, 0, 1), (2, 1, 2)),  # left of the window
        ((0, 1, 5), (2, 1, 2)),  # right of the window
        ((0, 1), (2, 1)),  # too few particles
        ((0, 1, 2, 3), (2, 1, 2, 1)),  # too many
        ((0, 1, 2), (2, 1, 3)),  # a colour the window does not hold
        ((0, 1, 2), (2, 1, 1)),  # the right colours, counted wrong
        ((0, 1, 2), (2, 2, 2)),  # the largest colour, counted wrong
    ])
    def test_state_of_refuses_outside_configurations(self, positions, colours):
        gen = build_window_generator(ParticleConfig((0, 1, 2), (1, 2, 2)), (-2, 4),
                                     ModelParams(q=0.5))
        with pytest.raises(ValidationError):
            gen.state_of(ParticleConfig(positions, colours))

    def test_row_leaves_states_unbuilt(self):
        mu = ParticleConfig((0, 1, 2), (3, 2, 1))
        gen = build_window_generator(mu, (-10, 12), ModelParams(q=0.5))
        row = transition_row(gen, mu, 1.0)
        assert "states" not in vars(gen) and "index" not in vars(gen)
        assert len(row) == gen.size + 1 == 10_627

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("colours, window", [
        ((2, 1), (-4, 12)),
        ((2, 1, 1), (-6, 9)),
        ((3, 2, 1), (-3, 6)),
        ((2, 1, 2, 1), (0, 6)),
    ])
    def test_transition_row_bit_identical(self, colours, window, q):
        n = len(colours)
        mu = ParticleConfig(tuple(range(window[0] + 3, window[0] + 3 + n)), colours)
        gen = build_window_generator(mu, window, ModelParams(q=q))
        _, index, matrix = _reference_window(mu, window, q)
        start = index[(mu.positions, mu.species)]
        for t in (0.4, 1.3):
            assert np.array_equal(transition_row(gen, mu, t), _reference_row(matrix, start, t))


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

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        mu = ParticleConfig((0,), (1,))
        gen = build_window_generator(mu, (0, 3), ModelParams(q=0.0))
        with pytest.raises(ValidationError, match="time must be >= 0 and finite"):
            transition_row(gen, mu, t)


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
