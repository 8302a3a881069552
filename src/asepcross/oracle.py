"""Ground-truth engines for validating the closed-form evaluators.

Two independent oracles: an exact continuous-time Gillespie simulator of the
multi-species exclusion process on the unbounded lattice, and the matrix
exponential of the generator restricted to a finite window (out-of-window
jumps drain into an absorbing sink state), evaluated by uniformization.

A ``MonteCarloJob`` describes every simulation: a fixed initial state or
Bernoulli-step initial data, the backhop rate q, the horizon, the seed and
the event whose probability ``run_monte_carlo`` estimates; it checks its
fields with the rules of ``core`` when it is built, as the window oracle's
entry points check theirs.  ``_simulate`` takes a job and a uniform stream
to a final state; a Bernoulli job draws its initial state from the same
stream before the jumps.  ``simulate_sample(job, i)`` returns the final
state of sample ``i``.
``run_monte_carlo`` runs the samples of up to BATCH_CHUNKS consecutive
chunks in one lockstep with numpy, reading each sample's uniforms in
``_simulate``'s order and its move rates from tables indexed by the codes
of its adjacent pairs (``_pair_codes``, ``_rate_tables``), and hands the
rows it cannot follow exactly back to ``_simulate``; so the trajectory it
counts for ``i`` is the one ``simulate_sample(job, i)`` returns.

Randomness is counter-based: sample ``i`` of a run with seed ``s`` draws its
uniforms from a Philox stream keyed by (s, chunk(i)) plus a per-sample
overflow stream keyed by (s xor GOLDEN, i), so results are bit-identical for
any partition of samples across workers.  A uniform is one 64-bit output
mapped as ``Generator.random`` maps it (``_uniforms``), so the lockstep
draws raw words and converts only those it reads.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import (
    ModelParams,
    ParticleConfig,
    ResourceLimitError,
    ValidationError,
    as_int,
    bernoulli_data,
    check_rate,
)

MASK64 = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15
CHUNK = 1024
# chunks per lockstep: numpy's per-call cost is paid once for them all, and
# past four the strided column reads of the word buffer leave the cache
BATCH_CHUNKS = 4
UNIFORMS_PER_SAMPLE = 96
STATE_CAP = 200_000


class _Key(ISeedSequence):
    """A Philox key passed as the seed sequence: ``Philox(key=...)`` would
    also draw an OS-entropy SeedSequence that a keyed stream never reads."""

    def __init__(self, a: int, b: int):
        self.words = (a & MASK64, b & MASK64)

    def generate_state(self, n_words, dtype):
        return np.array(self.words, dtype=np.uint64)


def _philox(a: int, b: int, counter: int) -> np.random.Generator:
    """The Philox4x64 stream with key (a, b), ``counter`` steps in."""
    return np.random.Generator(np.random.Philox(_Key(a, b), counter=counter))


class _UniformStream:
    """Pre-drawn uniforms with a deterministic per-sample overflow stream."""

    __slots__ = ("buf", "i", "seed", "index", "rng")

    def __init__(self, buf, seed, index):
        self.buf = buf
        self.i = 0
        self.seed = seed
        self.index = index
        self.rng = None

    def __call__(self) -> float:
        if self.i >= len(self.buf):
            if self.rng is None:
                self.rng = _philox(self.seed ^ GOLDEN, self.index, 0)
            self.buf = self.rng.random(256)
            self.i = 0
        v = self.buf[self.i]
        self.i += 1
        return v


def _chunk_words(seed: int, chunk_index: int, rows: int) -> np.ndarray:
    """The first rows * UNIFORMS_PER_SAMPLE 64-bit outputs of the stream
    keyed (seed, chunk_index), as (rows, UNIFORMS_PER_SAMPLE): one row per
    sample."""
    words = _philox(seed, chunk_index, 0).bit_generator.random_raw(rows * UNIFORMS_PER_SAMPLE)
    return words.reshape(rows, UNIFORMS_PER_SAMPLE)


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The uniforms in [0, 1) of 64-bit Philox outputs: the top 53 bits
    times 2**-53, the map of ``Generator.random``."""
    return (words >> 11) * 2.0**-53


def _row_uniforms(seed: int, chunk_index: int, row: int) -> np.ndarray:
    """Row ``row`` of the uniforms of the chunk's words (``_chunk_words``),
    drawn alone: each uniform takes one 64-bit output and a Philox4x64
    counter step yields four, so the row starts row * UNIFORMS_PER_SAMPLE / 4
    steps in."""
    bits = _philox(seed, chunk_index, row * UNIFORMS_PER_SAMPLE // 4).bit_generator
    return _uniforms(bits.random_raw(UNIFORMS_PER_SAMPLE))


def _gillespie_core(positions, species, q, horizon, draw, events=None):
    """Advance one trajectory to the time horizon; mutates the state lists."""
    n = len(positions)
    t = 0.0
    log = math.log
    while True:
        rates = []
        moves = []
        for k in range(n):
            if k + 1 < n and positions[k + 1] == positions[k] + 1:
                cl, cr = species[k], species[k + 1]
                if cl > cr:
                    rates.append(1.0)
                    moves.append((1, k))
                elif cl < cr and q > 0.0:
                    rates.append(q)
                    moves.append((1, k))
            else:
                rates.append(1.0)
                moves.append((0, k))
            if q > 0.0 and not (k > 0 and positions[k - 1] == positions[k] - 1):
                rates.append(q)
                moves.append((-1, k))
        total = 0.0
        for r in rates:
            total += r
        if total <= 0.0:
            return t
        u = draw()
        while u <= 0.0:
            u = draw()
        t -= log(u) / total
        if t > horizon:
            return horizon
        x = draw() * total
        acc = 0.0
        chosen = moves[-1]
        for r, mv in zip(rates, moves):
            acc += r
            if x <= acc:
                chosen = mv
                break
        kind, k = chosen
        if kind == 0:
            positions[k] += 1
        elif kind == -1:
            positions[k] -= 1
        else:
            species[k], species[k + 1] = species[k + 1], species[k]
        if events is not None:
            events.append((t, kind, k, tuple(species)))


@dataclass(frozen=True)
class MonteCarloJob:
    """Picklable description of one Monte Carlo experiment.

    Exactly one of ``initial`` (a fixed state) and ``bernoulli`` = (rho, m, n)
    is given.  Bernoulli-step data put type 2 at the m rightmost occupied
    negative sites of an iid density-rho field and type 1 at 0..n-m-1.
    ``event`` is ("target", positions, species) or ("wall", s1, s2): type 1
    in [s1, s2) and type 2 at or beyond s2.  The counts, the seed and the
    wall bounds are stored as ints.
    """

    q: float
    horizon: float
    samples: int
    seed: int
    initial: ParticleConfig | None = None
    bernoulli: tuple[float, int, int] | None = None  # (rho, m, n)
    event: tuple = ()

    def __post_init__(self):
        if (self.initial is None) == (self.bernoulli is None):
            raise ValidationError("exactly one of initial/bernoulli is required")
        object.__setattr__(self, "samples", as_int(self.samples, "samples"))
        if self.samples < 1:
            raise ValidationError("samples must be >= 1")
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
        check_rate(self.horizon, "horizon")
        check_rate(self.q, "q")
        if self.bernoulli is not None:
            object.__setattr__(self, "bernoulli", bernoulli_data(*self.bernoulli))
        if self.event and self.event[0] not in ("target", "wall"):
            raise ValidationError(f"unknown event kind {self.event[0]!r}")
        if self.event and len(self.event) != 3:
            raise ValidationError(f"a {self.event[0]} event needs 2 fields after its kind, "
                                  f"got {self.event!r}")
        if self.event and self.event[0] == "target":
            ParticleConfig(self.event[1], self.event[2])  # sorted, int64, labels >= 1
        elif self.event:
            object.__setattr__(self, "event", ("wall", as_int(self.event[1], "s1"),
                                               as_int(self.event[2], "s2")))


def _event_holds(event, positions, species) -> bool:
    if event[0] == "target":
        return tuple(positions) == tuple(event[1]) and tuple(species) == tuple(event[2])
    s1, s2 = event[1], event[2]
    for x, c in zip(positions, species):
        if c == 1 and not (s1 <= x < s2):
            return False
        if c == 2 and x < s2:
            return False
    return True


def _bernoulli_lists(rho, m, n, draw):
    site = 0
    type2 = []
    for _ in range(m):
        if rho == 1.0:
            gap = 1
        else:
            # inverse-transform geometric on {1, 2, ...}
            u = draw()
            while u <= 0.0:
                u = draw()
            gap = 1 + int(math.log(u) / math.log1p(-rho))
        site -= gap
        type2.append(site)
    positions = sorted(type2) + list(range(n - m))
    species = [2] * m + [1] * (n - m)
    return positions, species


def _simulate(job: MonteCarloJob, draw, events=None):
    """Final (positions, species) of one sample of the job on the stream.
    If ``events`` is a list, each jump appends (t, kind, k, species after),
    where kind is 0 (step right), -1 (step left) or 1 (swap of k and k+1)."""
    if job.bernoulli is not None:
        positions, species = _bernoulli_lists(*job.bernoulli, draw)
    else:
        positions = list(job.initial.positions)
        species = list(job.initial.species)
    _gillespie_core(positions, species, job.q, job.horizon, draw, events)
    return positions, species


def simulate_sample(job: MonteCarloJob, index: int = 0) -> ParticleConfig:
    """Final state of sample ``index``: the trajectory run_monte_carlo counts."""
    index = as_int(index, "sample index")
    if index < 0:
        raise ValidationError("sample index must be >= 0")
    chunk, row = divmod(index, CHUNK)
    draw = _UniformStream(_row_uniforms(job.seed, chunk, row), job.seed, index)
    positions, species = _simulate(job, draw)
    return ParticleConfig(tuple(positions), tuple(species))


def _events_hold(event, positions, species) -> np.ndarray:
    """``_event_holds`` for each row of (rows, n) position and species arrays."""
    if event[0] == "target":
        if len(event[1]) != positions.shape[1]:
            return np.zeros(len(positions), dtype=bool)
        return ((positions == np.array(event[1], dtype=np.int64)).all(axis=1)
                & (species == np.array(event[2], dtype=np.int64)).all(axis=1))
    s1, s2 = event[1], event[2]
    ok_1 = (species != 1) | ((s1 <= positions) & (positions < s2))
    ok_2 = (species != 2) | (positions >= s2)
    return (ok_1 & ok_2).all(axis=1)


def _pair_codes(positions, species) -> np.ndarray:
    """Code of the pair (k, k + 1) in row k of (n, rows) position and
    species arrays: 0 free (no particle at x_k + 1), 1 blocked with a lower
    colour on the left (a swap at rate q), 2 blocked with equal colours (no
    swap), 3 blocked with a higher colour on the left (a swap at rate 1).
    Row n - 1, right of the last particle, is free."""
    code = np.zeros_like(positions)
    code[:-1] = (positions[1:] - positions[:-1] == 1) * (2 + np.sign(species[:-1] - species[1:]))
    return code


# particles per table block: their 2 * BLOCK rate slots depend on the
# BLOCK + 1 pair codes around them, so a block's table has 4 ** (BLOCK + 1) rows
BLOCK = 4


def _block_rates(q: float, particles: int) -> np.ndarray:
    """(4 ** (BLOCK + 1), 2 * BLOCK) rates of a block's slots, one row per
    tuple of pair codes c_0, ..., c_BLOCK (row sum_j c_j 4**j), c_i left of
    particle i: slot 2i, particle i's step right or swap, has rate
    (1, q, 0, 1)[c_{i + 1}], and slot 2i + 1, its step left, rate q if c_i
    is free; the slots after the block's ``particles`` have rate 0."""
    codes = np.arange(4 ** (BLOCK + 1))[:, None] >> 2 * np.arange(BLOCK + 1) & 3
    rates = np.zeros((len(codes), BLOCK, 2))
    rates[:, :particles, 0] = np.array([1.0, q, 0.0, 1.0])[codes[:, 1:particles + 1]]
    rates[:, :particles, 1] = np.where(codes[:, :particles] == 0, q, 0.0)
    return rates.reshape(len(codes), 2 * BLOCK)


@functools.lru_cache(maxsize=16)
def _rate_tables(q: float, n: int):
    """(weights, offsets, sums, rates): the lockstep's tables for n particles.

    Particles BLOCK * b, ..., BLOCK * b + BLOCK - 1 form block b, and its
    codes c_0, ..., c_BLOCK are the ``_pair_codes`` rows BLOCK * b - 1, ...,
    BLOCK * b + BLOCK - 1, free outside the particles.  ``weights @ codes +
    offsets`` is each block's table column; columns [0, R) serve a full
    block and [R, 2R) the last one, R = 4 ** (BLOCK + 1).  ``rates`` and
    ``sums``, (2 * BLOCK, 2R), hold each column's slot rates
    (``_block_rates``) and their running sums from zero.
    """
    blocks = max(1, -(-n // BLOCK))
    rates = np.concatenate([_block_rates(q, BLOCK),
                            _block_rates(q, n - BLOCK * (blocks - 1))]).T.copy()
    weights = np.zeros((blocks, n), dtype=np.int64)
    for k in range(n - 1):  # pair (k, k + 1) is code k + 1 of particle k + 1's block
        b, j = divmod(k + 1, BLOCK)
        weights[b, k] = 4**j
        if j == 0:  # and the last code of the block before
            weights[b - 1, k] = 4**BLOCK
    offsets = np.zeros((blocks, 1), dtype=np.int64)
    offsets[-1] = 4 ** (BLOCK + 1)
    tables = weights, offsets, np.cumsum(rates, axis=0), rates
    for table in tables:  # cached: every lockstep with this (q, n) reads them
        table.flags.writeable = False
    return tables


def _run_chunks(job: MonteCarloJob, first_chunk: int, count: int) -> int:
    """Successes among samples first_chunk * CHUNK + r, r < count, run in
    one lockstep; count spans at most BATCH_CHUNKS consecutive chunks.

    Row r reads its own row of its chunk's words (``_chunk_words``), all
    chunks in one buffer, in the order of ``_simulate``: the Bernoulli gaps,
    then one (clock, move) pair per step, so all running rows read the same
    two columns, and only those become uniforms.  Each row keeps its
    positions, colours and ``_pair_codes`` as columns of (n, rows) arrays.
    Rate slot 2k is particle k's step right or swap, 2k + 1 its step left,
    and absent moves have rate 0; the running sums over the slots come from
    the tables of ``_rate_tables``, summed from zero in the first block and
    carried on slot by slot after it, so they and the total are those of
    ``_gillespie_core``.  The move is the first slot whose running sum
    reaches x = u * total: a slot of nonzero rate, as x > 0.
    A row that draws a clock or move uniform of 0 (as it does past its 96
    words) or comes within rounding of a decision taken on a logarithm is
    re-run from scratch by ``_simulate`` on its ``_UniformStream``.
    """
    # two zero words past each row: a row that reads them draws u == 0
    words = np.zeros((count, UNIFORMS_PER_SAMPLE + 2), dtype=np.uint64)
    for lo in range(0, count, CHUNK):
        rows = min(CHUNK, count - lo)
        words[lo:lo + rows, :UNIFORMS_PER_SAMPLE] = _chunk_words(
            job.seed, first_chunk + lo // CHUNK, rows)
    q, horizon = job.q, job.horizon
    retry = np.zeros(count, dtype=bool)
    column = 0
    if job.bernoulli is None:
        positions = np.tile(np.array(job.initial.positions, dtype=np.int64), (count, 1))
        species = np.tile(np.array(job.initial.species, dtype=np.int64), (count, 1))
    else:
        rho, m, n = job.bernoulli
        gaps = np.ones((count, m))
        if rho < 1.0:
            column = m
            u = _uniforms(words[:, :m]) if m <= UNIFORMS_PER_SAMPLE else np.zeros((count, m))
            ratio = np.log(np.where(u > 0.0, u, 0.5)) / math.log1p(-rho)
            # the scalar gap is 1 + int(math.log(u) / math.log1p(-rho))
            near = np.abs(ratio - np.round(ratio)) <= 1e-9 * np.maximum(ratio, 1.0)
            retry |= ((u <= 0.0) | near | ~(ratio < 2.0**52)).any(axis=1)
            gaps[~retry] = 1.0 + np.floor(ratio[~retry])
        sites = -np.cumsum(gaps.astype(np.int64), axis=1)[:, ::-1]
        positions = np.hstack([sites, np.tile(np.arange(n - m), (count, 1))])
        species = np.tile(np.array([2] * m + [1] * (n - m)), (count, 1))
    # int64 positions stay exact over the at most 48 steps a row runs here
    retry |= (np.abs(positions) > 2**62).any(axis=1)
    ids = np.flatnonzero(~retry)
    positions, species = positions.T.take(ids, axis=1), species.T.take(ids, axis=1)
    n = len(positions)
    weights, offsets, sums, rates = _rate_tables(q, n)
    code = _pair_codes(positions, species)
    clock = np.zeros(len(ids))
    tie = 1e-9 * max(horizon, 1.0)
    ended = [(positions[:, :0], species[:, :0])]  # final states of the stopped rows
    while True:
        index = weights @ code + offsets  # (blocks, rows): each block's table column
        acc = sums.take(index, axis=1)  # (2 * BLOCK, blocks, rows)
        carried = rates.take(index[1:], axis=1)
        for b in range(1, len(index)):  # past the first block, sum on slot by slot
            running = acc[-1, b - 1]
            for j in range(2 * BLOCK):
                running = acc[j, b] = running + carried[j, b - 1]
        total = acc[-1, -1]
        flat = ids * (UNIFORMS_PER_SAMPLE + 2) + column
        u, v = _uniforms(words.take(flat)), _uniforms(words.take(flat + 1))
        with np.errstate(divide="ignore"):
            t = clock - np.log(u) / total  # +inf where no move has a rate
        x = v * total
        failed = (np.minimum(u, v) <= 0.0) | (np.abs(t - horizon) <= tie)
        moving = ~failed & (t <= horizon)
        stopped = np.flatnonzero(~(failed | moving))
        ended.append((positions.take(stopped, axis=1), species.take(stopped, axis=1)))
        retry[ids[failed]] = True
        keep = np.flatnonzero(moving)
        if not keep.size:
            break
        # the slots whose running sums fall below x, counted per block
        below = np.add.reduce((acc < x).view(np.uint8), axis=0, dtype=np.uint8)
        slot = below.sum(axis=0, dtype=np.int64).take(keep)
        ids, clock = ids.take(keep), t.take(keep)
        positions, species, code = (a.take(keep, axis=1) for a in (positions, species, code))
        column += 2
        size = len(ids)
        cell = (slot >> 1) * size + np.arange(size)  # flat index of the moving particle
        left = slot & 1
        swap = (code.take(cell) & 1) > left  # a right move on an odd code swaps
        pair = cell[swap]
        right_of = species.take(pair + size)
        species.put(pair + size, species.take(pair))
        species.put(pair, right_of)
        positions.put(cell, positions.take(cell) + 1 - 2 * left - swap)
        code = _pair_codes(positions, species)
    final = (np.concatenate(arrays, axis=1).T for arrays in zip(*ended))
    successes = int(_events_hold(job.event, *final).sum())
    first = first_chunk * CHUNK  # only a job's last chunk is partial
    for row in np.nonzero(retry)[0]:
        draw = _UniformStream(_uniforms(words[row, :UNIFORMS_PER_SAMPLE]), job.seed,
                              first + int(row))
        successes += _event_holds(job.event, *_simulate(job, draw))
    return successes


def ProcessPoolExecutor(max_workers):
    """concurrent.futures' process pool, imported only when a run starts a
    pool: a one-worker run never loads multiprocessing.  Tests replace this
    name with an inline stand-in."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def run_monte_carlo(job: MonteCarloJob, threads: int = 1):
    """Estimate the event probability; bit-identical for any thread count.

    The chunks run in batches of at most BATCH_CHUNKS consecutive chunks,
    one lockstep each; with more than one worker a batch holds at most
    ceil(chunks / workers) chunks, an even share, so that no worker is left
    with most of the job, and the pool starts no more workers than there
    are batches.  Each chunk draws from its own stream, so the batching
    changes no count.  ``threads`` must be an integer >= 1.
    Returns (estimate, stderr, successes).
    """
    if not job.event:
        raise ValidationError("run_monte_carlo needs an event")
    threads = as_int(threads, "threads")
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    chunks = -(-job.samples // CHUNK)
    # a pool starts all its workers at once: no more than chunks or cores
    workers = min(threads, chunks, os.cpu_count() or 1)
    size = min(BATCH_CHUNKS, -(-chunks // max(workers, 1)))
    batches = [(ci, min(size * CHUNK, job.samples - ci * CHUNK))
               for ci in range(0, chunks, size)]
    if workers <= 1:
        successes = sum(_run_chunks(job, ci, cnt) for ci, cnt in batches)
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(batches))) as pool:
            futures = [pool.submit(_run_chunks, job, ci, cnt) for ci, cnt in batches]
            successes = sum(f.result() for f in futures)
    phat = successes / job.samples
    stderr = math.sqrt(phat * (1.0 - phat) / job.samples)
    return phat, stderr, successes


def _multiset_permutations(colours) -> list:
    """The distinct orders of the colours, in lexicographic order."""
    colours = tuple(sorted(colours))
    if not colours:
        return [()]
    return [(c,) + tail for i, c in enumerate(colours) if colours.index(c) == i
            for tail in _multiset_permutations(colours[:i] + colours[i + 1:])]


@dataclass(frozen=True)
class WindowGenerator:
    """Exact generator of the process restricted to a window with a sink;
    ``states`` is built on first use only."""

    window: tuple[int, int]
    orders: tuple  # the colour orders, in lexicographic order
    n: int
    matrix: sp.csr_matrix  # (D+1) x (D+1); last row/column is the sink

    @property
    def size(self) -> int:
        return math.comb(self.window[1] - self.window[0] + 1, self.n) * len(self.orders)

    @functools.cached_property
    def states(self) -> tuple:
        a, b = self.window
        return tuple(itertools.product(itertools.combinations(range(a, b + 1), self.n),
                                       self.orders))

    def state_of(self, config: ParticleConfig) -> int:
        """Position-set rank (combinadic) times len(orders) plus order rank."""
        (a, b), n = self.window, self.n
        o = bisect.bisect_left(self.orders, config.species)
        if (config.n != n or not all(a <= x <= b for x in config.positions)
                or self.orders[o:o + 1] != (config.species,)):
            raise ValidationError("configuration lies outside the window state space")
        rank = math.comb(b - a + 1, n) - 1 - sum(
            math.comb(b - x, n - k) for k, x in enumerate(config.positions))
        return rank * len(self.orders) + o


def _lex_keys(digits: np.ndarray, radix: int):
    """Keys of the rows of ``digits`` (each digit < radix) that increase with
    their lexicographic order, and the weight of each digit; Python ints
    where radix**n would overflow int64."""
    n = digits.shape[1]
    dtype = np.int64 if radix**n < 2**63 else object
    weights = np.array([radix ** (n - 1 - k) for k in range(n)], dtype=dtype)
    return digits.astype(dtype) @ weights, weights


def _window_jumps(sets: np.ndarray, orders: np.ndarray, width: int, q: float):
    """(rates, (rows, cols)) of every jump between window states.

    ``sets`` (C, n) are the occupied site offsets in [0, width) and
    ``orders`` (P, n) the colour orders as ranks of the colours, both in
    lexicographic order; state ``c * P + o`` puts order ``o`` on set ``c``,
    and state C * P is the sink.  Each move type is one array operation over
    the sets or the orders, and the rank of a moved set or order comes from
    ``np.searchsorted`` on lexicographic keys.
    """
    (C, n), P = sets.shape, len(orders)
    sink = C * P
    # c_k - k is nondecreasing in [0, width - n]: the same lexicographic order
    set_keys, set_weights = _lex_keys(sets - np.arange(n), width - n + 1)
    order_keys, order_weights = _lex_keys(orders, int(orders.max(initial=0)) + 1)
    adjacent = sets[:, 1:] == sets[:, :-1] + 1  # particles k and k + 1
    every_order = np.arange(P)
    no_block = np.zeros(C, dtype=bool)
    sources, dests, rates = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], [0.0]

    def grid(set_ids, order_ids):
        return (set_ids[:, None] * P + order_ids).ravel()

    def add(source, dest, rate):
        sources.append(source)
        dests.append(dest)
        rates.append(rate)

    def step(k, mask, shift, rate):
        """Particle k of the masked sets moves by shift, inside the window."""
        picked = np.nonzero(mask)[0]
        ranks = np.searchsorted(set_keys, set_keys[picked] + shift * set_weights[k])
        add(grid(picked, every_order), grid(ranks, every_order), rate)

    def leave(mask, rate):
        source = grid(np.nonzero(mask)[0], every_order)
        add(source, np.full(len(source), sink), rate)

    for k in range(n):
        blocked_right = adjacent[:, k] if k + 1 < n else no_block
        blocked_left = adjacent[:, k - 1] if k > 0 else no_block
        # rightward move or swap at rate 1 (higher colour passes lower)
        step(k, ~blocked_right & (sets[:, k] < width - 1), 1, 1.0)
        leave(~blocked_right & (sets[:, k] == width - 1), 1.0)
        if k + 1 < n:
            cl, cr = orders[:, k], orders[:, k + 1]
            swapped = order_keys + (cr - cl) * (order_weights[k] - order_weights[k + 1])
            target = np.searchsorted(order_keys, swapped)
            picked = np.nonzero(blocked_right)[0]
            down = np.nonzero(cl > cr)[0]
            add(grid(picked, down), grid(picked, target[down]), 1.0)
            if q > 0.0:
                up = np.nonzero(cl < cr)[0]
                add(grid(picked, up), grid(picked, target[up]), q)
        # leftward move at rate q
        if q > 0.0:
            step(k, ~blocked_left & (sets[:, k] > 0), -1, q)
            leave(~blocked_left & (sets[:, k] == 0), q)
    vals = np.repeat(rates, [len(s) for s in sources])
    return vals, (np.concatenate(sources), np.concatenate(dests))


def build_window_generator(
    particles: ParticleConfig, window, params: ModelParams
) -> WindowGenerator:
    """Enumerate all placements of the given colour multiset in the window
    and assemble the rate matrix, draining out-of-window jumps into a sink.

    States run over the position sets, then over the colour orders, both in
    lexicographic order; ``_window_jumps`` builds the jumps from arrays.  A
    window of more than STATE_CAP states is refused with ResourceLimitError.
    """
    import scipy.sparse as sp

    a, b = as_int(window[0], "window"), as_int(window[1], "window")
    if not all(a <= x <= b for x in particles.positions):
        raise ValidationError("initial positions must lie inside the window")
    n = particles.n
    width = b - a + 1
    colour_orders = tuple(_multiset_permutations(particles.species))
    C, P = math.comb(width, n), len(colour_orders)
    D = C * P
    if D > STATE_CAP:
        raise ResourceLimitError(f"window state space {D} exceeds the cap {STATE_CAP}")
    sets = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(width), n)),
                       dtype=np.int64, count=C * n).reshape(C, n)
    orders = np.searchsorted(np.unique(particles.species),
                             np.array(colour_orders, dtype=np.int64).reshape(P, n))
    off_diag = sp.coo_matrix(
        _window_jumps(sets, orders, width, params.q), shape=(D + 1, D + 1), dtype=float
    ).tocsr()
    # pin the diagonal so that row sums vanish in floating point; ulp-level
    # fix-up passes reach exact zero whenever the rate sums are representable
    # (always for dyadic q), else leave a <= 1 ulp residual
    diag = -np.asarray(off_diag.sum(axis=1)).ravel()
    matrix = (off_diag + sp.diags(diag, format="csr")).tocsr()
    # a row without a diagonal entry has no jumps and sums to zero, so each
    # fix-up pass only rewrites existing diagonal entries
    entry_rows = np.repeat(np.arange(D + 1), np.diff(matrix.indptr))
    on_diag = np.nonzero(matrix.indices == entry_rows)[0]
    for _ in range(8):
        resid = np.asarray(matrix.sum(axis=1)).ravel()
        bad = resid != 0.0
        if not bad.any():
            break
        target = diag - resid
        stuck = bad & (target == diag)
        target[stuck] = np.nextafter(diag[stuck], (diag - resid * 1e6)[stuck])
        diag = np.where(bad, target, diag)
        matrix.data[on_diag] = diag[entry_rows[on_diag]]
    return WindowGenerator((a, b), colour_orders, n, matrix)


def transition_row(gen: WindowGenerator, mu: ParticleConfig, t: float) -> np.ndarray:
    """Full distribution exp(Qt) row for initial state mu, by uniformization.

    The returned vector has length D+1; the last entry is the sink mass.
    The Poisson series stops at term k once k + 1 > lam t and the geometric
    bound w_{k+1} / (1 - lam t / (k + 2)) on the remaining weights is below
    1e-15.
    """
    import scipy.sparse as sp

    check_rate(t, "time")
    D = gen.size
    v = np.zeros(D + 1)
    v[gen.state_of(mu)] = 1.0
    if t == 0:
        return v
    diag = -gen.matrix.diagonal()
    lam = float(diag.max())
    if lam <= 0:
        return v
    if lam * t > 600:
        raise ResourceLimitError("uniformization rate * t too large for this window")
    # the CSR transpose adds each entry of v in the order the CSC P.T does
    PT = (sp.eye(D + 1, format="csr") + gen.matrix / lam).T.tocsr()
    out = np.zeros(D + 1)
    lt = lam * t
    weight = math.exp(-lt)
    out += weight * v
    k = 0
    while k + 1 <= lt or weight * lt / (k + 1) / (1.0 - lt / (k + 2)) > 1e-15:
        k += 1
        v = PT @ v
        weight *= lt / k
        out += weight * v
    return out


def expm_transition(gen: WindowGenerator, mu: ParticleConfig, nu: ParticleConfig, t: float):
    """[exp(Qt)]_{mu,nu} plus the sink mass accumulated from mu by time t."""
    row = transition_row(gen, mu, t)
    return float(row[gen.state_of(nu)]), float(row[-1])
