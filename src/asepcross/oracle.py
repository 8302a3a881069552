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
import types
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import (
    ModelParams,
    ParticleConfig,
    ResourceLimitError,
    ValidationError,
    as_int,
    as_seed,
    bernoulli_data,
    check_rate,
    window_ends,
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
    wall bounds are stored as ints; the seed must lie in [0, 2**64).
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
        object.__setattr__(self, "seed", as_seed(self.seed))
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
    chunks in one contiguous (count, UNIFORMS_PER_SAMPLE) buffer, in the
    order of ``_simulate``: the Bernoulli gaps, then one (clock, move) pair
    per step, so all running rows read the same two columns, and only those
    become uniforms; a step whose move word would lie past a row's words
    draws u = v = 0 for every running row.  Each row keeps its
    positions, colours and ``_pair_codes`` as columns of (n, rows) arrays.
    Rate slot 2k is particle k's step right or swap, 2k + 1 its step left,
    and absent moves have rate 0; the running sums over the slots come from
    the tables of ``_rate_tables``, summed from zero in the first block and
    carried on slot by slot after it, so they and the total are those of
    ``_gillespie_core``.  The move is the first slot whose running sum
    reaches x = u * total: a slot of nonzero rate, as x > 0.
    A row that draws a clock or move uniform of 0 (as it does past its
    words) or comes within rounding of a decision taken on a logarithm is
    re-run from scratch by ``_simulate`` on its ``_UniformStream``.
    """
    words = np.empty((count, UNIFORMS_PER_SAMPLE), dtype=np.uint64)
    for lo in range(0, count, CHUNK):
        rows = min(CHUNK, count - lo)
        words[lo:lo + rows] = _chunk_words(job.seed, first_chunk + lo // CHUNK, rows)
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
        if column + 1 < UNIFORMS_PER_SAMPLE:
            flat = ids * UNIFORMS_PER_SAMPLE + column
            u, v = _uniforms(words.take(flat)), _uniforms(words.take(flat + 1))
        else:  # past the rows' words: every running row draws u = v = 0
            u = v = np.zeros(len(ids))
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
        draw = _UniformStream(_uniforms(words[row]), job.seed, first + int(row))
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


def _multiset_permutations(colours):
    """The distinct orders of the colours, in lexicographic order, one at a
    time: no list of the orders of a shorter tail is ever held."""
    colours = tuple(sorted(colours))
    if not colours:
        yield ()
        return
    for i, c in enumerate(colours):
        if colours.index(c) == i:
            for tail in _multiset_permutations(colours[:i] + colours[i + 1:]):
                yield (c,) + tail


@dataclass(frozen=True)
class WindowGenerator:
    """Exact generator Q of the process restricted to a window with a sink.

    Built only by ``build_window_generator``.  ``data`` holds Q's entries,
    an array the generator owns, in the CSR order of ``pattern``: the cached
    structure of every window of this width, colour multiset and sign of q
    (``_window_pattern``), whose arrays are read-only.  ``matrix``, a scipy
    CSR matrix on ``data`` and the pattern's ``indices`` and ``indptr``, and
    ``states`` are built on first access only."""

    window: tuple[int, int]
    orders: tuple  # the colour orders, in lexicographic order
    n: int
    data: np.ndarray  # Q's entries in the pattern's CSR order
    pattern: types.SimpleNamespace  # from _window_pattern

    @property
    def size(self) -> int:
        return math.comb(self.window[1] - self.window[0] + 1, self.n) * len(self.orders)

    @functools.cached_property
    def matrix(self):
        """Q as a (D+1) x (D+1) ``scipy.sparse.csr_matrix``; the last row
        and column are the sink.  Its data is a view of ``data``."""
        import scipy.sparse as sp

        D = self.size
        return sp.csr_matrix((self.data, self.pattern.indices, self.pattern.indptr),
                             shape=(D + 1, D + 1))

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
    keys = np.zeros(len(digits), dtype=dtype)
    for k in range(n):  # by Horner's rule: no converted copy of the digits
        keys = keys * radix + digits[:, k]
    return keys, weights


def _window_jumps(sets: np.ndarray, orders: np.ndarray, width: int, moves_left: bool):
    """(sources, dests, codes): every jump between window states, one piece
    per move type, each piece two int32 arrays of states and one probe code
    for all its jumps, 1 at rate 1 and 2 at rate q.

    ``sets`` (C, n) are the occupied site offsets in [0, width) and
    ``orders`` (P, n) the colour orders as ranks of the colours, both in
    lexicographic order; state ``c * P + o`` puts order ``o`` on set ``c``,
    and state C * P is the sink.  Moves to the left, at rate q, exist if
    ``moves_left``.  Each move type is one array operation over the sets or
    the orders, and the rank of a moved set or order comes from
    ``np.searchsorted`` on lexicographic keys.
    """
    (C, n), P = sets.shape, len(orders)
    sink = C * P
    # c_k - k is nondecreasing in [0, width - n]: the same lexicographic order
    set_keys, set_weights = _lex_keys(sets - np.arange(n), width - n + 1)
    order_keys, order_weights = _lex_keys(orders, int(orders.max(initial=0)) + 1)
    adjacent = sets[:, 1:] == sets[:, :-1] + 1  # particles k and k + 1
    every_order = np.arange(P, dtype=np.int32)
    no_block = np.zeros(C, dtype=bool)
    sources, dests, codes = [], [], []

    def grid(set_ids, order_ids):
        # states fit int32: there are at most STATE_CAP of them
        return (set_ids.astype(np.int32)[:, None] * np.int32(P)
                + order_ids.astype(np.int32)).ravel()

    def add(source, dest, code):
        sources.append(source)
        dests.append(dest)
        codes.append(code)

    def step(k, mask, shift, code):
        """Particle k of the masked sets moves by shift, inside the window."""
        picked = np.nonzero(mask)[0]
        ranks = np.searchsorted(set_keys, set_keys[picked] + shift * set_weights[k])
        add(grid(picked, every_order), grid(ranks, every_order), code)

    def leave(mask, code):
        source = grid(np.nonzero(mask)[0], every_order)
        add(source, np.full(len(source), sink, dtype=np.int32), code)

    for k in range(n):
        blocked_right = adjacent[:, k] if k + 1 < n else no_block
        blocked_left = adjacent[:, k - 1] if k > 0 else no_block
        # rightward move or swap at rate 1 (higher colour passes lower)
        step(k, ~blocked_right & (sets[:, k] < width - 1), 1, 1)
        leave(~blocked_right & (sets[:, k] == width - 1), 1)
        if k + 1 < n:
            cl, cr = orders[:, k], orders[:, k + 1]
            swapped = order_keys + ((cr - cl).astype(order_keys.dtype)
                                    * (order_weights[k] - order_weights[k + 1]))
            target = np.searchsorted(order_keys, swapped)
            picked = np.nonzero(blocked_right)[0]
            down = np.nonzero(cl > cr)[0]
            add(grid(picked, down), grid(picked, target[down]), 1)
            if moves_left:
                up = np.nonzero(cl < cr)[0]
                add(grid(picked, up), grid(picked, target[up]), 2)
        # leftward move at rate q
        if moves_left:
            step(k, ~blocked_left & (sets[:, k] > 0), -1, 2)
            leave(~blocked_left & (sets[:, k] == 0), 2)
    return sources, dests, codes


# window structures kept by _window_pattern; each holds about 14 bytes per
# matrix entry and 16 per state (README, "Oracles")
WINDOW_PATTERNS = 8
# the code of a diagonal entry in the codes of _window_pattern
DIAGONAL = 3


@functools.lru_cache(maxsize=WINDOW_PATTERNS)
def _window_pattern(width: int, colours: tuple, moves_left: bool):
    """The structure of every window generator of this width and sorted
    colour multiset, with left moves at rate q if ``moves_left`` (q > 0):
    what a build fills with rates, and nothing that depends on q's value or
    the window's offset.  Its attributes, every array read-only:

    - ``orders``: the colour orders, in lexicographic order;
    - ``indptr``, ``indices``: the CSR structure of Q, diagonal included;
    - ``codes``: each entry's rate as an index into (1, q, 1 + q, 0): 0 for
      rate 1, 1 for rate q, 2 for the merged sink exit and DIAGONAL;
    - ``diagonal``, ``starts``: the slot of each diagonal entry and the
      first slot of its row, one per row with jumps, in row order;
    - ``off_codes``, ``off_starts``: the codes of the off-diagonal entries
      row by row, and where each row with jumps starts among them: the
      segments that the row sums of the off-diagonal matrix add;
    - ``t_indptr``, ``t_indices``, ``order``: the CSR structure of Q's
      transpose without the sink's self-loop, whose entry k is Q's entry
      order[k]; each row lists its entries in the order of Q's rows, as a
      CSC-to-CSR conversion does.

    ``_window_jumps`` emits the jumps with probe codes 1 and 2 for rate 1
    and rate q, and the diagonal gets probe code 4; ``coo_matrix.tocsr``
    sorts the entries into rows and merges the two exits of a row into the
    sink, which then read 3, so each probe code is its code plus one.  The
    assembly holds int32 states and int8 codes, and frees each input once
    its copy is made, so it peaks near the pattern's own size.
    """
    import scipy.sparse as sp

    n = len(colours)
    orders = tuple(_multiset_permutations(colours))
    C, P = math.comb(width, n), len(orders)
    D = C * P
    sets = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(width), n)),
                       dtype=np.int64, count=C * n).reshape(C, n)
    # each colour as its rank among the distinct colours, of which there are
    # fewer than 9 under STATE_CAP (P >= their number factorial)
    rank = {c: r for r, c in enumerate(sorted(set(colours)))}.__getitem__
    ranks = np.fromiter(map(rank, itertools.chain.from_iterable(orders)), dtype=np.int8,
                        count=P * n).reshape(P, n)
    sources, dests, probes = _window_jumps(sets, ranks, width, moves_left)
    del sets, ranks
    # with a particle, every state has a jump: the rightmost particle steps
    # right or leaves; so rows 0, ..., D - 1 have diagonal entries
    jumping = np.arange(D if n else 0, dtype=np.int32)
    sources.append(jumping)
    dests.append(jumping)
    probes.append(DIAGONAL + 1)
    probes = np.repeat(np.array(probes, dtype=np.int8), [len(s) for s in sources])
    rows = np.concatenate(sources)
    del sources
    cols = np.concatenate(dests)
    del dests
    matrix = sp.coo_matrix((probes, (rows, cols)), shape=(D + 1, D + 1))
    del probes, rows, cols
    matrix = matrix.tocsr()
    codes = matrix.data
    codes -= 1
    off_diagonal = codes != DIAGONAL
    diagonal = np.flatnonzero(~off_diagonal).astype(np.int32)
    off_codes = codes[off_diagonal]
    del off_diagonal
    starts = matrix.indptr[:len(jumping)]
    matrix.data = np.arange(len(codes), dtype=np.int32)
    by_column = matrix.tocsc()  # its data are Q's slots in the transpose's order
    parts = dict(indptr=matrix.indptr, indices=matrix.indices, codes=codes,
                 diagonal=diagonal, starts=starts, off_codes=off_codes,
                 off_starts=starts - jumping,
                 t_indptr=by_column.indptr, t_indices=by_column.indices, order=by_column.data)
    for part in parts.values():
        part.flags.writeable = False
    return types.SimpleNamespace(orders=orders, **parts)


# indices that _gather casts to intp at a time: 64 kB, which malloc serves
# from its heap; take's own cast of int8 or int32 indices converts the whole
# array, 8 bytes per entry in fresh pages (tens of MB near STATE_CAP), and
# ran several times slower than the gather itself on the bench windows
GATHER_BLOCK = 8192


def _gather(table: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """``table.take(indices)`` for an int8 or int32 index array of a window
    pattern, every index in range, cast to intp one block at a time."""
    out = np.empty(len(indices), dtype=table.dtype)
    for lo in range(0, len(indices), GATHER_BLOCK):
        block = indices[lo:lo + GATHER_BLOCK].astype(np.intp)
        table.take(block, out=out[lo:lo + GATHER_BLOCK], mode="clip")
    return out


def build_window_generator(
    particles: ParticleConfig, window, params: ModelParams
) -> WindowGenerator:
    """Enumerate all placements of the given colour multiset in the window
    and assemble the rate matrix, draining out-of-window jumps into a sink.

    ``window`` is two integer ends a <= b.  States run over the position
    sets, then over the colour orders, both in lexicographic order.  A
    window of more than STATE_CAP states is refused with ResourceLimitError
    before anything is enumerated.  The structure comes from
    ``_window_pattern``, cached per width, colour multiset and q > 0; a
    build fills the rates from its codes into the generator's ``data`` and
    pins the diagonal so that row sums vanish, with the additions of scipy's
    ``sum(axis=1)``.  It makes no scipy matrix: ``WindowGenerator.matrix``
    is built on first access.
    """
    a, b = window_ends(window)
    if not all(a <= x <= b for x in particles.positions):
        raise ValidationError("initial positions must lie inside the window")
    width = b - a + 1
    colours = tuple(sorted(particles.species))
    # comb(width, n) position sets times n! / prod m_c! colour orders
    D = math.comb(width, len(colours)) * math.factorial(len(colours))
    for c in set(colours):
        D //= math.factorial(colours.count(c))
    if D > STATE_CAP:
        raise ResourceLimitError(f"window state space {D} exceeds the cap {STATE_CAP}")
    q = params.q
    pattern = _window_pattern(width, colours, q > 0.0)
    rates = np.array([1.0, q, 1.0 + q, 0.0])  # by code
    # pin the diagonal so that row sums vanish in floating point; ulp-level
    # fix-up passes reach exact zero whenever the rate sums are representable
    # (always for dyadic q), else leave a <= 1 ulp residual.  Each sum is
    # np.add.reduceat over a row's entries, as scipy's sum(axis=1) adds them;
    # rows without jumps have no diagonal entry and sum to zero
    diag = -np.add.reduceat(_gather(rates, pattern.off_codes), pattern.off_starts)
    data = _gather(rates, pattern.codes)
    data[pattern.diagonal] = diag
    for _ in range(8):
        resid = np.add.reduceat(data, pattern.starts)
        bad = resid != 0.0
        if not bad.any():
            break
        target = diag - resid
        stuck = bad & (target == diag)
        target[stuck] = np.nextafter(diag[stuck], (diag - resid * 1e6)[stuck])
        diag = np.where(bad, target, diag)
        data[pattern.diagonal] = diag
    return WindowGenerator((a, b), pattern.orders, particles.n, data, pattern)


def transition_row(gen: WindowGenerator, mu: ParticleConfig, t: float) -> np.ndarray:
    """Full distribution exp(Qt) row for initial state mu, by uniformization.

    The returned vector has length D+1; the last entry is the sink mass.
    Each step is v <- P^T v with P = I + Q/lam: P^T's entries are Q's data
    times 1/lam, plus 1 on the diagonal slots, in the pattern's transposed
    order.  Each product is one call of scipy's compiled ``csr_matvec``, the
    routine of ``csr_matrix @ v``, into a zeroed buffer, and the sink's
    self-loop is added after it, so every entry adds its terms in the order
    of ``P.T.dot``; two buffers swap roles from term to term and a third
    holds each weighted term.  The kernel checks no bounds, so a pattern
    whose dimension is not ``gen.size + 1`` is refused first.
    The Poisson series stops at term k once k + 1 > lam t and the geometric
    bound w_{k+1} / (1 - lam t / (k + 2)) on the remaining weights is below
    1e-15.
    """
    from scipy.sparse._sparsetools import csr_matvec

    check_rate(t, "time")
    D = gen.size
    pattern = gen.pattern
    if len(pattern.t_indptr) != D + 2:
        raise ValidationError(f"a window pattern of dimension {len(pattern.t_indptr) - 1} "
                              f"does not fit a generator of {D} states and the sink")
    v = np.zeros(D + 1)
    v[gen.state_of(mu)] = 1.0
    if t == 0:
        return v
    lam = -float(gen.data.take(pattern.diagonal).min(initial=0.0))
    if lam <= 0:
        return v
    if lam * t > 600:
        raise ResourceLimitError("uniformization rate * t too large for this window")
    # scipy's Q / lam multiplies by 1 / lam; an entry 1 + Q_ii / lam of 0
    # stays in as an explicit zero, which adds 0 to a sum of finite terms
    entries = gen.data * (1 / lam)
    entries[pattern.diagonal] += 1.0
    entries = _gather(entries, pattern.order)
    out = np.zeros(D + 1)
    lt = lam * t
    weight = math.exp(-lt)
    out += weight * v
    product, term = np.empty(D + 1), np.empty(D + 1)
    k = 0
    while k + 1 <= lt or weight * lt / (k + 1) / (1.0 - lt / (k + 2)) > 1e-15:
        k += 1
        product.fill(0.0)
        csr_matvec(D + 1, D + 1, pattern.t_indptr, pattern.t_indices, entries, v, product)
        product[-1] += v[-1]
        v, product = product, v
        weight *= lt / k
        np.multiply(v, weight, out=term)
        out += term
    return out


def expm_transition(gen: WindowGenerator, mu: ParticleConfig, nu: ParticleConfig, t: float):
    """[exp(Qt)]_{mu,nu} plus the sink mass accumulated from mu by time t."""
    row = transition_row(gen, mu, t)
    return float(row[gen.state_of(nu)]), float(row[-1])
