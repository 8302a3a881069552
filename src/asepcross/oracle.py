"""Ground-truth engines for validating the closed-form evaluators.

Two independent oracles: an exact continuous-time Gillespie simulator of the
multi-species exclusion process on the unbounded lattice, and the matrix
exponential of the generator restricted to a finite window (out-of-window
jumps drain into an absorbing sink state), evaluated by uniformization.

A ``MonteCarloJob`` describes every simulation: a fixed initial state or
Bernoulli-step initial data, the backhop rate q, the horizon, the seed and
the event whose probability ``run_monte_carlo`` estimates; it checks its
fields with the rules of ``core`` when it is built.  One sampler,
``_finals``, runs a block of samples in one numpy lockstep:
``run_monte_carlo`` runs up to BATCH_CHUNKS chunks at a time, and
``simulate_sample(job, i)`` runs sample ``i``, the trajectory counted for i.

Randomness is counter-based: sample ``i`` of a run with seed ``s`` reads its
row of a Philox stream keyed by (s, chunk(i)), then its own overflow stream
keyed by (s xor GOLDEN, i), so results are bit-identical for any partition
of samples across workers.  A uniform is one 64-bit output mapped as
``Generator.random`` maps it, so the lockstep converts only the words it reads.
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
OVERFLOW = 256  # words of each running row's overflow stream per refill
# the widest initial state: positions relative to its left end stay in int64
SPAN = 2**62


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


def _chunk_words(seed: int, chunk_index: int, rows: int) -> np.ndarray:
    """The first rows * UNIFORMS_PER_SAMPLE 64-bit outputs of the stream
    keyed (seed, chunk_index), as (rows, UNIFORMS_PER_SAMPLE): a row a sample."""
    words = _philox(seed, chunk_index, 0).bit_generator.random_raw(rows * UNIFORMS_PER_SAMPLE)
    return words.reshape(rows, UNIFORMS_PER_SAMPLE)


def _row_words(seed: int, chunk_index: int, row: int) -> np.ndarray:
    """Row ``row`` of ``_chunk_words``, drawn alone, as a (1, ...) array: a
    Philox4x64 counter step yields four words."""
    bits = _philox(seed, chunk_index, row * UNIFORMS_PER_SAMPLE // 4).bit_generator
    return bits.random_raw(UNIFORMS_PER_SAMPLE).reshape(1, UNIFORMS_PER_SAMPLE)


class _Words:
    """The words that the running rows of a lockstep read next.

    Running row r, sample ``first + running[r]``, reads its row of
    ``words``, then the sample's overflow stream, keyed (seed xor GOLDEN,
    sample).  ``flat[r]`` indexes its next word in ``buf``, whose rows hold
    the rows ``held``, and no column read exceeds ``lead``.  A read past
    ``buf`` keeps the running rows' unread words, right-aligned, and
    appends the blocks of OVERFLOW words of each overflow stream that it
    needs, block k from k * OVERFLOW / 4 counter steps in."""

    def __init__(self, words: np.ndarray, seed: int, first: int):
        self.buf, self.seed, self.first, self.lead, self.refills = words, seed, first, 0, 0
        self.running = self.held = np.arange(len(words))
        self.flat = self.running * words.shape[1]

    def read(self) -> np.ndarray:
        """The uniform of each row's next word, each row then moved past it:
        the word's top 53 bits times 2**-53, the map of ``Generator.random``."""
        if self.lead >= self.buf.shape[1]:
            self._refill(1)
        self.lead += 1
        flat, self.flat = self.flat, self.flat + 1
        return (self.buf.take(flat) >> 11) * 2.0**-53

    def draw(self, rate) -> np.ndarray:
        """``read``, where a row of positive ``rate`` passes over words whose
        uniform is 0."""
        u = self.read()
        while not u.all():
            zero = (u == 0.0) & (rate > 0.0)
            if not zero.any():
                break
            self.flat = self.flat - ~zero  # the other rows read their word again
            u = self.read()
        return u

    def draws(self, count: int) -> np.ndarray:
        """``count`` draws at rate 1, (count, rows), in one read of the
        buffer, refilled first as far as needed, unless a word reads 0."""
        if self.lead + count > self.buf.shape[1]:
            self._refill(count)
        u = (self.buf.take(self.flat + np.arange(count)[:, None]) >> 11) * 2.0**-53
        if not u.all():  # as many draws, one column at a time
            return np.array([self.draw(1.0) for _ in range(count)]).reshape(count, -1)
        self.flat, self.lead = self.flat + count, self.lead + count
        return u

    def keep(self, index) -> None:
        """Keep only the running rows ``index``, in that order."""
        self.flat, self.running = self.flat.take(index), self.running.take(index)

    def _refill(self, count: int) -> None:
        width = self.buf.shape[1]
        blocks = -(-(self.lead + count - width) // OVERFLOW)
        row = np.searchsorted(self.held, self.running)  # rows keep their order
        column = self.flat - row * width
        start = int(column.min())
        buf = np.empty((len(row), width - start + blocks * OVERFLOW), dtype=np.uint64)
        buf[:, :width - start] = self.buf[row[:, None], np.arange(start, width)]
        counter = self.refills * OVERFLOW // 4
        for r, running in enumerate(self.running.tolist()):
            bits = _philox(self.seed ^ GOLDEN, self.first + running, counter).bit_generator
            buf[r, width - start:] = bits.random_raw(blocks * OVERFLOW)
        self.buf, self.held, self.refills = buf, self.running, self.refills + blocks
        self.lead -= start
        self.flat = np.arange(len(row)) * buf.shape[1] + column - start


@dataclass(frozen=True)
class MonteCarloJob:
    """Picklable description of one Monte Carlo experiment.

    Exactly one of ``initial`` (a fixed state) and ``bernoulli`` = (rho, m, n)
    is given.  Bernoulli-step data put type 2 at the m rightmost occupied
    negative sites of an iid density-rho field and type 1 at 0..n-m-1.
    ``event`` is ("target", positions, species) or ("wall", s1, s2): type 1
    in [s1, s2) and type 2 at or beyond s2.  The counts, the seed and the
    wall bounds are stored as ints; the seed must lie in [0, 2**64).  The
    initial state spans at most SPAN sites, Bernoulli data at m widest gaps
    (drawn at the least positive uniform, 2**-53)."""

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
            rho, m, n = bernoulli_data(*self.bernoulli)
            object.__setattr__(self, "bernoulli", (rho, m, n))
            widest = np.log(2.0**-53) / math.log1p(-rho) if rho < 1.0 else 0.0
            if m and not (widest < SPAN and m * (1 + math.floor(widest)) <= SPAN):
                raise ValidationError(f"rho = {rho!r} is too small for m = {m}: the type-2 "
                                      "particles could lie more than 2**62 sites left of 0")
        elif self.initial.n and self.initial.positions[-1] - self.initial.positions[0] > SPAN:
            raise ValidationError("the initial positions span more than 2**62 sites")
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


def _origin(job: MonteCarloJob) -> int:
    """Where the lockstep's positions count from: the leftmost initial site, or 0."""
    return job.initial.positions[0] if job.initial is not None and job.initial.positions else 0


def simulate_sample(job: MonteCarloJob, index: int = 0) -> ParticleConfig:
    """Final state of sample ``index``: the trajectory run_monte_carlo counts."""
    index = as_int(index, "sample index")
    if index < 0:
        raise ValidationError("sample index must be >= 0")
    chunk, row = divmod(index, CHUNK)
    positions, species = _finals(job, _row_words(job.seed, chunk, row), index)
    origin = _origin(job)
    return ParticleConfig(tuple(origin + x for x in positions[0].tolist()),
                          tuple(species[0].tolist()))


def _events_hold(event, origin, positions, species) -> np.ndarray:
    """Whether the event holds for each row of (rows, n) positions relative
    to ``origin`` and species: the event's sites are shifted alike and
    clipped to the int64 range, which no row reaches."""

    def sites(values):
        return np.array([min(max(x - origin, -2**63), 2**63 - 1) for x in values],
                        dtype=np.int64)

    if event[0] == "target":
        if len(event[1]) != positions.shape[1]:
            return np.zeros(len(positions), dtype=bool)
        return ((positions == sites(event[1])).all(axis=1)
                & (species == np.array(event[2], dtype=np.int64)).all(axis=1))
    s1, s2 = sites(event[1:])
    ok_1 = (species != 1) | ((s1 <= positions) & (positions < s2))
    ok_2 = (species != 2) | (positions >= s2)
    return (ok_1 & ok_2).all(axis=1)


def _pair_codes(state: np.ndarray, n: int, blocks: int) -> np.ndarray:
    """Pair codes of a (2n, rows) state, positions over colours, as
    (BLOCK * blocks + 1, rows), free outside the particles: row k + 1 codes
    the pair (k, k + 1), 0 free (no particle at x_k + 1), 1 blocked with a
    lower colour on the left (a swap at rate q), 2 blocked with equal
    colours (no swap), 3 blocked with a higher colour on the left (rate 1)."""
    positions, species = state[:n], state[n:]
    code = np.zeros((BLOCK * blocks + 1, state.shape[1]), dtype=np.int64)
    code[1:n] = (positions[1:] - positions[:-1] == 1) * (2 + np.sign(species[:-1] - species[1:]))
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
    """(sums, rates), (2 * BLOCK, 2R) with R = 4 ** (BLOCK + 1), for n
    particles: block b, particles BLOCK * b to BLOCK * b + BLOCK - 1, reads
    column sum_j c_j 4**j of its ``_pair_codes`` rows c_j = BLOCK * b + j,
    j <= BLOCK, plus R for the last block.  ``rates`` holds each column's
    slot rates (``_block_rates``) and ``sums`` their running sums from 0."""
    blocks = max(1, -(-n // BLOCK))
    rates = np.concatenate([_block_rates(q, BLOCK),
                            _block_rates(q, n - BLOCK * (blocks - 1))]).T.copy()
    tables = np.cumsum(rates, axis=0), rates
    for table in tables:  # cached: every lockstep with this (q, n) reads them
        table.flags.writeable = False
    return tables


def _finals(job: MonteCarloJob, words: np.ndarray, first: int):
    """Final (positions, species) of samples first + r, r < len(words), as
    (rows, n) arrays, in one lockstep; positions are relative to ``_origin``.

    Each row reads its stream (``_Words``): the Bernoulli gaps, then a clock
    and a move uniform per step, passing over a gap or clock uniform of 0
    while a move has a rate; logarithms are ``np.log``.  Slot 2k is particle
    k's step right or swap, 2k + 1 its step left; their running sums add
    slot by slot, as the reference adds them.  The move is the first slot
    whose sum reaches x = v * total, floored at 5e-324."""
    q, horizon = job.q, job.horizon
    rows = len(words)
    stream = _Words(words, job.seed, first)
    # rows 0..n-1 of a state hold the positions, rows n..2n-1 the colours
    if job.bernoulli is None:
        n, origin = job.initial.n, _origin(job)
        start = [x - origin for x in job.initial.positions] + list(job.initial.species)
        state = np.repeat(np.array(start, dtype=np.int64)[:, None], rows, axis=1)
    else:
        rho, m, n = job.bernoulli
        gaps = np.ones((m, rows), dtype=np.int64)
        if rho < 1.0:  # 1 + floor(log(u) / log(1 - rho)) < SPAN
            gaps += (np.log(stream.draws(m)) / math.log1p(-rho)).astype(np.int64)
        rest = np.array([*range(n - m), *[2] * m, *[1] * (n - m)], dtype=np.int64)
        state = np.concatenate([-np.cumsum(gaps, axis=0)[::-1],
                                np.repeat(rest[:, None], rows, axis=1)])
    blocks = max(1, -(-n // BLOCK))
    sums, rates = _rate_tables(q, n)
    code = _pair_codes(state, n, blocks)
    clock = np.zeros(rows)
    ended = []  # (rows, state) of the rows that stop at each step
    while True:
        # each block's table column (``_rate_tables``) from rows BLOCK apart
        index = code[BLOCK::BLOCK] << 2 * BLOCK  # (blocks, rows)
        for j in range(BLOCK):
            index += code[j:-1:BLOCK] << 2 * j
        index[-1] += 4 ** (BLOCK + 1)
        if blocks == 1:
            acc = sums.take(index, axis=1)  # (2 * BLOCK, blocks, rows)
        else:  # the running sums carry on slot by slot across the blocks
            slots = rates.take(index, axis=1).swapaxes(0, 1).reshape(2 * BLOCK * blocks, -1)
            acc = np.cumsum(slots, axis=0).reshape(blocks, 2 * BLOCK, -1).swapaxes(0, 1)
        total = acc[-1, -1]
        u, v = stream.draw(total), stream.read()
        with np.errstate(divide="ignore"):
            t = clock - np.log(u) / total  # +inf where no move has a rate
        moving = t <= horizon
        stopped = np.flatnonzero(~moving)
        ended.append((stream.running.take(stopped), state.take(stopped, axis=1)))
        keep = np.flatnonzero(moving)
        if not keep.size:
            break
        # the slots whose running sums fall below x, counted per block
        x = np.maximum(v * total, 5e-324)
        below = np.add.reduce((acc < x).view(np.uint8), axis=0, dtype=np.uint8)
        slot = below.sum(axis=0, dtype=np.int64).take(keep)
        clock = t.take(keep)
        stream.keep(keep)
        state, code = state.take(keep, axis=1), code.take(keep, axis=1)
        size = len(keep)
        cell = (slot >> 1) * size + np.arange(size)  # flat index of the moving particle
        left = slot & 1
        swap = (code.take(cell + size) & 1) > left  # a right move on an odd code swaps
        pair = cell[swap] + n * size  # the colour of the particle left of the swap
        right_of = state.take(pair + size)
        state.put(pair + size, state.take(pair))
        state.put(pair, right_of)
        state.put(cell, state.take(cell) + 1 - 2 * left - swap)
        code = _pair_codes(state, n, blocks)
    done, state = (np.concatenate(parts, axis=-1) for parts in zip(*ended))
    final = np.empty_like(state)
    final[:, done] = state
    return final[:n].T, final[n:].T


def _run_chunks(job: MonteCarloJob, first_chunk: int, count: int) -> int:
    """Successes among samples first_chunk * CHUNK + r, r < count, in at
    most BATCH_CHUNKS chunks: one ``_finals`` lockstep on their rows of the
    chunks' words (``_chunk_words``), in one contiguous buffer."""
    words = np.empty((count, UNIFORMS_PER_SAMPLE), dtype=np.uint64)
    for lo in range(0, count, CHUNK):
        rows = min(CHUNK, count - lo)
        words[lo:lo + rows] = _chunk_words(job.seed, first_chunk + lo // CHUNK, rows)
    finals = _finals(job, words, first_chunk * CHUNK)
    return int(_events_hold(job.event, _origin(job), *finals).sum())


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
    changes no count.  ``threads`` must be an integer >= 1.  Returns
    (estimate, stderr, successes)."""
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

