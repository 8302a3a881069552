"""Ground-truth engines for validating the closed-form evaluators.

Two independent oracles: an exact continuous-time Gillespie simulator of the
multi-species exclusion process on the unbounded lattice, and the matrix
exponential of the generator restricted to a finite window (out-of-window
jumps drain into an absorbing sink state), evaluated by uniformization.

A ``MonteCarloJob`` describes every simulation: a fixed initial state or
Bernoulli-step initial data, the backhop rate q, the horizon, the seed and
the event whose probability ``run_monte_carlo`` estimates.  ``_simulate`` is
the one path from a job and a uniform stream to a final state; a Bernoulli
job draws its initial state from the same stream before the jumps.
``simulate_sample(job, i)`` returns the final state of sample ``i``, which is
by construction the trajectory that ``run_monte_carlo`` counts for ``i``.

Randomness is counter-based: sample ``i`` of a run with seed ``s`` draws its
uniforms from a Philox stream keyed by (s, chunk(i)) plus a per-sample
overflow stream keyed by (s xor GOLDEN, i), so results are bit-identical for
any partition of samples across workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import (
    ModelParams,
    ParticleConfig,
    ResourceLimitError,
    ValidationError,
)

MASK64 = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15
CHUNK = 1024
UNIFORMS_PER_SAMPLE = 96
STATE_CAP = 200_000


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
        if self.i < len(self.buf):
            v = self.buf[self.i]
            self.i += 1
            return v
        if self.rng is None:
            key = np.array([(self.seed ^ GOLDEN) & MASK64, self.index & MASK64],
                           dtype=np.uint64)
            self.rng = np.random.Generator(np.random.Philox(key=key))
            self.buf = self.rng.random(256)
            self.i = 0
        if self.i >= len(self.buf):
            self.buf = self.rng.random(256)
            self.i = 0
        v = self.buf[self.i]
        self.i += 1
        return v


def _chunk_generator(seed: int, chunk_index: int, counter: int = 0) -> np.random.Generator:
    key = np.array([seed & MASK64, chunk_index & MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _chunk_uniforms(seed: int, chunk_index: int, count: int) -> np.ndarray:
    return _chunk_generator(seed, chunk_index).random((count, UNIFORMS_PER_SAMPLE))


def _row_uniforms(seed: int, chunk_index: int, row: int) -> np.ndarray:
    """Row ``row`` of _chunk_uniforms(seed, chunk_index, CHUNK), drawn alone:
    each uniform takes one 64-bit output and a Philox4x64 counter step
    yields four, so the row starts row * UNIFORMS_PER_SAMPLE / 4 steps in."""
    rng = _chunk_generator(seed, chunk_index, row * UNIFORMS_PER_SAMPLE // 4)
    return rng.random(UNIFORMS_PER_SAMPLE)


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
    in [s1, s2) and type 2 at or beyond s2.
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
        if self.samples < 1:
            raise ValidationError("samples must be >= 1")
        if not 0 <= self.horizon < math.inf:
            raise ValidationError("horizon must be finite and >= 0")
        if not self.q >= 0:
            raise ValidationError("q must be >= 0")
        if self.bernoulli is not None:
            rho, m, n = self.bernoulli
            if not 0 < rho <= 1:
                raise ValidationError("rho must lie in (0, 1]")
            if not 0 <= m <= n or n < 1:
                raise ValidationError("need 0 <= m <= n and n >= 1")
        if self.event and self.event[0] not in ("target", "wall"):
            raise ValidationError(f"unknown event kind {self.event[0]!r}")


def _event_holds(event, positions, species) -> bool:
    if event[0] == "target":
        return tuple(positions) == event[1] and tuple(species) == event[2]
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
    """Final (positions, species) of one sample of the job on the stream."""
    if job.bernoulli is not None:
        positions, species = _bernoulli_lists(*job.bernoulli, draw)
    else:
        positions = list(job.initial.positions)
        species = list(job.initial.species)
    _gillespie_core(positions, species, job.q, job.horizon, draw, events)
    return positions, species


def simulate_sample(job: MonteCarloJob, index: int = 0, events=None) -> ParticleConfig:
    """Final state of sample ``index``: the trajectory run_monte_carlo counts.

    If ``events`` is a list, each jump appends (t, kind, k, species after),
    where kind is 0 (step right), -1 (step left) or 1 (swap of k and k+1).
    """
    if index < 0:
        raise ValidationError("sample index must be >= 0")
    chunk, row = divmod(index, CHUNK)
    draw = _UniformStream(_row_uniforms(job.seed, chunk, row), job.seed, index)
    positions, species = _simulate(job, draw, events)
    return ParticleConfig(tuple(positions), tuple(species))


def _run_chunk(job: MonteCarloJob, chunk_index: int, count: int) -> int:
    buf = _chunk_uniforms(job.seed, chunk_index, CHUNK)
    successes = 0
    for row in range(count):
        draw = _UniformStream(buf[row], job.seed, chunk_index * CHUNK + row)
        if _event_holds(job.event, *_simulate(job, draw)):
            successes += 1
    return successes


def run_monte_carlo(job: MonteCarloJob, threads: int = 1):
    """Estimate the event probability; bit-identical for any thread count.

    Returns (estimate, stderr, successes).
    """
    if not job.event:
        raise ValidationError("run_monte_carlo needs an event")
    chunks = []
    remaining = job.samples
    idx = 0
    while remaining > 0:
        take = min(CHUNK, remaining)
        chunks.append((idx, take))
        idx += 1
        remaining -= take
    if threads <= 1 or len(chunks) == 1:
        successes = sum(_run_chunk(job, ci, cnt) for ci, cnt in chunks)
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_run_chunk, job, ci, cnt) for ci, cnt in chunks]
            successes = sum(f.result() for f in futures)
    phat = successes / job.samples
    stderr = math.sqrt(phat * (1.0 - phat) / job.samples)
    return phat, stderr, successes


def default_window(mu_positions, t, nu_positions=None, q: float = 0.0):
    """Window heuristic: right margin ceil(t + 4 sqrt t) + 2, left symmetric
    under the backhop rate.  Callers inspect the sink mass and widen."""
    spread = math.ceil(4.0 * math.sqrt(max((1.0 + q) * t, 0.0)))
    right_anchor = max(nu_positions) if nu_positions else max(mu_positions)
    lo = min(mu_positions) - math.ceil(q * t) - spread - 3
    hi = right_anchor + math.ceil(t) + spread + 3
    return (lo, hi)


def _multiset_permutations(colours):
    colours = tuple(sorted(colours))
    if not colours:
        yield ()
        return
    seen = set()
    for i, c in enumerate(colours):
        if c in seen:
            continue
        seen.add(c)
        rest = colours[:i] + colours[i + 1:]
        for tail in _multiset_permutations(rest):
            yield (c,) + tail


@dataclass(frozen=True)
class WindowGenerator:
    """Exact generator of the process restricted to a window with a sink."""

    window: tuple[int, int]
    states: tuple
    index: dict
    matrix: sp.csr_matrix  # (D+1) x (D+1); last row/column is the sink

    @property
    def size(self) -> int:
        return len(self.states)

    def state_of(self, config: ParticleConfig) -> int:
        key = (config.positions, config.species)
        if key not in self.index:
            raise ValidationError("configuration lies outside the window state space")
        return self.index[key]


def build_window_generator(
    particles: ParticleConfig, window, params: ModelParams, cap: int = STATE_CAP
) -> WindowGenerator:
    """Enumerate all placements of the given colour multiset in the window
    and assemble the rate matrix, draining out-of-window jumps into a sink."""
    import itertools

    a, b = int(window[0]), int(window[1])
    if not all(a <= x <= b for x in particles.positions):
        raise ValidationError("initial positions must lie inside the window")
    n = particles.n
    sites = list(range(a, b + 1))
    colour_orders = list(_multiset_permutations(particles.species))
    n_states = math.comb(len(sites), n) * len(colour_orders)
    if n_states > cap:
        raise ResourceLimitError(
            f"window state space {n_states} exceeds the cap {cap}"
        )
    states = []
    index = {}
    for pos in itertools.combinations(sites, n):
        for spc in colour_orders:
            index[(pos, spc)] = len(states)
            states.append((pos, spc))
    D = len(states)
    sink = D
    rows, cols, vals = [], [], []
    q = params.q

    def add(i, j, rate):
        rows.append(i)
        cols.append(j)
        vals.append(rate)

    for i, (pos, spc) in enumerate(states):
        pos_l = list(pos)
        spc_l = list(spc)
        occupied = set(pos)
        for k in range(n):
            # rightward move or swap at rate 1 (higher colour passes lower)
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
            # leftward move at rate q
            if q > 0.0 and pos_l[k] - 1 not in occupied:
                if pos_l[k] - 1 < a:
                    add(i, sink, q)
                else:
                    new_pos = tuple(sorted(pos_l[:k] + [pos_l[k] - 1] + pos_l[k + 1:]))
                    add(i, index[(new_pos, tuple(spc_l))], q)
    off_diag = sp.coo_matrix(
        (vals, (rows, cols)), shape=(D + 1, D + 1), dtype=float
    ).tocsr()
    # pin the diagonal so that row sums vanish in floating point; ulp-level
    # fix-up passes reach exact zero whenever the rate sums are representable
    # (always for dyadic q), else leave a <= 1 ulp residual
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
    return WindowGenerator((a, b), tuple(states), index, matrix)


def transition_row(gen: WindowGenerator, mu: ParticleConfig, t: float) -> np.ndarray:
    """Full distribution exp(Qt) row for initial state mu, by uniformization.

    The returned vector has length D+1; the last entry is the sink mass.
    The Poisson series stops at term k once k + 1 > lam t and the geometric
    bound w_{k+1} / (1 - lam t / (k + 2)) on the remaining weights is below
    1e-15.
    """
    if t < 0:
        raise ValidationError("time must be >= 0")
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
    P = sp.eye(D + 1, format="csr") + gen.matrix / lam
    out = np.zeros(D + 1)
    lt = lam * t
    weight = math.exp(-lt)
    out += weight * v
    k = 0
    while k + 1 <= lt or weight * lt / (k + 1) / (1.0 - lt / (k + 2)) > 1e-15:
        k += 1
        v = P.T.dot(v)
        weight *= lt / k
        out += weight * v
    return out


def expm_transition(gen: WindowGenerator, mu: ParticleConfig, nu: ParticleConfig, t: float):
    """[exp(Qt)]_{mu,nu} plus the sink mass accumulated from mu by time t."""
    row = transition_row(gen, mu, t)
    return float(row[gen.state_of(nu)]), float(row[-1])
