"""Oracle references that only the tests call.

``simulate`` is the scalar Gillespie sampler that the Monte Carlo lockstep
(``oracle._finals``) is checked against: Gillespie's direct method, one
trajectory and one jump at a time, in Python lists.  It reads a sample's
uniforms from a ``UniformStream`` (the sample's row of its chunk's words,
then its overflow stream) in the lockstep's order: the Bernoulli gaps, then
a (clock, move) pair per jump, drawing again after a gap or clock uniform of
0.  Its logarithms are ``np.log``, as the lockstep's are.  ``sample``,
``finals`` and ``successes`` run one sample or every sample of a job.

``expm_transition`` reads one entry of a window oracle row.
"""

from __future__ import annotations

import math

import numpy as np

from asepcross import oracle
from asepcross.core import ParticleConfig
from asepcross.oracle import CHUNK, GOLDEN, UNIFORMS_PER_SAMPLE


class UniformStream:
    """Pre-drawn uniforms, then the sample's overflow stream, keyed
    (seed xor GOLDEN, index), 256 uniforms at a time."""

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
                self.rng = oracle._philox(self.seed ^ GOLDEN, self.index, 0)
            self.buf = self.rng.random(256)
            self.i = 0
        v = self.buf[self.i]
        self.i += 1
        return v


def chunk_uniforms(seed, chunk):
    """The uniforms of a whole chunk's words, one row per sample, by the map
    of ``Generator.random`` (looked up on the module, so that a patched
    ``oracle._chunk_words`` reaches them)."""
    return (oracle._chunk_words(seed, chunk, CHUNK) >> 11) * 2.0**-53


def row_uniforms(seed, chunk, row):
    """Row ``row`` of ``chunk_uniforms``, drawn alone by ``Generator.random``
    from the row's first Philox counter step."""
    rng = oracle._philox(seed, chunk, row * UNIFORMS_PER_SAMPLE // 4)
    return rng.random(UNIFORMS_PER_SAMPLE)


def gillespie_core(positions, species, q, horizon, draw, events=None):
    """Advance one trajectory to the time horizon; mutates the state lists."""
    n = len(positions)
    t = 0.0
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
        t -= np.log(u) / total
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


def bernoulli_lists(rho, m, n, draw):
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
            gap = 1 + int(np.log(u) / math.log1p(-rho))
        site -= gap
        type2.append(site)
    positions = sorted(type2) + list(range(n - m))
    species = [2] * m + [1] * (n - m)
    return positions, species


def simulate(job, draw, events=None):
    """Final (positions, species) of one sample of the job on the stream.
    If ``events`` is a list, each jump appends (t, kind, k, species after),
    where kind is 0 (step right), -1 (step left) or 1 (swap of k and k+1)."""
    if job.bernoulli is not None:
        positions, species = bernoulli_lists(*job.bernoulli, draw)
    else:
        positions = list(job.initial.positions)
        species = list(job.initial.species)
    gillespie_core(positions, species, job.q, job.horizon, draw, events)
    return positions, species


def sample(job, index, events=None):
    """Final state of sample ``index`` of ``job``, run alone on its stream:
    the reference for ``oracle.simulate_sample``."""
    chunk, row = divmod(index, CHUNK)
    draw = UniformStream(row_uniforms(job.seed, chunk, row), job.seed, index)
    positions, species = simulate(job, draw, events)
    return ParticleConfig(tuple(positions), tuple(species))


def event_holds(event, positions, species) -> bool:
    if event[0] == "target":
        return tuple(positions) == tuple(event[1]) and tuple(species) == tuple(event[2])
    s1, s2 = event[1], event[2]
    for x, c in zip(positions, species):
        if c == 1 and not (s1 <= x < s2):
            return False
        if c == 2 and x < s2:
            return False
    return True


def finals(job):
    """The final states of ``job``'s samples, each run alone by ``simulate``
    on its own row of the chunk uniforms."""
    out = []
    for chunk in range(-(-job.samples // CHUNK)):
        buf = chunk_uniforms(job.seed, chunk)
        for row in range(min(CHUNK, job.samples - chunk * CHUNK)):
            draw = UniformStream(buf[row], job.seed, chunk * CHUNK + row)
            out.append(simulate(job, draw))
    return out


def successes(job):
    """The event count of ``job`` over ``finals``."""
    return sum(event_holds(job.event, *final) for final in finals(job))


def expm_transition(gen, mu, nu, t):
    """[exp(Qt)]_{mu,nu} plus the sink mass accumulated from mu by time t."""
    row = oracle.transition_row(gen, mu, t)
    return float(row[gen.state_of(nu)]), float(row[-1])
