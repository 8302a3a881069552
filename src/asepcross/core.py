"""Domain types and combinatorial utilities shared by all evaluators.

Particle configurations live on the integer lattice with at most one
particle per site.  Each particle carries a colour (species) label in
``{1, ..., r}``; for the two-species process the canonical encoding is a
sorted position vector together with the sorted set of 1-based indices of
the type-2 particles.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

FACTORIAL_CAP = 9
SHARED_PERMUTATIONS = 6  # signed_permutations builds N <= 6 (720 terms) once
INT64_MAX = 2**63 - 1


class ValidationError(ValueError):
    """Input violates a documented precondition or type invariant."""


class ConfigurationError(ValidationError):
    """Parameters are singular or no admissible contour setup exists."""


class AccuracyError(RuntimeError):
    """A numerical result failed to reach its requested tolerance."""


class ResourceLimitError(RuntimeError):
    """A configured cap (factorial, state-space, node budget) was exceeded."""


def as_int(value, name: str) -> int:
    """``value`` as an int; a bool, a non-integral number or a value that
    is no number is refused with ValidationError, never truncated."""
    if type(value) is int:
        return value
    try:
        i = int(value)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != value or isinstance(value, bool):
        raise ValidationError(f"{name} must be integral, got {value!r}")
    return i


def as_seed(value) -> int:
    """``value`` as an int seed in [0, 2**64), the range of a Philox key
    word: a seed outside it is refused, never reduced modulo 2**64, so that
    no two seeds run the same streams."""
    seed = as_int(value, "seed")
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def strictly_ordered(values, name: str, decreasing: bool = False) -> tuple[int, ...]:
    """``values`` as ints, refused unless strictly increasing (or decreasing)."""
    values = tuple([as_int(x, name) for x in values])
    sign = -1 if decreasing else 1
    if any(sign * (b - a) <= 0 for a, b in zip(values, values[1:])):
        order = "decreasing" if decreasing else "increasing"
        raise ValidationError(f"{name} must be strictly {order}")
    return values


def check_rate(value, name: str) -> None:
    """Refuse a negative or non-finite rate or time (NaN included)."""
    if not 0 <= value < math.inf:
        raise ValidationError(f"{name} must be >= 0 and finite, got {value!r}")


def bernoulli_data(rho, m, n) -> tuple[float, int, int]:
    """(rho, m, n), m and n as ints; refused unless rho lies in (0, 1] and 0 <= m <= n, n >= 1."""
    m, n = as_int(m, "m"), as_int(n, "n")
    if not 0 < rho <= 1:
        raise ValidationError(f"rho must lie in (0, 1], got {rho!r}")
    if not 0 <= m <= n or n < 1:
        raise ValidationError(f"need 0 <= m <= n with n >= 1, got m={m}, n={n}")
    return rho, m, n


def window_ends(window) -> tuple[int, int]:
    """(a, b) of a lattice window as ints; refused unless ``window`` is two
    integer ends with a <= b."""
    try:
        ends = tuple(window)
    except TypeError:
        ends = ()
    if len(ends) != 2:
        raise ValidationError(f"a window is two ends (a, b), got {window!r}")
    a, b = as_int(ends[0], "window"), as_int(ends[1], "window")
    if a > b:
        raise ValidationError(f"a window needs a <= b, got ({a}, {b})")
    return a, b


def _check_int64(values):
    for v in values:
        if abs(int(v)) > INT64_MAX:
            raise ValidationError(f"position {v} exceeds the 64-bit integer range")


@dataclass(frozen=True)
class ParticleConfig:
    """State of the exclusion process: sorted positions plus colour labels.

    ``positions`` must be strictly increasing; ``species[i]`` is the colour
    of the particle at ``positions[i]``.  For a two-species system the
    type-2 index set ``p`` (1-based, sorted) is available as
    :attr:`type2_indices`.
    """

    positions: tuple[int, ...]
    species: tuple[int, ...]

    def __post_init__(self):
        pos = strictly_ordered(self.positions, "positions")
        spec = tuple(as_int(c, "species") for c in self.species)
        if len(pos) != len(spec):
            raise ValidationError("positions and species must have equal length")
        if any(c < 1 for c in spec):
            raise ValidationError("species labels must be >= 1")
        _check_int64(pos)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "species", spec)

    @classmethod
    def from_two_species(cls, positions, type2_indices=()):
        """Build a config from positions and the 1-based type-2 index set."""
        positions = tuple(positions)
        p = strictly_ordered(type2_indices, "type-2 indices")
        if p and (p[0] < 1 or p[-1] > len(positions)):
            raise ValidationError("type-2 indices must lie in {1, ..., n}")
        species = tuple(2 if i + 1 in p else 1 for i in range(len(positions)))
        return cls(positions, species)

    @property
    def n(self) -> int:
        return len(self.positions)

    @property
    def m(self) -> int:
        """Number of type-2 particles (two-species view)."""
        return sum(1 for c in self.species if c == 2)

    @property
    def type2_indices(self) -> tuple[int, ...]:
        """Sorted 1-based indices of type-2 particles; requires r <= 2."""
        if any(c > 2 for c in self.species):
            raise ValidationError("type2_indices is only defined for r <= 2")
        return tuple(i + 1 for i, c in enumerate(self.species) if c == 2)


@dataclass(frozen=True)
class StrictSignature:
    """Strictly decreasing integer vector; parts may be negative."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = strictly_ordered(self.parts, "signature parts", decreasing=True)
        _check_int64(parts)
        object.__setattr__(self, "parts", parts)

    def __len__(self):
        return len(self.parts)


@dataclass(frozen=True)
class BlockSignatureVector:
    """Ordered blocks of strict signatures describing an r-species state.

    ``orientation='initial'`` requires every part of block i to exceed every
    part of block j for i < j (block 1 is rightmost); ``'final'`` requires
    the reverse (block 1 is leftmost).  All parts are pairwise distinct,
    and every block has at least one.
    """

    blocks: tuple[StrictSignature, ...]
    orientation: str = "initial"

    def __post_init__(self):
        blocks = tuple(
            b if isinstance(b, StrictSignature) else StrictSignature(tuple(b))
            for b in self.blocks
        )
        if not blocks or not all(b.parts for b in blocks):
            raise ValidationError("at least one block is required, each with at least one part")
        if self.orientation not in ("initial", "final"):
            raise ValidationError("orientation must be 'initial' or 'final'")
        for a, b in zip(blocks, blocks[1:]):
            if self.orientation == "initial":
                if min(a.parts) <= max(b.parts):
                    raise ValidationError(
                        "initial orientation requires strictly decreasing blocks"
                    )
            else:
                if max(a.parts) >= min(b.parts):
                    raise ValidationError(
                        "final orientation requires strictly increasing blocks"
                    )
        object.__setattr__(self, "blocks", blocks)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def r(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: the backhop rate q."""

    q: float = 0.0

    def __post_init__(self):
        check_rate(self.q, "q")


def signed_permutations(N: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All permutations of {0, .., N-1} in lexicographic order with their
    signs, as an immutable sequence reused across mesh nodes.

    The signs come with the order: a permutation whose first image is v
    has v inversions more than the permutation of the remaining values
    after it, so the sign list of N repeats that of N - 1 once per v,
    negated for odd v.  Each N up to SHARED_PERMUTATIONS is built once and
    shared by every call; larger ones are built fresh, so no list of
    thousands of terms stays in memory.  Raises ResourceLimitError when N
    exceeds FACTORIAL_CAP, which guards every permutation-sum evaluator
    against accidental blowups.
    """
    if N < 0:
        raise ValidationError("N must be nonnegative")
    if N > FACTORIAL_CAP:
        raise ResourceLimitError(
            f"permutation sum of size {N} exceeds the factorial cap {FACTORIAL_CAP}"
        )
    return _shared_permutations(N) if N <= SHARED_PERMUTATIONS else _permutations(N)


def _permutations(N: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    signs = [1]
    for n in range(2, N + 1):
        signs = [-s if v % 2 else s for v in range(n) for s in signs]
    return tuple(zip(itertools.permutations(range(N)), signs))


_shared_permutations = functools.cache(_permutations)
