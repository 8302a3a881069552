import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asepcross.core import (
    FACTORIAL_CAP,
    SHARED_PERMUTATIONS,
    ModelParams,
    ParticleConfig,
    ResourceLimitError,
    StrictSignature,
    ValidationError,
    signed_permutations,
)
from conftest import make_blocks
from vertex_reference import inversions


class TestParticleConfig:
    def test_basic(self):
        cfg = ParticleConfig((0, 1, 5), (1, 2, 1))
        assert cfg.n == 3 and cfg.m == 1
        assert cfg.type2_indices == (2,)

    def test_from_two_species(self):
        cfg = ParticleConfig.from_two_species((0, 1, 2), (1, 3))
        assert cfg.species == (2, 1, 2)
        assert cfg.type2_indices == (1, 3)

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            ParticleConfig((1, 0), (1, 1))
        with pytest.raises(ValidationError):
            ParticleConfig((0, 0), (1, 1))

    def test_rejects_bad_species(self):
        with pytest.raises(ValidationError):
            ParticleConfig((0, 1), (0, 1))

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValidationError):
            ParticleConfig.from_two_species((0, 1), (3,))

    @pytest.mark.parametrize("positions, species", [
        ((0, 1.5), (1, 1)), ((0, 1), (1, 1.5)), ((0, 1), (1, True)), ((0, math.nan), (1, 1)),
        ((0, math.inf), (1, 1)), ((0, "1"), (1, 1)),
    ], ids=["fractional_position", "fractional_species", "bool_species", "nan", "inf", "str"])
    def test_non_integral_data_refused(self, positions, species):
        # int() would floor 1.5 to 1 and read True as 1
        with pytest.raises(ValidationError, match="must be integral"):
            ParticleConfig(positions, species)

    def test_integral_floats_accepted(self):
        cfg = ParticleConfig((0.0, 2.0), (1.0, 2))
        assert cfg.positions == (0, 2) and cfg.species == (1, 2)
        assert all(type(x) is int for x in cfg.positions + cfg.species)

    def test_non_integral_type2_index_refused(self):
        with pytest.raises(ValidationError, match="must be integral"):
            ParticleConfig.from_two_species((0, 1, 2), (1.5,))

    def test_int64_guard(self):
        with pytest.raises(ValidationError):
            ParticleConfig((2**63,), (1,))
        assert ParticleConfig((2**62,), (1,)).positions == (2**62,)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=6, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_sorted_positions_accepted(self, xs):
        cfg = ParticleConfig(tuple(sorted(xs)), (1,) * len(xs))
        assert cfg.n == len(xs)

    @given(st.lists(st.integers(-50, 50), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_duplicate_positions_rejected(self, xs):
        xs = sorted(xs) + [sorted(xs)[-1]]
        with pytest.raises(ValidationError):
            ParticleConfig(tuple(xs), (1,) * len(xs))


class TestSignatures:
    def test_strict_signature(self):
        sig = StrictSignature((3, 1, -2))
        assert len(sig) == 3
        with pytest.raises(ValidationError):
            StrictSignature((3, 3))
        with pytest.raises(ValidationError):
            StrictSignature((1, 2))
        with pytest.raises(ValidationError, match="must be integral"):
            StrictSignature((3, 0.5))

    def test_block_vector_orientations(self):
        make_blocks([[5, 3], [1, 0]], "initial")
        make_blocks([[0, -1], [4, 2]], "final")
        with pytest.raises(ValidationError):
            make_blocks([[1, 0], [5, 3]], "initial")
        with pytest.raises(ValidationError):
            make_blocks([[5, 3], [1, 0]], "final")
        with pytest.raises(ValidationError):
            make_blocks([[1, 0]], "sideways")

class TestModelParams:
    def test_validation(self):
        assert ModelParams(q=0.5).q == 0.5
        assert ModelParams().q == 0.0
        for q in (-1.0, math.nan, math.inf):
            with pytest.raises(ValidationError, match="q must be >= 0 and finite"):
                ModelParams(q=q)


def _sign_by_cycles(perm):
    seen = [False] * len(perm)
    cycles = 0
    for i in range(len(perm)):
        if seen[i]:
            continue
        cycles += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return -1 if (len(perm) - cycles) % 2 else 1


class TestPermutations:
    def test_small_cases(self):
        assert list(signed_permutations(1)) == [((0,), 1)]
        two = dict(signed_permutations(2))
        assert two == {(0, 1): 1, (1, 0): -1}
        three = list(signed_permutations(3))
        assert len(three) == 6
        assert sum(sgn for _, sgn in three) == 0

    @pytest.mark.parametrize("N", range(1, 7))
    def test_counts_and_signs(self, N):
        items = list(signed_permutations(N))
        assert len(items) == math.factorial(N)
        assert len({p for p, _ in items}) == math.factorial(N)
        for perm, sgn in items:
            assert sgn == _sign_by_cycles(perm)

    def test_cap_error_names_cap(self):
        with pytest.raises(ResourceLimitError, match="cap 9"):
            list(signed_permutations(10))
        with pytest.raises(ResourceLimitError, match="permutation sum of size 10 exceeds"):
            signed_permutations(FACTORIAL_CAP + 1)
        with pytest.raises(ValidationError, match="nonnegative"):
            signed_permutations(-1)

    @pytest.mark.parametrize("N", range(8))
    def test_lexicographic_order_and_signs(self, N):
        items = signed_permutations(N)
        assert [p for p, _ in items] == list(itertools.permutations(range(N)))
        assert [sgn for _, sgn in items] == [_sign_by_cycles(p) for p, _ in items]

    def test_small_sizes_are_built_once(self):
        for N in range(SHARED_PERMUTATIONS + 1):
            first = signed_permutations(N)
            assert isinstance(first, tuple) and signed_permutations(N) is first

    def test_large_sizes_are_built_fresh(self):
        N = SHARED_PERMUTATIONS + 1
        first = signed_permutations(N)
        assert isinstance(first, tuple) and signed_permutations(N) is not first
        assert signed_permutations(N) == first

    def test_inversions(self):
        assert inversions((1, 3, 2)) == 2
        assert inversions((3, 2, 1)) == 0
