import numpy as np
import pytest

from asepcross.core import ParticleConfig, ValidationError
from asepcross.identities import (
    check_boundary_conditions,
    check_free_evolution,
    check_initial_condition,
    check_nested_geometric,
    check_removable_poles,
    check_symmetrization,
    check_u_factorization,
    run_identity_suite,
    _nested_geometric_sum,
    _sample_points,
)


@pytest.fixture
def spectral(rng):
    z = _sample_points(rng, 3, lo=0.3, hi=0.7)
    u = _sample_points(rng, 1, lo=0.75, hi=0.9)
    return z, u


class TestFreeEvolution:
    def test_single_particle_scalar(self, rng):
        z = _sample_points(rng, 1, lo=0.3, hi=0.7)
        rep = check_free_evolution([0], [], 0.5, z, np.zeros(0))
        assert rep.passed

    def test_mixed_species_order(self, spectral):
        z, u = spectral
        rep = check_free_evolution([0, 2, 5], [2], 0.4, z, u)
        assert rep.passed
        err_h, err_h2 = (
            float(tok.split("=")[1]) for tok in rep.details.split()
        )
        assert err_h2 < 0.4 * err_h  # second-order decay

    def test_requires_separation(self, spectral):
        z, u = spectral
        with pytest.raises(ValidationError):
            check_free_evolution([0, 1, 5], [2], 0.4, z, u)


class TestBoundaryConditions:
    def test_first_case_vanishes(self, spectral):
        z, u = spectral
        rep = check_boundary_conditions([0, 0, 3], 1, (1,), z, u)
        assert rep.name == "boundary_first" and rep.passed

    def test_second_case_three_terms(self, spectral):
        z, u = spectral
        rep = check_boundary_conditions([0, 0, 3], 1, (2,), z, u)
        assert rep.name == "boundary_second" and rep.passed

    def test_third_case_same_type(self, spectral):
        z, u = spectral
        rep = check_boundary_conditions([0, 2, 2], 2, (1,), z, u)
        assert rep.name == "boundary_third" and rep.passed

    def test_collision_required(self, spectral):
        z, u = spectral
        with pytest.raises(ValidationError):
            check_boundary_conditions([0, 1, 3], 1, (1,), z, u)


class TestUFactorization:
    def test_m1_trivial(self, rng):
        z = _sample_points(rng, 3, lo=0.3, hi=0.7)
        u = _sample_points(rng, 1, lo=0.75, hi=0.9)
        rep = check_u_factorization(z, u, (2, 0, 1))
        assert rep.passed

    @pytest.mark.parametrize("n,m", [(3, 2), (4, 3)])
    def test_larger_blocks(self, rng, n, m):
        z = _sample_points(rng, n, lo=0.3, hi=0.7)
        u = _sample_points(rng, m, lo=0.75, hi=0.9)
        perm = tuple(rng.permutation(n).tolist())
        rep = check_u_factorization(z, u, perm)
        assert rep.passed

    def test_checks_the_production_kernel(self, rng, monkeypatch):
        import asepcross.formulas as formulas

        z = _sample_points(rng, 4, lo=0.3, hi=0.7)
        u = _sample_points(rng, 2, lo=0.75, hi=0.9)
        assert check_u_factorization(z, u, (1, 3, 0, 2)).passed
        kernel = formulas.u_sum_determinant
        monkeypatch.setattr(formulas, "u_sum_determinant", lambda *a: 1.001 * kernel(*a))
        assert not check_u_factorization(z, u, (1, 3, 0, 2)).passed


class TestRemovablePoles:
    @pytest.mark.parametrize("m", [2, 3])
    def test_residues_vanish(self, rng, m):
        rep = check_removable_poles(4, m, rng)
        assert rep.passed
        assert "control residue" in rep.details


class TestNestedGeometric:
    def test_single_geometric_series(self):
        rep = check_nested_geometric(np.array([0.5 + 0j]), 0)
        assert rep.passed

    @pytest.mark.parametrize("m", [2, 3])
    def test_nested(self, rng, m):
        z = _sample_points(rng, m, lo=0.2, hi=0.65)
        rep = check_nested_geometric(z, 1)
        assert rep.passed

    def test_divergent_rejected(self):
        with pytest.raises(ValidationError):
            check_nested_geometric(np.array([1.2 + 0j]), 0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_suffix_sums_match_recursion(self, rng, m):
        # the O(truncation^m) recursion the suffix-sum route replaced
        z = _sample_points(rng, m, lo=0.5, hi=0.95)
        truncation, s2 = 12, -1

        def nested(level, lower):
            if level == m:
                return 1.0 + 0.0j
            return sum(
                z[level] ** v * nested(level + 1, v + 1)
                for v in range(lower, lower + truncation)
            )

        ref = nested(0, s2)
        got = _nested_geometric_sum(z, s2, truncation)
        assert abs(got - ref) <= 1e-13 * abs(ref)


class TestSymmetrization:
    def test_m1_trivial(self):
        rep = check_symmetrization(np.array([0.4 + 0.1j]), s2=2, rho=0.3)
        assert rep.passed

    @pytest.mark.parametrize("m", [2, 3])
    def test_random_points(self, rng, m):
        z = _sample_points(rng, m, lo=0.25, hi=0.8)
        rep = check_symmetrization(z, s2=3, rho=0.3)
        assert rep.passed


class TestInitialCondition:
    def test_two_species_window(self):
        rep = check_initial_condition(ParticleConfig.from_two_species((0, 1), (1,)))
        assert rep.passed and rep.samples > 10


class TestSuite:
    def test_default_suite_passes(self):
        reports = run_identity_suite(samples=15)
        assert all(r.passed for r in reports)
        names = {r.name for r in reports}
        assert {
            "free_evolution",
            "boundary_first",
            "boundary_second",
            "boundary_third",
            "u_factorization",
            "removable_poles",
            "nested_geometric",
            "symmetrization",
            "initial_condition",
        } <= names
