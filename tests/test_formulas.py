import math
import pickle

import numpy as np
import pytest

from asepcross.core import (
    AccuracyError,
    ModelParams,
    ParticleConfig,
    ResourceLimitError,
    ValidationError,
    signed_permutations,
)
from asepcross.formulas import (
    CrossingQuery,
    GreenQuery,
    Result,
    WallQuery,
    _finalize_probability,
    block_crossing,
    cumulative_crossing_bernoulli,
    cumulative_crossing_one_wall,
    cumulative_crossing_step,
    eigenfunction_P,
    gamma_wall,
    r_asep_transition,
    rainbow_total_crossing,
    schutz_determinant,
    tasep_block_crossing,
    two_tasep_crossing,
    two_tasep_green,
)
from asepcross.oracle import (
    MonteCarloJob,
    build_window_generator,
    expm_transition,
    run_monte_carlo,
)
from conftest import make_blocks

GOLDEN_2TASEP = 0.06766764161830637


def _two_species(positions, p):
    return ParticleConfig.from_two_species(positions, p)


class TestEigenfunction:
    def test_single_free_particle(self):
        z = np.array([0.4 + 0.2j])
        t = 0.7
        val = eigenfunction_P([3], [], t, z, np.zeros((0, 1)))
        expected = z[0] ** 3 * np.exp((1 / z[0] - 1) * t)
        assert abs(val - expected) < 1e-14

    def test_two_particle_determinant_structure(self, rng):
        # at m = 0 the permutation sum is a 2x2 determinant
        z = rng.uniform(0.2, 0.6, 2) + 1j * rng.uniform(-0.2, 0.2, 2)
        nu = [1, 4]
        t = 0.5
        val = eigenfunction_P(nu, [], t, z, np.zeros((0, 1)))
        mat = np.array(
            [
                [(1 - z[k]) ** (-(i + 1)) * z[k] ** nu[i] for i in range(2)]
                for k in range(2)
            ]
        )
        pref = np.prod([(1 - z[i]) ** (i + 1) for i in range(2)])
        expected = pref * np.linalg.det(mat.T) * np.exp(((1 / z - 1) * t).sum())
        assert abs(val - expected) < 1e-12 * abs(expected)

    def test_literal_reimplementation_n2_m1(self, rng):
        # straight-loop transcription of the double permutation sum, at
        # n = 2, m = 1 and at n = 3, m = 2
        cases = [
            (rng.uniform(0.2, 0.6, 2) + 1j * rng.uniform(-0.2, 0.2, 2),
             rng.uniform(0.7, 0.9, 1) + 1j * rng.uniform(-0.1, 0.1, 1), [2, 5], [2], 0.9),
            (rng.uniform(0.2, 0.6, 3) + 1j * rng.uniform(-0.2, 0.2, 3),
             rng.uniform(0.7, 0.9, 2) + 1j * rng.uniform(-0.1, 0.1, 2), [-1, 2, 4], [1, 3],
             0.7),
        ]
        for z, u, nu, p, t in cases:
            n, m = len(nu), len(p)
            total = 0.0
            for perm, sgn in signed_permutations(n):
                term = complex(sgn)
                for i in range(n):
                    term *= ((1 - z[i]) / (1 - z[perm[i]])) ** (i + 1)
                    term *= z[perm[i]] ** nu[i]
                    term *= np.exp((1 / z[i] - 1) * t)
                for i in range(m):
                    for j in range(p[i]):
                        term *= 1 / (1 - z[perm[j]])
                csum = 0.0
                for sperm, ssgn in signed_permutations(m):
                    cterm = complex(ssgn)
                    for i in range(m):
                        cterm *= ((1 - u[i]) / (1 - u[sperm[i]])) ** (i + 1)
                        for j in range(p[i] - 1):
                            cterm *= u[sperm[i]] - z[perm[j]]
                    csum += cterm
                total += term * csum
            val = eigenfunction_P(nu, p, t, z, u)
            assert abs(val - total) < 1e-12 * max(1.0, abs(total))


class TestTwoTasepGreen:
    def test_poisson_reduction_both_methods(self):
        for k in range(7):
            q = GreenQuery(_two_species((0,), ()), _two_species((k,), ()), 1.0)
            exact = math.exp(-1) / math.factorial(k)
            assert abs(two_tasep_green(q) - exact) < 1e-12
            q2 = GreenQuery(
                _two_species((0,), ()), _two_species((k,), ()), 1.0,
                method="quadrature",
            )
            assert abs(two_tasep_green(q2) - exact) < 1e-10

    def test_t0_delta(self):
        ini = _two_species((0, 1), (1,))
        assert two_tasep_green(GreenQuery(ini, ini, 0.0)) == pytest.approx(1.0, abs=1e-12)
        for fin in (_two_species((1, 2), (2,)), _two_species((0, 2), (1,))):
            assert abs(two_tasep_green(GreenQuery(ini, fin, 0.0))) < 1e-12

    def test_fast_path_against_golden_oracle(self):
        ini = _two_species((0, 1), (1,))
        fin = _two_species((1, 2), (2,))
        val = two_tasep_green(GreenQuery(ini, fin, 1.0))
        assert val.method == "quadrature"
        assert abs(val - GOLDEN_2TASEP) < 1e-10

    def test_full_path_against_oracle(self):
        # type 2 initially on the right: no residue shortcut applies
        ini = _two_species((0, 1), (2,))
        gen = build_window_generator(ini, (-4, 12), ModelParams(q=0.0))
        t = 1.0
        for fin in (
            _two_species((1, 3), (2,)),
            _two_species((0, 1), (2,)),
            _two_species((2, 4), (2,)),
        ):
            oracle, sink = expm_transition(gen, ini, fin, t)
            assert sink < 1e-8
            val = two_tasep_green(GreenQuery(ini, fin, t, tol=1e-9))
            assert abs(val - oracle) < 1e-7

    def test_out_of_regime_value_vanishes(self):
        ini = _two_species((0, 1), (1,))
        fin = _two_species((-2, 1), (1,))
        assert abs(two_tasep_green(GreenQuery(ini, fin, 1.0))) < 1e-10

    def test_dimension_budget(self):
        ini = _two_species(tuple(range(6)), ())
        fin = _two_species(tuple(range(1, 7)), ())
        with pytest.raises(ResourceLimitError):
            two_tasep_green(GreenQuery(ini, fin, 1.0, method="quadrature"))

    def test_laurent_rejects_interacting_systems(self):
        ini = _two_species((0, 1), (1,))
        with pytest.raises(ValidationError):
            two_tasep_green(GreenQuery(ini, ini, 1.0, method="laurent"))


class TestSchutzReduction:
    @pytest.mark.parametrize("species", [(), (1, 2)])
    def test_two_particles(self, species):
        p = species if species else ()
        mu = ParticleConfig.from_two_species((0, 2), p)
        nu = ParticleConfig.from_two_species((1, 4), p)
        green = two_tasep_green(GreenQuery(mu, nu, 0.7))
        det = schutz_determinant(mu.positions, nu.positions, 0.7)
        assert abs(green - det) < 1e-9

    def test_t0(self):
        mu = ParticleConfig.from_two_species((0, 2), ())
        green = two_tasep_green(GreenQuery(mu, mu, 0.0))
        det = schutz_determinant(mu.positions, mu.positions, 0.0)
        assert green == pytest.approx(1.0, abs=1e-12)
        assert det == pytest.approx(1.0, abs=1e-12)

    def test_requires_single_species(self):
        # with one particle of each type the determinant is not the Green's
        # function: the pair (0, 1) -> (1, 2) needs the type-2 particle to
        # overtake, which the single-species process cannot do
        mu = ParticleConfig.from_two_species((0, 1), (1,))
        nu = ParticleConfig.from_two_species((1, 2), (2,))
        green = two_tasep_green(GreenQuery(mu, nu, 1.0))
        det = schutz_determinant(mu.positions, nu.positions, 1.0)
        assert abs(green - 0.06766764161830637) < 1e-9
        assert abs(green - det) > 1e-2

    def test_determinant_out_of_regime(self):
        assert abs(schutz_determinant((0, 2), (-1, 3), 0.5)) < 1e-14


class TestTwoTasepCrossing:
    def test_m0_reduces_to_schutz(self):
        val = two_tasep_crossing((0, 2), (1, 4), 0, 0.7)
        assert abs(val - schutz_determinant((0, 2), (1, 4), 0.7)) < 1e-10

    def test_matches_green_n2(self):
        val = two_tasep_crossing((0, 1), (2, 3), 1, 1.0)
        g = two_tasep_green(
            GreenQuery(_two_species((0, 1), (1,)), _two_species((2, 3), (2,)), 1.0)
        )
        assert abs(val - g) < 1e-10

    def test_n3_against_oracle(self):
        mu, nu, t = (-1, 0, 1), (2, 3, 5), 3.0
        ini = _two_species(mu, (1,))
        gen = build_window_generator(ini, (-8, 18), ModelParams(q=0.0))
        oracle, sink = expm_transition(gen, ini, _two_species(nu, (3,)), t)
        assert sink < 1e-7
        val = two_tasep_crossing(mu, nu, 1, t, tol=1e-9)
        assert abs(val - oracle) < 1e-6


class TestRAsep:
    def test_t0_delta(self):
        assert r_asep_transition([0], [0], 0.5, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert abs(r_asep_transition([0], [1], 0.5, 0.0)) < 1e-12
        assert r_asep_transition([1, 0], [1, 0], 0.5, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_single_particle_biased_walk(self):
        params = ModelParams(q=0.5)
        ini = ParticleConfig((0,), (1,))
        gen = build_window_generator(ini, (-15, 15), params)
        for target in (0, 1, -1, 3):
            oracle, _ = expm_transition(gen, ini, ParticleConfig((target,), (1,)), 1.0)
            val = r_asep_transition([0], [target], 0.5, 1.0)
            assert abs(val - oracle) < 1e-8

    def test_two_colours_against_oracle(self):
        params = ModelParams(q=0.5)
        ini = ParticleConfig((0, 1), (2, 1))  # colour 1 at 1, colour 2 at 0
        gen = build_window_generator(ini, (-10, 12), params)
        targets = [((-1, 2), (2, 1)), ((0, 1), (1, 2)), ((1, 3), (1, 2))]
        for pos, col in targets:
            oracle, _ = expm_transition(gen, ini, ParticleConfig(pos, col), 1.0)
            nu = [None, None]
            for x, c in zip(pos, col):
                nu[c - 1] = x
            val = r_asep_transition([1, 0], nu, 0.5, 1.0)
            assert abs(val - oracle) < 1e-6

    def test_q1_unsupported(self):
        with pytest.raises(ValidationError):
            r_asep_transition([0], [1], 1.0, 1.0)

    def test_q0_requires_reversed_order(self):
        with pytest.raises(ValidationError):
            r_asep_transition([1, 0], [3, 2], 0.0, 1.0)
        val = r_asep_transition([1, 0], [2, 3], 0.0, 1.0)
        assert val == pytest.approx(rainbow_total_crossing([1, 0], [2, 3], 0.0, 1.0))


class TestRainbow:
    def test_n1_equals_transition(self):
        a = rainbow_total_crossing([0], [2], 0.5, 1.0)
        b = r_asep_transition([0], [2], 0.5, 1.0)
        assert abs(a - b) < 1e-12

    def test_matches_general_transition(self):
        a = rainbow_total_crossing([1, 0], [2, 3], 0.5, 1.0)
        b = r_asep_transition([1, 0], [2, 3], 0.5, 1.0)
        assert abs(a - b) < 1e-10

    def test_shift_invariance_exact(self):
        # shifting the pair (mu_1, nu_1) by -2 preserves both orderings
        base = rainbow_total_crossing([3, 0], [5, 9], 0.5, 1.0)
        shifted = rainbow_total_crossing([1, 0], [3, 9], 0.5, 1.0)
        assert shifted == base

    def test_order_validation(self):
        with pytest.raises(ValidationError):
            rainbow_total_crossing([0, 1], [2, 3], 0.5, 1.0)
        with pytest.raises(ValidationError):
            rainbow_total_crossing([1, 0], [3, 2], 0.5, 1.0)


class TestBlockCrossing:
    def test_blocks_of_size_one_match_rainbow(self):
        query = CrossingQuery(
            make_blocks([[1], [0]], "initial"),
            make_blocks([[2], [3]], "final"),
            0.5,
            1.0,
        )
        a = block_crossing(query)
        b = rainbow_total_crossing([1, 0], [2, 3], 0.5, 1.0)
        assert abs(a - b) < 1e-10

    def test_single_block_matches_corollary_and_oracle(self):
        q = 0.4
        query = CrossingQuery(
            make_blocks([[1, 0]], "initial"),
            make_blocks([[3, 2]], "final"),
            q,
            1.0,
        )
        a = block_crossing(query)
        ini = ParticleConfig((0, 1), (1, 1))
        gen = build_window_generator(ini, (-10, 12), ModelParams(q=q))
        oracle, _ = expm_transition(gen, ini, ParticleConfig((2, 3), (1, 1)), 1.0)
        assert abs(a - oracle) < 1e-6

    def test_q0_matches_determinant_route(self):
        query = CrossingQuery(
            make_blocks([[0], [-1]], "initial"),
            make_blocks([[2], [3]], "final"),
            0.0,
            1.0,
        )
        a = block_crossing(query)
        b = tasep_block_crossing(query)
        assert abs(a - b) < 1e-10

    def test_orientation_validation(self):
        with pytest.raises(ValidationError):
            CrossingQuery(
                make_blocks([[0], [-1]], "initial"),
                make_blocks([[3], [2]], "initial"),
                0.5,
                1.0,
            )


class TestColourBlindness:
    def test_single_block_sums_rainbow_transitions(self):
        # merging the two colours equals summing over their final arrangements
        q, t = 0.5, 1.0
        query = CrossingQuery(
            make_blocks([[1, 0]], "initial"),
            make_blocks([[3, 2]], "final"),
            q,
            t,
        )
        merged = block_crossing(query)
        split = r_asep_transition([1, 0], [2, 3], q, t) + r_asep_transition(
            [1, 0], [3, 2], q, t
        )
        assert abs(merged - split) < 1e-8


class TestMonotoneCeiling:
    def test_cumulative_crossing_reported_monotone(self):
        # observed property: the cumulative crossing probability climbs
        # toward its long-time ceiling (reported, not asserted)
        values = [
            cumulative_crossing_bernoulli(
                WallQuery(s1=-3, s2=2, rho=0.5, n=2, m=1, t=t), form="inverted"
            )
            for t in (0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        print("cumulative crossing vs t:", [f"{v:.6f}" for v in values])
        monotone = all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        print("monotone approach to ceiling:", monotone)
        assert all(0.0 <= v <= 1.0 for v in values)


class TestTasepBlockCrossing:
    def test_matches_two_species_determinant(self):
        query = CrossingQuery(
            make_blocks([[0], [-1]], "initial"),
            make_blocks([[2], [3]], "final"),
            0.0,
            1.0,
        )
        a = tasep_block_crossing(query)
        b = two_tasep_crossing((-1, 0), (2, 3), 1, 1.0)
        assert abs(a - b) < 1e-10

    def test_t0_crossed_target_is_zero(self):
        query = CrossingQuery(
            make_blocks([[0], [-1]], "initial"),
            make_blocks([[2], [3]], "final"),
            0.0,
            0.0,
        )
        assert abs(tasep_block_crossing(query)) < 1e-12

    def test_unequal_blocks_against_oracle(self):
        # colour 1 block of size 1, colour 2 block of size 2
        query = CrossingQuery(
            make_blocks([[0], [-1, -2]], "initial"),
            make_blocks([[1], [4, 2]], "final"),
            0.0,
            1.5,
        )
        val = tasep_block_crossing(query, tol=1e-9)
        ini = ParticleConfig((-2, -1, 0), (2, 2, 1))
        gen = build_window_generator(ini, (-8, 12), ModelParams(q=0.0))
        fin = ParticleConfig((1, 2, 4), (1, 2, 2))
        oracle, sink = expm_transition(gen, ini, fin, 1.5)
        assert sink < 1e-7
        assert abs(val - oracle) < 1e-6

    def test_requires_q0(self):
        query = CrossingQuery(
            make_blocks([[0], [-1]], "initial"),
            make_blocks([[2], [3]], "final"),
            0.5,
            1.0,
        )
        with pytest.raises(ValidationError):
            tasep_block_crossing(query)


class TestCumulativeStep:
    def test_brute_force_sum(self):
        s1, s2, t = 0, 2, 1.0
        val = cumulative_crossing_step((-1, 0), 1, s1, s2, t)
        brute = sum(
            two_tasep_crossing((-1, 0), (n1, n2), 1, t)
            for n1 in range(s1, s2)
            for n2 in range(s2, s2 + 30)
        )
        assert abs(val - brute) < 1e-7

    def test_monte_carlo_cross_check(self):
        val = cumulative_crossing_step((-1, 0), 1, 0, 2, 1.0)
        job = MonteCarloJob(
            q=0.0, horizon=1.0, samples=200_000, seed=99,
            initial=ParticleConfig((-1, 0), (2, 1)),
            event=("wall", 0, 2),
        )
        est, err, _ = run_monte_carlo(job)
        assert abs(est - val) <= 3 * err

    def test_pure_type2_poisson_tail(self):
        # single type-2 particle: crossing means position >= s2
        val = cumulative_crossing_step((-1,), 1, -5, 2, 1.0)
        exact = 1 - sum(math.exp(-1) / math.factorial(k) for k in range(3))
        assert abs(val - exact) < 1e-10

    def test_pure_type1_window(self):
        val = cumulative_crossing_step((0,), 0, 1, 3, 1.0)
        exact = sum(math.exp(-1) / math.factorial(k) for k in (1, 2))
        assert abs(val - exact) < 1e-10

    def test_infeasible_wall_returns_zero(self):
        assert cumulative_crossing_step((-1, 0), 1, 0, 0, 1.0) == 0.0


class TestCumulativeBernoulli:
    def test_direct_and_inverted_agree(self, rng):
        for _ in range(4):
            query = WallQuery(
                s1=-int(rng.integers(2, 5)),
                s2=int(rng.integers(1, 4)),
                rho=float(rng.uniform(0.3, 0.9)),
                n=2,
                m=1,
                t=float(rng.uniform(0.5, 2.5)),
            )
            d = cumulative_crossing_bernoulli(query, form="direct")
            i = cumulative_crossing_bernoulli(query, form="inverted")
            assert abs(d - i) < 1e-9

    def test_one_wall_forms_agree(self):
        query = WallQuery(s1=-3, s2=2, rho=0.5, n=2, m=1, t=2.0)
        i = cumulative_crossing_bernoulli(query, form="inverted")
        c = cumulative_crossing_one_wall(query, form="collapsed")
        cb = cumulative_crossing_one_wall(query, form="cauchy_binet")
        assert abs(i - c) < 1e-9
        assert abs(c - cb) < 1e-9

    def test_rho_one_matches_step(self):
        query = WallQuery(s1=-3, s2=2, rho=1.0, n=2, m=1, t=2.0)
        i = cumulative_crossing_bernoulli(query, form="inverted")
        st = cumulative_crossing_step((-1, 0), 1, -3, 2, 2.0)
        assert abs(i - st) < 1e-9

    def test_one_wall_requires_irrelevant_wall(self):
        query = WallQuery(s1=0, s2=2, rho=0.5, n=2, m=1, t=1.0)
        with pytest.raises(ValidationError):
            cumulative_crossing_one_wall(query)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_cauchy_binet_sign(self, m):
        query = WallQuery(s1=-2 * m, s2=1, rho=0.5, n=m + 1, m=m, t=3.0)
        cb = cumulative_crossing_one_wall(query, form="cauchy_binet")
        assert cb > 0
        assert abs(cb - cumulative_crossing_one_wall(query, form="collapsed")) < 1e-10
        assert abs(cb - cumulative_crossing_bernoulli(query)) < 1e-10

    @pytest.mark.parametrize("form", ["collapsed", "cauchy_binet"])
    def test_one_wall_refuses_n_equal_m(self, form):
        # both forms were silently wrong here (0.199489 against 0.205159 at n = m = 1)
        for n in (1, 2):
            query = WallQuery(s1=-n - 1, s2=2, rho=0.5, n=n, m=n, t=2.0)
            with pytest.raises(ValidationError, match="cumulative_crossing_bernoulli"):
                cumulative_crossing_one_wall(query, form=form)

    def test_m0_reduces_to_type1_window(self):
        # no type 2: the event is all particles staying below s2
        query = WallQuery(s1=-1, s2=3, rho=0.5, n=1, m=0, t=1.0)
        val = cumulative_crossing_one_wall(query)
        exact = 1 - gamma_wall(1, 4, 1.0)  # P(0 + Poisson < 3)
        assert abs(val - exact) < 1e-10

    def test_three_species_sizes(self):
        # n = 3, m = 2 exercises the multivariate residue expansion
        query = WallQuery(s1=-4, s2=2, rho=0.6, n=3, m=2, t=1.5)
        d = cumulative_crossing_bernoulli(query, form="direct", tol=1e-9)
        i = cumulative_crossing_bernoulli(query, form="inverted")
        assert abs(d - i) < 1e-8


class TestGammaWall:
    def test_single_particle_tail(self):
        val = gamma_wall(1, 2, 1.0)
        assert abs(val - (1 - math.exp(-1))) < 1e-14

    def test_t0(self):
        assert gamma_wall(2, 5, 0.0) == 0.0

    def test_methods_agree(self):
        a = gamma_wall(2, 4, 1.5)
        b = gamma_wall(2, 4, 1.5, method="quadrature")
        assert abs(a - b) < 1e-10

    def test_against_monte_carlo(self):
        val = gamma_wall(2, 4, 2.0)
        job = MonteCarloJob(
            q=0.0, horizon=2.0, samples=200_000, seed=5,
            # type 2 only: the wall event asks every particle to reach 4
            initial=ParticleConfig((1, 2), (2, 2)),
            event=("wall", 4, 4),
        )
        est, err, _ = run_monte_carlo(job)
        assert abs(est - val) <= 3 * err

    def test_wall_must_exceed_n(self):
        with pytest.raises(ValidationError):
            gamma_wall(2, 2, 1.0)

    def test_method_checked_before_t0_shortcut(self):
        with pytest.raises(ValidationError):
            gamma_wall(2, 5, 0.0, method="bogus")

    def test_step_crossing_relation(self):
        # two-species step data: type 2 at -m..-1, type 1 at 0..n-m-1; the
        # wall event splits into single-species crossing events after a
        # frame shift of n lattice units
        for (m, s2, t) in ((1, 2, 2.0), (1, 3, 1.0), (2, 1, 1.5)):
            n = m + 1
            query = WallQuery(s1=-m - 3, s2=s2, rho=1.0, n=n, m=m, t=t)
            lhs = cumulative_crossing_one_wall(query)
            rhs = gamma_wall(n - 1, s2 + n, t) - gamma_wall(n, s2 + n, t)
            assert abs(lhs - rhs) < 1e-10


class TestLargeArguments:
    """Large t and long jumps: exact digits or a typed error, never overflow."""

    @staticmethod
    def schutz_mpmath(mu, nu, t, dps=60):
        """The Schütz determinant from its Poisson series at ``dps`` digits,
        each entry summed to 60 standard deviations past its mean."""
        mpmath = pytest.importorskip("mpmath")
        n = len(mu)
        with mpmath.workdps(dps):
            def entry(a, x):
                total, j = mpmath.mpf(0), max(0, -x)
                while x + j <= t + 60 * math.sqrt(t) + 60 and not (a >= 0 and j > a):
                    total += ((-1) ** j * mpmath.binomial(a, j) * mpmath.mpf(t) ** (x + j)
                              / mpmath.factorial(x + j))
                    j += 1
                return total * mpmath.exp(-t)

            mat = mpmath.matrix([[entry(k - i, nu[i] - mu[k]) for i in range(n)]
                                 for k in range(n)])
            return float(mpmath.det(mat))

    def test_gamma_wall_long_jump(self):
        # pole order 199 at the origin: beyond where t^k / k! overflows
        assert 0.0 <= gamma_wall(1, 200, 1.0) <= 1e-15

    def test_single_particle_green_long_jump(self):
        green = two_tasep_green(GreenQuery(_two_species((0,), ()), _two_species((150,), ()),
                                           150.0))
        exact = math.exp(150 * math.log(150) - 150 - math.lgamma(151))
        assert green == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("t", [80, 200, 380])
    def test_schutz_large_t(self, t):
        mu, nu = (0, 1), (t + 1, t + 3)
        assert abs(schutz_determinant(mu, nu, float(t))
                   - self.schutz_mpmath(mu, nu, t)) < 1e-13

    @pytest.mark.parametrize("call, expected", [
        (lambda: gamma_wall(1, 5, 800.0), 1.0),
        (lambda: gamma_wall(2, 5, 800.0), 1.0),
        (lambda: cumulative_crossing_bernoulli(WallQuery(-3, 2, 0.5, 1, 1, 800.0)), 1.0),
        (lambda: cumulative_crossing_bernoulli(WallQuery(-3, 2, 0.5, 2, 1, 800.0)), 0.0),
    ], ids=["gamma_n1", "gamma_n2", "bernoulli_n1", "bernoulli_n2"])
    def test_residues_past_exp_overflow(self, call, expected):
        # e^t alone overflows past t = 709; the residues at 1 see e^((z-1)t) = 1
        assert abs(call() - expected) < 1e-12

    def test_higher_order_past_exp_overflow_is_never_nan(self):
        try:
            value = gamma_wall(3, 6, 800.0)
        except AccuracyError as exc:
            assert "nan" not in str(exc)
        else:
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("evaluate", [cumulative_crossing_bernoulli,
                                          cumulative_crossing_one_wall])
    def test_long_wall_overflow_fails_typed(self, evaluate):
        # 0.5^-1100 at the residue point 1 - rho is past the float range
        with pytest.raises(AccuracyError, match="overflows"):
            evaluate(WallQuery(-3, 1100, 0.5, 2, 1, 2.0))

    def test_cancelling_residues_fail_typed(self):
        # the inverted residues cancel far below their size at this wall
        with pytest.raises(AccuracyError):
            cumulative_crossing_bernoulli(WallQuery(-3, 180, 0.5, 2, 1, 2.0))


class TestFinalization:
    def test_imaginary_part_rejected(self):
        with pytest.raises(AccuracyError):
            _finalize_probability(0.5 + 1e-6j)

    def test_nan_rejected(self):
        with pytest.raises(AccuracyError):
            _finalize_probability(complex(math.nan, 0.0))
        with pytest.raises(AccuracyError):
            _finalize_probability(complex(0.5, math.nan))

    def test_negative_clamp_and_error(self):
        assert _finalize_probability(-5e-10 + 0j) == 0.0
        with pytest.raises(AccuracyError):
            _finalize_probability(-1e-6 + 0j)

    def test_upper_clamp(self):
        assert _finalize_probability(1.0 + 5e-10 + 0j) == 1.0
        with pytest.raises(AccuracyError):
            _finalize_probability(1.1 + 0j)


class TestNegativeRates:
    @pytest.mark.parametrize("call", [
        lambda: two_tasep_crossing((0, 1), (1, 3), 1, -1.0),
        lambda: gamma_wall(2, 5, -1.0),
        lambda: gamma_wall(2, 5, -1.0, method="quadrature"),
        lambda: schutz_determinant((0, 1), (1, 2), -1.0),
        lambda: rainbow_total_crossing((1, 0), (1, 2), -0.5, 1.0),
        lambda: rainbow_total_crossing((1, 0), (1, 2), 0.5, -1.0),
        lambda: r_asep_transition((1, 0), (0, 2), -0.5, 1.0),
        lambda: r_asep_transition((1, 0), (0, 2), 0.5, -1.0),
        lambda: block_crossing(CrossingQuery(make_blocks([[1, 0]], "initial"),
                                             make_blocks([[2, 1]], "final"), -0.5, 1.0)),
        lambda: block_crossing(CrossingQuery(make_blocks([[1, 0]], "initial"),
                                             make_blocks([[2, 1]], "final"), 0.5, -1.0)),
        lambda: cumulative_crossing_step((-1, 0), 1, -3, 2, -1.0),
    ], ids=["two_tasep_crossing_t", "gamma_t", "gamma_quadrature_t", "schutz_t",
            "rainbow_q", "rainbow_t", "r_asep_q", "r_asep_t", "block_crossing_q",
            "block_crossing_t", "step_t"])
    def test_refused_before_any_quadrature(self, call):
        with pytest.raises(ValidationError, match="must be >= 0"):
            call()


class TestResult:
    def test_quadrature_result_carries_measured_error(self):
        val = two_tasep_crossing((0, 1), (1, 3), 1, 1.0, tol=1e-10)
        assert isinstance(val, Result) and isinstance(val, float)
        assert val.method == "quadrature"
        assert 0.0 <= val.est_err < 1e-10

    def test_prefactor_scales_the_error(self, monkeypatch):
        import asepcross.formulas as formulas

        def integral_returning(value):
            return lambda f, cp, tol, node_budget: (value, 1e-12)

        # prefactors (1 - q)^n = 0.25 and (-q^(-1/2))^sum(nu) = -sqrt(2)
        monkeypatch.setattr(formulas, "product_integrate", integral_returning(0.5 + 0j))
        rainbow = rainbow_total_crossing((1, 0), (1, 2), 0.5, 1.0)
        assert (float(rainbow), rainbow.est_err) == (0.125, 0.25e-12)
        monkeypatch.setattr(formulas, "product_integrate", integral_returning(-0.5 + 0j))
        r_asep = r_asep_transition((1, 0), (0, 1), 0.5, 1.0)
        assert float(r_asep) == pytest.approx(0.5 * math.sqrt(2.0))
        assert r_asep.est_err == pytest.approx(1e-12 * math.sqrt(2.0))

    def test_residue_and_structural_zero_methods(self):
        inverted = cumulative_crossing_bernoulli(WallQuery(-3, 2, 0.5, 2, 1, 2.0))
        assert inverted.method == "laurent" and 0.0 < inverted.est_err < 1e-13
        zeros = (
            cumulative_crossing_bernoulli(WallQuery(0, 0, 0.5, 2, 1, 2.0), form="direct"),
            cumulative_crossing_step((-1, 0), 1, 0, 0, 1.0),
            gamma_wall(2, 5, 0.0),
        )
        for zero in zeros:
            assert (float(zero), zero.est_err, zero.method) == (0.0, 0.0, "exact")

    def test_residue_error_covers_cancellation(self):
        # terms of size ~1e5 cancel to a true value of ~1e-56: the value is
        # rounding noise, and est_err is at least as large
        lost = cumulative_crossing_bernoulli(WallQuery(-6, 3, 0.5, 4, 0, 4.0))
        assert 0.0 <= float(lost) <= lost.est_err < 1e-7
        # no cancellation: P(Poisson(2) >= 4) to a few ulps, and est_err that small
        tail = gamma_wall(1, 5, 2.0)
        exact = 1.0 - sum(math.exp(-2.0) * 2.0**k / math.factorial(k) for k in range(4))
        assert abs(tail - exact) <= tail.est_err < 1e-14
        # the two one-wall forms sum the same residues in different orders
        query = WallQuery(-6, 3, 0.5, 4, 2, 4.0)
        collapsed = cumulative_crossing_one_wall(query)
        binet = cumulative_crossing_one_wall(query, form="cauchy_binet")
        assert abs(collapsed - binet) <= collapsed.est_err + binet.est_err < 1e-12

    def test_schutz_and_single_particle_green_are_laurent(self):
        schutz = schutz_determinant((0, 2), (1, 4), 0.7)
        green = two_tasep_green(
            GreenQuery(_two_species((0,), ()), _two_species((3,), ()), 1.0)
        )
        for value in (schutz, green):
            assert isinstance(value, Result)
            assert (value.method, value.est_err) == ("laurent", 0.0)
        assert float(green) == pytest.approx(math.exp(-1.0) / 6.0, abs=1e-15)

    def test_arithmetic_gives_plain_floats(self):
        val = gamma_wall(1, 2, 1.0)
        assert type(val + 0.0) is float
        assert repr(val) == repr(float(val))

    def test_pickle_keeps_the_fields(self):
        val = two_tasep_crossing((0, 1), (1, 3), 1, 1.0)
        back = pickle.loads(pickle.dumps(val))
        assert (float(back), back.est_err, back.method) == (float(val), val.est_err, val.method)
