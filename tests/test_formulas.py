import itertools
import math
import pickle
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from asepcross import formulas
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
    run_monte_carlo,
    transition_row,
)
from asepcross.quadrature import NOISE_MARGIN, ROUNDOFF, MultivariatePolynomial, OpenGrid
from gillespie_reference import expm_transition
import residue_reference
from conftest import make_blocks

GOLDEN_2TASEP = 0.06766764161830637
# At q = 0 no particle moves left, and a path that leaves the window
# [min(mu + nu), max(mu + nu)] cannot come back, so the window's master
# equation gives every probability of a target inside it exactly; this is
# the allowance for the rounding of its uniformization
ORACLE_ALLOWANCE = 1e-13


def _two_species(positions, p):
    return ParticleConfig.from_two_species(positions, p)


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


class TestEigenfunction:
    def test_single_free_particle(self):
        z = np.array([0.4 + 0.2j])
        t = 0.7
        val = eigenfunction_P([3], [], t, z, np.zeros(0))
        expected = z[0] ** 3 * np.exp((1 / z[0] - 1) * t)
        assert abs(val - expected) < 1e-14

    def test_two_particle_determinant_structure(self, rng):
        # at m = 0 the permutation sum is a 2x2 determinant
        z = rng.uniform(0.2, 0.6, 2) + 1j * rng.uniform(-0.2, 0.2, 2)
        nu = [1, 4]
        t = 0.5
        val = eigenfunction_P(nu, [], t, z, np.zeros(0))
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
    def test_poisson_reduction(self):
        for k in range(7):
            q = GreenQuery(_two_species((0,), ()), _two_species((k,), ()), 1.0)
            exact = math.exp(-1) / math.factorial(k)
            assert abs(two_tasep_green(q) - exact) < 1e-12

    def test_t0_delta(self):
        ini = _two_species((0, 1), (1,))
        assert two_tasep_green(GreenQuery(ini, ini, 0.0)) == pytest.approx(1.0, abs=1e-12)
        for fin in (_two_species((1, 2), (2,)), _two_species((0, 2), (1,))):
            assert abs(two_tasep_green(GreenQuery(ini, fin, 0.0))) < 1e-12

    def test_fast_path_against_golden_oracle(self):
        ini = _two_species((0, 1), (1,))
        fin = _two_species((1, 2), (2,))
        val = two_tasep_green(GreenQuery(ini, fin, 1.0))
        assert val.method == "laurent"
        assert abs(val - GOLDEN_2TASEP) <= val.est_err < 1e-14

    @pytest.mark.parametrize("mu, nu, p, t", [
        # about 1 s by quadrature in 4 variables
        ((0, 1, 2, 3), (1, 2, 4, 5), 3, 0.8),
        # the quadrature route raised AccuracyError (round-off level 3.8e-10)
        ((0, 1, 2), (17, 18, 19), 2, 16.0),
    ], ids=["n4", "t16"])
    def test_leftmost_second_class_against_oracle(self, mu, nu, p, t):
        ini, fin = _two_species(mu, (1,)), _two_species(nu, (p,))
        start = time.thread_time()
        val = two_tasep_green(GreenQuery(ini, fin, t))
        assert time.thread_time() - start < 0.1
        gen = build_window_generator(ini, (mu[0], nu[-1]), ModelParams(q=0.0))
        oracle, _ = expm_transition(gen, ini, fin, t)
        assert val.method == "laurent"
        assert abs(val - oracle) <= val.est_err + ORACLE_ALLOWANCE

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
            val = two_tasep_green(GreenQuery(ini, fin, t))
            assert abs(val - oracle) < 1e-7

    def test_full_path_in_four_variables(self):
        # about 1.1 s by quadrature in 4 variables
        ini = _two_species((0, 1, 2), (2,))
        fin = _two_species((1, 2, 4), (3,))
        gen = build_window_generator(ini, (-4, 14), ModelParams(q=0.0))
        oracle, sink = expm_transition(gen, ini, fin, 1.0)
        assert sink < 1e-10
        start = time.thread_time()
        val = two_tasep_green(GreenQuery(ini, fin, 1.0))
        assert time.thread_time() - start < 0.1
        assert val.method == "laurent"
        assert abs(val - oracle) <= val.est_err + ORACLE_ALLOWANCE
        assert val.est_err < 1e-10

    def test_full_path_against_golden_oracle(self):
        # the quadrature route read 0.06766764230111956 +- 6.3e-15, 6.8e-10 off
        val = two_tasep_green(GreenQuery(_two_species((0, 1), (2,)),
                                         _two_species((1, 3), (2,)), 1.0))
        assert val.method == "laurent"
        assert abs(val - GOLDEN_2TASEP) <= val.est_err < 1e-14

    @pytest.mark.parametrize("p0", [(1,), (2,)])
    def test_long_time_against_oracle(self, p0):
        # p0 = (2,) raised AccuracyError on the quadrature route; p0 = (1,)
        # read est_err 7.9e-17 on the leftmost determinant route
        mu, nu, t = (0, 1), (201, 203), 200.0
        ini, fin = _two_species(mu, p0), _two_species(nu, (2,))
        val = two_tasep_green(GreenQuery(ini, fin, t))
        gen = build_window_generator(ini, (mu[0], nu[-1]), ModelParams(q=0.0))
        oracle, _ = expm_transition(gen, ini, fin, t)
        assert val.method == "laurent"
        assert abs(val - oracle) <= val.est_err + ORACLE_ALLOWANCE
        assert val.est_err <= 1e-15

    @pytest.mark.parametrize("mu, p0, nu, p", [
        ((0, 1, 2, 3), (2,), (1, 2, 3, 5), (2,)),
        ((0, 1, 2), (1, 3), (1, 3, 4), (2, 3)),
    ], ids=["green_n4m1", "green_n3m2"])
    def test_five_variables_against_oracle(self, mu, p0, nu, p):
        # refused by the quadrature route: more than 4 integration variables
        ini, fin = _two_species(mu, p0), _two_species(nu, p)
        val = two_tasep_green(GreenQuery(ini, fin, 1.0))
        gen = build_window_generator(ini, (mu[0], nu[-1]), ModelParams(q=0.0))
        oracle, _ = expm_transition(gen, ini, fin, 1.0)
        assert val.method == "laurent"
        assert abs(val - oracle) <= val.est_err + ORACLE_ALLOWANCE

    def test_out_of_regime_value_vanishes(self):
        ini = _two_species((0, 1), (1,))
        fin = _two_species((-2, 1), (1,))
        assert abs(two_tasep_green(GreenQuery(ini, fin, 1.0))) < 1e-10

    @pytest.mark.parametrize("call, match", [
        # spent 34,603,008 evaluations of the default budget and then raised
        # AccuracyError
        (lambda: rainbow_total_crossing((4, 3, 2, 1, 0), (1, 2, 3, 4, 5), 0.3, 2.0),
         "integration variables"),
        # 20 coupled pairs: 2^20 products, refused before any is formed
        (lambda: two_tasep_crossing(tuple(range(9)), tuple(range(2, 11)), 4, 1.0),
         "coupled pairs"),
        # one pair above COUPLING_CAP
        (lambda: two_tasep_crossing(tuple(range(14)), tuple(range(2, 16)), 1, 1.0),
         "13 coupled pairs exceed the cap 12"),
    ], ids=["rainbow_n5", "two_tasep_crossing_n9m4", "two_tasep_crossing_n14m1"])
    def test_dimension_budget(self, call, match):
        # this thread's time: BLAS workers still spinning after an earlier test
        # would be charged to the process time
        start = time.thread_time()
        with pytest.raises(ResourceLimitError, match=match):
            call()
        assert time.thread_time() - start < 0.01

    @pytest.mark.parametrize("call", [
        # 2^8 exponent tuples of the size-8 block, 8! terms each: 15.5 s of
        # Leibniz passes before the bound
        lambda: tasep_block_crossing(CrossingQuery(
            make_blocks([range(0, -8, -1), [-8]], "initial"),
            make_blocks([range(9, 1, -1), [11]], "final"), 0.0, 1.0)),
        # 2^8 determinants of size 9 for one type-2 particle from index 1 to 9
        lambda: two_tasep_green(GreenQuery(_two_species(tuple(range(9)), (1,)),
                                           _two_species(tuple(range(1, 10)), (9,)), 1.0)),
        # the same from index 2: 2^10 divided-difference terms and determinants of size 9
        lambda: two_tasep_green(GreenQuery(_two_species(tuple(range(9)), (2,)),
                                           _two_species(tuple(range(1, 10)), (9,)), 1.0)),
        # 2^20 row-subset choices of the Andreief expansion: 4.6 s, then AccuracyError
        lambda: cumulative_crossing_bernoulli(WallQuery(-7, 2, 0.5, 9, 4, 1.0)),
        # a Poisson series of about 10^7 terms: 7.2 s to return 0.0
        lambda: schutz_determinant((0, 1), (1, 2), 1e7),
    ], ids=["block_crossing_8_1", "leftmost_second_class_n9", "full_path_n9", "bernoulli_n9m4",
            "schutz_t1e7"])
    def test_leibniz_budget(self, call):
        start = time.thread_time()
        with pytest.raises(ResourceLimitError, match="Leibniz terms"):
            call()
        assert time.thread_time() - start < 0.05

    def test_work_bound_admits_n8_m4_and_t1e5(self):
        # 2^16 row-subset choices pass the cap and run to the float pass
        try:
            cumulative_crossing_bernoulli(WallQuery(-7, 2, 0.5, 8, 4, 1.0))
        except AccuracyError:
            pass  # its rounding bound may span [0, 1] (ROADMAP direction 3)
        # about 10^5 series terms; the value lies below the smallest float
        assert float(schutz_determinant((0, 1), (1, 2), 1e5)) == 0.0


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

    def test_mismatched_lengths_are_refused(self):
        with pytest.raises(ValidationError, match="len"):
            schutz_determinant((0, 1), (1,), 1.0)

    def test_unsorted_positions_are_refused(self):
        with pytest.raises(ValidationError, match="mu must be strictly increasing"):
            schutz_determinant((1, 0), (1, 2), 1.0)
        with pytest.raises(ValidationError, match="nu must be strictly increasing"):
            schutz_determinant((0, 1), (2, 2), 1.0)


class TestTwoTasepCrossing:
    # a 60-site jump at t = 16 read 9.42e-12 +- 1.5e-13 on the quadrature route;
    # the moment route read the next three 4.0e-18, 7.6e-19 and 2.1e-17 off
    # with est_err 8.9e-19, 4.4e-19 and 1.6e-17, and refused the last
    @pytest.mark.parametrize("mu, nu, t", [
        ((0, 2), (1, 4), 0.7), ((0,), (60,), 16.0), ((0, 1), (201, 203), 200.0),
        ((0, 1), (381, 383), 380.0), ((0,), (500,), 500.0), ((0,), (1000,), 1000.0),
    ])
    def test_m0_reduces_to_schutz(self, mu, nu, t):
        val = two_tasep_crossing(mu, nu, 0, t)
        assert val.method == "laurent"
        assert abs(val - schutz_mpmath(mu, nu, t)) <= val.est_err

    @pytest.mark.parametrize("mu, nu, m, t", [
        ((-1, 0, 1), (2, 3, 5), 1, 3.0), ((0, 1, 2), (1, 3, 4), 2, 1.0),
        ((0, 1, 2, 3), (2, 3, 5, 6), 2, 1.5), ((0, 1, 2), (33, 34, 35), 1, 32.0),
    ])
    def test_matches_two_determinant_form(self, mu, nu, m, t):
        # two blocks about 1 against the paper's two determinants about 0
        val = two_tasep_crossing(mu, nu, m, t)
        ref = residue_reference.two_species_crossing(mu, nu, m, t)
        assert abs(val - ref) <= val.est_err + ref.est_err

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
        val = two_tasep_crossing(mu, nu, 1, t)
        assert abs(val - oracle) < 1e-6

    def test_five_particles_against_oracle(self):
        # 6 coupled pairs in 5 variables, beyond what the quadrature took
        mu, nu = (0, 1, 2, 3, 4), (1, 2, 3, 4, 5)
        ini, fin = _two_species(mu, (1, 2)), _two_species(nu, (4, 5))
        gen = build_window_generator(ini, (0, 5), ModelParams(q=0.0))
        oracle, _ = expm_transition(gen, ini, fin, 1.0)
        val = two_tasep_crossing(mu, nu, 2, 1.0)
        assert abs(val - oracle) <= val.est_err + ORACLE_ALLOWANCE

    @pytest.mark.parametrize("nu, m", [
        ((1, 2, 3), 1),  # read 0.0677, ignoring the site 3
        ((1,), 1), ((1, 2), 3), ((1, 2), -1),  # raised IndexError
    ], ids=["nu_longer", "nu_shorter", "m_above_n", "m_negative"])
    def test_malformed_input_is_refused(self, nu, m):
        with pytest.raises(ValidationError):
            two_tasep_crossing((0, 1), nu, m, 1.0)


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

    @pytest.mark.parametrize("q, error", [(1.0, ValidationError),
                                          (1.0 - 2.0**-52, AccuracyError),
                                          (1.0 + 2.0**-52, AccuracyError)])
    @pytest.mark.parametrize("evaluate", [
        lambda q: r_asep_transition([0], [1], q, 1.0),
        lambda q: rainbow_total_crossing([0], [1], q, 1.0),
        lambda q: block_crossing(CrossingQuery(make_blocks([[1, 0]], "initial"),
                                               make_blocks([[2, 1]], "final"), q, 1.0)),
    ], ids=["r_asep", "rainbow", "block_crossing"])
    def test_q1_unsupported(self, evaluate, q, error):
        # one ulp from 1 the circles about 1 would collapse onto their pole:
        # refused before any integrand is evaluated, so without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                evaluate(q)

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

    @pytest.mark.parametrize("q", [0.0, 0.5])
    @pytest.mark.parametrize("mu, nu", [((3, 1), (7,)), ((1,), (2, 3)), ((), ())],
                             ids=["nu_shorter", "nu_longer", "empty"])
    def test_length_validation(self, mu, nu, q):
        with pytest.raises(ValidationError, match="len"):
            rainbow_total_crossing(mu, nu, q, 1.0)

    @pytest.mark.parametrize("q", [0.0, 0.5])
    def test_transition_needs_a_particle(self, q):
        with pytest.raises(ValidationError):
            r_asep_transition((), (), q, 1.0)

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

    # one block at q = 0 is Schütz's determinant; on the quadrature routes the
    # first read 8.529388115850625e-4 +- 6.2e-12 (6.5e-12 off), and
    # block_crossing read 1.36e-10 +- 7.6e-11 for the second, where no particle
    # can move left
    @pytest.mark.parametrize("evaluate", [block_crossing, tasep_block_crossing])
    @pytest.mark.parametrize("initial, final, t", [
        ([5, 3, -4], [10, 8, -2], 2.5), ([5], [4], 3.0), ([1, 0], [3, 2], 1.0),
    ])
    def test_q0_matches_determinant_route(self, evaluate, initial, final, t):
        query = CrossingQuery(make_blocks([initial], "initial"), make_blocks([final], "final"),
                              0.0, t)
        val = evaluate(query)
        assert val.method == "laurent"
        assert abs(val - schutz_mpmath(initial[::-1], final[::-1], t)) <= val.est_err

    @pytest.mark.parametrize("evaluate", [
        lambda: block_crossing(CrossingQuery(make_blocks([[1], [0]], "initial"),
                                             make_blocks([[2], [3]], "final"), 1.0, 1.0)),
        lambda: rainbow_total_crossing([1, 0], [2, 3], 1.0, 1.0),
        lambda: r_asep_transition([1, 0], [2, 3], 1.0, 1.0),
    ], ids=["block_crossing", "rainbow_total_crossing", "r_asep_transition"])
    def test_symmetric_point_is_refused_alike(self, evaluate):
        with pytest.raises(ValidationError, match="^the symmetric point q = 1 is not supported$"):
            evaluate()

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
        b = residue_reference.two_species_crossing((-1, 0), (2, 3), 1, 1.0)
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
        val = tasep_block_crossing(query)
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


def _one_block(mu, nu, t):
    return CrossingQuery(make_blocks([mu[::-1]], "initial"), make_blocks([nu[::-1]], "final"),
                         0.0, t)


ONE_COLOUR_ROUTES = {
    "two_tasep_crossing_m0": lambda mu, nu, t: two_tasep_crossing(mu, nu, 0, t),
    "two_tasep_crossing_mn": lambda mu, nu, t: two_tasep_crossing(mu, nu, len(mu), t),
    "tasep_block_crossing": lambda mu, nu, t: tasep_block_crossing(_one_block(mu, nu, t)),
    "block_crossing": lambda mu, nu, t: block_crossing(_one_block(mu, nu, t)),
    "rainbow_total_crossing": lambda mu, nu, t: rainbow_total_crossing(mu, nu, 0.0, t),
    "r_asep_transition": lambda mu, nu, t: r_asep_transition(mu, nu, 0.0, t),
}


# a rainbow has one colour only at n = 1
ONE_COLOUR_CASES = [
    pytest.param(name, mu, nu, t, id=f"{name}-n{len(mu)}")
    for mu, nu, t in (((3,), (7,), 2.0), ((0, 2), (1, 4), 0.7), ((-4, 3, 5), (-2, 8, 10), 2.5))
    for name in ONE_COLOUR_ROUTES if len(mu) == 1 or not name.startswith("r")
]


class TestOneColourRoute:
    """Every q = 0 entry point with one colour is Schütz's determinant."""

    @pytest.mark.parametrize("name, mu, nu, t", ONE_COLOUR_CASES)
    def test_returns_schutz_result(self, name, mu, nu, t):
        val = ONE_COLOUR_ROUTES[name](mu, nu, t)
        ref = schutz_determinant(mu, nu, t)
        assert (float(val), val.est_err, val.method) == (float(ref), ref.est_err, ref.method)


class TestCumulativeStep:
    # the second case has 6 coupled pairs in 5 variables, beyond what the
    # quadrature took
    @pytest.mark.parametrize("mu, m, s1, s2", [((-1, 0), 1, 0, 2), ((0, 1, 2, 3, 4), 2, 3, 6)])
    def test_brute_force_sum(self, mu, m, s1, s2):
        t = 1.0
        val = cumulative_crossing_step(mu, m, s1, s2, t)
        brute = sum(
            two_tasep_crossing(mu, type1 + type2, m, t)
            for type1 in itertools.combinations(range(s1, s2), len(mu) - m)
            for type2 in itertools.combinations(range(s2, s2 + 30), m)
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

    # a single type-2 particle crosses when it reaches s2; the quadrature route
    # read 4.09e-13 +- 7e-19 for P(Poisson(4) >= 40) = 3.0e-26
    @pytest.mark.parametrize("mu, s1, s2, t", [(-1, -5, 2, 1.0), (1, 41, 41, 4.0)])
    def test_pure_type2_poisson_tail(self, mu, s1, s2, t):
        val = cumulative_crossing_step((mu,), 1, s1, s2, t)
        exact = sum(math.exp(k * math.log(t) - t - math.lgamma(k + 1))
                    for k in range(s2 - mu, s2 - mu + 200))
        assert abs(val - exact) <= val.est_err < 1e-14

    def test_pure_type1_window(self):
        val = cumulative_crossing_step((0,), 0, 1, 3, 1.0)
        exact = sum(math.exp(-1) / math.factorial(k) for k in (1, 2))
        assert abs(val - exact) < 1e-10

    def test_infeasible_wall_returns_zero(self):
        assert cumulative_crossing_step((-1, 0), 1, 0, 0, 1.0) == 0.0

    @pytest.mark.parametrize("s1", [4, 5, 40])
    def test_no_type1_particles_ignore_s1(self, s1):
        # with m = n the event (every particle at or beyond s2) does not
        # involve s1, and no w-variable reads it: a lower wall above s2 is
        # not infeasible and gives the s1 = s2 value bit for bit
        val = cumulative_crossing_step((0, 1), 2, s1, 3, 1.0)
        ref = cumulative_crossing_step((0, 1), 2, 3, 3, 1.0)
        assert (float(val), val.est_err, val.method) == (float(ref), ref.est_err, "laurent")

    def test_no_type1_particles_against_window_oracle(self):
        initial = ParticleConfig((0, 1), (2, 2))
        gen = build_window_generator(initial, (0, 40), ModelParams(q=0.0))
        row = transition_row(gen, initial, 1.0)
        beyond = sum(p for (positions, _), p in zip(gen.states, row) if positions[0] >= 3)
        val = cumulative_crossing_step((0, 1), 2, 5, 3, 1.0)
        assert val > 0.002
        assert abs(val - beyond) <= val.est_err + ORACLE_ALLOWANCE

    @pytest.mark.parametrize("m", [3, -1])
    def test_type2_count_outside_range_is_refused(self, m):
        with pytest.raises(ValidationError):
            cumulative_crossing_step((-1, 0), m, -3, 2, 1.0)


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
        c = cumulative_crossing_one_wall(query)
        assert abs(i - c) <= i.est_err + c.est_err < 1e-12

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
        one_wall = cumulative_crossing_one_wall(query)
        bernoulli = cumulative_crossing_bernoulli(query)
        assert one_wall > 0
        assert abs(one_wall - bernoulli) < 1e-10
        assert abs(one_wall - bernoulli) <= one_wall.est_err + bernoulli.est_err

    def test_one_wall_refuses_n_equal_m(self):
        # the collapse was silently wrong here (0.199489 against 0.205159 at n = m = 1)
        for n in (1, 2):
            query = WallQuery(s1=-n - 1, s2=2, rho=0.5, n=n, m=n, t=2.0)
            with pytest.raises(ValidationError, match="cumulative_crossing_bernoulli"):
                cumulative_crossing_one_wall(query)

    @pytest.mark.parametrize("form", ["inverted", "direct"])
    def test_no_type1_particles_ignore_s1(self, form):
        # m = n: s1 enters neither the event nor the integrand, so the wall
        # (4, 1) is feasible and gives the (0, 1) value bit for bit
        high, low = WallQuery(4, 1, 0.5, 2, 2, 2.0), WallQuery(0, 1, 0.5, 2, 2, 2.0)
        assert high.feasible
        val = cumulative_crossing_bernoulli(high, form=form)
        ref = cumulative_crossing_bernoulli(low, form=form)
        assert (float(val), val.est_err, val.method) == (float(ref), ref.est_err, ref.method)
        assert val.method != "exact" and abs(val - 0.0166167) < 1e-7

    def test_no_type1_particles_against_monte_carlo(self):
        val = cumulative_crossing_bernoulli(WallQuery(4, 1, 0.5, 2, 2, 2.0))
        counts = []
        for s1 in (4, 0):
            job = MonteCarloJob(q=0.0, horizon=2.0, samples=50_000, seed=13,
                                bernoulli=(0.5, 2, 2), event=("wall", s1, 1))
            est, err, successes = run_monte_carlo(job)
            assert abs(est - val) <= 4 * err
            counts.append(successes)
        assert counts[0] == counts[1]

    def test_m0_reduces_to_type1_window(self):
        # no type 2: the event is all particles staying below s2
        query = WallQuery(s1=-1, s2=3, rho=0.5, n=1, m=0, t=1.0)
        val = cumulative_crossing_one_wall(query)
        exact = 1 - gamma_wall(1, 4, 1.0)  # P(0 + Poisson < 3)
        assert abs(val - exact) < 1e-10

    def test_three_species_sizes(self):
        # n = 3, m = 2 exercises the multivariate residue expansion
        query = WallQuery(s1=-4, s2=2, rho=0.6, n=3, m=2, t=1.5)
        d = cumulative_crossing_bernoulli(query, form="direct")
        i = cumulative_crossing_bernoulli(query, form="inverted")
        assert abs(d - i) < 1e-8


class TestGammaWall:
    def test_single_particle_tail(self):
        val = gamma_wall(1, 2, 1.0)
        assert abs(val - (1 - math.exp(-1))) < 1e-14

    def test_t0(self):
        assert gamma_wall(2, 5, 0.0) == 0.0

    @pytest.mark.parametrize("n, s, t", [
        (n, n + gap, t)
        for n in (1, 2, 3) for gap in (1, 2, 5, 13, 20) for t in (0.3, 1.0, 2.0, 4.0, 8.0)
        if (n, n + gap, t) != (3, 4, 8.0)  # the step route's round-off level reaches tol
    ])
    def test_step_route_agrees(self, n, s, t):
        # every particle of the step data passes s: the wall event with s1 = s2 = s
        residue = gamma_wall(n, s, t)
        step = cumulative_crossing_step(range(1, n + 1), n, s, s, t)
        assert abs(residue - step) <= residue.est_err + step.est_err

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


def _andreief_grid():
    """(evaluator call, monomial-reference call) pairs of the reference grid."""
    grid = []
    for n in range(1, 6):
        for s in (n + 1, n + 3):
            for t in (0.5, 2.0):
                grid.append(pytest.param(lambda a=(n, s, t): gamma_wall(*a),
                                         lambda a=(n, s, t): residue_reference.gamma_wall(*a),
                                         id=f"gamma_wall({n},{s},{t})"))
    for n in range(1, 5):
        for m in range(n + 1):
            for s1, s2, rho, t in ((-m - 2, 2, 0.5, 2.0), (-m - 3, 3, 0.3, 1.0),
                                   (-1, 1, 0.7, 3.0)):
                q = WallQuery(s1, s2, rho, n, m, t)
                if not q.feasible:  # an exact 0, no residues
                    continue
                grid.append(pytest.param(lambda q=q: cumulative_crossing_bernoulli(q),
                                         lambda q=q: residue_reference.bernoulli_inverted(q),
                                         id=f"bernoulli{(s1, s2, rho, n, m, t)}"))
    for n in range(2, 6):
        for m in range(n):
            for s2, rho, t in ((2, 0.5, 2.0), (3, 0.4, 1.0), (1, 0.8, 3.0)):
                q = WallQuery(-m - 2, s2, rho, n, m, t)
                if not q.feasible:
                    continue
                grid.append(pytest.param(lambda q=q: cumulative_crossing_one_wall(q),
                                         lambda q=q: residue_reference.one_wall(q),
                                         id=f"one_wall{(-m - 2, s2, rho, n, m, t)}"))
    return grid


class TestAndreiefAgainstMonomials:
    """The determinant routes against the monomial expansion they replace."""

    @pytest.mark.parametrize("evaluate, reference", _andreief_grid())
    def test_value_within_errors_and_error_never_smaller(self, evaluate, reference):
        new = evaluate()
        value, err = reference()
        assert abs(new - min(max(value.real, 0.0), 1.0)) <= new.est_err + err
        assert new.est_err >= err * (1 - 1e-12)


class TestCouplingExpansion:
    """``_expand_pairs`` through ``MultivariatePolynomial``, the one polynomial product."""

    @pytest.mark.parametrize("nvars, pairs", [
        (2, [(0, 1)]),
        (2, [(0, 1), (1, 0)]),
        (3, [(0, 1), (1, 2), (2, 0)]),  # x0 x1 x2 cancels
        (4, [(0, 1), (1, 2), (2, 0), (3, 0), (1, 3), (2, 3)]),
        (7, [(i, 3 + j) for i in range(3) for j in range(4)]),  # 12 pairs, the cap
    ], ids=["one", "squared", "cyclic", "two_cycles", "twelve"])
    def test_equals_the_product_at_random_points(self, rng, nvars, pairs):
        terms = formulas._expand_pairs(nvars, pairs)
        assert all(type(v) is int and v and size == abs(v) for v, size in terms.values())
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, nvars) + 1j * rng.uniform(-1.0, 1.0, nvars)
            expected = math.prod(x[a] - x[b] for a, b in pairs)
            value = sum(v * math.prod(x ** np.array(key)) for key, (v, _) in terms.items())
            size = sum(s * math.prod(abs(x) ** np.array(key)) for key, (_, s) in terms.items())
            assert abs(value - expected) <= 1e-14 * size

    def test_cancelled_terms_are_left_out(self):
        poly = MultivariatePolynomial(3)
        for a, b in [(0, 1), (1, 2), (2, 0)]:
            poly.multiply_linear({a: 1, b: -1})
        assert poly.terms[(1, 1, 1)] == 0
        assert len(poly.items()) == 6 and (1, 1, 1) not in dict(poly.items())
        poly.multiply_terms({(0, 0, -1): 2, (1, 0, 0): 0})
        assert all(v for _, v in poly.items()) and len(poly.items()) == 6


class TestLargeArguments:
    """Large t and long jumps: exact digits or a typed error, never overflow."""

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
        val = schutz_determinant(mu, nu, float(t))
        err = abs(val - schutz_mpmath(mu, nu, t))
        assert err < 1e-13 and err <= val.est_err

    def test_schutz_long_jump_error_bar(self):
        # 4.2e-14 relative off the 60-digit value: the log-space Poisson
        # weight's exponent, about 370 in size, rounds by a few ulps
        val = schutz_determinant((0,), (60,), 16.0)
        exact = schutz_mpmath((0,), (60,), 16)
        assert abs(val - exact) <= val.est_err < 1e-12 * exact

    @pytest.mark.parametrize("jump", [33, 65])
    def test_long_jumps_match_the_window_oracle(self, jump):
        # the quadrature route refused the first with AccuracyError
        mu, nu, t = (0, 1, 2), (jump, jump + 1, jump + 2), jump - 1.0
        ini, fin = _two_species(mu, (1,)), _two_species(nu, (3,))
        gen = build_window_generator(ini, (0, nu[-1]), ModelParams(q=0.0))
        oracle, _ = expm_transition(gen, ini, fin, t)
        val = two_tasep_crossing(mu, nu, 1, t)
        assert abs(val - oracle) <= val.est_err + ORACLE_ALLOWANCE

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

    @pytest.mark.parametrize("n", [1, 2])
    def test_underflowed_origin_residue_fails_typed(self, n):
        # e^-t underflows to 0 while t^k/k! overflows, and the residue at 0
        # is not negligible (for n = 1 the value is P(Poisson(950) >= 999) ~ 0.06)
        with pytest.raises(AccuracyError):
            gamma_wall(n, 1000, 950.0)

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

    def test_tiny_q_prefactor_overflow_fails_typed(self):
        # (-q^(-1/2))^sum(nu) is (1e150)^3 at q = 1e-300
        with pytest.raises(AccuracyError, match="overflows"):
            r_asep_transition((1, 0), (0, 3), 1e-300, 1.0)


class TestFinalization:
    def test_imaginary_part_rejected(self):
        with pytest.raises(AccuracyError):
            _finalize_probability(0.5 + 1e-6j, 0.0, "laurent")

    def test_nan_rejected(self):
        with pytest.raises(AccuracyError):
            _finalize_probability(complex(math.nan, 0.0), 0.0, "laurent")
        with pytest.raises(AccuracyError):
            _finalize_probability(complex(0.5, math.nan), 0.0, "laurent")

    def test_negative_clamp_and_error(self):
        assert _finalize_probability(-5e-10 + 0j, 0.0, "laurent") == 0.0
        with pytest.raises(AccuracyError):
            _finalize_probability(-1e-6 + 0j, 0.0, "laurent")

    def test_upper_clamp(self):
        assert _finalize_probability(1.0 + 5e-10 + 0j, 0.0, "laurent") == 1.0
        with pytest.raises(AccuracyError):
            _finalize_probability(1.1 + 0j, 0.0, "laurent")


class TestNegativeRates:
    @pytest.mark.parametrize("call", [
        lambda: two_tasep_crossing((0, 1), (1, 3), 1, -1.0),
        lambda: gamma_wall(2, 5, -1.0),
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
    ], ids=["two_tasep_crossing_t", "gamma_t", "schutz_t",
            "rainbow_q", "rainbow_t", "r_asep_q", "r_asep_t", "block_crossing_q",
            "block_crossing_t", "step_t"])
    def test_refused_before_any_quadrature(self, call):
        with pytest.raises(ValidationError, match="must be >= 0"):
            call()


NON_FINITE = [math.nan, math.inf]


class TestNonFiniteRates:
    """NaN fails every ordered comparison, t < 0 included, so each family
    checks 0 <= x < inf before any moment table or quadrature."""

    @pytest.mark.parametrize("x", NON_FINITE)
    def test_green(self, x):
        mu = ParticleConfig.from_two_species((0, 1), (1,))
        nu = ParticleConfig.from_two_species((1, 2), (2,))
        with pytest.raises(ValidationError, match="t must be >= 0 and finite"):
            GreenQuery(mu, nu, x)
        with pytest.raises(ValidationError, match="t must be >= 0 and finite"):
            schutz_determinant((0, 1), (1, 2), x)

    @pytest.mark.parametrize("x", NON_FINITE)
    def test_crossing(self, x):
        with pytest.raises(ValidationError, match="t must be >= 0 and finite"):
            two_tasep_crossing((0, 1), (1, 3), 1, x)
        for q, t, name in ((x, 1.0, "q"), (0.5, x, "t")):
            with pytest.raises(ValidationError, match=f"{name} must be >= 0 and finite"):
                rainbow_total_crossing((1, 0), (1, 2), q, t)
            with pytest.raises(ValidationError, match=f"{name} must be >= 0 and finite"):
                r_asep_transition((1, 0), (0, 2), q, t)
            with pytest.raises(ValidationError, match=f"{name} must be >= 0 and finite"):
                CrossingQuery(make_blocks([[1, 0]], "initial"), make_blocks([[2, 1]], "final"),
                              q, t)

    @pytest.mark.parametrize("x", NON_FINITE)
    def test_wall(self, x):
        with pytest.raises(ValidationError, match="t must be >= 0 and finite"):
            WallQuery(-3, 2, 0.5, 2, 1, x)
        with pytest.raises(ValidationError, match="t must be >= 0 and finite"):
            cumulative_crossing_step((-1, 0), 1, -3, 2, x)
        with pytest.raises(ValidationError, match="t must be >= 0 and finite"):
            gamma_wall(2, 5, x)


class TestNonIntegralData:
    """Lattice data that are not integers are refused, never floored."""

    def test_schutz(self):
        with pytest.raises(ValidationError, match="mu must be integral"):
            schutz_determinant((0, 1.5), (1, 3), 1.0)
        with pytest.raises(ValidationError, match="nu must be integral"):
            schutz_determinant((0, 1), (1, True), 1.0)

    def test_rainbow_final_state(self):
        with pytest.raises(ValidationError, match="nu must be integral"):
            r_asep_transition((1, 0), (0, 2.5), 0.5, 1.0)


class TestResult:
    def test_quadrature_result_carries_measured_error(self):
        val = rainbow_total_crossing((1, 0), (1, 2), 0.5, 1.0)
        assert isinstance(val, Result) and isinstance(val, float)
        assert val.method == "quadrature"
        assert 0.0 <= val.est_err < 1e-10

    def test_prefactor_scales_the_error(self, monkeypatch):
        import asepcross.formulas as formulas

        def integral_returning(value):
            return lambda f, cp, tol, node_budget, **kwargs: (value, 1e-12)

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
        # the one-wall collapse and the Bernoulli route sum different
        # residues; each covers the other within the two error bars
        query = WallQuery(-6, 3, 0.5, 4, 2, 4.0)
        one_wall = cumulative_crossing_one_wall(query)
        bernoulli = cumulative_crossing_bernoulli(query)
        assert abs(one_wall - bernoulli) <= one_wall.est_err + bernoulli.est_err < 1e-9

    def test_clamped_zero_is_positive(self):
        # the one-wall residue sum cancels to a tiny negative value here
        lost = cumulative_crossing_one_wall(WallQuery(-6, 3, 0.5, 4, 0, 4.0))
        assert float(lost) == 0.0 and math.copysign(1.0, lost) == 1.0
        for value in (-0.0, -1e-14, 0.0):
            assert math.copysign(1.0, _finalize_probability(complex(value), 0.0, "laurent")) == 1.0

    def test_schutz_and_single_particle_green_are_laurent(self):
        schutz = schutz_determinant((0, 2), (1, 4), 0.7)
        green = two_tasep_green(
            GreenQuery(_two_species((0,), ()), _two_species((3,), ()), 1.0)
        )
        for value, exact in ((schutz, schutz_mpmath((0, 2), (1, 4), 0.7)),
                             (green, math.exp(-1.0) / 6.0)):
            assert isinstance(value, Result)
            assert value.method == "laurent"
            assert abs(value - exact) <= value.est_err < 1e-14

    def test_arithmetic_gives_plain_floats(self):
        val = gamma_wall(1, 2, 1.0)
        assert type(val + 0.0) is float
        assert repr(val) == repr(float(val))

    def test_pickle_keeps_the_fields(self):
        val = two_tasep_crossing((0, 1), (1, 3), 1, 1.0)
        back = pickle.loads(pickle.dumps(val))
        assert (float(back), back.est_err, back.method) == (float(val), val.est_err, val.method)


# The quadrature evaluators hand product_integrate conjugate_symmetric=True,
# which evaluates half of each grid.  That needs f(z̄) = conj f(z) for every
# integrand, over each evaluator's accepted range, long jumps included.  At
# q = 0 the formulas around 1 no longer integrate, so only q > 0 is drawn.
JUMP = 60
TIMES = st.floats(0.0, 16.0)
RATES = st.floats(0.0, 2.0, exclude_min=True, exclude_max=True).filter(lambda q: q != 1.0)


def _sites(data, n, decreasing=False):
    sites = sorted(data.draw(st.lists(st.integers(-JUMP, JUMP), min_size=n,
                                      max_size=n, unique=True)))
    return sites[::-1] if decreasing else sites


def _draw_r_asep(data):
    n, q, t = data.draw(st.integers(1, 3)), data.draw(RATES), data.draw(TIMES)
    mu, nu = _sites(data, n, decreasing=True), data.draw(st.permutations(_sites(data, n)))
    return lambda: r_asep_transition(mu, nu, q, t)


def _draw_rainbow(data):
    n, q, t = data.draw(st.integers(1, 4)), data.draw(RATES), data.draw(TIMES)
    mu, nu = _sites(data, n, decreasing=True), _sites(data, n)
    return lambda: rainbow_total_crossing(mu, nu, q, t)


def _block_bounds(data, n):
    """The index ranges of a random split of n particles into colour blocks."""
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    return list(zip([0] + cuts, cuts + [n]))


def _draw_block_crossing(data):
    n = data.draw(st.integers(1, 3))
    bounds = _block_bounds(data, n)
    initial, final = _sites(data, n, decreasing=True), _sites(data, n)
    query = CrossingQuery(make_blocks([initial[a:b] for a, b in bounds], "initial"),
                          make_blocks([final[a:b][::-1] for a, b in bounds], "final"),
                          data.draw(RATES), data.draw(TIMES))
    return lambda: block_crossing(query)


def _draw_bernoulli(data):
    n = data.draw(st.integers(1, 3))
    m, t = data.draw(st.integers(0, n)), data.draw(TIMES)
    rho = data.draw(st.floats(0.0, 1.0, exclude_min=True))
    s1 = data.draw(st.integers(-JUMP, JUMP))
    s2 = s1 + n - m + data.draw(st.integers(0, JUMP))
    query = WallQuery(s1, s2, rho, n, m, t)
    return lambda: cumulative_crossing_bernoulli(query, form="direct")


class TestConjugateSymmetry:
    @pytest.mark.parametrize("draw", [
        _draw_r_asep, _draw_rainbow, _draw_block_crossing, _draw_bernoulli,
    ], ids=lambda draw: draw.__name__[len("_draw_"):])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_integrands_are_conjugate_symmetric(self, draw, data):
        # off the real axis, on 8 exactly mirrored nodes per axis at the
        # angles (2j + 1)π/8, the value at the mirrored node tuple is the
        # conjugate bit for bit.  At the real nodes c ± r, where numpy's
        # power of a negative real through exp and log has its branch cut,
        # the value is real to within the slice check's margin.
        import asepcross.formulas as formulas

        seen = []

        def recording(f, cp, **kwargs):
            assert kwargs["conjugate_symmetric"] is True
            seen.append((f, cp))
            return 0j, 0.0

        call = draw(data)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formulas, "product_integrate", recording)
            try:
                call()
            except AccuracyError:  # refused before any integrand was built
                reject()
        assert len(seen) == 1
        f, cp = seen[0]
        d = cp.dim

        def values_on(nodes):
            grid = OpenGrid((c.center + c.radius * nodes).reshape((1,) * k + (-1,) + (1,) * (d - 1 - k))
                            for k, c in enumerate(cp.contours))
            with np.errstate(all="ignore"):
                values = np.broadcast_to(f(grid), (nodes.size,) * d)
            if not np.isfinite(values).all():  # the driver refuses it as non-finite
                reject()
            return values

        half = np.exp(1j * np.pi / 8 * np.arange(1, 8, 2))
        values = values_on(np.concatenate((half, half[::-1].conj())))
        np.testing.assert_array_equal(values[np.ix_(*[np.arange(7, -1, -1)] * d)], values.conj())
        real = values_on(np.array([1.0, -1.0]))
        assert np.all(np.abs(real.imag) <= NOISE_MARGIN * ROUNDOFF * np.abs(real))


def _colours(blocks):
    """Sites and colours of blocks of sites, block c holding colour c + 1."""
    sites = sorted((x, c + 1) for c, block in enumerate(blocks) for x in block)
    return ParticleConfig(tuple(x for x, _ in sites), tuple(c for _, c in sites))


class TestQ0WindowOracle:
    """Every q = 0 crossing evaluator, and the Green's function,
    against the window master equation, within its est_err and
    ORACLE_ALLOWANCE, at long times and long jumps."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_green_within_est_err(self, data):
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(0, min(n, 2)))
        mu, nu = (sorted(data.draw(st.lists(st.integers(0, 12), min_size=n, max_size=n,
                                            unique=True))) for _ in range(2))
        p0, p = (sorted(data.draw(st.sets(st.integers(1, n), min_size=m, max_size=m)))
                 for _ in range(2))
        ini, fin = _two_species(mu, p0), _two_species(nu, p)
        t = data.draw(st.floats(0.0, 32.0))
        value = two_tasep_green(GreenQuery(ini, fin, t))
        gen = build_window_generator(ini, (min(mu + nu), max(mu + nu)), ModelParams(q=0.0))
        oracle, _ = expm_transition(gen, ini, fin, t)
        assert value.method == "laurent"
        assert abs(value - oracle) <= value.est_err + ORACLE_ALLOWANCE

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_value_within_est_err(self, data):
        n = data.draw(st.integers(1, 3))
        evaluator = data.draw(st.sampled_from(
            [two_tasep_crossing, tasep_block_crossing, rainbow_total_crossing]))
        if evaluator is two_tasep_crossing:
            m = data.draw(st.integers(0, n))
            bounds = [(a, b) for a, b in ((0, n - m), (n - m, n)) if a < b]
        elif evaluator is rainbow_total_crossing:
            bounds = [(i, i + 1) for i in range(n)]
        else:
            bounds = _block_bounds(data, n)
        mu, nu = (sorted(data.draw(st.lists(st.integers(0, 12), min_size=n, max_size=n,
                                            unique=True))) for _ in range(2))
        t = data.draw(st.floats(0.0, 32.0))
        # block c is the c-th from the right initially and from the left finally
        initial = [mu[::-1][a:b] for a, b in bounds]
        final = [nu[a:b][::-1] for a, b in bounds]
        if evaluator is two_tasep_crossing:
            value = two_tasep_crossing(mu, nu, m, t)
        elif evaluator is rainbow_total_crossing:
            value = rainbow_total_crossing(mu[::-1], nu, 0.0, t)
        else:
            value = tasep_block_crossing(CrossingQuery(
                make_blocks(initial, "initial"), make_blocks(final, "final"), 0.0, t))
        ini, fin = _colours(initial), _colours(final)
        gen = build_window_generator(ini, (min(mu + nu), max(mu + nu)), ModelParams(q=0.0))
        oracle, _ = expm_transition(gen, ini, fin, t)
        assert value.method == "laurent"
        assert abs(value - oracle) <= value.est_err + ORACLE_ALLOWANCE
